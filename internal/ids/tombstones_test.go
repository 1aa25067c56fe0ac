package ids

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// refWindow and refTombstones are the removal window core kept before
// Tombstones: a Go map of versions capped FIFO-style by a window of
// GUIDs. They stay as the model Tombstones is compared with.
type refWindow struct {
	keys  []GUID
	head  int // index of the oldest key once the window is full
	limit int
}

func (w *refWindow) push(k GUID) (evicted GUID, full bool) {
	if len(w.keys) < w.limit {
		w.keys = append(w.keys, k)
		return evicted, false
	}
	evicted, w.keys[w.head] = w.keys[w.head], k
	w.head = (w.head + 1) % w.limit
	return evicted, true
}

type refTombstones struct {
	gone  map[GUID]uint16
	goneQ refWindow
}

func (n *refTombstones) bury(g GUID, v uint16) (changed bool, evicted GUID) {
	if old, ok := n.gone[g]; ok {
		if !VerAfter(v, old) {
			return false, 0
		}
		n.gone[g] = v
		return true, 0
	}
	if n.gone == nil {
		n.gone = make(map[GUID]uint16)
	}
	n.gone[g] = v
	if old, full := n.goneQ.push(g); full {
		delete(n.gone, old)
		return true, old
	}
	return true, 0
}

// tombLimits are the windows an operation stream can run under, picked
// by its first byte: small ones that evict all the time, and core's.
var tombLimits = [...]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 4096}

// runTombstoneOps decodes data into Tombstones operations and applies
// them to a window and its model: the first byte picks the limit from
// tombLimits, then three bytes (kind, key, ver) make one operation.
//
//	kind&0x80      ver spreads over the 16-bit space (ver<<8 | key); else
//	               it is int8(ver), so versions wrap through 0
//	kind&0x40      wide keys: key k names GUID modelGUID(k, true), not k
//	kind&0x07      0-3  Bury of the key's GUID
//	               4-5  Bury of a GUID never named before
//	               6    Bury of the (key mod Len)-th GUID the model holds
//	               7    Get only
//
// Every Bury reports the same change and the same evicted GUID as the
// model's. After every operation Get of the operation's GUID and of one
// outside every key space, Len, and the set Each walks agree with the
// model. It returns the number of burials that evicted an older one.
func runTombstoneOps(data []byte) (evictions int, err error) {
	if len(data) == 0 {
		return 0, nil
	}
	limit := tombLimits[int(data[0])%len(tombLimits)]
	got := NewTombstones(limit)
	ref := refTombstones{goneQ: refWindow{limit: limit}}
	data = data[1:]
	bury := func(g GUID, v uint16) error {
		if _, had := ref.gone[g]; !had && len(ref.goneQ.keys) == limit {
			evictions++
		}
		changed, evicted := got.Bury(g, v)
		if want, wantEvicted := ref.bury(g, v); changed != want || evicted != wantEvicted {
			return fmt.Errorf("Bury(%s, %#04x) = %v %s, model %v %s", g, v, changed, evicted, want, wantEvicted)
		}
		return nil
	}
	for op := 0; len(data) >= 3; op++ {
		kind, key, vb := data[0], data[1], data[2]
		data = data[3:]
		v := uint16(int8(vb))
		if kind&0x80 != 0 {
			v = uint16(vb)<<8 | uint16(key)
		}
		g := modelGUID(GUID(key%modelKeys), kind&0x40 != 0)
		var err error
		switch c := kind & 0x07; {
		case c <= 3:
			err = bury(g, v)
		case c <= 5:
			g = GUID(0xf7)<<56 + GUID(op)
			err = bury(g, v)
		case c == 6:
			if n := len(ref.goneQ.keys); n > 0 {
				g = ref.goneQ.keys[int(key)%n]
			}
			err = bury(g, v)
		}
		if err == nil {
			err = checkTombstones(&got, &ref, g)
		}
		if err != nil {
			return evictions, fmt.Errorf("op %d (kind %#02x key %d ver %#04x, limit %d): %w", op, kind, key, v, limit, err)
		}
	}
	return evictions, nil
}

// checkTombstones compares got with the model. With Len equal, every
// model burial found by Get and every pair Each walks in the model, Each
// walks exactly the model's set: the index entries point at distinct
// ring slots, so the ring holds no GUID twice.
func checkTombstones(got *Tombstones, ref *refTombstones, g GUID) error {
	if got.Len() != len(ref.gone) {
		return fmt.Errorf("Len = %d, model %d", got.Len(), len(ref.gone))
	}
	for _, id := range []GUID{g, GUID(0xf8) << 56} {
		v, ok := got.Get(id)
		rv, rok := ref.gone[id]
		if v != rv || ok != rok {
			return fmt.Errorf("Get(%s) = %#04x %v, model %#04x %v", id, v, ok, rv, rok)
		}
	}
	for id, rv := range ref.gone {
		if v, ok := got.Get(id); v != rv || !ok {
			return fmt.Errorf("Get(%s) = %#04x %v, model %#04x", id, v, ok, rv)
		}
	}
	var err error
	got.Each(func(id GUID, v uint16) {
		if rv, ok := ref.gone[id]; err == nil && (!ok || v != rv) {
			err = fmt.Errorf("Each walked %s at %#04x, model %#04x %v", id, v, rv, ok)
		}
	})
	return err
}

// tombStream is a random operation stream of n operations under the
// limit tombLimits[l].
func tombStream(rng *rand.Rand, l, n int) []byte {
	data := make([]byte, 1+3*n)
	data[0] = byte(l)
	for i := 1; i < len(data); i++ {
		data[i] = byte(rng.Uint32())
	}
	return data
}

// TestTombstonesMatchesModel runs every limit on one random stream; the
// 4096 window's is long enough to fill it with fresh GUIDs and evict.
func TestTombstonesMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	for l, limit := range tombLimits {
		evictions, err := runTombstoneOps(tombStream(rng, l, 20_000))
		if err != nil {
			t.Fatal(err)
		}
		if evictions == 0 {
			t.Errorf("limit %d: the stream never filled the window", limit)
		}
	}
}

// FuzzTombstonesModel feeds arbitrary operation streams through
// runTombstoneOps, seeded with a short random stream under each limit.
func FuzzTombstonesModel(f *testing.F) {
	rng := rand.New(rand.NewPCG(44, 2))
	for l := range tombLimits {
		f.Add(tombStream(rng, l, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runTombstoneOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
