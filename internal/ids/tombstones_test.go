package ids

import (
	"fmt"
	"math/rand/v2"
	"sync"
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
//	kind&0x20      colliding keys, whatever kind&0x40: key k names
//	               sharedHomeKeys()[k mod 64], not k
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
		if kind&0x20 != 0 {
			keys := sharedHomeKeys()
			g = keys[int(key)%len(keys)]
		}
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
// model burial found by Get and Each walking the model's window in its
// order, Each walks exactly the model's set: the index entries point at
// distinct ring slots, so the ring holds no GUID twice.
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
	i := 0
	got.Each(func(id GUID, v uint16) {
		if rv := ref.gone[id]; err == nil && (id != ref.goneQ.keys[i] || v != rv) {
			err = fmt.Errorf("Each walked %s at %#04x in place %d, model %s at %#04x", id, v, i, ref.goneQ.keys[i], rv)
		}
		i++
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
// runTombstoneOps, seeded with a short random stream under each limit
// and with sharedHomeStream.
func FuzzTombstonesModel(f *testing.F) {
	rng := rand.New(rand.NewPCG(44, 2))
	for l := range tombLimits {
		f.Add(tombStream(rng, l, 300))
	}
	f.Add(sharedHomeStream())
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runTombstoneOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// sharedHomes returns the first n GUIDs counting up from 1 whose keyed
// hashes under testSeed carry tag bits 0 and whose home entry in an
// 8 192-entry index, the largest a 4 096 window's grows to, is 0 or 1;
// in every smaller index they share the same homes. Half of them, about,
// sit at each home, so a backward shift both moves entries (those homed
// at 0, past a hole at 0) and passes over them (those homed at 1).
func sharedHomes(n int) []GUID {
	out := make([]GUID, 0, n)
	for g := GUID(1); len(out) < n; g++ {
		if h := hashGUID(g); h>>29 == 0 && h&8191 <= 1 {
			out = append(out, g)
		}
	}
	return out
}

// sharedHomeKeys is the key space of kind&0x20: 64 GUIDs of sharedHomes.
var sharedHomeKeys = sync.OnceValue(func() []GUID { return sharedHomes(64) })

// sharedHomeStream is an operation stream under a window of 8 that
// buries the 64 colliding keys in turn, a fresh burial each, so every
// burial past the eighth evicts; after every third it re-buries one of
// the window one version past or before the latest. Its one probe run
// spans the index.
func sharedHomeStream() []byte {
	data := []byte{7} // tombLimits[7] == 8
	for i := range 600 {
		data = append(data, 0x20, byte(i), byte(i/3))
		if i%3 == 2 {
			data = append(data, 0x26, byte(i), byte(i/3-1+2*(i%2)))
		}
	}
	return data
}

// TestTombstonesSharedHomes fills a 4 096 window and runs three more
// windows of fresh burials, each evicting the oldest, with a re-burial
// after every seventh. Every other fresh burial is a GUID that shares
// its tag bits and one of two adjacent home entries with the others
// (sharedHomes), so their probe run spans thousands of entries and every
// tag in it matches; the rest are GUIDs whose hashes spread, most of
// them sitting at their own home inside that run. A backward shift must
// then move the colliding entries back past those and leave those in
// place, finding each entry's home by hashing the GUID at its ring slot.
// After every operation the burial's result, Len, and Get of the buried,
// the evicted and one random buried GUID agree with refTombstones; every
// 512 operations and at the end checkTombstones compares the window.
func TestTombstonesSharedHomes(t *testing.T) {
	const limit = 4096
	shared := sharedHomes(limit/2 + 64)
	got := NewTombstones(limit)
	ref := refTombstones{goneQ: refWindow{limit: limit}}
	rng := rand.New(rand.NewPCG(44, 3))
	check := func(op int, g GUID) {
		w, ok := got.Get(g)
		if rw, rok := ref.gone[g]; got.Len() != len(ref.gone) || w != rw || ok != rok {
			t.Fatalf("op %d: Len %d, Get(%s) = %#04x %v; model %d, %#04x %v", op, got.Len(), g, w, ok, len(ref.gone), rw, rok)
		}
	}
	fresh, evictions := 0, 0
	for op := 1; evictions < 3*limit; op++ {
		g, v := shared[fresh/2%len(shared)], uint16(op)
		switch {
		case op%7 == 0:
			g, v = ref.goneQ.keys[rng.IntN(len(ref.goneQ.keys))], uint16(rng.Uint32())
		case fresh%2 == 1:
			g = GUID(1)<<40 + GUID(fresh)
			fallthrough
		default:
			fresh++
		}
		changed, evicted := got.Bury(g, v)
		wantChanged, wantEvicted := ref.bury(g, v)
		if changed != wantChanged || evicted != wantEvicted {
			t.Fatalf("op %d: Bury(%s, %#04x) = %v %s, model %v %s", op, g, v, changed, evicted, wantChanged, wantEvicted)
		}
		if evicted != 0 {
			evictions++
			check(op, evicted)
		}
		check(op, g)
		check(op, ref.goneQ.keys[rng.IntN(len(ref.goneQ.keys))])
		if op%512 == 0 {
			if err := checkTombstones(&got, &ref, g); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := checkTombstones(&got, &ref, 0); err != nil {
		t.Fatal(err)
	}
}

// TestTombstoneBytes counts what a window holds per burial, exactly:
// 8 bytes for each GUID ring slot and 2 for each version slot and each
// index entry, capacity included. 477 burials are what each entity of
// sim_change_settle holds; a full 4 096 window is counted after a
// window's worth of evictions. Neither may exceed 16 bytes a burial.
func TestTombstoneBytes(t *testing.T) {
	for _, buried := range []int{477, 2 * 4096} {
		w := NewTombstones(4096)
		for g := range buried {
			w.Bury(GUID(g+1), 1)
		}
		bytes := 8*cap(w.guids) + 2*cap(w.vers) + 2*len(w.index)
		per := float64(bytes) / float64(w.Len())
		t.Logf("%d burials, %d held: %d bytes, %.1f a burial", buried, w.Len(), bytes, per)
		if per > 16 {
			t.Errorf("%d burials: %.1f bytes a burial, want at most 16", buried, per)
		}
	}
}
