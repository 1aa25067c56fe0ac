package ids

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// refList is the representation MemberList had before it went dense:
// the insertion order as a slice of GUIDs, the records in a map, Remove
// by linear scan. It stays as the model the real list is compared with.
type refList struct {
	order []GUID
	byID  map[GUID]MemberInfo
}

func (l *refList) Len() int { return len(l.order) }

func (l *refList) Get(id GUID) (MemberInfo, bool) {
	m, ok := l.byID[id]
	return m, ok
}

func (l *refList) Put(m MemberInfo) {
	if l.byID == nil {
		l.byID = make(map[GUID]MemberInfo)
	}
	if _, ok := l.byID[m.GUID]; !ok {
		l.order = append(l.order, m.GUID)
	}
	l.byID[m.GUID] = m
}

func (l *refList) Remove(id GUID) bool {
	if _, ok := l.byID[id]; !ok {
		return false
	}
	delete(l.byID, id)
	i := slices.Index(l.order, id)
	l.order = append(l.order[:i], l.order[i+1:]...)
	return true
}

func (l *refList) Snapshot() []MemberInfo {
	out := make([]MemberInfo, 0, len(l.order))
	for _, g := range l.order {
		out = append(out, l.byID[g])
	}
	return out
}

func (l *refList) Clear() {
	l.order = l.order[:0]
	clear(l.byID)
}

func (l *refList) String() string {
	names := make([]string, len(l.order))
	for i, g := range l.order {
		names[i] = g.String()
	}
	return fmt.Sprintf("%d members [%s]", len(l.order), strings.Join(names, " "))
}

// modelPair is one MemberList beside its model, and the model's
// Snapshot at the last check.
type modelPair struct {
	got  MemberList
	ref  refList
	want []MemberInfo
}

// check compares everything the list can be asked with the model. g is
// the GUID the last operation named. String, a rendering of what Len and
// GUIDs already compare, is compared only when render is set: formatting
// every member after every operation would be most of the run's time.
func (p *modelPair) check(g GUID, render bool) error {
	if p.got.Len() != p.ref.Len() {
		return fmt.Errorf("Len = %d, model %d", p.got.Len(), p.ref.Len())
	}
	m, ok := p.got.Get(g)
	rm, rok := p.ref.Get(g)
	if m != rm || ok != rok || p.got.Contains(g) != rok {
		return fmt.Errorf("Get(%s) = %v %v, Contains %v, model %v %v", g, m, ok, p.got.Contains(g), rm, rok)
	}
	want := p.ref.Snapshot()
	p.want = want
	if snap := p.got.Snapshot(); !slices.Equal(snap, want) {
		return fmt.Errorf("Snapshot = %v, model %v", snap, want)
	}
	if shared := p.got.Shared(); !slices.Equal(shared, want) || cap(shared) != len(shared) {
		return fmt.Errorf("Shared = %v (cap %d), model %v", shared, cap(shared), want)
	}
	for _, rm := range want { // every live member, so a broken index shows at once
		if m, ok := p.got.Get(rm.GUID); m != rm || !ok {
			return fmt.Errorf("Get(%s) = %v %v, model %v", rm.GUID, m, ok, rm)
		}
	}
	walked := make([]MemberInfo, 0, len(want))
	p.got.Each(func(m MemberInfo) { walked = append(walked, m) })
	if !slices.Equal(walked, want) {
		return fmt.Errorf("Each walked %v, model %v", walked, want)
	}
	if !render {
		return nil
	}
	if s := p.got.String(); s != p.ref.String() {
		return fmt.Errorf("String = %q, model %q", s, p.ref.String())
	}
	return nil
}

// modelKeys is the GUID space the decoded operations draw from: small,
// so that lists fill up, empty out and cross the compaction threshold
// over and over, and above 64, so that the dead marks span words.
const modelKeys = 72

// modelGUID is the GUID model key k names. With wide keys the GUIDs
// spread over the 64-bit space: even keys step up by 2^32 from 2^32,
// odd keys down by 2^40 from the top. Each family agrees in its low 32
// bits, so under a weak mix its hashes would share their low bits and
// pile into one probe run.
func modelGUID(k GUID, wide bool) GUID {
	switch {
	case !wide:
		return k
	case k%2 == 0:
		return (k/2 + 1) << 32
	default:
		return ^GUID(0) - (k/2)<<40
	}
}

// runModelOps decodes data into list operations, three bytes each
// (kind, key, status), applies them to two lists and their models, and
// compares after every one.
//
//	kind&0x80      which of the two lists the operation is on
//	kind&0x40      wide keys: key k names GUID modelGUID(k, true), not k
//	kind&0x0f      0-4   Put of the first absent GUID at or after key
//	               5-7   Put over the (key mod Len)-th member
//	               8-12  Remove of the (key mod Len)-th member
//	               13-14 Remove of a GUID outside the key space
//	               15   key&31 == 0: Clear; key&31 == 31: Borrow;
//	                    otherwise only the check
//
// status goes into the record as it is: a list must hold any byte.
//
// A Shared slice taken before each operation equals the model's
// Snapshot at that moment (check compared them when the list last
// changed) and must still equal it after the operation: the list drops
// its shared slice on a change, it never writes into it, and Borrow's
// compaction moves only the list's own slots. Borrow is an operation of
// its own rather than part of check, so the dead slots it squeezes out
// stay in place for the operations that follow the others.
func runModelOps(data []byte) error {
	var pairs [2]modelPair
	for op := 0; len(data) >= 3; op++ {
		kind, key, status := data[0], int(data[1]), Status(data[2])
		data = data[3:]
		p := &pairs[kind>>7]
		shared, before := p.got.Shared(), p.want
		rec := MemberInfo{
			GID:    NewGroupID(uint32(status)),
			LUID:   LUID{Local: uint32(op)}, // tells an overwrite from the record it replaced
			AP:     MakeNodeID(TierAP, key),
			Status: status,
		}
		wide := kind&0x40 != 0
		k := GUID(key % modelKeys)
		g := modelGUID(k, wide)
		switch c := kind & 0x0f; {
		case c <= 4:
			for i := 0; i < modelKeys; i++ {
				if _, taken := p.ref.byID[g]; !taken {
					break
				}
				k = (k + 1) % modelKeys
				g = modelGUID(k, wide)
			}
			rec.GUID = g
			p.got.Put(rec)
			p.ref.Put(rec)
		case c <= 7:
			if n := p.ref.Len(); n > 0 {
				g = p.ref.order[key%n]
			}
			rec.GUID = g
			p.got.Put(rec)
			p.ref.Put(rec)
		case c <= 12:
			if n := p.ref.Len(); n > 0 {
				g = p.ref.order[key%n]
			}
			if got, want := p.got.Remove(g), p.ref.Remove(g); got != want {
				return fmt.Errorf("op %d: Remove(%s) = %v, model %v", op, g, got, want)
			}
		case c <= 14:
			g = modelGUID(k+modelKeys, wide)
			if p.got.Remove(g) {
				return fmt.Errorf("op %d: Remove(%s) of an absent member reported present", op, g)
			}
		case key&31 == 0:
			p.got.Clear()
			p.ref.Clear()
		case key&31 == 31:
			if b, want := p.got.Borrow(), p.ref.Snapshot(); !slices.Equal(b, want) || cap(b) != len(b) {
				return fmt.Errorf("op %d: Borrow = %v (cap %d), model %v", op, b, cap(b), want)
			}
		}
		if !slices.Equal(shared, before) {
			return fmt.Errorf("op %d (kind %#02x key %d): the Shared slice taken before it changed to %v, was %v", op, kind, key, shared, before)
		}
		if err := p.check(g, op%16 == 0 || len(data) < 3); err != nil {
			return fmt.Errorf("op %d (kind %#02x key %d): %w", op, kind, key, err)
		}
	}
	return nil
}

func TestMemberListMatchesModel(t *testing.T) {
	const ops = 200_000
	rng := rand.New(rand.NewPCG(23, 4))
	data := make([]byte, 3*ops)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	if err := runModelOps(data); err != nil {
		t.Fatal(err)
	}
}

// FuzzMemberListModel feeds arbitrary operation streams through
// runModelOps; the committed corpus under testdata/fuzz covers tail
// removals, a compaction, members with Status 0xFF, an index grown
// past ¾ load four times, a removal whose backward shift wraps past the
// table's end, a Clear followed by regrowth, a compaction that
// repoints a displaced entry, and Borrows that squeeze a dead slot out
// of the middle of the list. The layouts those entries reach hold
// under the seed TestMain pins.
func FuzzMemberListModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runModelOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
