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

func (l *refList) MergeFrom(other *refList) int {
	added := 0
	for _, g := range other.order {
		if _, ok := l.byID[g]; !ok {
			l.Put(other.byID[g])
			added++
		}
	}
	return added
}

func (l *refList) String() string {
	names := make([]string, len(l.order))
	for i, g := range l.order {
		names[i] = g.String()
	}
	return fmt.Sprintf("%d members [%s]", len(l.order), strings.Join(names, " "))
}

// modelPair is one MemberList beside its model.
type modelPair struct {
	got MemberList
	ref refList
}

// check compares everything the list can be asked with the model. g is
// the GUID the last operation named.
func (p *modelPair) check(g GUID) error {
	if p.got.Len() != p.ref.Len() {
		return fmt.Errorf("Len = %d, model %d", p.got.Len(), p.ref.Len())
	}
	m, ok := p.got.Get(g)
	rm, rok := p.ref.Get(g)
	if m != rm || ok != rok || p.got.Contains(g) != rok {
		return fmt.Errorf("Get(%s) = %v %v, Contains %v, model %v %v", g, m, ok, p.got.Contains(g), rm, rok)
	}
	want := p.ref.Snapshot()
	if snap := p.got.Snapshot(); !slices.Equal(snap, want) {
		return fmt.Errorf("Snapshot = %v, model %v", snap, want)
	}
	walked := make([]MemberInfo, 0, len(want))
	p.got.Each(func(m MemberInfo) { walked = append(walked, m) })
	if !slices.Equal(walked, want) {
		return fmt.Errorf("Each walked %v, model %v", walked, want)
	}
	if guids := p.got.GUIDs(); !slices.Equal(guids, p.ref.order) {
		return fmt.Errorf("GUIDs = %v, model %v", guids, p.ref.order)
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

// runModelOps decodes data into list operations, three bytes each
// (kind, key, status), applies them to two lists and their models, and
// compares after every one.
//
//	kind&0x80      which of the two lists the operation is on
//	kind&0x0f      0-4   Put of the first absent GUID at or after key
//	               5-7   Put over the (key mod Len)-th member
//	               8-12  Remove of the (key mod Len)-th member
//	               13-14 Remove of a GUID outside the key space
//	               15   key&31 == 0: Clear; == 1: MergeFrom itself;
//	                    otherwise MergeFrom the other list
//
// status goes into the record as it is: a list must hold any byte.
func runModelOps(data []byte) error {
	var pairs [2]modelPair
	for op := 0; len(data) >= 3; op++ {
		kind, key, status := data[0], int(data[1]), Status(data[2])
		data = data[3:]
		p, other := &pairs[kind>>7], &pairs[1-kind>>7]
		rec := MemberInfo{
			GID:    NewGroupID(uint32(status)),
			LUID:   LUID{Local: uint32(op)}, // tells an overwrite from the record it replaced
			AP:     MakeNodeID(TierAP, key),
			Status: status,
		}
		g := GUID(key % modelKeys)
		switch k := kind & 0x0f; {
		case k <= 4:
			for i := 0; i < modelKeys; i++ {
				if _, taken := p.ref.byID[g]; !taken {
					break
				}
				g = (g + 1) % modelKeys
			}
			rec.GUID = g
			p.got.Put(rec)
			p.ref.Put(rec)
		case k <= 7:
			if n := p.ref.Len(); n > 0 {
				g = p.ref.order[key%n]
			}
			rec.GUID = g
			p.got.Put(rec)
			p.ref.Put(rec)
		case k <= 12:
			if n := p.ref.Len(); n > 0 {
				g = p.ref.order[key%n]
			}
			if got, want := p.got.Remove(g), p.ref.Remove(g); got != want {
				return fmt.Errorf("op %d: Remove(%s) = %v, model %v", op, g, got, want)
			}
		case k <= 14:
			g += modelKeys
			if p.got.Remove(g) {
				return fmt.Errorf("op %d: Remove(%s) of an absent member reported present", op, g)
			}
		case key&31 == 0:
			p.got.Clear()
			p.ref.Clear()
		case key&31 == 1:
			if added := p.got.MergeFrom(&p.got); added != 0 {
				return fmt.Errorf("op %d: MergeFrom itself added %d", op, added)
			}
		default:
			if got, want := p.got.MergeFrom(&other.got), p.ref.MergeFrom(&other.ref); got != want {
				return fmt.Errorf("op %d: MergeFrom added %d, model %d", op, got, want)
			}
		}
		if err := p.check(g); err != nil {
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
// removals, a compaction and members with Status 0xFF.
func FuzzMemberListModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runModelOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
