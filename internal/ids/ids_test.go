package ids

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestGroupIDClassD(t *testing.T) {
	g := NewGroupID(1)
	if g>>28 != 0xE {
		t.Fatalf("group %s not in Class D range", g)
	}
	if got := g.String(); got != "224.0.0.1" {
		t.Errorf("String = %q, want 224.0.0.1", got)
	}
	if NewGroupID(0x0FFFFFFF).String() != "239.255.255.255" {
		t.Error("top of Class-D range wrong")
	}
}

func TestGroupIDMasksHighBits(t *testing.T) {
	f := func(n uint32) bool { return NewGroupID(n)>>28 == 0xE }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTierString(t *testing.T) {
	cases := map[Tier]string{TierMH: "MH", TierAP: "AP", TierAG: "AG", TierBR: "BR"}
	for tier, want := range cases {
		if tier.String() != want {
			t.Errorf("%d.String() = %q, want %q", tier, tier.String(), want)
		}
		if !tier.Valid() {
			t.Errorf("tier %s should be valid", want)
		}
	}
	if Tier(9).Valid() {
		t.Error("tier 9 should be invalid")
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	for _, tier := range []Tier{TierAP, TierAG, TierBR} {
		for _, ord := range []int{0, 1, 7, 999, 123456} {
			n := MakeNodeID(tier, ord)
			if n.IsZero() {
				t.Fatalf("MakeNodeID(%s,%d) is zero", tier, ord)
			}
			if n.Tier() != tier {
				t.Errorf("tier round trip: got %s want %s", n.Tier(), tier)
			}
			if n.Ordinal() != ord {
				t.Errorf("ordinal round trip: got %d want %d", n.Ordinal(), ord)
			}
		}
	}
}

func TestNodeIDRoundTripProperty(t *testing.T) {
	f := func(ordRaw uint32, tierRaw uint8) bool {
		tier := Tier(tierRaw%3) + TierAP
		ord := int(ordRaw % (1 << 30))
		n := MakeNodeID(tier, ord)
		return n.Tier() == tier && n.Ordinal() == ord && !n.IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDUniqueAcrossTiers(t *testing.T) {
	a := MakeNodeID(TierAP, 5)
	b := MakeNodeID(TierAG, 5)
	c := MakeNodeID(TierBR, 5)
	if a == b || b == c || a == c {
		t.Error("same ordinal in different tiers must differ")
	}
}

func TestNodeIDString(t *testing.T) {
	if got := MakeNodeID(TierAP, 17).String(); got != "AP-17" {
		t.Errorf("String = %q", got)
	}
	if NoNode.String() != "none" {
		t.Errorf("NoNode.String() = %q", NoNode.String())
	}
}

func TestMakeNodeIDMHTier(t *testing.T) {
	n := MakeNodeID(TierMH, 3)
	if n.Tier() != TierMH || n.Ordinal() != 3 || n.IsZero() {
		t.Fatalf("MH NodeID round trip failed: %s", n)
	}
	if n.String() != "MH-3" {
		t.Fatalf("String = %q", n.String())
	}
}

func TestMakeNodeIDPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad tier": func() { MakeNodeID(Tier(7), 0) },
		"negative": func() { MakeNodeID(TierAP, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLUID(t *testing.T) {
	l := LUID{AP: MakeNodeID(TierAP, 4), Local: 7}
	if got := l.String(); got != "coa(AP-4/7)" {
		t.Errorf("String = %q", got)
	}
}

func TestStatus(t *testing.T) {
	if !StatusOperational.Operational() {
		t.Error("operational should be operational")
	}
	for _, s := range []Status{StatusTempDisc, StatusVoluntaryDisc, StatusFailed} {
		if s.Operational() {
			t.Errorf("%s should not be operational", s)
		}
	}
	if StatusFailed.String() != "failed" {
		t.Errorf("String = %q", StatusFailed.String())
	}
}

func member(g uint64) MemberInfo {
	return MemberInfo{
		GID:    NewGroupID(1),
		GUID:   GUID(g),
		AP:     MakeNodeID(TierAP, int(g%10)),
		Status: StatusOperational,
	}
}

func TestMemberListPutGetRemove(t *testing.T) {
	l := NewMemberList()
	if l.Len() != 0 {
		t.Fatal("new list not empty")
	}
	l.Put(member(1))
	l.Put(member(2))
	l.Put(member(3))
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if m, ok := l.Get(2); !ok || m.GUID != 2 {
		t.Fatal("Get(2) failed")
	}
	if !l.Remove(2) {
		t.Fatal("Remove(2) reported absent")
	}
	if l.Remove(2) {
		t.Fatal("second Remove(2) reported present")
	}
	if l.Contains(2) {
		t.Fatal("2 still present after remove")
	}
	if l.Len() != 2 {
		t.Fatalf("Len after remove = %d", l.Len())
	}
}

func TestMemberListUpdateKeepsOrder(t *testing.T) {
	l := NewMemberList()
	l.Put(member(1))
	l.Put(member(2))
	updated := member(1)
	updated.Status = StatusFailed
	l.Put(updated)
	if l.Len() != 2 {
		t.Fatalf("update should not grow list: %d", l.Len())
	}
	got := l.Snapshot()
	if got[0].GUID != 1 || got[1].GUID != 2 {
		t.Fatalf("order changed by update: %v", got)
	}
	if m, _ := l.Get(1); m.Status != StatusFailed {
		t.Fatal("update not applied")
	}
}

func TestMemberListDeterministicOrder(t *testing.T) {
	l := NewMemberList()
	for g := uint64(10); g > 0; g-- {
		l.Put(member(g))
	}
	want := uint64(10)
	l.Each(func(m MemberInfo) {
		if uint64(m.GUID) != want {
			t.Fatalf("iteration order broken: got %d want %d", m.GUID, want)
		}
		want--
	})
}

func TestMemberListClear(t *testing.T) {
	l := NewMemberList()
	l.Put(member(1))
	l.Put(member(2))
	l.Clear()
	if l.Len() != 0 || l.Contains(1) {
		t.Fatal("Clear left data behind")
	}
	l.Put(member(5))
	if l.Len() != 1 {
		t.Fatal("list unusable after Clear")
	}
}

func TestMemberListSnapshotIsolated(t *testing.T) {
	l := NewMemberList()
	l.Put(member(1))
	snap := l.Snapshot()
	l.Remove(1)
	if len(snap) != 1 || snap[0].GUID != 1 {
		t.Fatal("snapshot affected by later mutation")
	}
}

// TestMemberInfoSize pins the record's layout: every MemberList slot,
// every mq.Change and every query answer is made of these, and the
// field order is what keeps GID, Status and Ver in one word.
func TestMemberInfoSize(t *testing.T) {
	if got := unsafe.Sizeof(MemberInfo{}); got != 40 {
		t.Fatalf("MemberInfo is %d bytes, want 40", got)
	}
}

// TestVerAfter: versions order by serial-number arithmetic, so a
// member's versions stay ordered across the wrap from 65535 to 0, and
// no version is after itself.
func TestVerAfter(t *testing.T) {
	for _, c := range []struct {
		a, b  uint16
		after bool
	}{
		{1, 0, true}, {0, 1, false}, {5, 5, false},
		{0, 65535, true}, {65535, 0, false}, {3, 65530, true},
		{32767, 0, true}, {0, 32767, false}, {40000, 10000, true},
	} {
		if got := VerAfter(c.a, c.b); got != c.after {
			t.Errorf("VerAfter(%d, %d) = %v, want %v", c.a, c.b, got, c.after)
		}
	}
}

// TestMemberListSharedUntilChange: Shared hands every caller the same
// slice, without allocating, until the list changes; then the next
// caller gets a new one and the old one still reads as it did.
func TestMemberListSharedUntilChange(t *testing.T) {
	l := NewMemberList()
	if l.Shared() != nil {
		t.Fatal("Shared of an empty list is not nil")
	}
	l.Put(member(1))
	l.Put(member(2))
	first := l.Shared()
	if len(first) != 2 || cap(first) != 2 {
		t.Fatalf("Shared = %v (cap %d), want 2 members at capacity 2", first, cap(first))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if again := l.Shared(); &again[0] != &first[0] {
			t.Fatal("an unchanged list built a second shared slice")
		}
	}); allocs != 0 {
		t.Fatalf("Shared of an unchanged list allocates %.1f objects", allocs)
	}
	l.Remove(1)
	if next := l.Shared(); len(next) != 1 || next[0].GUID != 2 {
		t.Fatalf("Shared after Remove = %v", next)
	}
	if first[0].GUID != 1 || first[1].GUID != 2 {
		t.Fatalf("an earlier shared slice changed to %v", first)
	}
}

// TestMemberListBorrowAllocatesNothing: with a dead slot in the middle,
// Borrow squeezes it out in place and hands back the list's own slots,
// live members only and no spare capacity, without allocating.
func TestMemberListBorrowAllocatesNothing(t *testing.T) {
	l := NewMemberList()
	for g := uint64(1); g <= 8; g++ {
		l.Put(member(g))
	}
	l.Remove(3) // one dead slot of eight: under the compaction threshold
	want := l.Snapshot()
	var got []MemberInfo
	if allocs := testing.AllocsPerRun(100, func() { got = l.Borrow() }); allocs != 0 {
		t.Fatalf("Borrow allocates %.1f objects", allocs)
	}
	if !slices.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("Borrow = %v (cap %d), want %v at capacity %d", got, cap(got), want, len(want))
	}
}

func TestMemberListSetSemanticsProperty(t *testing.T) {
	// Inserting any sequence of GUIDs then removing them all leaves an
	// empty list; Len always equals the number of distinct live GUIDs.
	f := func(ops []uint8) bool {
		l := NewMemberList()
		live := map[GUID]bool{}
		for _, op := range ops {
			g := GUID(op % 16)
			if op&0x80 == 0 {
				l.Put(member(uint64(g)))
				live[g] = true
			} else {
				l.Remove(g)
				delete(live, g)
			}
			if l.Len() != len(live) {
				return false
			}
		}
		for g := range live {
			if !l.Contains(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
