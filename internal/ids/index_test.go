package ids

import (
	"fmt"
	"os"
	"slices"
	"testing"
)

// testSeed pins hashGUID's key in this package's tests, so an index
// layout, and with it a failing fuzz corpus entry, replays exactly.
const testSeed = 0x9d5e3b1a77c40f21

func TestMain(m *testing.M) {
	hashSeed = testSeed
	os.Exit(m.Run())
}

// meanDisplacement is the mean distance, in entries, from each live
// member's home entry to the entry that holds it.
func meanDisplacement(l *MemberList) float64 {
	mask := len(l.index) - 1
	sum := 0
	for e, x := range l.index {
		if x != 0 {
			sum += (e - int(x>>32)) & mask
		}
	}
	return float64(sum) / float64(l.Len())
}

// TestMemberListIndexBytes pins the index's footprint per live member
// in steady state; a map[GUID]int32 costs 24-37 bytes at these sizes.
func TestMemberListIndexBytes(t *testing.T) {
	for _, n := range []int{64, 1000, 2000, 3072, 10000} {
		l, _ := churnList(n)
		per := float64(8*cap(l.index)) / float64(l.Len())
		t.Logf("n=%d: %d entries, %.1f bytes per member", n, cap(l.index), per)
		if per > 24 {
			t.Errorf("n=%d: index costs %.1f bytes per member, want at most 24", n, per)
		}
	}
}

// TestMemberListProbeLength builds lists of GUIDs in arithmetic
// progressions, strides chosen so the GUIDs share low bits or differ
// only above bit 32, and bounds how far the probe runs push a member
// from its home entry. 3 071 members are the most a 4 096-entry table
// holds, the highest load the index reaches.
func TestMemberListProbeLength(t *testing.T) {
	for _, stride := range []GUID{1, 3, 1 << 16, 1 << 32, 1 << 40} {
		for _, n := range []int{2000, 3071, 3072, 100_000} {
			var l MemberList
			for i := 1; i <= n; i++ {
				l.Put(MemberInfo{GUID: GUID(i) * stride})
			}
			d := meanDisplacement(&l)
			t.Logf("stride %d, n=%d: mean displacement %.2f", stride, n, d)
			if d > 2 {
				t.Errorf("stride %d, n=%d: mean displacement %.2f entries, want at most 2", stride, n, d)
			}
		}
	}
}

// TestMemberListHashCollision puts two GUIDs whose 32-bit hashes are
// equal under testSeed: a probe that trusted the hash alone would
// answer for the wrong member.
func TestMemberListHashCollision(t *testing.T) {
	a, b := GUID(7644), GUID(100591)
	if hashGUID(a) != hashGUID(b) {
		t.Fatalf("hashGUID(%d) = %#x and hashGUID(%d) = %#x: pick a colliding pair for this hash", a, hashGUID(a), b, hashGUID(b))
	}
	var l MemberList
	l.Put(member(uint64(a)))
	l.Put(member(uint64(b)))
	for _, g := range []GUID{a, b} {
		if m, ok := l.Get(g); !ok || m != member(uint64(g)) {
			t.Fatalf("Get(%d) = %v %v", g, m, ok)
		}
	}
	if !l.Remove(a) || l.Contains(a) || !l.Contains(b) || l.Len() != 1 {
		t.Fatalf("after Remove(%d): %v", a, &l)
	}
}

// TestMemberListSeedChangesLayout checks that the index is keyed: the
// same GUIDs, put in the same order under two seeds, land in different
// entries, while what the list reports stays the same.
func TestMemberListSeedChangesLayout(t *testing.T) {
	defer func() { hashSeed = testSeed }()
	build := func(seed uint64) ([]uint64, string) {
		hashSeed = seed
		var l MemberList
		for g := GUID(1); g <= 100; g++ {
			l.Put(MemberInfo{GUID: g << 32})
		}
		return slices.Clone(l.index), fmt.Sprint(l.Snapshot())
	}
	a, snapA := build(1)
	b, snapB := build(2)
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 gave the same index layout")
	}
	if snapA != snapB {
		t.Errorf("the seed reached the list's contents:\n%s\n%s", snapA, snapB)
	}
}
