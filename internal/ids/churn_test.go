package ids

import (
	"fmt"
	"testing"
	"time"
)

// churn removes the member in the middle of the list and puts a fresh
// GUID at its end, count times. The list holds the n GUIDs ending at
// *next; its first half is never touched, so every hole opens behind
// n/2 live slots and every compaction moves the other half.
func churn(l *MemberList, n int, next *GUID, count int) {
	for i := 0; i < count; i++ {
		l.Remove(*next - GUID(n/2))
		*next++
		l.Put(MemberInfo{GUID: *next, Status: StatusOperational})
	}
}

// churnList returns a list of n members that has been churned until its
// slots and index have reached their steady-state capacity.
func churnList(n int) (*MemberList, *GUID) {
	l, next := NewMemberList(), new(GUID)
	for i := 0; i < n; i++ {
		*next++
		l.Put(MemberInfo{GUID: *next, Status: StatusOperational})
	}
	churn(l, n, next, 3*n)
	return l, next
}

func BenchmarkMemberListChurn(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l, next := churnList(n)
			b.ReportAllocs()
			b.ResetTimer()
			churn(l, n, next, b.N)
			if l.Len() != n {
				b.Fatalf("Len = %d after churn, want %d", l.Len(), n)
			}
		})
	}
}

// BenchmarkMemberListCold does one remove+put on each of 780 lists of
// 2 000 members in turn: a change visiting every entity of an h=4 r=5
// hierarchy, each list reached long after the others have pushed it out
// of cache. Every list is as large as a top-ring entity's
// ListOfRingMembers; a lower ring's holds only its subtree's members, so
// this is the worst case. An operation is one list's remove+put.
func BenchmarkMemberListCold(b *testing.B) {
	const lists, n = 780, 2000
	ls := make([]*MemberList, lists)
	next := make([]*GUID, lists)
	for i := range ls {
		ls[i], next[i] = churnList(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % lists
		churn(ls[j], n, next[j], 1)
	}
}

func TestMemberListChurnAllocs(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		l, next := churnList(n)
		if avg := testing.AllocsPerRun(2000, func() { churn(l, n, next, 1) }); avg != 0 {
			t.Errorf("n=%d: %v allocs per remove+put in steady state, want 0", n, avg)
		}
		if got, most := len(l.slots), n+n/3+1; got > most {
			t.Errorf("n=%d: %d slots for %d members, compaction should hold them under %d", n, got, n, most)
		}
	}
}

// TestMemberListRemoveDoesNotScan pins the complexity, not a time: the
// same number of middle removals must cost about the same in a list a
// hundred times the size. A Remove that scans the list reads ~100x.
func TestMemberListRemoveDoesNotScan(t *testing.T) {
	const removals = 10_000
	cost := func(n int) time.Duration {
		l, next := churnList(n)
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ { // the fastest of five: noise only ever adds
			start := time.Now()
			churn(l, n, next, removals)
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := cost(1_000), cost(100_000)
	t.Logf("%d removals: %v at n=1000, %v at n=100000 (x%.1f)", removals, small, large, float64(large)/float64(small))
	if large >= 5*small {
		t.Errorf("%d middle removals cost %v at n=100000 against %v at n=1000: Remove depends on the list size", removals, large, small)
	}
}
