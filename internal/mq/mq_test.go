package mq

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/rgbproto/rgb/internal/ids"
)

func memberChange(op Op, guid uint64, apOrd int) Change {
	return Change{
		Op: op,
		Member: ids.MemberInfo{
			GID:  ids.NewGroupID(1),
			GUID: ids.GUID(guid),
			AP:   ids.MakeNodeID(ids.TierAP, apOrd),
		},
	}
}

func neChange(op Op, ord int) Change {
	return Change{Op: op, NE: ids.MakeNodeID(ids.TierAP, ord)}
}

func TestFIFOWithoutAggregation(t *testing.T) {
	q := New(false)
	q.Insert(memberChange(OpMemberJoin, 1, 0))
	q.Insert(memberChange(OpMemberLeave, 1, 0))
	q.Insert(memberChange(OpMemberJoin, 1, 0))
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (no aggregation)", q.Len())
	}
	b := q.DrainBatch()
	if len(b) != 3 || b[0].Op != OpMemberJoin || b[1].Op != OpMemberLeave {
		t.Fatalf("batch = %v", b)
	}
}

func TestJoinLeaveAnnihilates(t *testing.T) {
	q := New(true)
	q.Insert(memberChange(OpMemberJoin, 1, 0))
	q.Insert(memberChange(OpMemberLeave, 1, 0))
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if b := q.DrainBatch(); len(b) != 0 {
		t.Fatalf("batch = %v, want empty", b)
	}
}

func TestJoinFailureAnnihilates(t *testing.T) {
	q := New(true)
	q.Insert(memberChange(OpMemberJoin, 1, 0))
	q.Insert(memberChange(OpMemberFailure, 1, 0))
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestJoinHandoffCollapsesToJoinAtNewAP(t *testing.T) {
	q := New(true)
	q.Insert(memberChange(OpMemberJoin, 1, 0))
	q.Insert(memberChange(OpMemberHandoff, 1, 5))
	b := q.DrainBatch()
	if len(b) != 1 || b[0].Op != OpMemberJoin {
		t.Fatalf("batch = %v", b)
	}
	if b[0].Member.AP.Ordinal() != 5 {
		t.Fatalf("AP = %s, want AP-5", b[0].Member.AP)
	}
}

func TestLeaveJoinBecomesHandoff(t *testing.T) {
	q := New(true)
	q.Insert(memberChange(OpMemberLeave, 1, 0))
	q.Insert(memberChange(OpMemberJoin, 1, 3))
	b := q.DrainBatch()
	if len(b) != 1 || b[0].Op != OpMemberHandoff {
		t.Fatalf("batch = %v", b)
	}
}

func TestHandoffHandoffKeepsLatest(t *testing.T) {
	q := New(true)
	q.Insert(memberChange(OpMemberHandoff, 1, 2))
	q.Insert(memberChange(OpMemberHandoff, 1, 9))
	b := q.DrainBatch()
	if len(b) != 1 || b[0].Member.AP.Ordinal() != 9 {
		t.Fatalf("batch = %v", b)
	}
}

// TestFailureDominates: a pending failure absorbs a later leave or
// handoff, but not a re-join: Failure + Join is a location update, as
// Leave + Join is, and a handoff after it moves the update on.
func TestFailureDominates(t *testing.T) {
	for _, next := range []Op{OpMemberLeave, OpMemberHandoff} {
		q := New(true)
		q.Insert(memberChange(OpMemberFailure, 1, 0))
		q.Insert(memberChange(next, 1, 4))
		if b := q.DrainBatch(); len(b) != 1 || b[0].Op != OpMemberFailure {
			t.Fatalf("failure then %s: batch = %v", next, b)
		}
	}
	q := New(true)
	q.Insert(memberChange(OpMemberFailure, 1, 0))
	q.Insert(memberChange(OpMemberJoin, 1, 0))
	q.Insert(memberChange(OpMemberHandoff, 1, 4))
	b := q.DrainBatch()
	if len(b) != 1 || b[0].Op != OpMemberHandoff || b[0].Member.AP != ids.MakeNodeID(ids.TierAP, 4) {
		t.Fatalf("failure, join, handoff: batch = %v, want one handoff to AP-4", b)
	}
}

func TestLeaveThenFailureStaysLeave(t *testing.T) {
	q := New(true)
	q.Insert(memberChange(OpMemberLeave, 1, 0))
	q.Insert(memberChange(OpMemberFailure, 1, 0))
	b := q.DrainBatch()
	if len(b) != 1 || b[0].Op != OpMemberLeave {
		t.Fatalf("batch = %v", b)
	}
}

func TestDistinctSubjectsDoNotAggregate(t *testing.T) {
	q := New(true)
	q.Insert(memberChange(OpMemberJoin, 1, 0))
	q.Insert(memberChange(OpMemberJoin, 2, 0))
	q.Insert(memberChange(OpMemberLeave, 3, 0))
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
}

func TestNEJoinLeaveAnnihilates(t *testing.T) {
	q := New(true)
	q.Insert(neChange(OpNEJoin, 4))
	q.Insert(neChange(OpNEFailure, 4))
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.Insert(neChange(OpNEFailure, 5))
	q.Insert(neChange(OpNEJoin, 5)) // failure dominates
	b := q.DrainBatch()
	if len(b) != 1 || b[0].Op != OpNEFailure {
		t.Fatalf("batch = %v", b)
	}
}

func TestMemberAndNESubjectsAreSeparate(t *testing.T) {
	q := New(true)
	q.Insert(memberChange(OpMemberJoin, 7, 0))
	q.Insert(neChange(OpNEJoin, 7))
	if q.Len() != 2 {
		t.Fatalf("Len = %d: member GUID 7 and NE ordinal 7 must not collide", q.Len())
	}
}

func TestOpPredicates(t *testing.T) {
	for _, op := range []Op{OpMemberJoin, OpMemberLeave, OpMemberHandoff, OpMemberFailure} {
		if !op.IsMemberOp() {
			t.Errorf("%s is a member op", op)
		}
	}
	for _, op := range []Op{OpNone, OpNEJoin, OpNELeave, OpNEFailure} {
		if op.IsMemberOp() {
			t.Errorf("%s is not a member op", op)
		}
	}
}

// TestAggregationInvariant: with aggregation on, at most one live
// change per subject, and draining everything returns each subject at
// most once, for any random op sequence.
func TestAggregationInvariantProperty(t *testing.T) {
	ops := []Op{OpMemberJoin, OpMemberLeave, OpMemberHandoff, OpMemberFailure}
	f := func(script []uint8) bool {
		q := New(true)
		for _, b := range script {
			op := ops[int(b)%len(ops)]
			guid := uint64(b>>2) % 8
			q.Insert(memberChange(op, guid, int(b)%4))
		}
		batch := q.DrainBatch()
		seen := map[ids.GUID]bool{}
		for _, c := range batch {
			if seen[c.Member.GUID] {
				return false
			}
			seen[c.Member.GUID] = true
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConservationProperty: a full drain loses and invents nothing, for
// any script: each subject's drained change is its inserts folded by
// the collapse rules, and a subject whose inserts annihilate is absent.
func TestConservationProperty(t *testing.T) {
	ops := []Op{OpMemberJoin, OpMemberLeave, OpMemberHandoff, OpMemberFailure}
	f := func(script []uint8) bool {
		q := New(true)
		want := map[any]Change{}
		for _, b := range script {
			c := memberChange(ops[int(b)%len(ops)], uint64(b>>3)%4, int(b)%3)
			q.Insert(c)
			if prev, ok := want[c.Subject()]; !ok {
				want[c.Subject()] = c
			} else if merged, annihilate := collapse(prev, c); annihilate {
				delete(want, c.Subject())
			} else {
				want[c.Subject()] = merged
			}
		}
		batch := q.DrainBatch()
		if len(batch) != len(want) {
			return false
		}
		for _, c := range batch {
			if want[c.Subject()] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChangeString(t *testing.T) {
	c := memberChange(OpMemberJoin, 3, 1)
	if c.String() == "" || c.Subject() != ids.GUID(3) {
		t.Error("Change accessors broken")
	}
	n := neChange(OpNEFailure, 2)
	if n.Subject() != ids.MakeNodeID(ids.TierAP, 2) {
		t.Error("NE subject wrong")
	}
}

// TestDrainedBatchOutlivesTheQueue: a drained batch is its caller's. A
// round takes it as its token's Ops without a copy (token.Fold), so
// nothing the queue does afterwards may write its array: not appends,
// not collapses or annihilations of later changes, not the next drain.
func TestDrainedBatchOutlivesTheQueue(t *testing.T) {
	q := New(true)
	for g := uint64(1); g <= 3; g++ {
		q.Insert(memberChange(OpMemberJoin, g, 0))
	}
	b := q.DrainBatch()
	want := slices.Clone(b)
	q.Insert(memberChange(OpMemberJoin, 4, 1))
	q.Insert(memberChange(OpMemberHandoff, 4, 2)) // collapses into the join
	q.Insert(memberChange(OpMemberJoin, 5, 1))
	q.Insert(memberChange(OpMemberLeave, 5, 1)) // annihilates the join
	q.Insert(neChange(OpNEJoin, 7))
	next := q.DrainBatch()
	wantNext := slices.Clone(next)
	q.Insert(memberChange(OpMemberJoin, 6, 3))
	q.Insert(memberChange(OpMemberFailure, 6, 3))
	q.Insert(memberChange(OpMemberJoin, 8, 3))
	q.DrainBatch()
	if !slices.Equal(b, want) || !slices.Equal(next, wantNext) {
		t.Errorf("drained batches changed:\n first %v, want %v\nsecond %v, want %v", b, want, next, wantNext)
	}
}

// TestDrainedQueueKeepsItsArray: a drain empties the queue but keeps
// its array, so once warm an Insert appends into capacity; only the
// returned batch, a fresh array, is allocated. A subject drained can
// re-enter, and it aggregates again.
func TestDrainedQueueKeepsItsArray(t *testing.T) {
	q := New(true)
	for g := uint64(1); g <= 3; g++ {
		q.Insert(memberChange(OpMemberJoin, g, 0))
	}
	if b := q.DrainBatch(); len(b) != 3 || b[0].Member.GUID != 1 || b[2].Member.GUID != 3 || q.Len() != 0 {
		t.Fatalf("DrainBatch() = %v leaving %d, want the joins of 1, 2 and 3 leaving none", b, q.Len())
	}
	q.Insert(memberChange(OpMemberJoin, 3, 0))
	q.Insert(memberChange(OpMemberHandoff, 3, 2)) // collapses into the join
	if b := q.DrainBatch(); len(b) != 1 || b[0].Op != OpMemberJoin || b[0].Member.AP != ids.MakeNodeID(ids.TierAP, 2) {
		t.Fatalf("DrainBatch() = %v, want 3's join at AP 2", b)
	}
	// GUIDs below 256 box without allocating, so a subject key costs
	// nothing here.
	one := testing.AllocsPerRun(100, func() {
		q.Insert(memberChange(OpMemberJoin, 4, 0))
		q.DrainBatch()
	})
	two := testing.AllocsPerRun(100, func() {
		q.Insert(memberChange(OpMemberJoin, 5, 0))
		q.Insert(memberChange(OpMemberJoin, 6, 0))
		q.DrainBatch()
	})
	if one != 1 || two != 2 {
		t.Errorf("insert+drain allocates %.1f objects, two inserts and a drain %.1f; want 1 and 2, the drained batch's growth", one, two)
	}
}
