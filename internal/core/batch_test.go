package core

import (
	"slices"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

// TestBatchWindowCoalescesSubmissions: changes submitted at one AP
// within the batch window ride one token round instead of one round
// each, and the batch counters and the observer see the flush.
func TestBatchWindowCoalescesSubmissions(t *testing.T) {
	cfg := quietConfig(2, 5)
	cfg.BatchWindow = 50 * time.Millisecond
	sys := NewSystem(cfg)
	var flushSizes []int
	sys.SetObserver(func(o Observation) {
		if o.Kind == EventBatchFlushed {
			flushSizes = append(flushSizes, o.Size)
		}
	})
	ap := sys.APs()[0]

	for i := 0; i < 3; i++ {
		if _, err := sys.JoinMemberAt(ids.GUID(i+1), ap); err != nil {
			t.Fatal(err)
		}
		sys.RunFor(2 * time.Millisecond) // spaced, but inside one window
	}
	sys.Run()

	if got := len(sys.GlobalMembership()); got != 3 {
		t.Fatalf("membership = %d, want 3", got)
	}
	if got := sys.BatchFlushes(); got != 1 {
		t.Errorf("BatchFlushes = %d, want 1", got)
	}
	if got := sys.BatchedOps(); got != 3 {
		t.Errorf("BatchedOps = %d, want 3", got)
	}
	if len(flushSizes) != 1 || flushSizes[0] != 3 {
		t.Errorf("observed flush sizes = %v, want [3]", flushSizes)
	}

	// The same workload unbatched requests one AP-ring round per join.
	ref := NewSystem(quietConfig(2, 5))
	for i := 0; i < 3; i++ {
		ref.JoinMemberAt(ids.GUID(i+1), ref.APs()[0])
		ref.RunFor(2 * time.Millisecond)
	}
	ref.Run()
	if sys.Rounds() >= ref.Rounds() {
		t.Errorf("batched run used %d rounds, unbatched %d — batching saved nothing",
			sys.Rounds(), ref.Rounds())
	}
}

// TestBatchWindowZeroIsImmediate: the zero window is the pre-batching
// protocol — every submission requests its round at once and the
// batch machinery never engages.
func TestBatchWindowZeroIsImmediate(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	sys.JoinMemberAt(ids.GUID(1), sys.APs()[0])
	sys.Run()
	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
	if sys.BatchFlushes() != 0 || sys.BatchedOps() != 0 {
		t.Errorf("batch counters engaged at window 0: flushes=%d ops=%d",
			sys.BatchFlushes(), sys.BatchedOps())
	}
}

// TestBatchFlushAfterCrashIsNoOp: an AP that crashes between arming
// its batch window and the flush must not start a ghost round.
func TestBatchFlushAfterCrashIsNoOp(t *testing.T) {
	cfg := quietConfig(2, 5)
	cfg.BatchWindow = 50 * time.Millisecond
	sys := NewSystem(cfg)
	ap := sys.APs()[0]
	sys.JoinMemberAt(ids.GUID(1), ap)
	sys.RunFor(5 * time.Millisecond) // the member message arrives, window arms
	sys.CrashNE(ap)
	sys.Run() // the timer fires against a crashed node

	if got := sys.BatchFlushes(); got != 0 {
		t.Errorf("crashed AP flushed %d batches", got)
	}
	if got := len(sys.GlobalMembership()); got != 0 {
		t.Errorf("membership = %d, want 0 (ghost round committed a join?)", got)
	}
}

// TestBatchWindowLeaveAndFailCoalesce: leaves and failures share the
// join path's batching.
func TestBatchWindowLeaveAndFailCoalesce(t *testing.T) {
	cfg := quietConfig(2, 5)
	cfg.BatchWindow = 50 * time.Millisecond
	sys := NewSystem(cfg)
	ap := sys.APs()[0]
	for i := 0; i < 3; i++ {
		sys.JoinMemberAt(ids.GUID(i+1), ap)
	}
	sys.Run()

	sys.LeaveMember(ids.GUID(1))
	sys.RunFor(2 * time.Millisecond)
	sys.FailMember(ids.GUID(2))
	sys.Run()

	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
	// One flush for the join burst, one for the leave+fail burst.
	if got := sys.BatchFlushes(); got != 2 {
		t.Errorf("BatchFlushes = %d, want 2", got)
	}
	if got := sys.BatchedOps(); got != 5 {
		t.Errorf("BatchedOps = %d, want 5", got)
	}
}

// TestBatchWindowRoundOwnsItsOps: a local round takes its holder's
// drained batch as its token's Ops without a copy (token.Fold), so the
// queue must never write that array again. Changes the holder's MQ
// appends, annihilates and drains while the round circulates leave the
// round's Ops as they were.
func TestBatchWindowRoundOwnsItsOps(t *testing.T) {
	cfg := quietConfig(1, 5)
	cfg.BatchWindow = 5 * time.Millisecond
	sys := NewSystem(cfg)
	ap := sys.APs()[0]
	var ops, sent mq.Batch // the first round's Ops, and a copy taken as it started
	traceSends(sys, func(m runtime.Message) {
		b, ok := m.Body.(wire.TokenMsg)
		if !ok || ops != nil || b.Tok.Holder != ap {
			return
		}
		ops, sent = b.Tok.Ops, slices.Clone(b.Tok.Ops)
		sys.Clock().After(0, func() {
			for _, g := range []ids.GUID{4, 5, 6} {
				if _, err := sys.JoinMemberAt(g, ap); err != nil {
					t.Error(err)
				}
			}
			if err := sys.LeaveMember(5); err != nil {
				t.Error(err)
			}
		})
	})
	for g := ids.GUID(1); g <= 3; g++ {
		if _, err := sys.JoinMemberAt(g, ap); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()

	if len(sent) != 3 {
		t.Fatalf("the first round carried %v, want the three batched joins", sent)
	}
	if !slices.Equal(ops, sent) {
		t.Errorf("the round's Ops changed after it started:\n now %v\nsent %v", ops, sent)
	}
	if got := sys.BatchFlushes(); got != 2 {
		t.Errorf("BatchFlushes = %d, want 2 (the mid-round changes drained in a second round)", got)
	}
	if got := len(sys.GlobalMembership()); got != 5 {
		t.Errorf("membership = %d, want 5", got)
	}
}
