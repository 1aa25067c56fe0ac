package core

import (
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
)

// Batched view changes (Rapid-style, see PAPERS.md): instead of
// starting a token round for every single membership change an access
// proxy observes, a positive Config.BatchWindow defers the round for
// up to one window. Every change observed in the meantime lands in the
// node's MQ (aggregating per the usual collapse rules) and the flush
// circulates the whole window's worth as ONE multi-member view change
// — one round per ring level on the dissemination path instead of one
// per change, O(changes/window) cost. The wire format needs nothing
// new: token operations and parent/child notifications already carry
// mq.Batch.
//
// Only locally-submitted work (token.FromLocal) is ever deferred.
// Rounds triggered by a parent's notification must stay immediate:
// FromParent rounds drive the coverage-removal rule in applyMemberPut
// and never re-notify upward, and deferring a child's forwarded batch
// would delay the hierarchy's convergence for no coalescing gain (the
// batch was already coalesced at the edge).

// batchFlushCB is the shared closure-free timer callback arming a
// node's batch-window flush.
func batchFlushCB(a any) { a.(*Node).flushBatch() }

// scheduleBatchedRound requests a FromLocal round at n, deferring it
// by the batch window when batching is configured. With a zero window
// the call is exactly requestRound — the byte-identical compat path
// the golden digests pin.
func (s *System) scheduleBatchedRound(n *Node) {
	if s.cfg.BatchWindow <= 0 {
		s.requestRound(n, token.FromLocal, ring.ID{})
		return
	}
	if n.batchArmed {
		return
	}
	n.batchArmed = true
	s.clock.AfterCall(s.cfg.BatchWindow, batchFlushCB, n)
}

// flushBatch closes a node's batch window: whatever the MQ aggregated
// while the window was open rides one round.
func (n *Node) flushBatch() {
	n.batchArmed = false
	if n.sys.tr.Crashed(n.id) {
		// A crashed entity's timers die with it; its queued work is
		// re-submitted through the rejoin path, not flushed by a ghost.
		return
	}
	size := n.queue.Len()
	if size == 0 {
		// Drained en route: a heartbeat or brokered round at this node
		// already folded the queue in.
		return
	}
	n.sys.batchFlushes++
	n.sys.batchedOps += uint64(size)
	if n.sys.observer != nil {
		n.sys.observer(Observation{Event: Event{Kind: EventBatchFlushed, At: n.sys.clock.Now()}, Size: size})
	}
	n.sys.requestRound(n, token.FromLocal, ring.ID{})
}

// BatchFlushes returns how many batch windows closed with work to
// circulate.
func (s *System) BatchFlushes() uint64 { return s.batchFlushes }

// BatchedOps returns how many aggregated operations those flushes
// carried.
func (s *System) BatchedOps() uint64 { return s.batchedOps }
