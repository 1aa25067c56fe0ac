package core

import (
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/ring"
)

// Instrumentation is the protocol engine's timing observer — the
// operability twin of the event sink. Where SetEventSink reports
// *what* committed (for Watch subscribers), an Instrumentation
// reports *how long it took*: token-round duration, submit-to-commit
// view-change latency, and the silence gap a repair closed. The rgb
// layer feeds these into the telemetry registry's histograms.
//
// Contract: callbacks run in engine context and must not block,
// send messages, arm timers or draw randomness — instrumentation is
// purely observational, so installing it never changes protocol
// behaviour (the golden trace and event-sequence digests are
// identical with or without it). Nil callbacks are skipped. The hot
// paths are gated on the Instrumentation pointer, so an
// uninstrumented System pays nothing.
type Instrumentation struct {
	// RoundDone observes one completed token round: the ring's level,
	// the wall (or virtual) duration from the round's start at the
	// holder to its completion, and the membership operations carried.
	RoundDone func(level int, d time.Duration, ops int)

	// ViewChange observes one member operation committing at the
	// topmost ring — the moment GlobalMembership reflects it. measured
	// reports whether d is meaningful: the submit timestamp is known
	// only for the current version of a member this process submitted
	// (a remote submitter's latency is observed by the remote process).
	ViewChange func(kind EventKind, d time.Duration, measured bool)

	// Repair observes one ring repair (a dead entity excluded), with
	// the silence gap since the repaired ring last saw a token — how
	// long the failure went unrepaired.
	Repair func(d time.Duration)

	// BatchFlushed observes one batch window closing with work: the
	// number of aggregated operations the flushed round will carry.
	// Never invoked with a zero batch window (compat mode).
	BatchFlushed func(size int)
}

// SetInstrumentation installs (or, with nil, removes) the system's
// timing observer. Must run in engine context.
func (s *System) SetInstrumentation(in *Instrumentation) { s.instr = in }

// observeRoundDone reports a completed round to the instrumentation.
// A round this process did not start (adopted from a holder in another
// process, or already written off by the token-loss watchdog) has no
// start stamp here and is not reported.
func (s *System) observeRoundDone(holder *Node, ops int) {
	if s.instr == nil || s.instr.RoundDone == nil || !holder.ring.busy {
		return
	}
	s.instr.RoundDone(holder.level, s.clock.Now().Sub(holder.ring.roundStart), ops)
}

// observeViewChange reports one topmost-ring commit of m. It is
// measured from the submission when m carries the current version of a
// mobile host this System submitted for (Member.submitted).
func (s *System) observeViewChange(kind EventKind, m ids.MemberInfo) {
	if s.instr == nil || s.instr.ViewChange == nil {
		return
	}
	if mh, ok := s.members[m.GUID]; ok && mh.Ver == m.Ver {
		s.instr.ViewChange(kind, s.clock.Now().Sub(mh.submitted), true)
		return
	}
	s.instr.ViewChange(kind, 0, false)
}

// observeBatchFlush reports one closed batch window's size.
func (s *System) observeBatchFlush(size int) {
	if s.instr == nil || s.instr.BatchFlushed == nil {
		return
	}
	s.instr.BatchFlushed(size)
}

// observeRepair reports one ring repair with the token-silence gap.
func (s *System) observeRepair(id ring.ID) {
	if s.instr == nil || s.instr.Repair == nil {
		return
	}
	s.instr.Repair(s.clock.Now().Sub(s.rings[id].lastTok))
}
