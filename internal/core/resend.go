package core

import (
	"slices"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// resend is one stop-and-wait retransmission: the message awaiting its
// acknowledgement, where it is going, the retries spent on it and the
// timer that fires next. Its methods are the only code in this package
// that arms or cancels a retransmission timer (TestResendOwnsItsTimers
// scans the source for it), so a timer can neither outlive the message
// it was armed for nor fire into a later one. What exhaustion means —
// evict and reroute for a token pass, owe the batch to the link for a
// notification — stays with the owner, which learns of it from retry.
//
// A body sent belongs to its receiver, which hands it back once handled,
// or to the networked transport that encodes it for another process
// (wire.Bodies), so a resend keeps the message by value, msg: a token
// pass its token, a notification its Notify. Every retransmission sends
// a fresh body built from msg, and what msg's slices share with the body
// sent is never written in place at either end.
//
// A Node embeds one by value for its token pass, so arming a pass
// allocates nothing. Every notification in flight has its own, and a
// finished one is kept for the next (takeNotify), so a steady stream
// of notifications allocates no records either.
type resend[T token.Token | wire.Notify] struct {
	n    *Node
	kind runtime.Kind
	cb   func(any) // the owner's closure-free timeout callback

	to      ids.NodeID
	live    bool // a message awaits its acknowledgement
	msg     T
	retries int
	timer   runtime.TimerHandle
}

// The kernel invokes these with the resend that timed out, so arming
// allocates nothing.
func passTimeoutCB(a any)   { a.(*resend[token.Token]).n.passTimedOut() }
func notifyTimeoutCB(a any) { r := a.(*resend[wire.Notify]); r.n.notifyTimedOut(r) }

// passResend is the resend a node embeds for its token pass.
func passResend(n *Node) resend[token.Token] {
	return resend[token.Token]{n: n, kind: runtime.KindToken, cb: passTimeoutCB}
}

// notifyFreeMax bounds the finished notification records a node keeps.
// A node has at most two notifications of a round in flight, to its
// parent and to its child ring's leader, plus those of rounds that
// overlap while acknowledgements are late.
const notifyFreeMax = 8

// takeNotify returns an idle resend for one notification from n.
func (n *Node) takeNotify() *resend[wire.Notify] {
	if k := len(n.notifyFree); k > 0 {
		r := n.notifyFree[k-1]
		n.notifyFree = n.notifyFree[:k-1]
		return r
	}
	return &resend[wire.Notify]{n: n, kind: runtime.KindNotify, cb: notifyTimeoutCB}
}

// releaseNotify ends a notification's retransmission (acknowledged or
// given up), takes it off notifyWait and keeps the record for reuse.
func (n *Node) releaseNotify(r *resend[wire.Notify]) {
	if i := slices.Index(n.notifyWait, r); i >= 0 {
		n.notifyWait = slices.Delete(n.notifyWait, i, i+1)
	}
	r.stop()
	if len(n.notifyFree) < notifyFreeMax {
		n.notifyFree = append(n.notifyFree, r)
	}
}

// start sends msg to `to` and awaits its acknowledgement, replacing
// whatever was in flight before (and cancelling its timer). body is the
// first transmission's body, carrying msg; nil sends a fresh one.
func (r *resend[T]) start(to ids.NodeID, msg T, body wire.Payload) {
	r.stop()
	r.to, r.msg, r.live = to, msg, true
	if body == nil {
		body = r.body()
	}
	r.transmit(body)
}

// retry sends the message once more, in a fresh body, or reports false
// — sending nothing — when the retry budget is spent.
func (r *resend[T]) retry() bool {
	if r.retries >= r.n.sys.cfg.Retransmit.MaxRetries {
		return false
	}
	r.retries++
	r.transmit(r.body())
	return true
}

// body returns a body off the System's free lists carrying msg.
func (r *resend[T]) body() wire.Payload {
	switch m := any(&r.msg).(type) {
	case *token.Token:
		return r.n.sys.free.Adopt(wire.TokenMsg{Tok: m})
	case *wire.Notify:
		return r.n.sys.free.Adopt(m)
	}
	panic("unreachable: a resend carries a token or a notification")
}

func (r *resend[T]) transmit(body wire.Payload) {
	s := r.n.sys
	s.send(r.n.id, r.to, r.kind, body)
	r.timer = s.clock.AfterCall(s.cfg.RetransmitTimeout, r.cb, r)
}

// stop ends the retransmission (acknowledged or given up): the timer
// is cancelled and the message released.
func (r *resend[T]) stop() {
	r.n.sys.clock.Cancel(r.timer)
	var zero T
	r.to, r.live, r.msg, r.retries, r.timer = ids.NoNode, false, zero, 0, runtime.TimerHandle{}
}

// awaits reports whether an acknowledgement from the given sender can
// be for the message in flight.
func (r *resend[T]) awaits(from ids.NodeID) bool { return r.live && r.to == from }
