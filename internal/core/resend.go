package core

import (
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

// resend is one stop-and-wait retransmission: the message awaiting its
// acknowledgement, where it is going, the retries spent on it and the
// timer that fires next. Its methods are the only code in this package
// that arms or cancels a retransmission timer (TestResendOwnsItsTimers
// scans the source for it), so a timer can neither outlive the message
// it was armed for nor fire into a later one. What exhaustion means —
// evict and reroute for a token pass, mark the link for a notification
// — stays with the owner, which learns of it from retry.
//
// A Node embeds one by value for its token pass, so arming a pass
// allocates nothing; every notification in flight has its own.
type resend struct {
	n    *Node
	kind runtime.Kind
	cb   func(any) // the owner's closure-free timeout callback

	to      ids.NodeID
	body    wire.Payload // nil while idle
	retries int
	timer   runtime.TimerHandle
}

// The kernel invokes these with the resend that timed out, so arming
// allocates nothing.
func passTimeoutCB(a any)   { a.(*resend).n.passTimedOut() }
func notifyTimeoutCB(a any) { r := a.(*resend); r.n.notifyTimedOut(r) }

// passResend is the resend a node embeds for its token pass.
func passResend(n *Node) resend {
	return resend{n: n, kind: runtime.KindToken, cb: passTimeoutCB}
}

// notifyResend is the resend of one notification from n.
func notifyResend(n *Node) *resend {
	return &resend{n: n, kind: runtime.KindNotify, cb: notifyTimeoutCB}
}

// start sends body to `to` and awaits its acknowledgement, replacing
// whatever was in flight before (and cancelling its timer).
func (r *resend) start(to ids.NodeID, body wire.Payload) {
	r.stop()
	r.to, r.body = to, body
	r.transmit()
}

// retry sends the message once more, or reports false — sending
// nothing — when the retry budget is spent.
func (r *resend) retry() bool {
	if r.retries >= r.n.sys.cfg.Retransmit.MaxRetries {
		return false
	}
	r.retries++
	r.transmit()
	return true
}

func (r *resend) transmit() {
	s := r.n.sys
	s.send(r.n.id, r.to, r.kind, r.body)
	r.timer = s.clock.AfterCall(s.cfg.RetransmitTimeout, r.cb, r)
}

// stop ends the retransmission (acknowledged or given up): the timer
// is cancelled and the message released.
func (r *resend) stop() {
	r.n.sys.clock.Cancel(r.timer)
	r.to, r.body, r.retries, r.timer = ids.NoNode, nil, 0, runtime.TimerHandle{}
}

// awaits reports whether an acknowledgement from the given sender can
// be for the message in flight.
func (r *resend) awaits(from ids.NodeID) bool { return r.body != nil && r.to == from }
