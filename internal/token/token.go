// Package token defines the Token of Section 4.2 — the object that
// circulates around each logical ring carrying aggregated membership
// operations — together with the round bookkeeping used by the
// one-round algorithm of Figure 3: the round's itinerary, direction of
// entry (needed to propagate changes up/down without echo), and the
// retry budget of the paper's "Token retransmission schemes" for
// single-fault detection.
package token

import (
	"fmt"
	"slices"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
)

// Direction records how a batch of operations entered the ring that is
// currently circulating it. It determines where the batch continues:
// batches from below (or local) flow up via Notification-to-Parent;
// batches from above flow only down.
type Direction uint8

// Entry directions.
const (
	FromLocal  Direction = iota // originated at a node of this ring (MH event or NE event)
	FromChild                   // arrived via Notification-to-Parent from a child ring
	FromParent                  // arrived via Notification-to-Child from the parent ring
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case FromLocal:
		return "local"
	case FromChild:
		return "from-child"
	case FromParent:
		return "from-parent"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Token is the circulating object of the one-round algorithm.
//
// A token has one owner at a time: the entity executing it, then the
// pass carrying it, then the successor it is delivered to, until it
// comes full circle and its holder, the final consumer, lets it go. A
// pass to another process ends at the networked transport, which lets
// the token go once encoded; the successor's process delivers a copy of
// the decoded one, which the successor owns from there (wire.Bodies).
// An entity that passes a token keeps a value copy for retransmission
// and never touches the token it sent again; a copy shares its slices
// with the token, which is why no code writes Ops, Route or
// Contributors in place.
//
// The two one-byte fields and Hops sit beside GID, in the word GID
// leaves half empty, and a ring.ID is 8 bytes, so a token is 112 bytes
// and takes the 112-byte size class. The codec writes each field by
// name, so the order here is not the wire order.
type Token struct {
	// GID is not encoded; the library never sets it; kept for the
	// benchmark's build until ROADMAP item 39. A frame's envelope
	// names the group the token serves.
	GID ids.GroupID

	// Dir is how Ops entered this ring; Source identifies the child
	// ring when Dir == FromChild, so dissemination can skip the echo.
	Dir Direction

	// Repaired is set when a node excluded a faulty successor during
	// this round; the holder then schedules one convergence round so
	// members that executed the token before the repair also learn
	// the exclusion.
	Repaired bool

	// Hops is not encoded; the library never sets it; kept for the
	// benchmark's build until ROADMAP item 39. It packs beside GID, Dir
	// and Repaired, which keeps a token at 112 bytes.
	Hops uint16

	Ring   ring.ID    // ring the token circulates in
	Holder ids.NodeID // node that started this round and will close it
	Round  uint64     // per-ring round sequence number

	// Ops are the aggregated operations being executed at each node.
	// They are fixed when the round starts and read-only from then on:
	// a notification sends this very slice to the next ring, whose
	// round takes it as its own Ops, so a change to the batch (a
	// repair's NE-Failure) goes into a Clone.
	Ops mq.Batch

	Source ring.ID // the child ring Ops came from, when Dir == FromChild

	// Route is the round's itinerary: the holder's roster in cycle
	// order starting at the holder, fixed when the round starts.
	// Nodes forward the token along Route (excluding entries repaired
	// away mid-round), so a round's coverage is well defined even if
	// individual ring views diverge while the token is in flight.
	// The holder shares one itinerary between its rounds until its
	// roster changes, so no code writes a Route in place.
	Route []ids.NodeID

	// Contributors names the entity whose notification delivered Ops,
	// when the round runs a notified batch, and is empty otherwise. The
	// holder acknowledges it in place of each change's ReplyTo, which
	// still names the mobile host. The slice is shared by the rounds
	// of one holder with the same forwarder, so no code writes it in
	// place.
	Contributors []ids.NodeID
}

// Reset makes t the token of a new round at the given holder, clearing
// whatever a previous round left in it.
func (t *Token) Reset(ringID ring.ID, holder ids.NodeID, round uint64, ops mq.Batch, dir Direction, source ring.ID) {
	*t = Token{
		Ring:   ringID,
		Holder: holder,
		Round:  round,
		Ops:    ops,
		Dir:    dir,
		Source: source,
	}
}

// Clone returns a copy of t that shares no slice with it, so that either
// can be changed in place without the other seeing it.
func (t *Token) Clone() *Token {
	c := *t
	c.Ops = slices.Clone(t.Ops)
	c.Route = slices.Clone(t.Route)
	c.Contributors = slices.Clone(t.Contributors)
	return &c
}

// NextOnRoute returns the itinerary entry after the given node. It
// returns the holder when the node is absent (repaired away while the
// token was in flight toward it).
func (t *Token) NextOnRoute(after ids.NodeID) ids.NodeID {
	for i, n := range t.Route {
		if n == after {
			return t.Route[(i+1)%len(t.Route)]
		}
	}
	return t.Holder
}

// DropFromRoute removes a repaired-away entity from the itinerary. It
// builds a new slice: the old one may be shared with other rounds.
func (t *Token) DropFromRoute(dead ids.NodeID) {
	out := make([]ids.NodeID, 0, len(t.Route))
	for _, n := range t.Route {
		if n != dead {
			out = append(out, n)
		}
	}
	t.Route = out
}

// Fold merges a node's drained batch into the token. A token without
// Ops takes the batch itself, without a copy, so the caller hands it
// over.
func (t *Token) Fold(batch mq.Batch) {
	if len(t.Ops) == 0 {
		t.Ops = batch
		return
	}
	t.Ops = append(t.Ops, batch...)
}

// String renders a compact description for traces.
func (t *Token) String() string {
	return fmt.Sprintf("token{%s r%d holder=%s ops=%d %s}",
		t.Ring, t.Round, t.Holder, len(t.Ops), t.Dir)
}

// RetransmitPolicy configures the paper's token retransmission scheme:
// how many resends a node attempts before declaring its successor
// faulty and repairing the ring around it.
type RetransmitPolicy struct {
	MaxRetries int // resend attempts before declaring the peer dead
}

// DefaultRetransmitPolicy matches the paper's "detected quickly"
// expectation: two retries then local repair.
func DefaultRetransmitPolicy() RetransmitPolicy { return RetransmitPolicy{MaxRetries: 2} }
