package wire

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
)

// A round's message bodies (the token, the notifications and the pass,
// holder and notification acknowledgements) each have one owner at a
// time: the sender until Send, the message in flight, then the endpoint
// it is delivered to. That endpoint, the body's final consumer, hands it
// back once handled, and its engine keeps it on a free list (Bodies) for
// the next send. A sender never hands back what it sent: one that may
// retransmit keeps a value copy of the message and builds each resend
// a fresh body from it. A body lost in flight is left to the collector.
//
// A transport that was lent the engine's lists (runtime.BodyRecycler)
// takes part on both sides of a socket. Encoding a body into a datagram
// for another process, it is that body's final consumer and hands it
// back; decoding one, it delivers a copy taken from the lists (Adopt),
// which the receiving endpoint then owns and hands back like any other.
// So once both processes' lists are warm, a body that crosses a socket
// costs neither an allocation. The lists are plain slices touched only
// in engine context, not a sync.Pool, which a collection empties at
// will.

// A free list keeps at most one body per ring of the hierarchy, or
// bodyFreeMin on a smaller one. An engine runs one round per ring at a
// time (§4.3), so that many tokens and pass acknowledgements cover a
// change that reaches every ring at once; a one-change wave at h=4 r=5
// under full dissemination (156 rings) has at most 91 tokens and 20
// notifications in flight. What comes back beyond the bound is left to
// the collector.
const bodyFreeMin = 8

// RecycleGuard, set by tests, poisons every body handed back and panics
// when a body already on a free list is handed back again, so a body
// read or handed back after its owner let it go shows.
var RecycleGuard atomic.Bool

// FreeList is one kind of body's free list.
type FreeList[T any] struct {
	free   []*T
	max    int
	poison T // what a handed-back body is overwritten with under RecycleGuard
}

// Take returns an idle body, or a new one. Its fields are whatever its
// last use left: the caller sets every one.
func (l *FreeList[T]) Take() *T {
	k := len(l.free)
	if k == 0 {
		return new(T)
	}
	b := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return b
}

// Put hands a body back. The caller is its final consumer: no message,
// record or token refers to it any longer.
func (l *FreeList[T]) Put(b *T) {
	if RecycleGuard.Load() {
		if slices.Contains(l.free, b) {
			panic(fmt.Sprintf("wire: %T handed back twice", b))
		}
		*b = l.poison
	}
	if len(l.free) < l.max {
		l.free = append(l.free, b)
	}
}

// Bodies are an engine's free lists, one per round body.
type Bodies struct {
	Tokens     FreeList[token.Token]
	Notifies   FreeList[Notify]
	PassAcks   FreeList[PassAck]
	HolderAcks FreeList[HolderAck]
	NotifyAcks FreeList[NotifyAck]
}

// Under RecycleGuard a handed-back body names no node, ring or round
// the protocol uses, and carries no batch, route or contributor.
const (
	poisonNode  = ids.NodeID(math.MaxUint64)
	poisonRound = math.MaxUint64
)

var poisonRing = ring.ID{Tier: ids.Tier(math.MaxUint8), Index: math.MaxInt32}

// NewBodies returns the free lists of an engine whose hierarchy has the
// given number of rings.
func NewBodies(rings int) Bodies {
	m := max(rings, bodyFreeMin)
	return Bodies{
		Tokens:     FreeList[token.Token]{max: m, poison: token.Token{Ring: poisonRing, Holder: poisonNode, Round: poisonRound, Source: poisonRing}},
		Notifies:   FreeList[Notify]{max: m, poison: Notify{From: poisonRing, NewLeader: poisonNode, Seq: poisonRound}},
		PassAcks:   FreeList[PassAck]{max: m, poison: PassAck{Holder: poisonNode, Round: poisonRound}},
		HolderAcks: FreeList[HolderAck]{max: m, poison: HolderAck{Ring: poisonRing, Round: poisonRound, Count: -1}},
		NotifyAcks: FreeList[NotifyAck]{max: m, poison: NotifyAck{Seq: poisonRound}},
	}
}

// Recycle hands back a body its final consumer is done with, if it is
// one of the round bodies; any other payload is left alone.
func (b *Bodies) Recycle(p Payload) {
	switch m := p.(type) {
	case TokenMsg:
		if m.Tok != nil {
			b.Tokens.Put(m.Tok)
		}
	case *Notify:
		b.Notifies.Put(m)
	case *PassAck:
		b.PassAcks.Put(m)
	case *HolderAck:
		b.HolderAcks.Put(m)
	case *NotifyAck:
		b.NotifyAcks.Put(m)
	}
}

// Adopt returns a body carrying p's message, taken from the lists, for a
// round body p that its receiver may not keep: a decoded one that lives
// in a DecodeTarget, or a resend's value copy. Any other payload is
// returned as it is. On nil lists the body is a new one.
func (b *Bodies) Adopt(p Payload) Payload {
	if b == nil {
		b = new(Bodies)
	}
	switch m := p.(type) {
	case TokenMsg:
		if m.Tok != nil {
			return TokenMsg{Tok: adopt(&b.Tokens, m.Tok)}
		}
	case *Notify:
		return adopt(&b.Notifies, m)
	case *PassAck:
		return adopt(&b.PassAcks, m)
	case *HolderAck:
		return adopt(&b.HolderAcks, m)
	case *NotifyAck:
		return adopt(&b.NotifyAcks, m)
	}
	return p
}

// adopt returns a body of l's carrying *v.
func adopt[T any](l *FreeList[T], v *T) *T {
	c := l.Take()
	*c = *v
	return c
}
