package core

import (
	"fmt"
	"math"
	"slices"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// A round's message bodies (the token, the notifications and the pass,
// holder and notification acknowledgements) each have one owner at a
// time: the sender until Send, the message in flight, then the endpoint
// it is delivered to. That endpoint, the body's final consumer, hands it
// back once handled, and the System keeps it on a free list for the
// next send. A sender never hands back what it sent: one that may
// retransmit keeps a value copy of the message and builds each resend
// a fresh body from it (resend). A body lost in flight is left to the
// collector. The lists are plain slices touched only in engine context,
// not a sync.Pool, which a collection empties at will.

// A free list keeps at most one body per ring of the hierarchy, or
// bodyFreeMin on a smaller one. A System runs one round per ring at a
// time (§4.3), so that many tokens and pass acknowledgements cover a
// change that reaches every ring at once; a one-change wave at h=4 r=5
// under full dissemination (156 rings) has at most 91 tokens and 20
// notifications in flight. What comes back beyond the bound is left to
// the collector.
const bodyFreeMin = 8

// recycleGuard, set by this package's tests, poisons every body handed
// back and panics when a body already on a free list is handed back
// again, so a body read or handed back after its owner let it go shows.
var recycleGuard bool

// freeList is one kind of body's free list.
type freeList[T any] struct {
	free   []*T
	max    int
	poison T // what a handed-back body is overwritten with under recycleGuard
}

// take returns an idle body, or a new one. Its fields are whatever its
// last use left: the caller sets every one.
func (l *freeList[T]) take() *T {
	k := len(l.free)
	if k == 0 {
		return new(T)
	}
	b := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return b
}

// put hands a body back. The caller is its final consumer: no message,
// record or token refers to it any longer.
func (l *freeList[T]) put(b *T) {
	if recycleGuard {
		if slices.Contains(l.free, b) {
			panic(fmt.Sprintf("core: %T handed back twice", b))
		}
		*b = l.poison
	}
	if len(l.free) < l.max {
		l.free = append(l.free, b)
	}
}

// bodies are a System's free lists, one per round body.
type bodies struct {
	tokens     freeList[token.Token]
	notifies   freeList[wire.Notify]
	passAcks   freeList[wire.PassAck]
	holderAcks freeList[wire.HolderAck]
	notifyAcks freeList[wire.NotifyAck]
}

// Under recycleGuard a handed-back body names no node, ring or round
// the protocol uses, and carries no batch, route or contributor.
const (
	poisonNode  = ids.NodeID(math.MaxUint64)
	poisonRound = math.MaxUint64
)

var poisonRing = ring.ID{Tier: ids.Tier(math.MaxUint8), Index: math.MaxInt32}

// newBodies returns the free lists of a System whose hierarchy has the
// given number of rings.
func newBodies(rings int) bodies {
	m := max(rings, bodyFreeMin)
	return bodies{
		tokens:     freeList[token.Token]{max: m, poison: token.Token{Ring: poisonRing, Holder: poisonNode, Round: poisonRound, Source: poisonRing}},
		notifies:   freeList[wire.Notify]{max: m, poison: wire.Notify{From: poisonRing, NewLeader: poisonNode, Seq: poisonRound}},
		passAcks:   freeList[wire.PassAck]{max: m, poison: wire.PassAck{Holder: poisonNode, Round: poisonRound}},
		holderAcks: freeList[wire.HolderAck]{max: m, poison: wire.HolderAck{Ring: poisonRing, Round: poisonRound, Count: -1}},
		notifyAcks: freeList[wire.NotifyAck]{max: m, poison: wire.NotifyAck{Seq: poisonRound}},
	}
}

// recycle hands back a delivered body its receiver has handled, if it
// is one of the round bodies; any other payload is left alone.
func (b *bodies) recycle(body wire.Payload) {
	switch m := body.(type) {
	case wire.TokenMsg:
		if m.Tok != nil {
			b.tokens.put(m.Tok)
		}
	case *wire.Notify:
		b.notifies.put(m)
	case *wire.PassAck:
		b.passAcks.put(m)
	case *wire.HolderAck:
		b.holderAcks.put(m)
	case *wire.NotifyAck:
		b.notifyAcks.put(m)
	}
}

// copyOf returns a fresh body carrying the message a resend keeps: a
// token pass's token or a notification.
func (b *bodies) copyOf(msg any) wire.Payload {
	switch m := msg.(type) {
	case *token.Token:
		t := b.tokens.take()
		*t = *m
		return wire.TokenMsg{Tok: t}
	case *wire.Notify:
		n := b.notifies.take()
		*n = *m
		return n
	}
	panic(fmt.Sprintf("core: no round body carries %T", msg))
}
