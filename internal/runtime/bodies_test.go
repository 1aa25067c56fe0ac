package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// recyclingEndpoint is a round body's final consumer: it hands every
// body delivered to it back to free, as a core entity does.
type recyclingEndpoint struct {
	free *wire.Bodies
	got  atomic.Int64
}

func (e *recyclingEndpoint) HandleMessage(msg Message) {
	e.free.Recycle(msg.Body)
	e.got.Add(1)
}

// keepingEndpoint keeps each pass acknowledgement delivered to it and,
// at the next delivery, checks that the one it kept still reads as it
// was sent: the i-th carries Round i.
type keepingEndpoint struct {
	kept  *wire.PassAck
	got   atomic.Int64
	stale atomic.Int64
}

func (e *keepingEndpoint) HandleMessage(msg Message) {
	if e.kept != nil && e.kept.Round != uint64(e.got.Load()) {
		e.stale.Add(1)
	}
	e.kept, _ = msg.Body.(*wire.PassAck)
	e.got.Add(1)
}

// TestBodyRecyclerHandsBackAtEgress: the networked transport, lent an
// engine's lists, hands back a round body it encoded for another
// process, and one it dropped, but not one it queued for an endpoint of
// its own process, which that endpoint now owns. A fault decorator
// holds messages past Send and must not pass the capability on.
func TestBodyRecyclerHandsBackAtEgress(t *testing.T) {
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	rt0, _ := newQuietPeers(t, map[ids.NodeID]int{a: 0, b: 1}, "127.0.0.1")
	tr := rt0.Transport()
	if _, ok := Transport(NewFaultTransport(tr, FaultPlan{Seed: 1, Reorder: 1})).(BodyRecycler); ok {
		t.Fatal("FaultTransport passes BodyRecycler through")
	}
	free := wire.NewBodies(1)
	ep := &keepingEndpoint{}
	rt0.Do(func() {
		tr.(BodyRecycler).LendBodies(&free)
		tr.Register(a, ep)
		for _, c := range []struct {
			to       ids.NodeID
			handed   bool
			endpoint string
		}{
			{b, true, "of another process"},
			{ids.NoNode, true, "that does not exist"},
			{a, false, "of its own process"},
		} {
			ack := &wire.PassAck{Holder: a, Round: 1}
			tr.Send(Message{From: a, To: c.to, Kind: KindControl, Body: ack})
			if next := free.PassAcks.Take(); (next == ack) != c.handed {
				t.Errorf("a pass acknowledgement sent to an endpoint %s: handed back %v, want %v", c.endpoint, next == ack, c.handed)
			}
		}
	})
	waitFor(t, func() bool { return ep.got.Load() == 1 })
}

// TestInboundRoundBodiesAreAdopted: a round body read from the socket is
// decoded into its inbound record, which the next frame reuses, so the
// endpoint is handed a copy of its own. An endpoint that keeps each pass
// acknowledgement still reads it as sent after the next one arrived,
// whether or not the transport was lent an engine's lists.
func TestInboundRoundBodiesAreAdopted(t *testing.T) {
	for _, lent := range []bool{true, false} {
		t.Run(fmt.Sprintf("lent=%v", lent), func(t *testing.T) {
			a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
			rt0, rt1 := newQuietPeers(t, map[ids.NodeID]int{a: 0, b: 1}, "127.0.0.1")
			ep := &keepingEndpoint{}
			free := wire.NewBodies(1)
			rt0.Do(func() {
				if lent {
					rt0.Transport().(BodyRecycler).LendBodies(&free)
				}
				rt0.Transport().Register(a, ep)
			})
			const n = 200
			for i := 1; i <= n; i++ {
				rt1.Do(func() {
					rt1.Transport().Send(Message{From: b, To: a, Kind: KindControl, Body: &wire.PassAck{Holder: b, Round: uint64(i)}})
				})
				waitFor(t, func() bool { return ep.got.Load() == int64(i) })
			}
			if stale := ep.stale.Load(); stale != 0 {
				t.Fatalf("%d of %d kept pass acknowledgements changed when the next one arrived", stale, n-1)
			}
		})
	}
}

// TestInboundRoundBodyAllocs: a warm datagram of a token frame and a
// pass-acknowledgement frame, read from the socket and delivered to an
// endpoint that hands each body back into the lists its engine lent the
// transport, allocates only the token's decoded Ops, Route and
// Contributors: both bodies come off the lists. A transport never lent
// the lists delivers each in a new body, two objects more.
func TestInboundRoundBodyAllocs(t *testing.T) {
	for _, c := range []struct {
		lent   bool
		allocs float64 // per datagram
	}{{true, 3}, {false, 5}} {
		t.Run(fmt.Sprintf("lent=%v", c.lent), func(t *testing.T) {
			a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
			rt0, _ := newQuietPeers(t, map[ids.NodeID]int{a: 0, b: 1}, "127.0.0.1")
			free := wire.NewBodies(1)
			ep := &recyclingEndpoint{free: &free}
			rt0.Do(func() {
				if c.lent {
					rt0.Transport().(BodyRecycler).LendBodies(&free)
				}
				rt0.Transport().Register(a, ep)
			})
			from := ids.MakeNodeID(ids.TierMH, 5)
			tok := &token.Token{
				GID: testGroup, Ring: ring.ID{Tier: ids.TierAP}, Holder: b, Round: 3,
				Ops:          mq.Batch{{Op: mq.OpMemberJoin, Member: ids.MemberInfo{GUID: 9}}},
				Route:        []ids.NodeID{b, a},
				Contributors: []ids.NodeID{b},
			}
			datagram := wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: from, To: a, Class: byte(KindToken), Payload: wire.TokenMsg{Tok: tok}})
			datagram = wire.AppendFrame(datagram, wire.Frame{Group: testGroup, From: from, To: a, Class: byte(KindControl), Payload: &wire.PassAck{Holder: b, Round: 3}})
			perDatagram := inboundMallocs(t, rt0, datagram, 2, &ep.got)
			t.Logf("%.2f mallocs per datagram", perDatagram)
			if perDatagram > c.allocs+0.05 {
				t.Fatalf("%.2f mallocs per inbound token and pass-ack datagram, want %.0f", perDatagram, c.allocs)
			}
		})
	}
}
