package runtime

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/wire"
)

// collectEndpoint records deliveries on a channel so off-engine test
// code can await them.
type collectEndpoint struct{ ch chan Message }

func newCollect() *collectEndpoint {
	return &collectEndpoint{ch: make(chan Message, 16)}
}

func (c *collectEndpoint) HandleMessage(msg Message) { c.ch <- msg }

func awaitMessage(t *testing.T, ch chan Message) Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
		return Message{}
	}
}

// TestNetMuxGroupDemux: two groups sharing one socket register the
// same NodeID; a tagged frame reaches only the tagged group's
// endpoint, on that group's shard.
func TestNetMuxGroupDemux(t *testing.T) {
	set := NewShardSet(2)
	defer set.Close()
	mux, err := NewNetMux(NetConfig{Bind: "127.0.0.1:0"}, set)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	gidA, gidB := ids.NewGroupID(1), ids.NewGroupID(2)
	rtA, err := mux.Open(gidA, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rtB, err := mux.Open(gidB, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Open(gidA, 0, 1, 0); !errors.Is(err, ErrGroupOpen) {
		t.Fatalf("duplicate Open err = %v, want ErrGroupOpen", err)
	}

	target := ids.MakeNodeID(ids.TierAP, 0)
	epA, epB := newCollect(), newCollect()
	rtA.Do(func() { rtA.Transport().Register(target, epA) })
	rtB.Do(func() { rtB.Transport().Register(target, epB) })

	src := ids.MakeNodeID(ids.TierAP, 1)
	rtA.Do(func() {
		rtA.Transport().Send(Message{From: src, To: target, Group: gidA, Kind: KindControl, Body: wire.Probe{Seq: 7}})
	})
	got := awaitMessage(t, epA.ch)
	if got.Group != gidA || got.Body.(wire.Probe).Seq != 7 {
		t.Fatalf("group A delivery = %+v", got)
	}
	select {
	case m := <-epB.ch:
		t.Fatalf("group B received group A's frame: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}

	// A send without an explicit group is stamped with the view's own.
	rtB.Do(func() {
		rtB.Transport().Send(Message{From: src, To: target, Kind: KindControl, Body: wire.Probe{Seq: 8}})
	})
	if got := awaitMessage(t, epB.ch); got.Group != gidB {
		t.Fatalf("default-stamped group = %v, want %v", got.Group, gidB)
	}

	// Frames tagged for a group nobody hosts — group 0 is no exception —
	// are counted, not delivered.
	conn, err := net.DialUDP("udp", nil, mux.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, stray := range []ids.GroupID{ids.NewGroupID(404), 0} {
		if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{
			From: src, To: target, Group: stray, Class: byte(KindControl),
			Payload: wire.Probe{Seq: 12},
		})); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return mux.NetStats().UnknownGroup == 2 })
	if len(epA.ch) != 0 || len(epB.ch) != 0 {
		t.Fatalf("stray-group frames delivered: A=%d B=%d", len(epA.ch), len(epB.ch))
	}
}

// TestNetMuxLocalHopsStayInGroup: two groups pinned to one shard share
// that shard's local-hop FIFO; hops of both queued by one work item
// reach only their own group's endpoint, tagged and counted per group,
// and none of them touches the socket.
func TestNetMuxLocalHopsStayInGroup(t *testing.T) {
	set := NewShardSet(1)
	defer set.Close()
	mux, err := NewNetMux(NetConfig{Bind: "127.0.0.1:0"}, set)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	gidA, gidB := ids.NewGroupID(1), ids.NewGroupID(2)
	rtA, err := mux.Open(gidA, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rtB, err := mux.Open(gidB, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	trA, trB := rtA.Transport(), rtB.Transport()

	target := ids.MakeNodeID(ids.TierAP, 0)
	src := ids.MakeNodeID(ids.TierAP, 1)
	epA, epB := newCollect(), newCollect()
	set.shards[0].eng.do(func() {
		trA.Register(target, epA)
		trB.Register(target, epB)
		trA.Send(Message{From: src, To: target, Kind: KindControl, Body: wire.Probe{Seq: 1}})
		trB.Send(Message{From: src, To: target, Kind: KindControl, Body: wire.Probe{Seq: 2}})
		trA.Send(Message{From: src, To: target, Kind: KindControl, Body: wire.Probe{Seq: 3}})
	})
	for _, want := range []uint64{1, 3} {
		if got := awaitMessage(t, epA.ch); got.Group != gidA || got.Body.(wire.Probe).Seq != want {
			t.Fatalf("group A delivery = %+v, want seq %d tagged %v", got, want, gidA)
		}
	}
	if got := awaitMessage(t, epB.ch); got.Group != gidB || got.Body.(wire.Probe).Seq != 2 {
		t.Fatalf("group B delivery = %+v, want seq 2 tagged %v", got, gidB)
	}
	rtA.Run()
	rtB.Run()
	if len(epA.ch) != 0 || len(epB.ch) != 0 {
		t.Fatalf("stray deliveries: A=%d B=%d", len(epA.ch), len(epB.ch))
	}
	var statsA, statsB Stats
	set.shards[0].eng.do(func() { statsA, statsB = trA.Stats(), trB.Stats() })
	if statsA.Delivered != 2 || statsB.Delivered != 1 {
		t.Fatalf("stats not group-scoped: A=%+v B=%+v", statsA, statsB)
	}
	if ns := mux.NetStats(); ns.Received != 0 {
		t.Fatalf("co-hosted hops reached the shared socket: %+v", ns)
	}
}

// TestNetMuxNeedsBind: every real-time host has a socket, so a mux
// without a bind address is an error, not a socketless host.
func TestNetMuxNeedsBind(t *testing.T) {
	set := NewShardSet(1)
	defer set.Close()
	if mux, err := NewNetMux(NetConfig{}, set); err == nil {
		mux.Close()
		t.Fatal("NewNetMux with no Bind built a mux")
	}
}

// TestBindShardSerializes: concurrent drivers of shard-bound runtimes
// on one shard serialize, and per-shard state survives a racing load
// (the -race build is the real assertion here).
func TestBindShardSerializes(t *testing.T) {
	set := NewShardSet(2)
	defer set.Close()

	// A trivial single-threaded runtime stand-in: a live group view is
	// convenient and closes cleanly.
	inner := newTestLive(t)
	bound, err := BindShard(inner, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer bound.Close()
	if _, err := BindShard(inner, set, 99); !errors.Is(err, ErrBadShard) {
		t.Fatalf("out-of-range shard err = %v, want ErrBadShard", err)
	}

	counter := 0
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 250; i++ {
				bound.Do(func() { counter++ })
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if counter != 1000 {
		t.Fatalf("counter = %d, want 1000 (lost updates => not serialized)", counter)
	}
}

// TestNetRuntimeCloseEndsTheGroup: closing a group view ends that
// incarnation on its shard. With a round in flight — x on process 0
// retransmitting to y on process 1, as a token pass whose ack never
// comes would — the peers' view of the group hears nothing more from
// the closed incarnation once the group is reopened, the timers it left
// armed do not hold a sibling group's Run, and a send on its transport
// is a counted drop.
func TestNetRuntimeCloseEndsTheGroup(t *testing.T) {
	x := ids.MakeNodeID(ids.TierAP, 1)
	y := ids.MakeNodeID(ids.TierAP, 2)
	addr0, close0 := reserveUDP(t)
	addr1, close1 := reserveUDP(t)
	close0()
	close1()
	// Long discovery intervals: only the test's own frames cross.
	cfg0 := NetConfig{
		Bind: addr0, Peers: []string{addr0, addr1}, Owners: map[ids.NodeID]int{x: 0, y: 1},
		GossipInterval: time.Hour, ProbeInterval: time.Hour, QuiesceIdle: 5 * time.Millisecond,
	}
	cfg1 := cfg0
	cfg1.Bind, cfg1.Index = addr1, 1
	a0, a1 := newTestNet(t, cfg0), newTestNet(t, cfg1)
	b0, err := a0.mux.Open(ids.NewGroupID(2), 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	a1.Do(func() { a1.Transport().Register(y, EndpointFunc(func(Message) {})) })
	delivered := func() (n uint64) {
		a1.Do(func() { n = a1.Transport().Stats().Delivered })
		return n
	}
	probe := Message{From: x, To: y, Kind: KindToken, Body: wire.Probe{}}
	a0.Do(func() {
		tr := a0.Transport()
		tr.Register(x, EndpointFunc(func(Message) {}))
		a0.Clock().Every(time.Millisecond, func() { tr.Send(probe) })
	})
	waitFor(t, func() bool { return delivered() > 0 })

	if err := a0.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := a0.mux.Open(testGroup, 0, 1, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // datagrams written before the Close land
	flat := delivered()
	time.Sleep(50 * time.Millisecond)
	if got := delivered(); got != flat {
		t.Fatalf("process 1 heard %d frames from the closed incarnation", got-flat)
	}

	start := time.Now()
	b0.Run()
	if held := time.Since(start); held > time.Second {
		t.Fatalf("sibling group's Run held %v by the closed group's timers", held)
	}

	var before, after Stats
	a0.Do(func() {
		before = a0.Transport().Stats()
		a0.Transport().Send(probe)
		after = a0.Transport().Stats()
	})
	if after.Sent != before.Sent+1 || after.Dropped != before.Dropped+1 {
		t.Fatalf("send on a closed transport: %+v -> %+v, want one counted drop", before, after)
	}

	reopened.Do(func() {
		reopened.Transport().Register(x, EndpointFunc(func(Message) {}))
		reopened.Transport().Send(probe)
	})
	waitFor(t, func() bool { return delivered() == flat+1 })
}
