package runtime

import (
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/wire"
)

// testGroup is the one group newTestNet opens; a hand-written frame
// must carry its tag to be demultiplexed to it.
var testGroup = ids.NewGroupID(1)

// testNet is one networked group view together with the mux that owns
// its socket, so a test can read the socket-level state next to it.
type testNet struct {
	*NetRuntime
	mux *NetMux
}

func (n *testNet) NetStats() NetStats      { return n.mux.NetStats() }
func (n *testNet) LocalAddr() *net.UDPAddr { return n.mux.LocalAddr() }

// newTestNet opens one networked group the way every caller gets one: a
// one-shard set, a mux binding the socket, one group view.
func newTestNet(t *testing.T, cfg NetConfig) *testNet {
	t.Helper()
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	if cfg.QuiesceIdle == 0 {
		cfg.QuiesceIdle = 20 * time.Millisecond
	}
	set := NewShardSet(1)
	mux, err := NewNetMux(cfg, set)
	if err != nil {
		set.Close()
		t.Fatalf("NewNetMux: %v", err)
	}
	t.Cleanup(func() {
		mux.Close()
		set.Close()
	})
	rt, err := mux.Open(testGroup, 0, 1, 0)
	if err != nil {
		t.Fatalf("NetMux.Open: %v", err)
	}
	return &testNet{NetRuntime: rt, mux: mux}
}

// countingEndpoint records deliveries and optionally replies.
type countingEndpoint struct {
	rt   Runtime
	id   ids.NodeID
	got  atomic.Int64
	last atomic.Uint64
	ping bool
}

func (e *countingEndpoint) HandleMessage(msg Message) {
	e.got.Add(1)
	if p, ok := msg.Body.(wire.Probe); ok {
		e.last.Store(p.Seq)
	}
	if e.ping {
		e.rt.Transport().Send(Message{From: e.id, To: msg.From, Kind: KindControl, Body: wire.Probe{}})
	}
}

// TestNetTransportLoopbackDelivery is the local-path contract: messages
// between two endpoints of one process are delivered and accounted like
// any other, but never become datagrams, and a steady-state local send
// plus its delivery allocates nothing.
func TestNetTransportLoopbackDelivery(t *testing.T) {
	rt := newTestNet(t, NetConfig{})
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	epA := &countingEndpoint{rt: rt, id: a}
	epB := &countingEndpoint{rt: rt, id: b, ping: true}
	rt.Do(func() {
		rt.Transport().Register(a, epA)
		rt.Transport().Register(b, epB)
		for i := 0; i < 10; i++ {
			rt.Transport().Send(Message{From: a, To: b, Kind: KindToken, Body: wire.Probe{Seq: uint64(i)}})
		}
	})
	rt.Run()
	if got := epB.got.Load(); got != 10 {
		t.Fatalf("b received %d, want 10", got)
	}
	if got := epA.got.Load(); got != 10 {
		t.Fatalf("a received %d echoes, want 10", got)
	}
	var st Stats
	rt.Do(func() { st = rt.Transport().Stats() })
	if st.Sent != 20 || st.Delivered != 20 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DeliveredOf(KindToken) != 10 || st.DeliveredOf(KindControl) != 10 {
		t.Fatalf("per-kind stats = %+v", st.ByKind)
	}
	if ns := rt.NetStats(); ns.Received != 0 {
		t.Fatalf("co-hosted hops reached the socket: %+v", ns)
	}

	// One send and the echo it provokes, drained on the engine goroutine
	// itself so that nothing but the local path is measured.
	msg := Message{From: a, To: b, Kind: KindToken, Body: wire.Probe{Seq: 1}}
	var allocs float64
	rt.Do(func() {
		allocs = testing.AllocsPerRun(200, func() {
			rt.Transport().Send(msg)
			rt.eng.drainLocal()
		})
	})
	if allocs != 0 {
		t.Fatalf("local send+deliver allocates %.1f objects per hop pair, want 0", allocs)
	}
	if got := epA.got.Load(); got != 10+201 {
		t.Fatalf("a received %d echoes after the alloc run, want 211", got)
	}
}

// orderEndpoint appends the Probe.Seq of everything it receives to a
// log shared with its siblings, and sends what it was told to on the
// first delivery.
type orderEndpoint struct {
	log    *[]uint64
	onRecv func()
}

func (e *orderEndpoint) HandleMessage(msg Message) {
	*e.log = append(*e.log, msg.Body.(wire.Probe).Seq)
	if fn := e.onRecv; fn != nil {
		e.onRecv = nil
		fn()
	}
}

// TestNetLocalFIFO: local messages are delivered in send order across
// endpoints, and what a handler sends queues behind what was already
// waiting.
func TestNetLocalFIFO(t *testing.T) {
	rt := newTestNet(t, NetConfig{})
	tr := rt.Transport()
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	c := ids.MakeNodeID(ids.TierAP, 3)
	var log []uint64
	send := func(to ids.NodeID, seq uint64) {
		tr.Send(Message{From: a, To: to, Kind: KindControl, Body: wire.Probe{Seq: seq}})
	}
	rt.Do(func() {
		tr.Register(b, &orderEndpoint{log: &log})
		tr.Register(c, &orderEndpoint{log: &log, onRecv: func() { send(b, 5); send(c, 6) }})
		send(b, 1)
		send(c, 2)
		send(b, 3)
		send(c, 4)
	})
	rt.Run()
	var got []uint64
	rt.Do(func() { got = append(got, log...) })
	if want := []uint64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order = %v, want %v", got, want)
	}
}

// TestNetLocalDropsGoneDestination: a local message whose destination
// crashes or unregisters between the Send and the drain is dropped and
// counted, never delivered.
func TestNetLocalDropsGoneDestination(t *testing.T) {
	rt := newTestNet(t, NetConfig{})
	tr := rt.Transport()
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	c := ids.MakeNodeID(ids.TierAP, 3)
	epB := &countingEndpoint{rt: rt, id: b}
	epC := &countingEndpoint{rt: rt, id: c}
	rt.Do(func() {
		tr.Register(b, epB)
		tr.Register(c, epC)
		tr.Send(Message{From: a, To: b, Kind: KindToken, Body: wire.Probe{}})
		tr.Send(Message{From: a, To: c, Kind: KindToken, Body: wire.Probe{}})
		tr.Crash(b)
		tr.Unregister(c)
	})
	rt.Run()
	var st Stats
	rt.Do(func() { st = tr.Stats() })
	if st.Sent != 2 || st.Dropped != 2 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 2 sent, 2 dropped, 0 delivered", st)
	}
	if epB.got.Load() != 0 || epC.got.Load() != 0 {
		t.Fatalf("gone destinations were delivered to: b=%d c=%d", epB.got.Load(), epC.got.Load())
	}
	if ns := rt.NetStats(); ns.Received != 0 || ns.UnknownPeer != 0 {
		t.Fatalf("dropped local hops leaked to the socket: %+v", ns)
	}
}

// burstEndpoint sends n local messages from inside one handler call.
type burstEndpoint struct {
	rt   Runtime
	id   ids.NodeID
	to   ids.NodeID
	n    int
	done atomic.Bool
}

func (e *burstEndpoint) HandleMessage(Message) {
	for i := 0; i < e.n; i++ {
		e.rt.Transport().Send(Message{From: e.id, To: e.to, Kind: KindNotify, Body: wire.Probe{Seq: uint64(i)}})
	}
	e.done.Store(true)
}

// TestNetLocalBurstFromHandler: a handler that sends far more local
// messages than the engine's work queue holds neither blocks on its own
// engine nor loses one.
func TestNetLocalBurstFromHandler(t *testing.T) {
	const burst = 10000 // the engine's exec channel holds 4096
	rt := newTestNet(t, NetConfig{})
	tr := rt.Transport()
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	epA := &burstEndpoint{rt: rt, id: a, to: b, n: burst}
	epB := &countingEndpoint{rt: rt, id: b}
	rt.Do(func() {
		tr.Register(a, epA)
		tr.Register(b, epB)
		tr.Send(Message{From: b, To: a, Kind: KindControl, Body: wire.Probe{}})
	})
	waitFor(t, func() bool { return epB.got.Load() == burst })
	if epB.last.Load() != burst-1 {
		t.Fatalf("last delivered seq = %d, want %d", epB.last.Load(), burst-1)
	}
	var st Stats
	rt.Do(func() { st = tr.Stats() })
	if st.Delivered != burst+1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d delivered and none dropped", st, burst+1)
	}
}

// gateEndpoint blocks its first delivery until released.
type gateEndpoint struct {
	entered chan struct{}
	release chan struct{}
	got     atomic.Int64
}

func (e *gateEndpoint) HandleMessage(Message) {
	if e.got.Add(1) == 1 {
		close(e.entered)
		<-e.release
	}
}

// TestNetLocalHoldsQuiescence: a queued or in-delivery local hop counts
// as pending work, so Run and RunUntil do not report quiescence before
// its handler has returned, however long the group has been silent.
func TestNetLocalHoldsQuiescence(t *testing.T) {
	const idle = 10 * time.Millisecond
	rt := newTestNet(t, NetConfig{QuiesceIdle: idle})
	tr := rt.Transport()
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	ep := &gateEndpoint{entered: make(chan struct{}), release: make(chan struct{})}
	rt.Do(func() {
		tr.Register(b, ep)
		tr.Send(Message{From: a, To: b, Kind: KindToken, Body: wire.Probe{}})
		tr.Send(Message{From: a, To: b, Kind: KindToken, Body: wire.Probe{}})
		if rt.quiescent() {
			t.Error("quiescent with two local hops queued")
		}
	})
	<-ep.entered // first hop in its handler, second still queued

	ran := make(chan struct{})
	go func() {
		rt.Run()
		close(ran)
	}()
	select {
	case <-ran:
		t.Fatal("Run returned while a local hop was undelivered")
	case <-time.After(5 * idle):
	}
	if rt.quiescent() {
		t.Fatal("quiescent after a silent idle window with a local hop undelivered")
	}
	close(ep.release)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the hops were delivered")
	}
	if !rt.RunUntil(func() bool { return ep.got.Load() == 2 }) {
		t.Fatalf("RunUntil gave up with %d of 2 local hops delivered", ep.got.Load())
	}
}

// TestNetTransportCrossProcess: two runtimes with a static address
// book exchange messages over loopback UDP.
func TestNetTransportCrossProcess(t *testing.T) {
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	owners := map[ids.NodeID]int{a: 0, b: 1}

	// Reserve two ports so both sides know the full book up front.
	addr0, close0 := reserveUDP(t)
	addr1, close1 := reserveUDP(t)
	close0()
	close1()
	peers := []string{addr0, addr1}

	rt0 := newTestNet(t, NetConfig{Bind: addr0, Peers: peers, Index: 0, Owners: owners})
	rt1 := newTestNet(t, NetConfig{Bind: addr1, Peers: peers, Index: 1, Owners: owners})

	epA := &countingEndpoint{rt: rt0, id: a}
	epB := &countingEndpoint{rt: rt1, id: b, ping: true}
	rt0.Do(func() { rt0.Transport().Register(a, epA) })
	rt1.Do(func() { rt1.Transport().Register(b, epB) })

	rt0.Do(func() {
		for i := 0; i < 5; i++ {
			rt0.Transport().Send(Message{From: a, To: b, Kind: KindNotify, Body: wire.Probe{Seq: uint64(i)}})
		}
	})
	waitFor(t, func() bool { return epB.got.Load() == 5 && epA.got.Load() == 5 })
	if epB.last.Load() != 4 {
		t.Fatalf("last probe seq = %d, want 4", epB.last.Load())
	}
}

// replyCheck counts the QueryReplies it is handed and those whose
// members do not read 1, 2, 3, ... in order. Engine context; it
// allocates nothing.
type replyCheck struct{ got, torn int }

func (e *replyCheck) HandleMessage(msg Message) {
	rep := msg.Body.(wire.QueryReply)
	for i, m := range rep.Members {
		if m.GUID != ids.GUID(i+1) {
			e.torn++
			break
		}
	}
	e.got++
}

// TestPayloadCopierCopiesLocalReplies: a sender lends the networked
// transport a QueryReply's members wherever it sends them, so a reply to
// an endpoint of this process, which waits on the engine's FIFO, is
// copied at Send: the sender's list changes before the hop is delivered
// here, and the handler must see it as it was sent. The copy goes into a
// spare buffer of the engine's that the next local reply reuses,
// whatever its length (here more than one datagram holds), so a warm
// reply allocates only its boxed body. A fault decorator holds messages
// past Send and must not pass the capability on.
func TestPayloadCopierCopiesLocalReplies(t *testing.T) {
	rt := newTestLive(t)
	tr := rt.Transport()
	from, to := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierMH, 7)
	members := make([]ids.MemberInfo, wire.MaxDatagramMembers+100)
	for i := range members {
		members[i].GUID = ids.GUID(i + 1)
	}
	msg := Message{From: from, To: to, Kind: KindReply, Body: wire.QueryReply{ID: 1, Members: members}}
	send := func() {
		members[0].GUID = 1
		tr.Send(msg)
		members[0].GUID = 0 // the sender's list changes before the drain
	}
	ep := &replyCheck{}
	rt.Do(func() {
		tr.Register(to, ep)
		if c, ok := tr.(PayloadCopier); !ok || !c.CopiesPayload() {
			t.Error("the networked transport does not copy a reply's members")
		}
		if _, ok := Transport(NewFaultTransport(tr, FaultPlan{Seed: 1, Reorder: 1})).(PayloadCopier); ok {
			t.Error("FaultTransport passes PayloadCopier through")
		}
	})
	rt.Do(send)
	allocs := testing.AllocsPerRun(100, func() { rt.Do(send) })
	var got, torn int
	rt.Do(func() { got, torn = ep.got, ep.torn })
	if got != 102 || torn != 0 {
		t.Fatalf("%d of %d local replies changed under their sender, want 0 of 102", torn, got)
	}
	if allocs > 1 {
		t.Errorf("a warm local reply of %d members allocates %.1f objects, want only its boxed body", len(members), allocs)
	}
}

// TestNetMuxBlockCutsBothDirections: a blocked peer slot is silenced at
// the socket — egress to it and ingress from it are both dropped and
// counted in Stats.Cut — and Unblock restores the flow. The cut holds
// the peer's address as configured; it must match the form the socket
// reports the peer's datagrams in, which on a dual-stack socket (a
// wildcard bind where IPv6 is on) is the IPv4-mapped IPv6 form.
func TestNetMuxBlockCutsBothDirections(t *testing.T) {
	for _, tc := range []struct{ name, bindHost string }{
		{"ipv4", "127.0.0.1"},
		{"dual-stack", ""},
	} {
		t.Run(tc.name, func(t *testing.T) { testBlockCutsBothDirections(t, tc.bindHost) })
	}
}

func testBlockCutsBothDirections(t *testing.T, bindHost string) {
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	rt0, rt1 := newQuietPeers(t, map[ids.NodeID]int{a: 0, b: 1}, bindHost)
	if bindHost == "" && rt0.LocalAddr().IP.To4() != nil {
		t.Skip("the wildcard bind is an IPv4 socket here: no dual stack")
	}
	epA := &countingEndpoint{rt: rt0, id: a}
	epB := &countingEndpoint{rt: rt1, id: b}
	rt0.Do(func() { rt0.Transport().Register(a, epA) })
	rt1.Do(func() { rt1.Transport().Register(b, epB) })
	send := func(rt *testNet, from, to ids.NodeID) {
		rt.Do(func() { rt.Transport().Send(Message{From: from, To: to, Kind: KindNotify, Body: wire.Probe{}}) })
	}
	cut := func() (st Stats) {
		rt0.Do(func() { st = rt0.Transport().Stats() })
		return st
	}

	// One exchange before the cut (it also spends each side's one paced
	// discovery hello, which rides in the same datagram as the frame).
	send(rt0, a, b)
	send(rt1, b, a)
	waitFor(t, func() bool {
		return epA.got.Load() == 1 && epB.got.Load() == 1 &&
			rt0.NetStats().Received == 1 && rt1.NetStats().Received == 1
	})

	rt0.mux.Block(1, 0) // the self slot is ignored
	send(rt0, a, b)     // egress, cut at rt0
	if st := cut(); st.Cut != 1 || st.Dropped != 1 {
		t.Fatalf("after a blocked send: %+v, want 1 cut", st)
	}
	send(rt1, b, a) // ingress, cut at rt0's read loop
	waitFor(t, func() bool { return cut().Cut == 2 })
	if epA.got.Load() != 1 || epB.got.Load() != 1 {
		t.Fatalf("frames crossed the cut: a=%d b=%d", epA.got.Load(), epB.got.Load())
	}

	rt0.mux.Unblock()
	send(rt0, a, b)
	send(rt1, b, a)
	waitFor(t, func() bool { return epA.got.Load() == 2 && epB.got.Load() == 2 })
	if st := cut(); st.Cut != 2 {
		t.Fatalf("cut counted after Unblock: %+v", st)
	}
}

// TestInboundDatagramAllocs: a datagram from the socket reaches its
// endpoint without allocating — source address, the walk over its
// frames, hand-off to the engine, liveness lookup, return-address
// learning and dispatch — once the free list and the maps are warm. It
// holds for a datagram of one frame and for one of four.
func TestInboundDatagramAllocs(t *testing.T) {
	for _, frames := range []int{1, 4} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) { testInboundDatagramAllocs(t, frames) })
	}
}

func testInboundDatagramAllocs(t *testing.T, frames int) {
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	rt0, _ := newQuietPeers(t, map[ids.NodeID]int{a: 0, b: 1}, "127.0.0.1")
	ep := &countingEndpoint{rt: rt0, id: a}
	rt0.Do(func() { rt0.Transport().Register(a, ep) })
	var datagram []byte
	for i := 0; i < frames; i++ {
		datagram = wire.AppendFrame(datagram, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierMH, 5), To: a, Class: byte(KindControl), TTL: 2, Payload: wire.Probe{Seq: uint64(7 + i)}})
	}
	if perDatagram := inboundMallocs(t, rt0, datagram, frames, &ep.got); perDatagram > 0.05 {
		t.Fatalf("%.2f mallocs per inbound %d-frame datagram, want 0", perDatagram, frames)
	}
}

// inboundMallocs writes datagram, whose frames are each delivered to an
// endpoint that counts them in got, to rt0 from a socket in no peer
// table (its sender is learned as a transient endpoint's return address,
// and the liveness lookup misses), and returns the mallocs per datagram
// of 2 000 of them once the path is warm. Batches are paced on delivery,
// so the socket buffer never overflows.
func inboundMallocs(t *testing.T, rt0 *testNet, datagram []byte, frames int, got *atomic.Int64) float64 {
	t.Helper()
	const n, batch = 2000, 100
	conn, err := net.DialUDP("udp", nil, rt0.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(total int) {
		deadline := time.Now().Add(5 * time.Second)
		for sent := 0; sent < total; sent += batch {
			want := got.Load() + int64(batch*frames)
			for i := 0; i < batch; i++ {
				if _, err := conn.Write(datagram); err != nil {
					t.Fatal(err)
				}
			}
			for got.Load() < want {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d frames delivered", got.Load(), want)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	// Warm up. A batch read while the shard is held puts as many records
	// in flight as a batch ever can, so the free list is as long as the
	// timed sends can need however the engine keeps pace with them.
	release := holdShard(rt0)
	base, start := received(rt0), got.Load()
	for i := 0; i <= batch; i++ {
		if _, err := conn.Write(datagram); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return received(rt0) == base+batch+1 })
	release()
	waitFor(t, func() bool { return got.Load() == start+int64((batch+1)*frames) })
	send(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// replyFrame encodes QueryReply id of n members, each with GUID id, from
// a transient sender to dst, tagged for the test group.
func replyFrame(dst ids.NodeID, id uint64, n int) []byte {
	members := make([]ids.MemberInfo, n)
	for i := range members {
		members[i] = ids.MemberInfo{GUID: ids.GUID(id), AP: dst, GID: testGroup}
	}
	return wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierMH, 5), To: dst,
		Class: byte(KindReply), TTL: 2, Payload: wire.QueryReply{ID: id, Members: members}})
}

// replyHolder holds each QueryReply it is handed until the read loop has
// decoded the next one, then checks that its own members still read as
// they were sent.
type replyHolder struct {
	eng       *engineCore
	last      uint64 // the reply no other follows
	got, torn atomic.Int64
}

func (e *replyHolder) HandleMessage(msg Message) {
	rep := msg.Body.(wire.QueryReply)
	// Decoding the next reply is done once its record is queued behind
	// this one's.
	for deadline := time.Now().Add(5 * time.Second); rep.ID < e.last && e.eng.pending.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	for _, m := range rep.Members {
		if uint64(m.GUID) != rep.ID {
			e.torn.Add(1)
			break
		}
	}
	e.got.Add(1)
}

// TestInboundReplyValidDuringHandler: a reply's member buffer goes back
// to the socket only after its handler returns, so the read loop cannot
// decode the next reply into members a handler is still reading.
func TestInboundReplyValidDuringHandler(t *testing.T) {
	const n = 50
	rt := newTestNet(t, NetConfig{})
	a := ids.MakeNodeID(ids.TierAP, 1)
	ep := &replyHolder{eng: rt.eng, last: n}
	rt.Do(func() { rt.Transport().Register(a, ep) })
	conn, err := net.DialUDP("udp", nil, rt.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for id := uint64(1); id <= n; id++ {
		sendPaced(t, conn, rt, replyFrame(a, id, 100), 1)
	}
	waitFor(t, func() bool { return ep.got.Load() == n })
	if torn := ep.torn.Load(); torn != 0 {
		t.Fatalf("%d of %d replies changed under their handler", torn, n)
	}
}

// sendPaced writes frame to conn total times, each time once the read
// loop has read the one before, so the socket buffer never overflows
// whatever the engine is doing. It reads the socket's own counter:
// NetStats waits for the engine.
func sendPaced(t *testing.T, conn *net.UDPConn, rt *testNet, frame []byte, total int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	received := &rt.mux.sock.received
	base := received.Load()
	for sent := uint64(1); sent <= uint64(total); sent++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		for received.Load() < base+sent {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d datagrams read", received.Load()-base, sent)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestInboundQueryReplyAllocs: a QueryReply from the socket is decoded
// into a member buffer the socket keeps, so once warm a 1 000-member
// reply costs at most the one small object that boxes it as a Payload,
// not its 40 KB of members. Each reply is sent once the one before was
// handled, as a query's replies arrive at a requester.
func TestInboundQueryReplyAllocs(t *testing.T) {
	const n = 400
	rt := newTestNet(t, NetConfig{})
	a := ids.MakeNodeID(ids.TierAP, 1)
	ep := &countingEndpoint{rt: rt, id: a}
	rt.Do(func() { rt.Transport().Register(a, ep) })
	conn, err := net.DialUDP("udp", nil, rt.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := replyFrame(a, 1, 1000)
	// The handler counts a reply before its record goes back to the
	// socket: wait for the buffer too, or the next reply finds no spare.
	sock := rt.mux.sock
	spareBack := func() bool {
		sock.freeMu.Lock()
		defer sock.freeMu.Unlock()
		return len(sock.spare) > 0
	}
	send := func() {
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < n; i++ {
			want := ep.got.Load() + 1
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			for ep.got.Load() < want || !spareBack() {
				if time.Now().After(deadline) {
					t.Fatalf("reply %d of %d not delivered", i+1, n)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	send() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send()
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("per 1000-member reply datagram: %.2f objects, %.0f B", mallocs, bytes)
	if mallocs > 1 || bytes >= 128 {
		t.Fatalf("a 1000-member reply datagram allocates %.2f objects, %.0f B; want at most 1 and under 128 B", mallocs, bytes)
	}
}

// TestInboundReplyFloodKeepsOneDatagramOfSpares: replies that pile up
// behind a stalled engine each hold a member buffer of their own, and
// when the engine drains them the socket keeps at most one datagram's
// worth of them for later replies.
func TestInboundReplyFloodKeepsOneDatagramOfSpares(t *testing.T) {
	const flood = 256 // each holds ~79 KB of members until the engine runs
	rt := newTestNet(t, NetConfig{})
	gate, sink := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	blocker := &gateEndpoint{entered: make(chan struct{}), release: make(chan struct{})}
	ep := &countingEndpoint{rt: rt, id: sink}
	rt.Do(func() {
		rt.Transport().Register(gate, blocker)
		rt.Transport().Register(sink, ep)
	})
	conn, err := net.DialUDP("udp", nil, rt.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierMH, 5), To: gate, Class: byte(KindControl), TTL: 2, Payload: wire.Probe{}})); err != nil {
		t.Fatal(err)
	}
	<-blocker.entered // the engine is stuck in a handler from here on

	frame := replyFrame(sink, 1, 2424) // the most one datagram carries
	if len(frame) > wire.MaxDatagram {
		t.Fatalf("a 2424-member reply is %d bytes, over one datagram", len(frame))
	}
	sendPaced(t, conn, rt, frame, flood)
	close(blocker.release)
	waitFor(t, func() bool { return ep.got.Load() == flood })

	s := rt.mux.sock
	s.freeMu.Lock()
	kept, total := s.spareCap, 0
	for _, b := range s.spare {
		total += cap(b)
	}
	s.freeMu.Unlock()
	if kept != total || kept == 0 || kept > wire.MaxDatagramMembers {
		t.Fatalf("after the flood the socket keeps %d spare members (counted %d), want 1..%d", total, kept, wire.MaxDatagramMembers)
	}
}

// TestOversizeAtTheUDPLimit: a frame one byte past what IPv4 carries in
// one UDP datagram is refused before the socket and counted as
// Oversize; the largest reply that fits is delivered.
func TestOversizeAtTheUDPLimit(t *testing.T) {
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	rt0, rt1 := newQuietPeers(t, map[ids.NodeID]int{a: 0, b: 1}, "127.0.0.1")
	ep := &countingEndpoint{rt: rt1, id: b}
	rt1.Do(func() { rt1.Transport().Register(b, ep) })
	send := func(members int) {
		rt0.Do(func() {
			rt0.Transport().Send(Message{From: a, To: b, Kind: KindReply,
				Body: wire.QueryReply{Members: make([]ids.MemberInfo, members)}})
		})
	}
	if n := len(replyFrame(b, 1, 2425)); n != 65522 {
		t.Fatalf("a 2425-member reply encodes to %d bytes, want 65522", n)
	}
	send(2425)
	if ns := rt0.NetStats(); ns.Oversize != 1 {
		t.Fatalf("a 65522-byte frame: %+v, want Oversize 1", ns)
	}
	if n := len(replyFrame(b, 1, 2424)); n != 65495 {
		t.Fatalf("a 2424-member reply encodes to %d bytes, want 65495", n)
	}
	send(2424)
	waitFor(t, func() bool { return ep.got.Load() == 1 })
	if ns := rt0.NetStats(); ns.Oversize != 1 {
		t.Fatalf("the 65495-byte frame was refused: %+v", ns)
	}
}

// TestGossipAddressesAreParsedNotResolved: an address a peer supplies is
// parsed, never resolved — a DNS lookup would stall the discovery
// engine, and the read loop behind it once its queue fills. A PeerList row
// naming a host is ignored, and a hello naming one falls back to the
// datagram's source; numeric addresses are adopted as before.
func TestGossipAddressesAreParsedNotResolved(t *testing.T) {
	addr0, close0 := reserveUDP(t)
	addr1, close1 := reserveUDP(t)
	moved, closeMoved := reserveUDP(t)
	close0()
	close1()
	closeMoved()
	_, movedPort, _ := net.SplitHostPort(moved)
	named := net.JoinHostPort("localhost", movedPort)
	rt := newTestNet(t, NetConfig{Bind: addr0, Peers: []string{addr0, addr1}, Index: 0,
		GossipInterval: time.Hour, ProbeInterval: time.Hour})
	d, table := rt.mux.disc, rt.mux.book.table
	configured := table.AddrOf(1)

	d.mergePeers(wire.PeerList{Peers: []wire.PeerEntry{{Slot: 1, Addr: named}}})
	if got := table.AddrOf(1); got != configured {
		t.Fatalf("a row naming a host moved slot 1 from %v to %v", configured, got)
	}
	d.mergePeers(wire.PeerList{Peers: []wire.PeerEntry{{Slot: 1, Addr: moved}}})
	if got := table.AddrOf(1); got.String() != moved {
		t.Fatalf("slot 1 = %v after a numeric row, want %s", got, moved)
	}

	src := netip.MustParseAddrPort(addr1)
	d.eng.do(func() { d.onHello(wire.PeerHello{Slot: 1, Addr: named}, src) })
	if got := table.AddrOf(1); got != src {
		t.Fatalf("slot 1 = %v after a hello naming a host, want its source %v", got, src)
	}
}

// TestNetTransportDecodeAccounting: garbage and wrong-version
// datagrams are counted, not delivered, and never crash the runtime.
func TestNetTransportDecodeAccounting(t *testing.T) {
	rt := newTestNet(t, NetConfig{})
	a := ids.MakeNodeID(ids.TierAP, 1)
	ep := &countingEndpoint{rt: rt, id: a}
	rt.Do(func() { rt.Transport().Register(a, ep) })

	conn, err := net.DialUDP("udp", nil, rt.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Garbage, then a frame with a hostile version byte.
	conn.Write([]byte("not a frame at all"))
	bad := wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: a, To: a, Class: 0, TTL: 2, Payload: wire.Probe{}})
	bad[2] = 42 // version
	conn.Write(bad)
	good := wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierAP, 9), To: a, Class: 0, TTL: 2, Payload: wire.Probe{Seq: 7}})
	conn.Write(good)

	waitFor(t, func() bool { return ep.got.Load() == 1 })
	ns := rt.NetStats()
	if ns.DecodeErrors != 1 || ns.UnknownVersion != 1 || ns.Received != 3 {
		t.Fatalf("net stats = %+v", ns)
	}
}

// TestNetTransportRelay: a frame for an entity another process owns is
// forwarded toward its owner, and TTL exhaustion is accounted.
func TestNetTransportRelay(t *testing.T) {
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	owners := map[ids.NodeID]int{a: 0, b: 1}

	addr0, close0 := reserveUDP(t)
	addr1, close1 := reserveUDP(t)
	close0()
	close1()
	peers := []string{addr0, addr1}

	rt0 := newTestNet(t, NetConfig{Bind: addr0, Peers: peers, Index: 0, Owners: owners})
	rt1 := newTestNet(t, NetConfig{Bind: addr1, Peers: peers, Index: 1, Owners: owners})
	epB := &countingEndpoint{rt: rt1, id: b}
	rt1.Do(func() { rt1.Transport().Register(b, epB) })

	// A third party sends a frame for b at rt0; rt0 relays it.
	conn, err := net.DialUDP("udp", nil, rt0.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierMH, 5), To: b, Class: 0, TTL: 4, Payload: wire.Probe{Seq: 11}}))
	waitFor(t, func() bool { return epB.got.Load() == 1 })
	if ns := rt0.NetStats(); ns.Relayed != 1 {
		t.Fatalf("relay stats = %+v", ns)
	}

	// TTL 1 dies at the first relay hop.
	conn.Write(wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierMH, 5), To: b, Class: 0, TTL: 1, Payload: wire.Probe{}}))
	waitFor(t, func() bool { return rt0.NetStats().TTLExpired == 1 })
	if epB.got.Load() != 1 {
		t.Fatal("TTL-expired frame was delivered")
	}
}

// TestNetTransportRelayDedup: a duplicate of a relayed frame inside the
// dedup TTL window is dropped, not forwarded — including a copy that
// differs only in its TTL byte, the one field a relay hop legitimately
// rewrites.
func TestNetTransportRelayDedup(t *testing.T) {
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	owners := map[ids.NodeID]int{a: 0, b: 1}

	addr0, close0 := reserveUDP(t)
	addr1, close1 := reserveUDP(t)
	close0()
	close1()
	peers := []string{addr0, addr1}

	rt0 := newTestNet(t, NetConfig{Bind: addr0, Peers: peers, Index: 0, Owners: owners, DedupTTL: 10 * time.Second})
	rt1 := newTestNet(t, NetConfig{Bind: addr1, Peers: peers, Index: 1, Owners: owners})
	epB := &countingEndpoint{rt: rt1, id: b}
	rt1.Do(func() { rt1.Transport().Register(b, epB) })

	conn, err := net.DialUDP("udp", nil, rt0.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	from := ids.MakeNodeID(ids.TierMH, 5)
	frame := wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: from, To: b, Class: 0, TTL: 4, Payload: wire.Probe{Seq: 11}})
	conn.Write(frame)
	waitFor(t, func() bool { return rt0.NetStats().Relayed == 1 })

	// The identical datagram again, then a copy with a different TTL:
	// both must hash to the relayed frame and be dropped.
	conn.Write(frame)
	conn.Write(wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: from, To: b, Class: 0, TTL: 7, Payload: wire.Probe{Seq: 11}}))
	waitFor(t, func() bool { return rt0.NetStats().DupDropped == 2 })

	// A genuinely new frame still relays.
	conn.Write(wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: from, To: b, Class: 0, TTL: 4, Payload: wire.Probe{Seq: 12}}))
	waitFor(t, func() bool { return epB.got.Load() == 2 })
	if ns := rt0.NetStats(); ns.Relayed != 2 || ns.DupDropped != 2 {
		t.Fatalf("relay dedup stats = %+v", ns)
	}
}

// TestNetTransportReplayFloodBounded: a sender whose fault plan replays
// every message floods a relay with duplicate datagrams; the relay
// forwards each frame once, and the dedup map's two-generation rotation
// releases the flood's memory once the TTL window passes.
func TestNetTransportReplayFloodBounded(t *testing.T) {
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)

	addr0, close0 := reserveUDP(t)
	addr1, close1 := reserveUDP(t)
	addr2, close2 := reserveUDP(t)
	close0()
	close1()
	close2()
	peers := []string{addr0, addr1, addr2}

	// rt0's book knows b lives at slot 1; the sender's stale book says
	// slot 0, so every frame lands on rt0 and must be relayed onward.
	rt0 := newTestNet(t, NetConfig{Bind: addr0, Peers: peers, Index: 0,
		Owners: map[ids.NodeID]int{a: 2, b: 1}, DedupTTL: 100 * time.Millisecond})
	rt1 := newTestNet(t, NetConfig{Bind: addr1, Peers: peers, Index: 1,
		Owners: map[ids.NodeID]int{a: 2, b: 1}})
	rtS := newTestNet(t, NetConfig{Bind: addr2, Peers: peers, Index: 2,
		Owners: map[ids.NodeID]int{a: 2, b: 0}})
	replay := NewFaultTransport(rtS.Transport(), FaultPlan{Seed: 1, Duplicate: 1})

	epA := &countingEndpoint{rt: rtS, id: a}
	epB := &countingEndpoint{rt: rt1, id: b}
	rtS.Do(func() { replay.Register(a, epA) })
	rt1.Do(func() { rt1.Transport().Register(b, epB) })

	// Flood in batches paced by the receiver catching up, so loopback
	// buffers never overflow however slow the read loops are (under the
	// race detector a fixed sleep is not enough): the replay fault sends
	// every message twice, and the two datagrams are byte-identical.
	const total = 1500
	for sent := 0; sent < total; sent += 100 {
		lo, hi := sent, sent+100
		rtS.Do(func() {
			for i := lo; i < hi; i++ {
				replay.Send(Message{From: a, To: b, Kind: KindNotify, Body: wire.Probe{Seq: uint64(i)}})
			}
		})
		waitFor(t, func() bool { return epB.got.Load() >= int64(hi) })
	}

	// Every frame arrives exactly once despite the 2x flood.
	waitFor(t, func() bool { return epB.got.Load() == total })
	ns := rt0.NetStats()
	if ns.Relayed != total || ns.DupDropped != total {
		t.Fatalf("flood stats = %+v, want Relayed=DupDropped=%d", ns, total)
	}
	if dup := replay.FaultStats().Duplicated; dup != total {
		t.Fatalf("fault replays = %d, want %d", dup, total)
	}

	// The flood pinned at most one TTL window of keys; after two quiet
	// windows the next relay rotates both generations away.
	if n := rt0.tr.dedup.Len(); n == 0 || n > total+1 {
		t.Fatalf("dedup entries after flood = %d", n)
	}
	time.Sleep(250 * time.Millisecond)
	conn, err := net.DialUDP("udp", nil, rt0.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierMH, 9), To: b, Class: 0, TTL: 4, Payload: wire.Probe{Seq: 1 << 40}}))
	waitFor(t, func() bool { return rt0.NetStats().Relayed == total+1 })
	if n := rt0.tr.dedup.Len(); n > 2 {
		t.Fatalf("dedup map held %d entries after two idle TTL windows", n)
	}
}

// warmPeers sends one frame from `from` on procs[0] to each of eps, the
// endpoints of procs[1:], and waits until every peer has read it; the
// first also carries procs[0]'s one paced discovery hello, so that from
// then on a peer reads exactly the frames a test sends it. It returns
// each peer's datagram count at that point.
func warmPeers(t *testing.T, procs []*testNet, from ids.NodeID, eps []*countingEndpoint) []uint64 {
	t.Helper()
	for _, ep := range eps {
		procs[0].Do(func() {
			procs[0].Transport().Send(Message{From: from, To: ep.id, Kind: KindNotify, Body: wire.Probe{}})
		})
	}
	base := make([]uint64, len(eps))
	for i, ep := range eps {
		waitFor(t, func() bool { return ep.got.Load() == 1 && received(procs[i+1]) == 1 })
		base[i] = 1
	}
	return base
}

// TestBacklogCoalescesPerPeer: sends queued behind a busy item run as
// one batch, whose frames reach each peer in a single datagram.
func TestBacklogCoalescesPerPeer(t *testing.T) {
	const k = 40
	a, b, c := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2), ids.MakeNodeID(ids.TierAP, 3)
	procs := newQuietProcs(t, 3, NetConfig{Owners: map[ids.NodeID]int{a: 0, b: 1, c: 2}}, "127.0.0.1")
	epB := &countingEndpoint{rt: procs[1], id: b}
	epC := &countingEndpoint{rt: procs[2], id: c}
	procs[1].Do(func() { procs[1].Transport().Register(b, epB) })
	procs[2].Do(func() { procs[2].Transport().Register(c, epC) })
	base := warmPeers(t, procs, a, []*countingEndpoint{epB, epC})

	rt := procs[0]
	release := holdShard(rt)
	for i := 0; i < k; i++ {
		to := []ids.NodeID{b, c}[i%2]
		rt.eng.submit(func() {
			rt.Transport().Send(Message{From: a, To: to, Kind: KindNotify, Body: wire.Probe{Seq: uint64(i)}})
		})
	}
	release()
	waitFor(t, func() bool { return epB.got.Load()+epC.got.Load() == 2+k })
	if gotB, gotC := received(procs[1])-base[0], received(procs[2])-base[1]; gotB != 1 || gotC != 1 {
		t.Fatalf("%d sends in one backlog reached the peers in %d and %d datagrams, want 1 each", k, gotB, gotC)
	}
	if epB.last.Load() != k-2 || epC.last.Load() != k-1 {
		t.Fatalf("last frames read %d and %d, want %d and %d: a datagram keeps send order", epB.last.Load(), epC.last.Load(), k-2, k-1)
	}
}

// TestIdleShardWritesThrough: on a shard with nothing queued a frame is
// written during the item that sends it, not at the item's end.
func TestIdleShardWritesThrough(t *testing.T) {
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	rt0, rt1 := newQuietPeers(t, map[ids.NodeID]int{a: 0, b: 1}, "127.0.0.1")
	ep := &countingEndpoint{rt: rt1, id: b}
	rt1.Do(func() { rt1.Transport().Register(b, ep) })
	reached := false
	rt0.Do(func() {
		rt0.Transport().Send(Message{From: a, To: b, Kind: KindNotify, Body: wire.Probe{}})
		for deadline := time.Now().Add(5 * time.Second); ep.got.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		reached = ep.got.Load() == 1
	})
	if !reached {
		t.Fatal("an idle shard's frame did not reach its peer while the sending item ran")
	}
}

// TestCoalescedFramesSplitAtMaxDatagram: a backlog whose frames to one
// peer add up to more than one UDP datagram goes out in as many full
// datagrams as it takes, none lost and none counted Oversize.
func TestCoalescedFramesSplitAtMaxDatagram(t *testing.T) {
	const k, members = 5, 600
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	procs := newQuietProcs(t, 2, NetConfig{Owners: map[ids.NodeID]int{a: 0, b: 1}}, "127.0.0.1")
	ep := &countingEndpoint{rt: procs[1], id: b}
	procs[1].Do(func() { procs[1].Transport().Register(b, ep) })
	base := warmPeers(t, procs, a, []*countingEndpoint{ep})[0]

	perDatagram := wire.MaxDatagram / len(replyFrame(b, 1, members))
	want := uint64((k + perDatagram - 1) / perDatagram)
	if want < 2 {
		t.Fatalf("%d frames of %d members fit one datagram: the test needs more", k, members)
	}
	rt := procs[0]
	release := holdShard(rt)
	for i := 0; i < k; i++ {
		rt.eng.submit(func() {
			rt.Transport().Send(Message{From: a, To: b, Kind: KindReply,
				Body: wire.QueryReply{ID: uint64(i), Members: make([]ids.MemberInfo, members)}})
		})
	}
	release()
	waitFor(t, func() bool { return ep.got.Load() == 1+k })
	if got := received(procs[1]) - base; got != want {
		t.Fatalf("%d frames of %d members arrived in %d datagrams, want %d", k, members, got, want)
	}
	if ns := rt.NetStats(); ns.Oversize != 0 || ns.WriteFailed != 0 {
		t.Fatalf("splitting a backlog at the datagram limit: %+v", ns)
	}
}

// TestInboundCoalescedMalformedFrame: a datagram whose middle frame does
// not decode delivers the frames before it, drops the rest and counts
// one decode error.
func TestInboundCoalescedMalformedFrame(t *testing.T) {
	rt := newTestNet(t, NetConfig{})
	a := ids.MakeNodeID(ids.TierAP, 1)
	ep := &countingEndpoint{rt: rt, id: a}
	rt.Do(func() { rt.Transport().Register(a, ep) })
	conn, err := net.DialUDP("udp", nil, rt.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := func(seq uint64) []byte {
		return wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierMH, 5), To: a, Class: byte(KindControl), TTL: 2, Payload: wire.Probe{Seq: seq}})
	}
	bad := frame(2)
	bad[0] = 'X' // its length still reads, its magic does not
	if _, err := conn.Write(slices.Concat(frame(1), bad, frame(3))); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame(4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ep.last.Load() == 4 })
	if got := ep.got.Load(); got != 2 {
		t.Fatalf("%d frames delivered, want 2: the first of the datagram and the next datagram", got)
	}
	if ns := rt.NetStats(); ns.DecodeErrors != 1 || ns.Received != 2 {
		t.Fatalf("net stats = %+v, want 1 decode error in 2 datagrams", ns)
	}
}

// TestRelayDedupPerCoalescedFrame: frames that arrive in one datagram
// are relayed and deduplicated one by one.
func TestRelayDedupPerCoalescedFrame(t *testing.T) {
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	procs := newQuietProcs(t, 2, NetConfig{Owners: map[ids.NodeID]int{a: 0, b: 1}, DedupTTL: 10 * time.Second}, "127.0.0.1")
	ep := &countingEndpoint{rt: procs[1], id: b}
	procs[1].Do(func() { procs[1].Transport().Register(b, ep) })
	conn, err := net.DialUDP("udp", nil, procs[0].LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := func(seq uint64, ttl uint8) []byte {
		return wire.AppendFrame(nil, wire.Frame{Group: testGroup, From: ids.MakeNodeID(ids.TierMH, 5), To: b, Class: 0, TTL: ttl, Payload: wire.Probe{Seq: seq}})
	}
	// The second frame is the first over a longer path: a duplicate.
	if _, err := conn.Write(slices.Concat(frame(11, 4), frame(11, 7), frame(12, 4))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ep.last.Load() == 12 })
	if ns := procs[0].NetStats(); ns.Relayed != 2 || ns.DupDropped != 1 {
		t.Fatalf("relay stats = %+v, want 2 relayed and 1 duplicate", ns)
	}
	if got := ep.got.Load(); got != 2 {
		t.Fatalf("%d relayed frames delivered, want 2", got)
	}
}

// TestCoalescedCutAtQueueTime: the partition cut applies when a frame is
// queued, not when its batch is written: a frame queued while its peer
// was blocked stays cut though the block is gone at the flush, and one
// queued after the block lifted goes out.
func TestCoalescedCutAtQueueTime(t *testing.T) {
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	procs := newQuietProcs(t, 2, NetConfig{Owners: map[ids.NodeID]int{a: 0, b: 1}}, "127.0.0.1")
	ep := &countingEndpoint{rt: procs[1], id: b}
	procs[1].Do(func() { procs[1].Transport().Register(b, ep) })
	warmPeers(t, procs, a, []*countingEndpoint{ep})

	rt := procs[0]
	send := func(seq uint64) func() {
		return func() { rt.Transport().Send(Message{From: a, To: b, Kind: KindNotify, Body: wire.Probe{Seq: seq}}) }
	}
	release := holdShard(rt)
	rt.mux.Block(1)
	rt.eng.submit(send(1))
	rt.eng.submit(rt.mux.Unblock)
	rt.eng.submit(send(2))
	release()
	waitFor(t, func() bool { return ep.last.Load() == 2 })
	var st Stats
	rt.Do(func() { st = rt.Transport().Stats() })
	if st.Cut != 1 || ep.got.Load() != 2 {
		t.Fatalf("cut %d, delivered %d after the warm-up's 1; want the blocked frame cut and the other delivered", st.Cut, ep.got.Load())
	}
}

// TestCoalescedDrainOnClose: the frames of the items a closing shard
// drains still go out. (The loop may run the queued items as a batch
// before it sees the close; either way nothing is left unsent.)
func TestCoalescedDrainOnClose(t *testing.T) {
	const k = 8
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	procs := newQuietProcs(t, 2, NetConfig{Owners: map[ids.NodeID]int{a: 0, b: 1}}, "127.0.0.1")
	ep := &countingEndpoint{rt: procs[1], id: b}
	procs[1].Do(func() { procs[1].Transport().Register(b, ep) })
	warmPeers(t, procs, a, []*countingEndpoint{ep})

	rt := procs[0]
	release := holdShard(rt)
	for i := 0; i < k; i++ {
		rt.eng.submit(func() {
			rt.Transport().Send(Message{From: a, To: b, Kind: KindNotify, Body: wire.Probe{Seq: uint64(i)}})
		})
	}
	stopped := make(chan struct{})
	go func() {
		rt.mux.set.Close()
		close(stopped)
	}()
	<-rt.eng.closed
	release()
	<-stopped
	waitFor(t, func() bool { return ep.got.Load() == 1+k })
}

// TestWriteFailedCounted: the frames of a datagram the socket refuses
// are counted once each, in NetStats.WriteFailed and in the group's
// Dropped, whether the shard wrote the frame through or as a backlog.
// An IPv4 socket refuses an IPv6 destination before any packet leaves.
func TestWriteFailedCounted(t *testing.T) {
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	rt := newTestNet(t, NetConfig{Bind: "127.0.0.1:0", Peers: []string{"127.0.0.1:9", "[::1]:9"}, Index: 0,
		Owners: map[ids.NodeID]int{a: 0, b: 1}, GossipInterval: time.Hour, ProbeInterval: time.Hour})
	send := func() { rt.Transport().Send(Message{From: a, To: b, Kind: KindNotify, Body: wire.Probe{}}) }
	counts := func() (uint64, uint64) {
		var st Stats
		rt.Do(func() { st = rt.Transport().Stats() })
		return rt.NetStats().WriteFailed, st.Dropped
	}

	rt.Do(send)
	if failed, dropped := counts(); failed != 1 || dropped != 1 {
		t.Fatalf("a refused write-through: WriteFailed %d, Dropped %d; want 1 and 1", failed, dropped)
	}
	release := holdShard(rt)
	for i := 0; i < 3; i++ {
		rt.eng.submit(send)
	}
	release()
	// A read queued now may run inside the batch, before its flush.
	waitFor(t, func() bool { return rt.NetStats().WriteFailed >= 4 })
	if failed, dropped := counts(); failed != 4 || dropped != 4 {
		t.Fatalf("a refused 3-frame datagram: WriteFailed %d, Dropped %d; want 4 and 4", failed, dropped)
	}
}

// TestNetRuntimeTimers: a timer holds a socketed view's Run, too.
func TestNetRuntimeTimers(t *testing.T) {
	rt := newTestNet(t, NetConfig{})
	var fired atomic.Bool
	rt.Do(func() {
		rt.Clock().After(2*time.Millisecond, func() { fired.Store(true) })
	})
	rt.Run()
	if !fired.Load() {
		t.Fatal("timer did not fire")
	}
}

// newQuietPeers opens a two-process deployment on loopback with the
// given ownership (newQuietProcs). Process 0 binds bindHost0 ("" is the
// wildcard); both are configured as 127.0.0.1.
func newQuietPeers(t *testing.T, owners map[ids.NodeID]int, bindHost0 string) (rt0, rt1 *testNet) {
	t.Helper()
	p := newQuietProcs(t, 2, NetConfig{Owners: owners}, bindHost0)
	return p[0], p[1]
}

// newQuietProcs opens an n-process deployment on loopback from cfg,
// whose address book it fills in: more than one peer turns the
// discovery plane on, and hour-long intervals keep it quiet, so only a
// test's own frames cross (plus one paced hello in each process's first
// datagram). Process 0 binds bindHost0 ("" is the wildcard); all
// are configured as 127.0.0.1.
func newQuietProcs(t *testing.T, n int, cfg NetConfig, bindHost0 string) []*testNet {
	t.Helper()
	peers := make([]string, n)
	for i := range peers {
		addr, release := reserveUDP(t)
		release()
		peers[i] = addr
	}
	cfg.Peers, cfg.GossipInterval, cfg.ProbeInterval = peers, time.Hour, time.Hour
	procs := make([]*testNet, n)
	for i := range procs {
		c := cfg
		c.Bind, c.Index = peers[i], i
		if i == 0 {
			_, port, _ := net.SplitHostPort(peers[0])
			c.Bind = net.JoinHostPort(bindHost0, port)
		}
		procs[i] = newTestNet(t, c)
	}
	return procs
}

// holdShard parks rt's shard in a work item until the returned release
// is called: whatever is queued meanwhile runs as one backlog.
func holdShard(rt *testNet) (release func()) {
	held, done := make(chan struct{}), make(chan struct{})
	go rt.Do(func() {
		close(held)
		<-done
	})
	<-held
	return func() { close(done) }
}

// received reads rt's socket-level datagram count without the engine.
func received(rt *testNet) uint64 { return rt.mux.sock.received.Load() }

func waitFor(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// reserveUDP binds an ephemeral UDP port and returns its address plus
// a release func; the tiny window between release and rebind is
// acceptable on loopback.
func reserveUDP(t *testing.T) (string, func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return conn.LocalAddr().String(), func() { conn.Close() }
}
