package runtime

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/rgbproto/rgb/internal/discovery"
	"github.com/rgbproto/rgb/internal/wire"
)

// This file is the runtime half of the discovery plane: the discoverer
// owns the wire conversation (PeerHello/PeerList/liveness probes) that
// keeps the discovery.Table fresh, while the table itself stays a pure
// data structure. Discovery frames are socket-scoped: the read loop
// picks them out before any group demultiplexing and hands them to the
// discoverer's own engine, so one exchange serves every group of a
// NetMux and never competes with protocol work for a shard's time.
//
// The discoverer is one more engineCore with its own liveClock: its
// sweep is a kernel ticker, its frames are encoded into the engine's
// own netBufs and leave through datagram.write, and all of its state
// but the table is engine-owned. The seed bootstrap is a correlated RPC
// in the taschain NetCore style, kept as engine state: the request
// carries bootSeq, the reply echoes it, and a retry ticker and a
// deadline event bound it (gossip reuses the same payloads with Seq 0).

// BootstrapInfo is what a seed bootstrap found out about the deployment:
// the hierarchy shape to build locally and the slot this process ended
// up with, the one it claimed or, slotless, its client slot past every
// cluster slot (Slot >= Slots).
type BootstrapInfo struct {
	H, R  int
	Slots int
	Slot  int
}

// bootReply is how a bootstrap ended: what the seed's reply was adopted
// as, or why it was refused.
type bootReply struct {
	info BootstrapInfo
	err  error
}

const (
	// bootstrapRetry is how often the bootstrap hello is re-sent to
	// every seed until a PeerList arrives (bounded by
	// NetConfig.BootstrapTimeout).
	bootstrapRetry = 500 * time.Millisecond

	// bootSeq is the correlation Seq of a process's one bootstrap RPC.
	bootSeq = 1

	// discoveryQueue sizes the discovery engine's work queue. It carries
	// a few discovery frames a second and the sweep's ring; a burst past
	// it holds the read loop only until the engine drains.
	discoveryQueue = 32
)

// discoverer runs the peer-discovery conversation for one socket.
type discoverer struct {
	eng   *engineCore
	clock *liveClock
	bufs  *netBufs
	sock  *netSock
	book  *netBook

	hello wire.PeerHello // what we announce (Seq 0)
	seeds []netip.AddrPort

	bootTimeout  time.Duration
	suspectAfter time.Duration
	evictAfter   time.Duration

	// evict hands one evicted slot to the open groups (NetMux.evict).
	evict func(slot int)

	// The rest is engine-owned.
	shapeH, shapeR int // hierarchy shape served to joiners
	gossipIdx      int // round-robin cursor of a member's periodic gossip

	// booted, while a seed bootstrap runs, is the channel its caller
	// waits on: the reply sends what it adopted, or why it could not,
	// and the deadline closes it.
	booted   chan bootReply
	retry    Ticker
	deadline TimerHandle
}

// newDiscoverer resolves the seed addresses and starts the discovery
// engine for one socket, its sweep armed. It also gives the socket the
// encoded hello that group egress piggybacks.
func newDiscoverer(sock *netSock, book *netBook, cfg NetConfig, evict func(slot int)) (*discoverer, error) {
	seeds := make([]netip.AddrPort, 0, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		a, err := resolveUDP(s)
		if err != nil {
			return nil, fmt.Errorf("runtime: seed %q: %w", s, err)
		}
		seeds = append(seeds, a)
	}
	bufs := new(netBufs)
	eng := newEngineCore(bufs.flush, discoveryQueue)
	d := &discoverer{
		eng:          eng,
		clock:        newLiveClock(eng),
		bufs:         bufs,
		sock:         sock,
		book:         book,
		hello:        wire.PeerHello{Slot: int32(book.selfIndex), Addr: book.self.String()},
		seeds:        seeds,
		bootTimeout:  cfg.BootstrapTimeout,
		suspectAfter: cfg.SuspectAfter,
		evictAfter:   cfg.EvictAfter,
		evict:        evict,
		shapeH:       cfg.H,
		shapeR:       cfg.R,
	}
	sock.hello = wire.AppendFrame(nil, discoveryFrame(d.hello))
	sock.helloEvery = cfg.GossipInterval
	eng.do(func() { d.clock.Every(cfg.ProbeInterval, d.tick) })
	return d, nil
}

// stop ends the discovery engine and its timers.
func (d *discoverer) stop() {
	d.eng.do(d.clock.close)
	d.eng.stop()
}

// discoveryFrame wraps a discovery payload: class control, zero
// addressing.
func discoveryFrame(p wire.Payload) wire.Frame {
	return wire.Frame{Class: uint8(KindControl), Payload: p}
}

// intercept reports whether f belongs to the discovery plane and, if it
// does, hands it to the discovery engine. Read goroutine. Protocol
// probes (real From/To, core's probeExcluded path) pass through; only
// the addressless discovery liveness probe, answered with a hello, is
// the plane's. A hello enters the table here, before the read loop
// takes the sender's next datagram, so a client's slot routes before
// any reply that its first join or query draws; only its answer, if it
// needs one, goes to the engine.
func (d *discoverer) intercept(f wire.Frame, src netip.AddrPort) bool {
	var fn func()
	switch p := f.Payload.(type) {
	case wire.PeerHello:
		changed := d.enter(p, src)
		if p.Seq == 0 && !changed {
			return true
		}
		fn = func() { d.answer(p, src, changed) }
	case wire.PeerList:
		fn = func() { d.onPeerList(p) }
	case wire.Probe:
		if !f.To.IsZero() {
			return false
		}
		fn = func() { d.send(src, d.hello) }
	default:
		return false
	}
	d.eng.submit(fn)
	return true
}

// enter upserts the announcing peer and reports whether the cluster's
// routing view changed. A member is entered at its announced address,
// which is parsed, never resolved: a DNS lookup would stall the read
// loop, and peers announce numeric addresses. Anything else falls back
// to the source. A client slot (past every cluster slot) is entered at
// the source: only this process routes to it, and it replies where the
// client's datagrams come from, whatever address the client bound.
// Any goroutine.
func (d *discoverer) enter(p wire.PeerHello, src netip.AddrPort) bool {
	addr := src
	if a, err := netip.ParseAddrPort(p.Addr); err == nil && int(p.Slot) < d.book.table.Slots() {
		addr = a
	}
	return d.book.table.Hello(int(p.Slot), addr)
}

// answer replies to an entered hello: a nonzero Seq gets the full
// PeerList (the bootstrap reply), and a routing change is broadcast to
// the other peers so an address move heals cluster-wide in one gossip
// round instead of one edge at a time. Engine context.
func (d *discoverer) answer(p wire.PeerHello, src netip.AddrPort, changed bool) {
	if p.Seq != 0 {
		d.send(src, d.makePeerList(p.Seq))
	}
	if changed {
		d.broadcast()
	}
}

// onPeerList completes a running bootstrap when it echoes bootSeq, and
// otherwise merges every gossiped entry into the table. What adopt
// sends is written before the bootstrap's caller goes on, so a client's
// hellos reach each member ahead of anything the client sends next.
func (d *discoverer) onPeerList(p wire.PeerList) {
	if p.Seq != bootSeq || d.booted == nil {
		d.mergePeers(p)
		return
	}
	info, err := d.adopt(p)
	d.bufs.flush()
	d.booted <- bootReply{info, err}
	d.endBootstrap()
}

// mergePeers folds gossiped entries into the table (evicted-state and
// client entries are skipped by Learn; own slot is never touched). A
// row whose address is not numeric is ignored: like a hello, it is
// parsed, never resolved.
func (d *discoverer) mergePeers(p wire.PeerList) {
	for _, e := range p.Peers {
		a, err := netip.ParseAddrPort(e.Addr)
		if err != nil {
			continue
		}
		d.book.table.Learn(int(e.Slot), a, time.Duration(e.AgeMillis)*time.Millisecond, discovery.State(e.State))
	}
}

// makePeerList snapshots the table as a wire payload. The self entry
// is rewritten to the advertised address (the table holds the loopback
// route, which is useless to a remote peer). Ages are taken at the
// running work item's stamp.
func (d *discoverer) makePeerList(seq uint64) wire.PeerList {
	pl := wire.PeerList{Seq: seq, H: uint16(d.shapeH), R: uint16(d.shapeR), Slots: uint32(d.book.table.Slots())}
	now := d.eng.start.Add(time.Duration(d.eng.now))
	for _, p := range d.book.table.Snapshot() {
		e := wire.PeerEntry{Slot: int32(p.Slot), State: uint8(p.State), Addr: p.Addr}
		if p.Slot == d.book.selfIndex {
			e.Addr, e.AgeMillis = d.hello.Addr, 0
		} else if age := now.Sub(p.LastSeen); age > 0 {
			e.AgeMillis = uint32(min(age.Milliseconds(), int64(^uint32(0))))
		}
		pl.Peers = append(pl.Peers, e)
	}
	return pl
}

// broadcast pushes an unsolicited PeerList at every routable peer slot
// (the fast-heal path after a routing change).
func (d *discoverer) broadcast() {
	pl := d.makePeerList(0)
	for slot, n := 0, d.book.table.Slots(); slot < n; slot++ {
		if slot == d.book.selfIndex {
			continue
		}
		if a := d.book.table.AddrOf(slot); a.IsValid() {
			d.send(a, pl)
		}
	}
}

// send queues one discovery frame in the datagram the engine is
// building for addr, unless the partition cut holds addr: discovery is
// as silent as the protocol. Outside a batch it is written at once. It
// deliberately does not touch any transport's activity clock: discovery
// chatter must not starve Settle's quiescence detection. Engine context.
func (d *discoverer) send(addr netip.AddrPort, p wire.Payload) {
	if d.sock.cutAddr(addr) {
		return
	}
	g := d.bufs.to(d.sock, addr)
	start := len(g.buf)
	g.buf = wire.AppendFrame(g.buf, discoveryFrame(p))
	g.keep(start, true)
	if !d.eng.batch {
		d.bufs.flush()
	}
}

// bootstrap performs the seed-join RPC and waits for its end: hello
// every seed with bootSeq, again every bootstrapRetry, until a PeerList
// echoes it (its shape and peer addresses are adopted) or
// BootstrapTimeout passes.
func (d *discoverer) bootstrap() (BootstrapInfo, error) {
	booted := make(chan bootReply, 1)
	d.eng.do(func() {
		d.booted = booted
		d.helloSeeds()
		d.retry = d.clock.Every(bootstrapRetry, d.helloSeeds)
		d.deadline = d.clock.After(d.bootTimeout, func() {
			close(d.booted)
			d.endBootstrap()
		})
	})
	reply, ok := <-booted
	if !ok {
		return BootstrapInfo{}, fmt.Errorf("runtime: seed bootstrap timed out after %v", d.bootTimeout)
	}
	return reply.info, reply.err
}

// helloSeeds sends the bootstrap hello, bootSeq attached, to every seed.
// A slotless process announces no slot in it: its client slot may lie
// inside a cluster whose width only the reply tells, and a seed answers
// an unslotted hello all the same. adopt announces the client slot once
// it is known to be clear of every cluster slot.
func (d *discoverer) helloSeeds() {
	hello := d.hello
	hello.Seq = bootSeq
	if d.book.client() {
		hello.Slot = -1
	}
	for _, s := range d.seeds {
		d.send(s, hello)
	}
}

// endBootstrap drops the bootstrap's engine state once booted has had
// its one send or close.
func (d *discoverer) endBootstrap() {
	d.retry.Stop()
	d.clock.Cancel(d.deadline)
	d.booted = nil
}

// adopt installs a bootstrap reply: deployment shape, table width, own
// loopback entry (a client slot has none), and every peer address. A
// slotless process then announces its client slot to every member, so
// each routes replies to its endpoints before the first one. A client
// slot inside the cluster's width is refused, not announced: it would
// take over a member's slot in every table.
func (d *discoverer) adopt(pl wire.PeerList) (BootstrapInfo, error) {
	slots := int(pl.Slots)
	if d.book.client() && d.book.selfIndex < slots {
		return BootstrapInfo{}, fmt.Errorf("runtime: client slot %d lies inside the cluster's %d slots", d.book.selfIndex, slots)
	}
	d.shapeH, d.shapeR = int(pl.H), int(pl.R)
	d.book.table.Reset(d.book.selfIndex, slots)
	d.book.table.Set(d.book.selfIndex, d.book.loopback)
	d.mergePeers(pl)
	if d.book.client() {
		d.helloMembers()
	}
	return BootstrapInfo{H: int(pl.H), R: int(pl.R), Slots: slots, Slot: d.book.selfIndex}, nil
}

// tick is the periodic half of the plane: sweep the suspicion state
// machine, probe the suspects, hand evictions to the open groups and
// gossip.
func (d *discoverer) tick() {
	probe, evicted := d.book.table.Sweep(d.suspectAfter, d.evictAfter)
	for _, a := range probe {
		d.send(a, wire.Probe{})
	}
	for _, slot := range evicted {
		d.evict(slot)
	}
	d.gossipStep()
}

// gossipStep is one tick's gossip. A member pushes its table at one
// routable peer, round robin, so even an otherwise idle cluster
// converges its address books. A slotless process has nothing
// first-hand to serve, and its client slot enters a table only from its
// own hello, never from gossip: it hellos every member, each tick, so
// every member routes to it and keeps its entry well inside EvictAfter.
func (d *discoverer) gossipStep() {
	if d.book.client() {
		d.helloMembers()
		return
	}
	n := d.book.table.Slots()
	for i := 0; i < n; i++ {
		d.gossipIdx = (d.gossipIdx + 1) % n
		if d.gossipIdx == d.book.selfIndex {
			continue
		}
		if a := d.book.table.AddrOf(d.gossipIdx); a.IsValid() {
			d.send(a, d.makePeerList(0))
			return
		}
	}
}

// helloMembers sends the hello to every routable cluster slot.
func (d *discoverer) helloMembers() {
	for slot, n := 0, d.book.table.Slots(); slot < n; slot++ {
		if a := d.book.table.AddrOf(slot); a.IsValid() {
			d.send(a, d.hello)
		}
	}
}
