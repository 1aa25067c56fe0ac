package runtime

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgbproto/rgb/internal/discovery"
	"github.com/rgbproto/rgb/internal/wire"
)

// This file is the runtime half of the discovery plane: the discoverer
// owns the wire conversation (PeerHello/PeerList/liveness probes) that
// keeps the discovery.Table fresh, while the table itself stays a pure
// data structure. Discovery frames are socket-scoped — intercepted on
// the read goroutine before any group demultiplexing, answered without
// entering an engine — so one exchange serves every group of a NetMux
// and never competes with protocol work for engine time.
//
// The bootstrap exchange is a correlated RPC in the taschain
// NetCore/peerManager style: each request carries a fresh nonzero Seq,
// the reply echoes it, and a pending map matches the two (gossip traffic
// reuses the same payloads with Seq 0). bootstrap removes its entry on
// every return path, so nothing else expires one.

// BootstrapInfo is what a seed bootstrap learned about the deployment:
// the hierarchy shape to build locally and the slot this process ended
// up claiming (-1 = slotless observer).
type BootstrapInfo struct {
	H, R  int
	Slots int
	Slot  int
}

// bootstrapRetry is how often the bootstrap hello is re-sent to every
// seed until a PeerList arrives (bounded by NetConfig.BootstrapTimeout).
const bootstrapRetry = 500 * time.Millisecond

// discoverer runs the peer-discovery conversation for one socket.
type discoverer struct {
	sock *netSock
	book *netBook

	advertise string // what we tell peers (book.self, pre-rendered)
	selfSlot  int
	seeds     []netip.AddrPort

	bootTimeout  time.Duration
	gossipEvery  time.Duration
	probeEvery   time.Duration
	suspectAfter time.Duration
	evictAfter   time.Duration

	gossipFrames atomic.Uint64 // discovery frames sent
	lastGossip   atomic.Int64  // UnixNano of the last piggybacked hello
	seq          atomic.Uint64 // bootstrap RPC correlation

	mu        sync.Mutex
	buf       []byte // reusable encode buffer (sends serialize on mu)
	shapeH    int    // hierarchy shape served to joiners
	shapeR    int
	pending   map[uint64]chan wire.PeerList // outstanding bootstrap RPCs by Seq
	onEvict   []func(slot int)
	gossipIdx int // round-robin cursor of the periodic gossip

	closed    chan struct{}
	closeOnce sync.Once
	started   atomic.Bool
}

// newDiscoverer resolves the seed addresses and builds the discovery
// plane for one socket (not yet started; bootstrap may run first).
func newDiscoverer(sock *netSock, book *netBook, cfg NetConfig) (*discoverer, error) {
	seeds := make([]netip.AddrPort, 0, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		a, err := resolveUDP(s)
		if err != nil {
			return nil, fmt.Errorf("runtime: seed %q: %w", s, err)
		}
		seeds = append(seeds, a)
	}
	return &discoverer{
		sock:         sock,
		book:         book,
		advertise:    book.self.String(),
		selfSlot:     book.selfIndex,
		seeds:        seeds,
		bootTimeout:  cfg.BootstrapTimeout,
		gossipEvery:  cfg.GossipInterval,
		probeEvery:   cfg.ProbeInterval,
		suspectAfter: cfg.SuspectAfter,
		evictAfter:   cfg.EvictAfter,
		shapeH:       cfg.H,
		shapeR:       cfg.R,
		pending:      make(map[uint64]chan wire.PeerList),
		closed:       make(chan struct{}),
	}, nil
}

// start launches the periodic sweep/gossip loop (idempotent).
func (d *discoverer) start() {
	if d.started.CompareAndSwap(false, true) {
		go d.loop()
	}
}

// stop halts the loop and fails any outstanding bootstrap (idempotent).
func (d *discoverer) stop() { d.closeOnce.Do(func() { close(d.closed) }) }

// addOnEvict registers an eviction sink (one per group on a NetMux).
func (d *discoverer) addOnEvict(fn func(slot int)) {
	d.mu.Lock()
	d.onEvict = append(d.onEvict, fn)
	d.mu.Unlock()
}

// intercept examines one decoded frame on the read goroutine and
// reports whether the discovery plane consumed it. Protocol probes
// (real From/To, core's probeExcluded path) pass through untouched;
// only the addressless discovery liveness probe is answered here.
func (d *discoverer) intercept(f wire.Frame, src netip.AddrPort) bool {
	switch p := f.Payload.(type) {
	case wire.PeerHello:
		d.onHello(p, src)
		return true
	case wire.PeerList:
		d.onPeerList(p)
		return true
	case wire.Probe:
		if f.To.IsZero() {
			d.sendPayload(src, wire.PeerHello{Slot: int32(d.selfSlot), Addr: d.advertise})
			return true
		}
	}
	return false
}

// onHello upserts the announcing peer and answers: a nonzero Seq gets
// the full PeerList (the bootstrap reply), and any routing change is
// broadcast to the other peers so an address move heals cluster-wide
// in one gossip round instead of one edge at a time. The announced
// address is parsed, never resolved: this runs on the socket's only
// reader, which a DNS lookup would stall for every group, and peers
// announce numeric addresses. Anything else falls back to the source.
func (d *discoverer) onHello(p wire.PeerHello, src netip.AddrPort) {
	addr := src
	if a, err := netip.ParseAddrPort(p.Addr); err == nil {
		addr = a
	}
	changed := d.book.table.Hello(int(p.Slot), addr)
	if p.Seq != 0 {
		d.sendPayload(src, d.makePeerList(p.Seq))
	}
	if changed {
		d.broadcast()
	}
}

// onPeerList completes a pending bootstrap RPC (when the Seq matches)
// and merges every gossiped entry into the table.
func (d *discoverer) onPeerList(p wire.PeerList) {
	if p.Seq != 0 {
		d.mu.Lock()
		if ch, ok := d.pending[p.Seq]; ok {
			delete(d.pending, p.Seq)
			select {
			case ch <- p:
			default:
			}
		}
		d.mu.Unlock()
	}
	d.mergePeers(p)
}

// mergePeers folds gossiped entries into the table (evicted-state and
// slotless entries are skipped by Learn; own slot is never touched). A
// row whose address is not numeric is ignored: like a hello, it is
// parsed on the read goroutine, never resolved.
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
// route, which is useless to a remote peer).
func (d *discoverer) makePeerList(seq uint64) wire.PeerList {
	d.mu.Lock()
	pl := wire.PeerList{Seq: seq, H: uint16(d.shapeH), R: uint16(d.shapeR)}
	d.mu.Unlock()
	pl.Slots = uint32(d.book.table.Slots())
	now := time.Now()
	for _, p := range d.book.table.Snapshot() {
		e := wire.PeerEntry{Slot: int32(p.Slot), State: uint8(p.State), Addr: p.Addr}
		if p.Slot == d.selfSlot && p.Slot >= 0 {
			e.Addr, e.AgeMillis = d.advertise, 0
		} else if age := now.Sub(p.LastSeen); age > 0 {
			if ms := age.Milliseconds(); ms > int64(^uint32(0)) {
				e.AgeMillis = ^uint32(0)
			} else {
				e.AgeMillis = uint32(ms)
			}
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
		if slot == d.selfSlot {
			continue
		}
		if a := d.book.table.AddrOf(slot); a.IsValid() {
			d.sendPayload(a, pl)
		}
	}
}

// maybeGossip piggybacks one paced hello along an active traffic edge
// (called from the transport's egress path with its work item's time;
// the fast path is a single atomic load).
func (d *discoverer) maybeGossip(addr netip.AddrPort, at time.Time) {
	if addr == d.book.loopback || addr == d.book.self {
		return
	}
	now := at.UnixNano()
	last := d.lastGossip.Load()
	if now-last < int64(d.gossipEvery) || !d.lastGossip.CompareAndSwap(last, now) {
		return
	}
	d.sendPayload(addr, wire.PeerHello{Slot: int32(d.selfSlot), Addr: d.advertise})
}

// sendPayload encodes and writes one discovery frame (class control,
// zero addressing, TTL 1 — discovery frames are never relayed). It
// deliberately does not touch the transport activity clocks: discovery
// chatter must not starve Settle's quiescence detection.
func (d *discoverer) sendPayload(addr netip.AddrPort, p wire.Payload) {
	if d.sock.cutAddr(addr) {
		return // partition cut: discovery is as silent as the protocol
	}
	d.mu.Lock()
	d.buf = wire.AppendFrame(d.buf[:0], wire.Frame{Class: uint8(KindControl), TTL: 1, Payload: p})
	_, err := d.sock.conn.WriteToUDPAddrPort(d.buf, addr)
	d.mu.Unlock()
	if err == nil {
		d.gossipFrames.Add(1)
	}
}

// bootstrap performs the seed-join RPC: hello every seed with a fresh
// correlation Seq, await the PeerList echo, adopt the deployment shape
// and the peer addresses. Retries until BootstrapTimeout.
func (d *discoverer) bootstrap() (BootstrapInfo, error) {
	deadline := time.Now().Add(d.bootTimeout)
	for {
		seq := d.seq.Add(1)
		ch := make(chan wire.PeerList, 1)
		d.mu.Lock()
		d.pending[seq] = ch
		d.mu.Unlock()
		for _, s := range d.seeds {
			d.sendPayload(s, wire.PeerHello{Seq: seq, Slot: int32(d.selfSlot), Addr: d.advertise})
		}
		retry := bootstrapRetry
		if rem := time.Until(deadline); rem < retry {
			retry = rem
		}
		if retry <= 0 {
			return BootstrapInfo{}, fmt.Errorf("runtime: seed bootstrap timed out after %v", d.bootTimeout)
		}
		select {
		case pl := <-ch:
			d.dropPending(seq)
			return d.adopt(pl), nil
		case <-time.After(retry):
			d.dropPending(seq)
			if !time.Now().Before(deadline) {
				return BootstrapInfo{}, fmt.Errorf("runtime: seed bootstrap timed out after %v", d.bootTimeout)
			}
		case <-d.closed:
			d.dropPending(seq)
			return BootstrapInfo{}, errors.New("runtime: closed during seed bootstrap")
		}
	}
}

func (d *discoverer) dropPending(seq uint64) {
	d.mu.Lock()
	delete(d.pending, seq)
	d.mu.Unlock()
}

// adopt installs a bootstrap reply: deployment shape, table width, own
// loopback entry, and every learned peer address.
func (d *discoverer) adopt(pl wire.PeerList) BootstrapInfo {
	slots := int(pl.Slots)
	d.mu.Lock()
	d.shapeH, d.shapeR = int(pl.H), int(pl.R)
	d.mu.Unlock()
	d.book.table.Reset(d.selfSlot, slots)
	if d.selfSlot >= 0 {
		d.book.table.Set(d.selfSlot, d.book.loopback)
	}
	d.mergePeers(pl)
	return BootstrapInfo{H: int(pl.H), R: int(pl.R), Slots: slots, Slot: d.selfSlot}
}

// loop is the periodic half of the plane: sweep the suspicion state
// machine, probe the suspects, hand evictions to the registered sinks
// and gossip the table round-robin.
func (d *discoverer) loop() {
	tick := time.NewTicker(d.probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-d.closed:
			return
		case <-tick.C:
			d.tickOnce()
		}
	}
}

func (d *discoverer) tickOnce() {
	probe, evicted := d.book.table.Sweep(d.suspectAfter, d.evictAfter)
	for _, a := range probe {
		d.sendPayload(a, wire.Probe{})
	}
	if len(evicted) > 0 {
		d.mu.Lock()
		sinks := append([]func(slot int){}, d.onEvict...)
		d.mu.Unlock()
		for _, slot := range evicted {
			for _, fn := range sinks {
				fn(slot)
			}
		}
	}
	d.gossipStep()
}

// gossipStep pushes the table at one routable peer per tick, round
// robin, so even an otherwise idle cluster converges its address books.
func (d *discoverer) gossipStep() {
	n := d.book.table.Slots()
	if n == 0 {
		return
	}
	var pl *wire.PeerList
	for i := 0; i < n; i++ {
		d.gossipIdx = (d.gossipIdx + 1) % n
		if d.gossipIdx == d.selfSlot {
			continue
		}
		if a := d.book.table.AddrOf(d.gossipIdx); a.IsValid() {
			if d.selfSlot < 0 {
				// A slotless process has nothing first-hand to serve,
				// and appears in nobody's PeerList (slotless entries are
				// never gossiped — each must be learned from its own
				// hello); announcing itself round-robin keeps every
				// member's peer dump complete.
				d.sendPayload(a, wire.PeerHello{Slot: -1, Addr: d.advertise})
				return
			}
			if pl == nil {
				v := d.makePeerList(0)
				pl = &v
			}
			d.sendPayload(a, *pl)
			return
		}
	}
}
