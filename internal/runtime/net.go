package runtime

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgbproto/rgb/internal/discovery"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/wire"
)

var _ Runtime = (*NetRuntime)(nil)

const (
	// netTTL is the envelope's hop-budget byte stamped on egress frames.
	// Every frame goes straight to the process that hosts its
	// destination and nothing reads the byte; it is kept so frames stay
	// byte-identical.
	netTTL = 8

	// settleTimeout bounds Run/RunUntil: a networked runtime cannot
	// prove global quiescence, and a shard's pending counter includes
	// its sibling groups' work, so after this long the wait gives up.
	settleTimeout = 5 * time.Second
)

// NetConfig parameterizes a NetMux — the real-time substrate where each
// process hosts a subset of the hierarchy's entities. A message
// for an entity of another process crosses a real UDP socket through
// the wire codec; one for an entity of the same process is handed over
// in memory (see netTransport.Send). It describes the process and its
// deployment only: loss and fault injection are per group (NetMux.Open
// and FaultTransport), the same on every substrate.
type NetConfig struct {
	// Bind is the local UDP listen address (e.g. "127.0.0.1:7001";
	// port 0 picks a free port). It is required: every real-time host
	// has a socket.
	Bind string

	// Advertise is the address other processes use to reach this one.
	// Empty derives it from the bound socket (with unspecified hosts
	// rewritten to the loopback address).
	Advertise string

	// Peers lists the advertise addresses of every process of the
	// deployment, slot-indexed; Index is this process's slot. A
	// single-process deployment may leave Peers nil.
	Peers []string
	Index int

	// Owners maps each network entity to the Peers slot hosting it.
	// Entities owned by Index are served locally; all others are
	// routed to their owner's address. Nil means every entity is
	// local (single-process deployment).
	Owners map[ids.NodeID]int

	// Seeds, when non-empty (and Peers is empty), switches the process
	// to seed bootstrap: instead of a static address book it sends a
	// PeerHello to each seed address, adopts the PeerList reply
	// (deployment shape plus every known peer address), and keeps the
	// table fresh by gossip from then on.
	Seeds []string

	// SeedSlot is the cluster slot a seed-bootstrapping process claims
	// (replacing a member whose address changed, or filling a known
	// slot). Negative joins as a slotless observer that owns no
	// entities: it takes a client slot past every cluster slot, derived
	// from its bound port (BootstrapInfo.Slot), and mints its mobile
	// hosts and query apps in that slot's block. Ignored when Peers is
	// set (Index rules there).
	SeedSlot int

	// H, R and Slots describe the deployment to bootstrapping joiners
	// (hierarchy height, ring capacity, process-slot count) via the
	// PeerList reply. Filled automatically by the rgb layer; a joiner
	// leaves them zero and adopts the seed's answer.
	H, R  int
	Slots int

	// BootstrapTimeout bounds the seed bootstrap RPC, retried every
	// half second against every seed until a PeerList arrives
	// (default 5s).
	BootstrapTimeout time.Duration

	// GossipInterval paces the endpoint-exchange gossip piggybacked on
	// egress traffic (default 1s). ProbeInterval paces the liveness
	// sweep (default 1s). A peer silent past SuspectAfter (default 3s)
	// is probed; silent past EvictAfter (default 10s) it is evicted —
	// its slot stops routing and the eviction feeds the protocol's
	// fail-out path. A slotless process's client slot is dropped at
	// EvictAfter too; its hellos, every ProbeInterval, keep it.
	GossipInterval time.Duration
	ProbeInterval  time.Duration
	SuspectAfter   time.Duration
	EvictAfter     time.Duration

	// QuiesceIdle is how long the socket must stay silent (with no
	// pending local work) before the runtime considers itself
	// quiescent (default 50ms).
	QuiesceIdle time.Duration
}

// NetStats counts wire-level events that the substrate-agnostic Stats
// cannot see: decode failures, version mismatches, routing misses and
// write failures. The socket-level counters (Received,
// DecodeErrors, UnknownVersion, UnknownGroup, WriteFailed) are
// maintained once per socket; the routing counters are per group and
// aggregated by NetMux.NetStats.
type NetStats struct {
	Received       uint64 // datagrams read from the socket (co-hosted hops are not datagrams)
	DecodeErrors   uint64 // frames rejected by the codec
	UnknownVersion uint64 // frames from a different wire version
	UnknownGroup   uint64 // frames tagged for a group not hosted here
	UnknownPeer    uint64 // sends with no route, and frames for an endpoint not hosted here
	Relayed        uint64 // always 0: no frame is forwarded (kept for the benchmark's build)
	TTLExpired     uint64 // always 0: nothing reads a frame's hop budget (kept for the benchmark's build)
	Oversize       uint64 // frames larger than one UDP datagram, dropped
	WriteFailed    uint64 // frames in datagrams the socket refused to write

	// Discovery-plane counters, table-level (maintained once per
	// socket).
	PeerJoined   uint64 // peers that joined, rejoined or moved address
	PeerEvicted  uint64 // liveness evictions issued by the probe sweep
	GossipFrames uint64 // discovery frames sent (hello/peer-list/probe)
	DupDropped   uint64 // always 0: no frame is forwarded (kept for the benchmark's build)
}

// netSock is the socket of a NetMux, shared by every group it hosts:
// the one UDP connection, its socket-level counters, the free list of the
// records the read loop hands frames to the engines in, and the
// process's one pool of spare QueryReply member buffers, which decoded
// replies and local replies (Send's copy) both borrow. The counters are
// atomics because the read loop and NetStats readers run off-engine.
type netSock struct {
	conn *net.UDPConn

	freeMu sync.Mutex
	free   []*inbound
	spare  [][]ids.MemberInfo // member buffers no reply holds, LIFO
	// spareCap is the capacity summed over spare. However many replies
	// were in flight, it is kept at or below one datagram's worth of
	// members, or twice replyMax, the largest local reply's buffer
	// returned, if that is more: two of the largest replies fit.
	spareCap, replyMax int

	received       atomic.Uint64
	decodeErrors   atomic.Uint64
	unknownVersion atomic.Uint64
	unknownGroup   atomic.Uint64

	// writeFailed counts the frames of the datagrams the socket refused.
	// A datagram a backlogged shard writes can hold frames of several
	// groups, so, like cut, it is kept once here and folded into every
	// group's Dropped. gossipFrames counts the discovery frames of the
	// datagrams it wrote.
	writeFailed  atomic.Uint64
	gossipFrames atomic.Uint64

	// hello is the encoded discovery hello that group egress piggybacks
	// on a datagram at most once every helloEvery, socket-wide
	// (lastHello, UnixNano); nil while the discovery plane is off. Set
	// before the read loop starts, read-only after.
	hello      []byte
	helloEvery time.Duration
	lastHello  atomic.Int64

	// blocked, when non-nil, is the process-level partition cut
	// (NetMux.Block), keyed by peer address: the ingress read
	// loop, every group's egress and the discovery plane's egress all
	// drop datagrams from/to the listed addresses and count them in
	// cut. A partition that only cut protocol frames while discovery
	// kept hearing the peer would never declare it dead — the cut must
	// silence every datagram, like a real one.
	blocked atomic.Pointer[map[netip.AddrPort]bool]
	cut     atomic.Uint64
}

// cutAddr reports (and counts) whether traffic with addr is blocked.
func (s *netSock) cutAddr(addr netip.AddrPort) bool {
	m := s.blocked.Load()
	if m == nil || !(*m)[addr] {
		return false
	}
	s.cut.Add(1)
	return true
}

// stats snapshots the socket-level counters into a NetStats value.
func (s *netSock) stats() NetStats {
	return NetStats{
		Received:       s.received.Load(),
		DecodeErrors:   s.decodeErrors.Load(),
		UnknownVersion: s.unknownVersion.Load(),
		UnknownGroup:   s.unknownGroup.Load(),
		WriteFailed:    s.writeFailed.Load(),
		GossipFrames:   s.gossipFrames.Load(),
	}
}

// readLoop runs off-engine: it blocks on the socket and walks each
// datagram's frames. Each frame is decoded on its own (decoding shares
// no state), its owning transport resolved by the frame's group tag and
// the frame handed to that transport's engine goroutine in a recycled
// inbound record. A frame that fails to decode ends the walk: the frames
// before it are delivered, and the rest counts as one decode error.
// resolve runs on the read goroutine with the datagram's source address
// (discovery frames go to the discovery engine there, before any group
// demux) and must only touch read-safe state; returning nil drops
// the frame (the resolver has already accounted it).
func (s *netSock) readLoop(closed <-chan struct{}, resolve func(wire.Frame, netip.AddrPort) *netTransport) {
	buf := make([]byte, wire.MaxDatagram)
	for {
		n, src, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		// A dual-stack socket reports an IPv4 peer in its 16-byte form.
		src = discovery.Unmapped(src)
		if s.cutAddr(src) {
			continue // partitioned peer: drop before decode, like lost bytes
		}
		s.received.Add(1)
		for rest := buf[:n]; ; {
			size, err := wire.FrameLen(rest)
			if err != nil {
				size = len(rest) // decoding says what is wrong with it
			}
			if !s.hand(rest[:size], src, resolve) || size == len(rest) {
				break
			}
			rest = rest[size:]
		}
	}
}

// hand decodes one frame of a datagram from src and hands it to its
// group's engine, reporting false, with the failure counted, when the
// frame does not decode. Read goroutine.
func (s *netSock) hand(b []byte, src netip.AddrPort, resolve func(wire.Frame, netip.AddrPort) *netTransport) bool {
	in := s.take(wire.FramePayloadKind(b) == wire.KindQueryReply)
	f, err := wire.DecodeFrameInto(b, &in.into)
	if err == nil && int(f.Class) >= int(numKinds) {
		err = wire.ErrMalformed
	}
	if err != nil {
		if errors.Is(err, wire.ErrUnknownVersion) {
			s.unknownVersion.Add(1)
		} else {
			s.decodeErrors.Add(1)
		}
		s.release(in)
		return false
	}
	t := resolve(f, src)
	if t == nil {
		s.release(in)
		return true
	}
	in.t, in.f = t, f
	t.eng.pending.Add(1)
	t.eng.submit(in.fn)
	return true
}

// inbound is one decoded frame on its way from the read loop to its
// group's engine. Records are recycled through the socket's free list
// and run is bound once per record (fn), so the hand-off allocates
// nothing; the engine's work queue still carries one word per item. (A
// sync.Pool would drop records at every GC, and at random under the
// race detector.)
//
// The frame is decoded into the record's target, into: a round body
// into its value there, and a QueryReply's members into a spare buffer
// the record borrows for this one frame. Both are valid only until run
// returns: deliver hands the endpoint a round body of its own
// (wire.Bodies.Adopt), and a handler that keeps a reply must copy it.
type inbound struct {
	sock *netSock
	fn   func()

	t    *netTransport
	f    wire.Frame
	into wire.DecodeTarget
}

// take pops a record off the free list, or makes one, and for a
// QueryReply lends it the most recently returned spare member buffer, if
// any (the decoder makes one otherwise). Read goroutine.
func (s *netSock) take(reply bool) *inbound {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	var in *inbound
	if n := len(s.free); n > 0 {
		in = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		in = &inbound{sock: s}
		in.fn = in.run
	}
	if n := len(s.spare); reply && n > 0 {
		in.into.Members = s.spare[n-1]
		s.spare = s.spare[:n-1]
		s.spareCap -= cap(in.into.Members)
	}
	return in
}

// release returns a record to the free list and its member buffer to the
// spares, unless that would keep more than one datagram's worth of spare
// capacity; then the buffer is left to the collector. A flood of replies
// in flight can hold many buffers, but it cannot leave them all behind.
// The target is cleared, so an idle record keeps no decoded batch or
// route alive.
func (s *netSock) release(in *inbound) {
	members := in.into.Members
	in.t, in.f, in.into = nil, wire.Frame{}, wire.DecodeTarget{}
	s.freeMu.Lock()
	s.free = append(s.free, in)
	s.keep(members)
	s.freeMu.Unlock()
}

// keep puts b back among the spares, within spareCap's bound. freeMu is
// held.
func (s *netSock) keep(b []ids.MemberInfo) {
	if c := cap(b); c > 0 && s.spareCap+c <= max(wire.MaxDatagramMembers, 2*s.replyMax) {
		s.spare = append(s.spare, b[:0])
		s.spareCap += c
	}
}

// takeReplyBuf returns the smallest spare member buffer with room for n
// members, for a local reply's copy, or nil if none has (append then
// makes one). Any engine.
func (s *netSock) takeReplyBuf(n int) []ids.MemberInfo {
	if n == 0 {
		return nil
	}
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	best := -1
	for i, b := range s.spare {
		if cap(b) >= n && (best < 0 || cap(b) < cap(s.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := s.spare[best]
	s.spare = slices.Delete(s.spare, best, best+1)
	s.spareCap -= cap(b)
	return b
}

// putReplyBuf returns a local reply's buffer to the spares. Any engine.
func (s *netSock) putReplyBuf(b []ids.MemberInfo) {
	s.freeMu.Lock()
	s.replyMax = max(s.replyMax, cap(b))
	s.keep(b)
	s.freeMu.Unlock()
}

// run is the engine's half of the hand-off. The record and its buffer go
// back only after the dispatch, because the frame's payload may live in
// its target.
func (in *inbound) run() {
	in.t.dispatch(in.f)
	in.sock.release(in)
}

// netBook is the routing state of a networked deployment: the identity
// of this process plus two concurrency-safe layers — the ownership
// partition (entity -> slot, swapped wholesale when a bootstrap adopts
// the deployment shape) and the discovery peer table (slot -> address,
// mutated continuously by hello/gossip/liveness). Every group of a
// NetMux shares one; all mutation goes through atomics or the table's
// own lock, so readers stay lock-free on the send hot path.
type netBook struct {
	self     netip.AddrPort // what peers are told (Advertise)
	loopback netip.AddrPort // how this process reaches itself

	// selfIndex is this process's slot: a cluster slot, or the client
	// slot of a slotless process, past every cluster slot.
	selfIndex int

	// owner maps entity IDs to their owning slot; table maps slots to
	// live addresses. The two layers deliberately separate "who owns
	// what" (changes only on bootstrap adoption) from "where is who"
	// (changes on every address churn).
	owner atomic.Pointer[map[ids.NodeID]int]
	table *discovery.Table
}

// client reports whether this process is slotless: its slot is a client
// slot, past every cluster slot.
func (b *netBook) client() bool { return b.selfIndex >= b.table.Slots() }

// ownerOf resolves the owning slot of an entity ID.
func (b *netBook) ownerOf(id ids.NodeID) (int, bool) {
	m := b.owner.Load()
	if m == nil {
		return 0, false
	}
	slot, ok := (*m)[id]
	return slot, ok
}

// ownedBy lists the entity IDs owned by a slot (the peer-eviction to
// protocol-fail-out translation).
func (b *netBook) ownedBy(slot int) []ids.NodeID {
	m := b.owner.Load()
	if m == nil {
		return nil
	}
	var out []ids.NodeID
	for id, s := range *m {
		if s == slot {
			out = append(out, id)
		}
	}
	return out
}

// adopt swaps in a new ownership partition (seed bootstrap found out the
// deployment shape).
func (b *netBook) adopt(owners map[ids.NodeID]int) { b.owner.Store(&owners) }

// slotAddr resolves a cluster or client slot to a routable address:
// self routes over the loopback, everything else through the live peer
// table (the zero AddrPort when the slot is unknown or evicted).
func (b *netBook) slotAddr(slot int) netip.AddrPort {
	if slot == b.selfIndex {
		return b.loopback
	}
	return b.table.AddrOf(slot)
}

// netBufs is the egress of one engine shard: one datagram under
// construction per (socket, peer address) the shard's groups send to.
// Send encodes each frame straight into its destination's datagram. An idle shard writes it there and then; a backlogged one
// keeps it until the engine's flush at the end of the batch, so the
// batch goes out as one datagram per peer (engineCore.loop). A slot is
// claimed by the first frame queued for its destination and released at
// flush, and every slot keeps its capacity, so the steady-state send
// path allocates nothing. The slots are engine-owned: all groups of the
// shard send on its goroutine, and sharing across shards would need a
// lock.
type netBufs struct {
	out []datagram // the claimed slots; released ones past len keep their buffers
}

// datagram is the frames kept for one destination, back to back:
// frames of the protocol and gossip of the discovery plane.
type datagram struct {
	sock           *netSock
	addr           netip.AddrPort
	buf            []byte
	frames, gossip int
}

// to returns the datagram under construction for addr on sock, claiming
// a slot for it if none is.
func (b *netBufs) to(sock *netSock, addr netip.AddrPort) *datagram {
	for i := range b.out {
		if d := &b.out[i]; d.sock == sock && d.addr == addr {
			return d
		}
	}
	if len(b.out) < cap(b.out) {
		b.out = b.out[:len(b.out)+1]
	} else {
		b.out = append(b.out, datagram{})
	}
	d := &b.out[len(b.out)-1]
	d.sock, d.addr = sock, addr
	return d
}

// flush writes every claimed datagram that holds a frame and releases
// the slots. Engine context.
func (b *netBufs) flush() {
	for i := range b.out {
		d := &b.out[i]
		if len(d.buf) > 0 {
			d.write()
		}
		d.sock, d.buf, d.frames, d.gossip = nil, d.buf[:0], 0, 0
	}
	b.out = b.out[:0]
}

// keep counts the frame encoded at d.buf[start:] in, first writing the
// frames ahead of it on their own if it pushed the datagram past one
// UDP datagram.
func (d *datagram) keep(start int, gossip bool) {
	if start > 0 && len(d.buf) > wire.MaxDatagram {
		frame := d.buf[start:]
		d.buf = d.buf[:start]
		d.write()
		d.buf, d.frames, d.gossip = append(d.buf[:0], frame...), 0, 0
	}
	if gossip {
		d.gossip++
	} else {
		d.frames++
	}
}

// write is the socket's single egress point, for the protocol's frames
// and discovery's alike: one datagram to its peer, whose protocol
// frames count as WriteFailed if the socket refuses it.
func (d *datagram) write() {
	if _, err := d.sock.conn.WriteToUDPAddrPort(d.buf, d.addr); err != nil {
		d.sock.writeFailed.Add(uint64(d.frames))
	} else if d.gossip > 0 {
		d.sock.gossipFrames.Add(uint64(d.gossip))
	}
}

// resolveNetBook resolves and validates the address-book parts of a
// NetConfig against the bound socket: the peer table is prefilled from
// the static Peers list (when given) and the ownership layer from
// Owners. A seed-bootstrapping process starts with an empty table that
// the bootstrap and gossip fill.
func resolveNetBook(cfg NetConfig, conn *net.UDPConn) (*netBook, error) {
	// loopback is where this process reaches itself: the bound socket,
	// with an unspecified host rewritten to 127.0.0.1. self is what
	// peers are told (Advertise may be a NAT'd or load-balanced name
	// that does not hairpin, so local traffic never uses it).
	loopback := discovery.Unmapped(conn.LocalAddr().(*net.UDPAddr).AddrPort())
	if !loopback.Addr().IsValid() || loopback.Addr().IsUnspecified() {
		loopback = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), loopback.Port())
	}
	self := loopback
	var err error
	if cfg.Advertise != "" {
		if self, err = resolveUDP(cfg.Advertise); err != nil {
			return nil, fmt.Errorf("runtime: advertise %q: %w", cfg.Advertise, err)
		}
	}

	selfIndex := cfg.Index
	slots := len(cfg.Peers)
	if slots == 0 {
		// Seed mode: the slot is claimed (or declined) by SeedSlot and
		// the width comes from config or the bootstrap reply.
		selfIndex = cfg.SeedSlot
		slots = cfg.Slots
		switch {
		case selfIndex < 0:
			selfIndex = clientSlot(loopback.Port())
			if selfIndex < slots {
				return nil, fmt.Errorf("runtime: client slot %d lies inside the cluster's %d slots", selfIndex, slots)
			}
		case selfIndex >= slots:
			slots = selfIndex + 1
		}
	}
	table := discovery.NewTable(selfIndex, slots)
	for i, p := range cfg.Peers {
		if i == cfg.Index {
			table.Set(i, loopback)
			continue
		}
		a, err := resolveUDP(p)
		if err != nil {
			return nil, fmt.Errorf("runtime: peer %q: %w", p, err)
		}
		table.Set(i, a)
	}
	if len(cfg.Peers) == 0 {
		table.Set(selfIndex, loopback) // a client slot is no table slot: a no-op
	}

	b := &netBook{
		self:      self,
		loopback:  loopback,
		selfIndex: selfIndex,
		table:     table,
	}
	if cfg.Owners != nil {
		owners := make(map[ids.NodeID]int, len(cfg.Owners))
		for id, slot := range cfg.Owners {
			owners[id] = slot
		}
		b.adopt(owners)
	}
	return b, nil
}

// clientSlot is the slot of a process that owns no cluster slot (a
// slotless observer), derived from the port it is bound to: past every
// cluster slot, so no entity belongs to it, and (almost always) unlike
// every other client's. It is the block the process mints its mobile
// hosts and query apps in, and other processes route replies to them
// through its table entry, which its hellos keep.
func clientSlot(port uint16) int { return 1<<6 + int(port) }

// resolveUDP resolves a configured address, host names included, once
// at start-up, into the unmapped form the socket reports sources in.
func resolveUDP(hostPort string) (netip.AddrPort, error) {
	a, err := net.ResolveUDPAddr("udp", hostPort)
	if err != nil {
		return netip.AddrPort{}, err
	}
	return discovery.Unmapped(a.AddrPort()), nil
}

// bindNetSock binds the configured UDP socket.
func bindNetSock(cfg NetConfig) (*netSock, error) {
	bind, err := net.ResolveUDPAddr("udp", cfg.Bind)
	if err != nil {
		return nil, fmt.Errorf("runtime: bind %q: %w", cfg.Bind, err)
	}
	conn, err := net.ListenUDP("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("runtime: listen %q: %w", cfg.Bind, err)
	}
	return &netSock{conn: conn}, nil
}

// netDefaults fills the zero-value NetConfig knobs.
func netDefaults(cfg *NetConfig) {
	if cfg.QuiesceIdle <= 0 {
		cfg.QuiesceIdle = 50 * time.Millisecond
	}
	if cfg.BootstrapTimeout <= 0 {
		cfg.BootstrapTimeout = 5 * time.Second
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * time.Second
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 10 * time.Second
	}
}

// NetRuntime is one group's view of a NetMux: the protocol engine on
// real time. The group's engine shard owns all its protocol state and
// serializes every protocol callback — the single-writer discipline the
// simulator gets for free — and timers are events of the view's own
// des.Kernel, run on real time (liveClock). Hops between the process's
// own endpoints stay in memory; everything else goes through the wire
// codec and the mux's datagram socket: the address book routes entity
// IDs to their owning process and transient endpoints (mobile hosts,
// query apps) to the process whose block holds their ordinal.
type NetRuntime struct {
	eng   *engineCore
	clock *liveClock
	tr    *netTransport

	mux *NetMux
	gid ids.GroupID

	// onEvict is the group's eviction callback until Close.
	// Engine-owned.
	onEvict func(dead []ids.NodeID)
}

// OnPeerEvict sets the callback invoked in engine context with the
// entity IDs owned by a peer the liveness sweep evicted, while the group
// is open — the glue feeding discovery's process-level verdicts into the
// protocol's entity-level fail-out path. It never runs when the
// discovery plane is off. Call it outside engine context.
func (rt *NetRuntime) OnPeerEvict(fn func(dead []ids.NodeID)) {
	rt.eng.do(func() { rt.onEvict = fn })
}

// Clock implements Runtime.
func (rt *NetRuntime) Clock() Clock { return rt.clock }

// Transport implements Runtime.
func (rt *NetRuntime) Transport() Transport { return rt.tr }

// Do implements Runtime.
func (rt *NetRuntime) Do(fn func()) { rt.eng.do(fn) }

// quiescent reports local quiescence: no pending timers or queued
// deliveries, and no activity for this runtime's own
// group for the idle window (the socket is shared, so socket-wide
// idleness would let busy sibling groups starve a quiet group's
// Settle). Remote processes may still be working — networked quiescence
// is a heuristic, which is why Run and RunUntil are additionally bounded
// by the settle timeout.
func (rt *NetRuntime) quiescent() bool {
	return rt.eng.pending.Load() == 0 && rt.tr.idleFor(rt.mux.cfg.QuiesceIdle)
}

// Run implements Runtime: it blocks until local quiescence (or the
// settle timeout, whichever comes first).
func (rt *NetRuntime) Run() { rt.RunUntil(func() bool { return false }) }

// RunFor implements Runtime: networked protocol time is wall time.
func (rt *NetRuntime) RunFor(d time.Duration) {
	select {
	case <-rt.eng.closed:
	case <-time.After(d):
	}
}

// RunUntil implements Runtime: it waits until pred, evaluated in engine
// context, reports true, giving up at local quiescence or the settle
// timeout.
func (rt *NetRuntime) RunUntil(pred func() bool) bool {
	deadline := time.Now().Add(settleTimeout)
	return rt.eng.await(pred, time.Millisecond, func() bool {
		return rt.quiescent() || !time.Now().Before(deadline)
	})
}

// Close implements Runtime: it removes the group from the mux's demux
// table (later frames for it count as UnknownGroup), releasing the
// identity for reopening, and ends this incarnation on its shard — its
// endpoints go, its armed timers are cancelled and whatever it still
// sends is dropped — so nothing of it reaches the peers' view of a
// reopened group or holds up a sibling's Run. The socket and engine
// shards belong to the mux and its ShardSet.
func (rt *NetRuntime) Close() error {
	rt.mux.release(rt)
	rt.eng.do(func() {
		rt.tr.close()
		rt.clock.close()
		rt.onEvict = nil
	})
	return nil
}

// --- Transport --------------------------------------------------------

// netTransport implements Transport for one group of a mux — the only
// real-time Transport there is. All mutable state is owned by the
// transport's engine goroutine; the socket itself and its counters are
// shared (netSock), and the routing book is immutable. The read loop
// decodes off-engine and re-enters through the engine's submit; hops
// between two local endpoints never leave the engine (localHop).
type netTransport struct {
	eng   *engineCore
	clock *liveClock
	sock  *netSock
	book  *netBook
	bufs  *netBufs

	rng   *mathx.RNG
	loss  float64     // 1 once closed: a dead group loses everything
	group ids.GroupID // tag stamped on egress when the message has none

	local   map[ids.NodeID]Endpoint
	crashed map[ids.NodeID]bool

	stats  Stats
	nstats NetStats // routing counters only; socket counters live on sock

	// lastActivity is the shard time (engineCore.now) of this group's
	// latest traffic (dispatches and sends): quiescence is per
	// group, so busy sibling groups on the shared socket cannot starve
	// it.
	lastActivity atomic.Int64

	// bodies are the round bodies' free lists of the engine that lent
	// them (LendBodies), nil until then. Engine context.
	bodies *wire.Bodies
}

// touch marks activity at the current work item's stamp. Engine context.
func (t *netTransport) touch() { t.lastActivity.Store(int64(t.eng.now)) }

func (t *netTransport) idleFor(d time.Duration) bool {
	return time.Since(t.eng.start)-time.Duration(t.lastActivity.Load()) > d
}

// newNetTransport builds one group's transport on engine shard sh over
// the mux's socket and book, emulating an independent
// egress loss probability drawn from a stream seeded by seed.
func newNetTransport(m *NetMux, sh *muxShard, group ids.GroupID, seed uint64, loss float64) *netTransport {
	t := &netTransport{
		eng:     sh.eng,
		clock:   newLiveClock(sh.eng),
		sock:    m.sock,
		book:    m.book,
		bufs:    sh.bufs,
		rng:     mathx.NewRNG(seed),
		loss:    loss,
		group:   group,
		local:   make(map[ids.NodeID]Endpoint),
		crashed: make(map[ids.NodeID]bool),
	}
	// Open runs off the engine, whose stamp is not ours to read here.
	t.lastActivity.Store(int64(time.Since(sh.eng.start)))
	return t
}

// dispatch runs on the transport's engine goroutine: it delivers a
// decoded frame to its endpoint. A frame for an endpoint this process
// does not host is dropped and counted as UnknownPeer: every sender
// routes a frame to the process that hosts its destination, so no
// process forwards one.
func (t *netTransport) dispatch(f wire.Frame) {
	defer t.eng.pending.Add(-1)
	t.touch()
	msg := Message{
		From:  f.From,
		To:    f.To,
		Group: f.Group,
		Kind:  Kind(f.Class),
		Body:  f.Payload,
		Sent:  t.clock.Now(),
	}
	if !t.deliver(msg, true) {
		t.nstats.UnknownPeer++
		t.stats.Dropped++
	}
}

// deliver runs the destination-side checks and the handler; it reports
// false, having done nothing, when msg.To is not registered here. A
// decoded message's round body lives in its inbound record, which the
// next frame overwrites, so the endpoint is handed a copy, in a body
// off the lent lists (LendBodies), which it owns like any other.
func (t *netTransport) deliver(msg Message, decoded bool) bool {
	ep, ok := t.local[msg.To]
	if !ok {
		return false
	}
	if t.crashed[msg.To] {
		t.stats.Dropped++
		return true
	}
	t.stats.Delivered++
	t.stats.ByKind[msg.Kind]++
	if decoded {
		msg.Body = t.bodies.Adopt(msg.Body)
	}
	ep.HandleMessage(msg)
	return true
}

// localHop is one message between two endpoints of the same process,
// queued on the engine's FIFO between its Send and its delivery.
type localHop struct {
	t   *netTransport
	msg Message
}

// deliverLocal is dispatch for a localHop: the destination is looked up
// again, because the endpoint may have crashed or gone since the Send.
// A QueryReply's members, Send's copy, go back to the engine after.
func (t *netTransport) deliverLocal(msg Message) {
	defer t.eng.pending.Add(-1)
	t.touch()
	if !t.deliver(msg, false) {
		t.stats.Dropped++
	}
	if rep, ok := msg.Body.(wire.QueryReply); ok {
		t.sock.putReplyBuf(rep.Members)
	}
}

// route resolves a destination that is not a local endpoint, through
// the live peer table: an entity to its owner's slot, a transient
// endpoint (a mobile host or query app) to its ordinal's block
// (ids.MHBlockSize; each process mints its own in the block of its
// slot, cluster or client). A destination whose slot is unknown or
// evicted resolves to the zero AddrPort — the send is dropped and
// counted as UnknownPeer until the peer is heard from again.
func (t *netTransport) route(id ids.NodeID) netip.AddrPort {
	if slot, ok := t.book.ownerOf(id); ok {
		return t.book.slotAddr(slot)
	}
	if id.Tier() == ids.TierMH {
		return t.book.slotAddr(id.Ordinal() / ids.MHBlockSize)
	}
	return netip.AddrPort{}
}

// Register implements Transport.
func (t *netTransport) Register(id ids.NodeID, ep Endpoint) {
	if id.IsZero() {
		panic("runtime: registering the zero NodeID")
	}
	if ep == nil {
		panic("runtime: registering nil endpoint")
	}
	t.local[id] = ep
}

// Unregister implements Transport.
func (t *netTransport) Unregister(id ids.NodeID) { delete(t.local, id) }

// close ends the group on this transport: no endpoint is left to
// deliver to, and every later Send is lost to the loss check Send
// already makes (counted in Dropped), so the open path pays no closed
// test. Engine context.
func (t *netTransport) close() {
	clear(t.local)
	t.loss = 1
}

// Send implements Transport. A message for an endpoint of this process
// is queued, payload by reference, on the engine's FIFO and delivered
// when the current work item returns: no codec, no socket. Only a
// QueryReply's members are copied, into a buffer deliverLocal takes
// back. Anything else is encoded into the datagram the shard is
// building for its peer (egress). Unless it queued the message, Send is
// the final consumer of its round body, encoded or dropped, and hands it
// back to the lent lists, if any (LendBodies).
func (t *netTransport) Send(msg Message) {
	if !t.send(msg) && t.bodies != nil {
		t.bodies.Recycle(msg.Body)
	}
}

// send is Send up to the hand-back; it reports whether it queued msg
// for an endpoint of this process.
func (t *netTransport) send(msg Message) bool {
	msg.Sent = t.clock.Now()
	t.stats.Sent++
	if t.crashed[msg.From] {
		t.stats.Dropped++
		return false
	}
	if msg.To.IsZero() {
		t.stats.Dropped++
		return false
	}
	if t.loss > 0 && t.rng.Bernoulli(t.loss) {
		t.stats.Dropped++
		return false
	}
	if msg.Group == 0 {
		msg.Group = t.group
	}
	if _, ok := t.local[msg.To]; ok {
		if rep, ok := msg.Body.(wire.QueryReply); ok {
			rep.Members = append(t.sock.takeReplyBuf(len(rep.Members)), rep.Members...)
			msg.Body = rep
		}
		t.eng.pending.Add(1)
		t.eng.local = append(t.eng.local, localHop{t: t, msg: msg})
		return true
	}
	addr := t.route(msg.To)
	if !addr.IsValid() {
		t.nstats.UnknownPeer++
		t.stats.Dropped++
		return false
	}
	t.egress(wire.Frame{
		From:    msg.From,
		To:      msg.To,
		Group:   msg.Group,
		Class:   uint8(msg.Kind),
		TTL:     netTTL,
		Payload: msg.Body,
	}, addr)
	return false
}

// LendBodies implements BodyRecycler. A reply to another process is
// encoded (or dropped) before Send returns, and one to an endpoint of
// this process is copied into a spare buffer of the socket's.
func (t *netTransport) LendBodies(b *wire.Bodies) { t.bodies = b }

// egress encodes f into the datagram under construction for addr and
// keeps it there; a frame the checks refuse is taken back out. A kept
// frame that would push the datagram past one UDP datagram first sends
// the frames ahead of it on their own. On an idle shard (outside a
// batch) the datagram is written before egress returns.
func (t *netTransport) egress(f wire.Frame, addr netip.AddrPort) {
	d := t.bufs.to(t.sock, addr)
	start := len(d.buf)
	d.buf = wire.AppendFrame(d.buf, f)
	kept := t.admit(d.buf[start:], addr)
	if kept {
		d.keep(start, false)
		t.piggyback(d)
	} else {
		d.buf = d.buf[:start]
	}
	if !t.eng.batch {
		t.bufs.flush()
	}
	if kept {
		t.touch()
	}
}

// piggyback appends the socket's discovery hello to d, the datagram a
// protocol frame was just kept in, when one is due and fits: endpoint
// exchange rides the active traffic edges, at most once per
// GossipInterval for the whole socket.
func (t *netTransport) piggyback(d *datagram) {
	s := t.sock
	if s.hello == nil || d.addr == t.book.loopback || d.addr == t.book.self {
		return
	}
	now := t.eng.start.Add(time.Duration(t.eng.now)).UnixNano()
	last := s.lastHello.Load()
	if now-last < int64(s.helloEvery) || len(d.buf)+len(s.hello) > wire.MaxDatagram ||
		!s.lastHello.CompareAndSwap(last, now) {
		return
	}
	d.buf = append(d.buf, s.hello...)
	d.gossip++
}

// admit runs the per-frame egress checks on one encoded frame, counting
// what it refuses: the size and the blocked-peer cut (counted at the
// socket).
func (t *netTransport) admit(frame []byte, addr netip.AddrPort) bool {
	switch {
	case len(frame) > wire.MaxDatagram:
		// An aggregated batch or snapshot past one datagram cannot be
		// shipped; dropping it surfaces in the counters instead of
		// stalling silently (the ring's retransmission will keep
		// trying — an Oversize count that grows in lockstep with
		// Dropped is the diagnostic).
		t.nstats.Oversize++
	case t.sock.cutAddr(addr):
		return false
	default:
		return true
	}
	t.stats.Dropped++
	return false
}

// Crash implements Transport (local fault emulation, as on the other
// substrates: a crashed entity neither sends nor receives).
func (t *netTransport) Crash(id ids.NodeID) { t.crashed[id] = true }

// Restore implements Transport.
func (t *netTransport) Restore(id ids.NodeID) { delete(t.crashed, id) }

// Crashed implements Transport.
func (t *netTransport) Crashed(id ids.NodeID) bool { return t.crashed[id] }

// Stats implements Transport.
func (t *netTransport) Stats() Stats {
	s := t.stats
	// Datagrams cut by a partition are accounted at the socket, for
	// both directions and before any group demux, and so are the frames
	// of datagrams the socket refused; fold them in.
	cut := t.sock.cut.Load()
	s.Cut += cut
	s.Dropped += cut + t.sock.writeFailed.Load()
	return s
}

// ResetStats implements Transport.
func (t *netTransport) ResetStats() { t.stats = Stats{} }
