package runtime

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"github.com/rgbproto/rgb/internal/discovery"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/wire"
)

// The real-time host. A membership proxy in the mobile Internet serves
// many concurrent groups (conferences, sessions) from one process;
// running one engine goroutine — or one whole process — per group is
// the opposite of scalable. Every real-time group therefore runs on the
// same three layers, shards → mux → group view, and a single group is
// simply a one-shard set with one group open:
//
//   - ShardSet: a fixed pool of engine shards (one goroutine each).
//     Every group is pinned to one shard, so per-group state keeps the
//     single-writer discipline while different shards run genuinely in
//     parallel. N groups cost one goroutine per shard, not per group and
//     not per endpoint.
//   - NetMux: the groups of one process. With a socket (NetConfig.Bind)
//     they share it: inbound frames are demultiplexed to the owning
//     group's shard by the wire envelope's group tag, and the outgoing
//     datagrams are shared per shard. Without one the process is the
//     whole deployment: every endpoint is local and every hop is handed
//     over in memory. Open hands out a *NetRuntime view per group.
//   - BindShard: runs any single-threaded Runtime (in practice the
//     deterministic simulator) on a shard, serializing all access.
//
// Errors are sentinel values matched with errors.Is.
var (
	// ErrGroupOpen reports a second Open of the same group on a mux.
	ErrGroupOpen = errors.New("runtime: group already open")

	// ErrBadShard reports a shard index outside the set.
	ErrBadShard = errors.New("runtime: shard index out of range")

	// ErrMuxClosed reports an Open on a closed mux.
	ErrMuxClosed = errors.New("runtime: mux closed")
)

// muxShard is one engine shard: a single goroutine owning the protocol
// state of every group pinned to it, plus that goroutine's outgoing
// datagrams. It is the real-time analogue of one simulator kernel.
type muxShard struct {
	eng  *engineCore
	bufs *netBufs
}

// shardQueue sizes a shard's work queue: a busy shard's backlog of
// decoded frames, service calls and alarm rings.
const shardQueue = 4096

// ShardSet is a fixed pool of engine shards. Groups are pinned to
// shards (consistent-hashed by the cluster layer); each shard
// serializes its groups while distinct shards run in parallel. The
// creator owns the set and must Close it after closing every mux and
// shard-bound runtime using it.
type ShardSet struct {
	shards []*muxShard
}

// NewShardSet starts n engine shards (minimum 1).
func NewShardSet(n int) *ShardSet {
	if n < 1 {
		n = 1
	}
	set := &ShardSet{shards: make([]*muxShard, n)}
	for i := range set.shards {
		bufs := new(netBufs)
		set.shards[i] = &muxShard{eng: newEngineCore(bufs.flush, shardQueue), bufs: bufs}
	}
	return set
}

// Len returns the number of shards.
func (s *ShardSet) Len() int { return len(s.shards) }

// Close stops every shard's engine goroutine. In-flight work is
// dropped.
func (s *ShardSet) Close() error {
	for _, sh := range s.shards {
		sh.eng.stop()
	}
	return nil
}

// shardBound runs a single-threaded inner runtime (the deterministic
// simulator) on one engine shard: every drive operation — Do, Run,
// RunFor, RunUntil — is marshalled onto the shard's goroutine, so the
// inner runtime keeps its single-caller discipline while many groups
// on different shards run in parallel. Determinism is untouched: the
// inner kernel processes exactly the same events in the same order no
// matter which shard (or how many shards) the cluster runs.
type shardBound struct {
	inner Runtime
	eng   *engineCore
}

// BindShard pins a single-threaded runtime to a shard of the set.
func BindShard(inner Runtime, set *ShardSet, shard int) (Runtime, error) {
	if shard < 0 || shard >= len(set.shards) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadShard, shard, len(set.shards))
	}
	return &shardBound{inner: inner, eng: set.shards[shard].eng}, nil
}

func (r *shardBound) Clock() Clock         { return r.inner.Clock() }
func (r *shardBound) Transport() Transport { return r.inner.Transport() }

func (r *shardBound) Do(fn func())           { r.eng.do(func() { r.inner.Do(fn) }) }
func (r *shardBound) Run()                   { r.eng.do(r.inner.Run) }
func (r *shardBound) RunFor(d time.Duration) { r.eng.do(func() { r.inner.RunFor(d) }) }

func (r *shardBound) RunUntil(pred func() bool) bool {
	ok := false
	r.eng.do(func() { ok = r.inner.RunUntil(pred) })
	return ok
}

// Close closes the inner runtime (the shard itself belongs to the
// ShardSet).
func (r *shardBound) Close() error {
	var err error
	r.eng.do(func() { err = r.inner.Close() })
	return err
}

// --- NetMux -----------------------------------------------------------

// NetMux hosts the real-time groups of one process over one bound UDP
// socket. The read loop demultiplexes each inbound frame to the owning
// group's engine shard by the envelope's group tag, and all groups of a
// shard share that shard's outgoing datagrams and local-hop FIFO, so the
// steady-state multi-group send path allocates nothing beyond the
// one-group one. The peer address book is resolved once and shared
// read-only by every group: all groups of a deployment see the same
// hierarchy partition.
type NetMux struct {
	cfg  NetConfig
	set  *ShardSet
	sock *netSock
	book *netBook

	// disc is the socket-scoped discovery plane, shared by every group,
	// on an engine of its own. Every bound socket runs one, a single
	// process's too: it answers a slotless client's bootstrap and keeps
	// its client slot.
	disc *discoverer

	// boot holds what a seed bootstrap found out (bootOK false on a
	// statically configured mux).
	boot   BootstrapInfo
	bootOK bool

	closedCh  chan struct{}
	closeOnce sync.Once

	mu     sync.RWMutex
	closed bool
	groups map[ids.GroupID]*NetRuntime
}

// NewNetMux binds the shared socket and starts the demultiplexing read
// loop; an empty cfg.Bind is an error. The mux does not own the set;
// close the mux first, then the set.
func NewNetMux(cfg NetConfig, set *ShardSet) (*NetMux, error) {
	if cfg.Bind == "" {
		return nil, errors.New("runtime: NetMux needs a bind address")
	}
	netDefaults(&cfg)
	m := &NetMux{
		cfg:      cfg,
		set:      set,
		closedCh: make(chan struct{}),
		groups:   make(map[ids.GroupID]*NetRuntime),
	}
	sock, err := bindNetSock(cfg)
	if err != nil {
		return nil, err
	}
	book, err := resolveNetBook(cfg, sock.conn)
	if err != nil {
		sock.conn.Close()
		return nil, err
	}
	m.sock, m.book = sock, book
	m.disc, err = newDiscoverer(sock, book, cfg, m.evict)
	if err != nil {
		sock.conn.Close()
		return nil, err
	}
	go sock.readLoop(m.closedCh, m.resolve)
	if len(cfg.Seeds) > 0 && len(cfg.Peers) == 0 {
		boot, err := m.disc.bootstrap()
		if err != nil {
			m.Close()
			return nil, err
		}
		m.boot, m.bootOK = boot, true
	}
	return m, nil
}

// BootstrapInfo reports what a seed bootstrap found out about the
// deployment; ok is false on a statically configured mux.
func (m *NetMux) BootstrapInfo() (info BootstrapInfo, ok bool) {
	return m.boot, m.bootOK
}

// AdoptOwners swaps in the entity-ownership partition shared by every
// group (derived by the caller from the bootstrapped shape).
func (m *NetMux) AdoptOwners(owners map[ids.NodeID]int) { m.book.adopt(owners) }

// Peers snapshots the live peer table shared by every group.
func (m *NetMux) Peers() []discovery.PeerInfo { return m.book.table.Snapshot() }

// resolve routes one inbound frame to the owning group's transport. It
// runs on the read goroutine; liveness is recorded and discovery frames
// go to the discovery engine before the group table is consulted under
// its read lock (writes only happen in Open/Close). A frame tagged for
// a group this process does not host is dropped and counted instead of
// being delivered into another group's engine.
func (m *NetMux) resolve(f wire.Frame, src netip.AddrPort) *netTransport {
	m.book.table.Seen(src)
	if m.disc.intercept(f, src) {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if view, ok := m.groups[f.Group]; ok {
		return view.tr
	}
	m.sock.unknownGroup.Add(1)
	return nil
}

// Open starts group gid on the given shard and returns its runtime view
// (whose Close ends only that group — the socket and shards belong to
// the mux and its set). loss is the group's emulated independent egress
// loss probability, drawn from a stream seeded by seed.
func (m *NetMux) Open(gid ids.GroupID, shard int, seed uint64, loss float64) (*NetRuntime, error) {
	if shard < 0 || shard >= len(m.set.shards) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadShard, shard, len(m.set.shards))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrMuxClosed
	}
	if _, ok := m.groups[gid]; ok {
		return nil, fmt.Errorf("%w: %v", ErrGroupOpen, gid)
	}
	sh := m.set.shards[shard]
	tr := newNetTransport(m, sh, gid, seed, loss)
	view := &NetRuntime{eng: sh.eng, clock: tr.clock, tr: tr, mux: m, gid: gid}
	m.groups[gid] = view
	return view, nil
}

// views snapshots the views of the open groups.
func (m *NetMux) views() []*NetRuntime {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Collect(maps.Values(m.groups))
}

// evict hands the entities an evicted peer slot owns to the eviction
// callback of every open group, on its group's engine. Discovery engine.
func (m *NetMux) evict(slot int) {
	dead := m.book.ownedBy(slot)
	if len(dead) == 0 {
		return
	}
	for _, v := range m.views() {
		v.eng.pending.Add(1)
		v.eng.submit(func() {
			defer v.eng.pending.Add(-1)
			if v.onEvict != nil {
				v.onEvict(dead)
			}
		})
	}
}

// release deregisters a group closed through its runtime view: its
// frames stop being dispatched (counted as UnknownGroup instead) and
// the identity can be opened again. A view closed twice must not take a
// reopened incarnation of its group with it.
func (m *NetMux) release(view *NetRuntime) {
	m.mu.Lock()
	if m.groups[view.gid] == view {
		delete(m.groups, view.gid)
	}
	m.mu.Unlock()
}

// Block cuts traffic to and from the given peer slots until Unblock:
// egress datagrams to them and ingress datagrams from them — protocol
// and discovery alike, for every group — are dropped and counted in
// Stats.Cut. This is the networked substrate's partition primitive:
// process-level, driven from outside the protocol (the chaos harness),
// unlike the simulator's entity-level Partitionable cut. The self slot
// is never blocked — a partition separates a process from its peers,
// and its own entities reach one another without the socket anyway.
func (m *NetMux) Block(slots ...int) {
	blocked := make(map[netip.AddrPort]bool, len(slots))
	for _, s := range slots {
		if s == m.book.selfIndex {
			continue
		}
		if a := m.book.slotAddr(s); a.IsValid() {
			blocked[a] = true
		}
	}
	m.sock.blocked.Store(&blocked)
}

// Unblock removes the cut installed by Block.
func (m *NetMux) Unblock() { m.sock.blocked.Store(nil) }

// LocalAddr returns the address the shared socket actually bound.
func (m *NetMux) LocalAddr() *net.UDPAddr { return m.sock.conn.LocalAddr().(*net.UDPAddr) }

// NetStats aggregates the wire-level counters: the socket-level counts
// once, plus the routing counters of every group.
func (m *NetMux) NetStats() NetStats {
	ns := m.sock.stats()
	for _, v := range m.views() {
		v.eng.do(func() {
			ns.UnknownPeer += v.tr.nstats.UnknownPeer
			ns.Oversize += v.tr.nstats.Oversize
		})
	}
	ns.PeerJoined = m.book.table.Joined()
	ns.PeerEvicted = m.book.table.Evicted()
	return ns
}

// Close stops the read loop and closes the shared socket. The engine
// shards belong to the ShardSet and keep running. Idempotent.
func (m *NetMux) Close() error {
	var err error
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()
		m.disc.stop()
		close(m.closedCh)
		err = m.sock.conn.Close()
	})
	return err
}
