package rgb

import (
	"fmt"
	"net"
	"runtime" // the Go runtime (GOMAXPROCS); the substrate is rgbruntime
	"sort"
	"sync"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/mathx"
	rgbruntime "github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/telemetry"
)

// Cluster hosts many independent RGB groups in one process. A mobile-
// Internet proxy serves many concurrent groups (conferences,
// sessions); one engine goroutine — or one process — per group does
// not scale, so the cluster shards its groups across a fixed pool of
// engine workers: a consistent hash of the GroupID pins each group to
// one shard, every shard is a single-goroutine engine loop owning its
// groups' timer heaps and protocol state, and distinct shards run
// genuinely in parallel. Per-group behaviour stays deterministic — a
// group's engine sees exactly the same events in the same order no
// matter how many shards the cluster runs or which shard it lands on.
//
// Every real-time group runs on one host, shards → mux → group view,
// with or without a socket: the mux gives each group its own endpoints,
// timers and counters on its shard's engine goroutine and hands a
// message between two entities of the process over in memory. Networked
// (Listen, ListenCluster), it additionally shares one UDP socket
// and the per-shard outgoing datagrams between all groups and demultiplexes
// inbound frames to the owning shard by the wire envelope's group tag;
// in-process (WithLiveRuntime), it has no socket and the process is the
// whole deployment.
//
// The deterministic simulator (the default) is the one exception: each
// group is its own single-threaded simulator, bound to its shard's
// worker — or, under rgb.Open, run inline on the caller.
//
// Open returns each group as an ordinary *Service — the entire Service
// API (Join/Leave/Handoff/Query/Watch/Settle/...) works per group,
// concurrently across groups. rgb.Open and rgb.Listen are the
// one-group special case: the same host with one shard and one group.
type Cluster struct {
	base serviceOptions

	// single marks the one-group cluster built by rgb.Open: one shard,
	// the group keeps the caller's seed, and closing its Service closes
	// the cluster. Without a real-time substrate it has no shard worker
	// at all (set is nil): the group runs inline on the caller, the
	// simulator with its single-threaded discipline and allocation
	// profile intact.
	single bool

	// set and mux are the real-time host (both nil on the simulator
	// under rgb.Open, mux nil on a simulator cluster).
	set *rgbruntime.ShardSet
	mux *rgbruntime.NetMux

	mu     sync.Mutex
	groups map[GroupID]*Service
	closed bool

	// tel is the lazily-built metrics registry (Telemetry); nil until
	// the first Telemetry call, and groups opened before that are
	// instrumented retroactively.
	tel *telemetry.Registry
}

// NewCluster builds a multi-group membership container. The options
// are the same as Open's and apply to every group (hierarchy shape,
// seed, query scheme, dissemination, heartbeats, loss); WithShards
// sets the engine worker count (default GOMAXPROCS). Substrate
// selection: the deterministic simulator by default, the real-time host
// in-process with WithLiveRuntime; use ListenCluster for the networked
// form.
//
// Groups are not declared up front: Open(gid) instantiates one on
// demand. Close shuts down every group and the shared substrate.
func NewCluster(opts ...Option) (*Cluster, error) {
	o, err := parseOptions(opts)
	if err != nil {
		return nil, err
	}
	return newCluster(o, false)
}

// newCluster builds the substrate host behind NewCluster (single
// false) and Open (single true).
func newCluster(o serviceOptions, single bool) (*Cluster, error) {
	c := &Cluster{base: o, single: single, groups: make(map[GroupID]*Service)}
	realTime := o.netConfig != nil || o.inProcess
	shards := o.shards
	switch {
	case single && !realTime:
		return c, nil // inline: no shard worker
	case single:
		shards = 1
	case shards <= 0:
		shards = runtime.GOMAXPROCS(0)
	}
	// The zero NetConfig, with no Bind, is the in-process mux.
	var nc rgbruntime.NetConfig
	if o.netConfig != nil {
		var err error
		if nc, err = buildNetConfig(&c.base); err != nil {
			return nil, err
		}
	}
	c.set = rgbruntime.NewShardSet(shards)
	if !realTime {
		return c, nil // simulators bound to the shards
	}
	mux, err := rgbruntime.NewNetMux(nc, c.set)
	if err != nil {
		c.set.Close()
		return nil, err
	}
	c.mux = mux
	if boot, ok := mux.BootstrapInfo(); ok {
		adoptBootstrap(&c.base, boot, mux.AdoptOwners)
	}
	return c, nil
}

// networked reports whether the cluster's mux has a socket.
func (c *Cluster) networked() bool { return c.mux != nil && c.mux.LocalAddr() != nil }

// ListenCluster starts a networked multi-group container: it binds
// addr (UDP) once and serves every opened group over that socket, with
// inbound frames demultiplexed to the owning group's engine shard by
// the wire envelope's group tag. WithCluster partitions the hierarchy
// of every group identically across the listed processes, so a
// multi-process deployment hosts many groups per process without
// multiplying sockets. See cmd/rgbnode -groups for the ready-made
// daemon.
func ListenCluster(addr string, opts ...Option) (*Cluster, error) {
	opts = append(opts, func(o *serviceOptions) {
		o.net().Bind = addr
	})
	return NewCluster(opts...)
}

// Open instantiates (or returns the already-open) group gid: a full
// ring hierarchy and protocol engine on the cluster's substrate,
// pinned to the shard ShardOf(gid). The returned Service is the same
// type Open returns — every Service method works per group. Closing
// the Service closes just that group (and, for the one-group cluster of
// rgb.Open, the cluster with it); closing the Cluster closes all of
// them.
func (c *Cluster) Open(gid GroupID) (*Service, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if svc, ok := c.groups[gid]; ok {
		return svc, nil
	}

	o := c.base // copy: per-group Config diverges (GID, Seed)
	o.cfg.GID = gid
	if !c.single {
		// Each group runs its own deterministic stream, derived so the
		// same base seed reproduces the same per-group behaviour on
		// any substrate and any shard count. The one-group cluster
		// (rgb.Open) keeps the caller's seed untouched.
		o.cfg.Seed = seedForGroup(o.cfg.Seed, gid)
	}

	// The runtime is closed with the group's Service (a mux view's
	// Close is scoped to the group). Loss is the substrate's own: a
	// real-time group draws it at egress from its seeded stream, the
	// simulator on its message plane.
	var (
		rt  rgbruntime.Runtime
		nrt *rgbruntime.NetRuntime
		err error
	)
	if c.mux != nil {
		nrt, err = c.mux.Open(gid, c.ShardOf(gid), o.cfg.Seed, o.cfg.Loss)
		rt = nrt
	} else {
		sim := simnet.NewSimRuntime(o.cfg.Latency, o.cfg.Seed)
		if o.cfg.Loss > 0 {
			sim.Net().SetLoss(o.cfg.Loss)
		}
		rt = sim
		if c.set != nil {
			rt, err = rgbruntime.BindShard(rt, c.set, c.ShardOf(gid))
		}
	}
	if err != nil {
		return nil, err
	}
	rt = wrapFaults(rt, &o)

	var sys *core.System
	rt.Do(func() { sys = core.NewSystemOn(o.cfg, rt) })
	if nrt != nil {
		// Discovery evictions feed the protocol's fail-out path: when
		// the probe sweep declares a peer process dead, every ring that
		// spans it excludes the dead entities immediately instead of
		// waiting out the heartbeat silence window.
		nrt.OnPeerEvict(func(dead []NodeID) { sys.FailOutRemote(dead...) })
	}
	svc := newService(c, gid, rt, sys, &o)
	c.groups[gid] = svc
	if c.tel != nil {
		c.instrumentGroup(svc)
	}
	return svc, nil
}

// wrapFaults decorates a runtime the service built itself with the
// WithFaults injection plan (identity without one): one per-message
// injector over every substrate, so a hop between two entities of one
// process is as exposed as one crossing the socket. A zero plan seed
// derives from the group's own seed so fault streams stay per-group
// deterministic.
func wrapFaults(rt rgbruntime.Runtime, o *serviceOptions) rgbruntime.Runtime {
	if o.faults == nil {
		return rt
	}
	plan := *o.faults
	if plan.Seed == 0 {
		plan.Seed = o.cfg.Seed ^ 0xfa17fa17fa17fa17
	}
	return rgbruntime.WithFaultInjection(rt, plan)
}

// forget deregisters a group closed through its own Service.Close.
func (c *Cluster) forget(gid GroupID) {
	c.mu.Lock()
	delete(c.groups, gid)
	c.mu.Unlock()
}

// Group returns the open Service for gid, if any.
func (c *Cluster) Group(gid GroupID) (*Service, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	svc, ok := c.groups[gid]
	return svc, ok
}

// Groups returns the currently open group identities, sorted.
func (c *Cluster) Groups() []GroupID {
	c.mu.Lock()
	out := make([]GroupID, 0, len(c.groups))
	for gid := range c.groups {
		out = append(out, gid)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Shards returns the engine worker count.
func (c *Cluster) Shards() int {
	if c.set == nil {
		return 1 // inline one-group cluster
	}
	return c.set.Len()
}

// ShardOf returns the shard a group is (or would be) pinned to: a
// consistent hash of the group identity, stable across runs and
// independent of open order.
func (c *Cluster) ShardOf(gid GroupID) int {
	// FNV-1a over the group's four identity bytes.
	h := uint64(14695981039346656037)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(uint32(gid) >> (8 * i)))
		h *= 1099511628211
	}
	return int(h % uint64(c.Shards()))
}

// LocalAddr returns the bound UDP address of a networked cluster's
// socket (useful with a ":0" bind), and false for non-networked
// clusters.
func (c *Cluster) LocalAddr() (*net.UDPAddr, bool) {
	if !c.networked() {
		return nil, false
	}
	return c.mux.LocalAddr(), true
}

// Peers snapshots the live peer table of a networked cluster's
// discovery plane — one entry per known peer process with its slot,
// address, liveness state, last-seen age and frame count — and false
// for non-networked clusters. A statically configured single-process
// cluster (no peers, no seeds) runs no discovery plane and reports an
// empty table.
func (c *Cluster) Peers() ([]PeerInfo, bool) {
	if !c.networked() {
		return nil, false
	}
	return c.mux.Peers(), true
}

// NetStats returns the wire-level counters of a networked cluster's
// socket (aggregated over all groups), and false for non-networked
// clusters.
func (c *Cluster) NetStats() (NetStats, bool) {
	if !c.networked() {
		return NetStats{}, false
	}
	return c.mux.NetStats(), true
}

// Block cuts all traffic between this process and the given peer slots
// of a networked deployment until Unblock: datagrams to and from them —
// every group's protocol frames and the discovery plane alike — are
// dropped and counted in Stats.Cut. This is the networked substrate's
// partition primitive, process-level and driven from outside the
// protocol (the chaos harness; rgbnode's "block" command), where the
// simulator has the entity-level Service.Partition. The process's own
// slot is never blocked. On a non-networked cluster it returns an error
// wrapping ErrOptionUnsupported.
func (c *Cluster) Block(slots ...int) error {
	if !c.networked() {
		return fmt.Errorf("rgb: Block on a non-networked cluster: %w", ErrOptionUnsupported)
	}
	c.mux.Block(slots...)
	return nil
}

// Unblock removes the cut installed by Block.
func (c *Cluster) Unblock() error {
	if !c.networked() {
		return fmt.Errorf("rgb: Unblock on a non-networked cluster: %w", ErrOptionUnsupported)
	}
	c.mux.Unblock()
	return nil
}

// Close shuts down every open group and then the shared substrate
// (mux, socket, shard workers). Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	groups := make([]*Service, 0, len(c.groups))
	for _, svc := range c.groups {
		groups = append(groups, svc)
	}
	c.groups = make(map[GroupID]*Service)
	c.mu.Unlock()

	var err error
	for _, svc := range groups {
		if cerr := svc.Close(); err == nil {
			err = cerr
		}
	}
	if c.mux != nil {
		if cerr := c.mux.Close(); err == nil {
			err = cerr
		}
	}
	if c.set != nil {
		if cerr := c.set.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// seedForGroup derives a group's deterministic stream from the
// cluster's base seed (SplitMix64 of base and the group identity): the
// same base seed yields the same per-group behaviour on every
// substrate and any shard count.
func seedForGroup(base uint64, gid GroupID) uint64 {
	z := mathx.SplitMix64(base, uint64(uint32(gid)))
	if z == 0 {
		z = 1
	}
	return z
}
