package rgb

import (
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/runtime"
)

// serviceOptions accumulates the functional options of Open and
// NewCluster.
type serviceOptions struct {
	cfg       core.Config
	watchBuf  int
	shards    int
	inProcess bool // WithLiveRuntime

	// Networked deployment (Listen/Dial/ListenCluster).
	netConfig  *runtime.NetConfig
	advertise  string
	dialClient bool

	// Fault injection (WithFaults).
	faults *FaultPlan

	// seedSlotSet records an explicit WithSeedSlot, so WithSeeds does
	// not clobber it with the slotless default whichever order the two
	// options arrive in.
	seedSlotSet bool
}

// net returns the networked deployment configuration, creating it on
// first use: any option that sets one of its fields selects the
// networked runtime.
func (o *serviceOptions) net() *runtime.NetConfig {
	if o.netConfig == nil {
		o.netConfig = &runtime.NetConfig{}
	}
	return o.netConfig
}

// Option configures a Service at Open time.
type Option func(*serviceOptions)

// defaultServiceOptions is the base every Open starts from: a 3x5
// hierarchy on the default simulated runtime, with a Watch buffer of
// 1024 events per subscriber.
func defaultServiceOptions() serviceOptions {
	return serviceOptions{
		cfg:      core.DefaultConfig(3, 5),
		watchBuf: 1024,
	}
}

// WithHierarchy sets the hierarchy shape: h ring levels with r
// entities per ring (h >= 1, r >= 2).
func WithHierarchy(h, r int) Option {
	return func(o *serviceOptions) { o.cfg.H, o.cfg.R = h, r }
}

// WithSeed makes the deployment reproducible: it seeds the simulated
// message plane, the AP-selection stream of Join, and the loss emulation
// of the real-time runtimes.
func WithSeed(seed uint64) Option {
	return func(o *serviceOptions) { o.cfg.Seed = seed }
}

// WithFaults injects seeded, deterministic adversarial faults into the
// message plane: each FaultPlan probability independently corrupts
// (one byte flipped through the real wire codec), duplicates
// (replays), misroutes or reorders messages. It applies per message,
// the same way on every runtime the service builds itself — simulated,
// in-process or networked, hops between two entities of one process
// included — and the injected faults surface as FaultStats in
// rgb_faults_injected_total. A corrupted message that no longer decodes
// is dropped at the sender, so no malformed frame reaches the wire.
// A zero plan Seed derives from the group's seed.
func WithFaults(plan FaultPlan) Option {
	return func(o *serviceOptions) { p := plan; o.faults = &p }
}

// WithHeartbeat enables periodic empty token rounds in every ring so
// failures are detected without membership traffic.
func WithHeartbeat(interval time.Duration) Option {
	return func(o *serviceOptions) { o.cfg.HeartbeatInterval = interval }
}

// WithBatchWindow coalesces locally-observed membership changes
// (joins, leaves, failures) arriving within the window into one
// multi-member view change per token round, Rapid-style. Zero (the
// default) keeps the classic behaviour: every submission requests its
// own round immediately. A good starting point is one heartbeat
// interval.
func WithBatchWindow(window time.Duration) Option {
	return func(o *serviceOptions) { o.cfg.BatchWindow = window }
}

// WithStabilityK gates failure evictions behind K independent
// observers: a suspected entity is only excluded once K distinct
// observers (token-pass timeout holder, silent-leader watchdog,
// discovery prober) concur within the suspicion window, and members
// that flap repeatedly are quarantined with exponentially longer
// rejoin holds. K < 2 (the default) disables the filter: the first
// observer evicts immediately, as in the base protocol.
func WithStabilityK(k int) Option {
	return func(o *serviceOptions) { o.cfg.StabilityK = k }
}

// WithConfig replaces the whole protocol configuration at once (start
// from DefaultConfig): it is how a program sets the group identity, the
// dissemination mode, the simulated latency model and the per-message
// loss probability. Options applied after it refine it.
func WithConfig(cfg Config) Option {
	return func(o *serviceOptions) { o.cfg = cfg }
}

// WithLiveRuntime runs the service on real time inside this process, on
// a host the Service builds (and closes) itself: the one Listen builds —
// engine shards, a mux over them, a view per group — without the socket.
// Real timers fire and every hop between two entities is handed over in
// memory, so the process is the whole deployment.
func WithLiveRuntime() Option {
	return func(o *serviceOptions) { o.inProcess = true }
}

// WithAdvertise sets the address other processes use to reach this one
// (useful when binding "0.0.0.0" or an ephemeral port behind a known
// name). Only meaningful with Listen, Dial and ListenCluster.
func WithAdvertise(addr string) Option {
	return func(o *serviceOptions) { o.advertise = addr }
}

// WithCluster places this process in a multi-process deployment: peers
// lists the advertise addresses of every process (slot-indexed, the
// same order everywhere) and index is this process's slot. The
// hierarchy is partitioned deterministically across the slots
// (topmost-ring node i and its whole subtree go to slot i mod
// len(peers)), so all processes compute the identical address book.
// Only meaningful with Listen, Dial and ListenCluster.
func WithCluster(index int, peers ...string) Option {
	return func(o *serviceOptions) {
		o.net().Index = index
		o.net().Peers = peers
	}
}

// WithSeeds joins a running networked deployment knowing only the
// addresses of one or more live members: instead of a static WithCluster
// peer list, the process bootstraps — it asks a seed for the deployment
// shape and the current peer table, adopts both, and keeps its address
// book fresh by gossip from then on. By default it joins as a slotless
// observer (it owns no hierarchy entities but routes, relays and
// queries like any member); combine with WithSeedSlot to claim a
// cluster slot — e.g. to replace a member whose address changed.
// Only meaningful with Listen/ListenCluster; mutually exclusive with
// WithCluster.
func WithSeeds(addrs ...string) Option {
	return func(o *serviceOptions) {
		o.net().Seeds = addrs
		if !o.seedSlotSet {
			o.net().SeedSlot = -1
		}
	}
}

// WithSeedSlot sets the cluster slot a seed-bootstrapping process
// claims (see WithSeeds): its advertise address replaces whatever the
// deployment previously recorded for that slot, and it serves the
// hierarchy entities the slot owns. Use it to restart a member on a new
// address with no config reload anywhere.
func WithSeedSlot(slot int) Option {
	return func(o *serviceOptions) {
		o.net().SeedSlot = slot
		o.seedSlotSet = true
	}
}

// WithShards sets a cluster's engine worker count (default
// GOMAXPROCS). Each group is pinned to one shard by a consistent hash
// of its GroupID; per-group behaviour is identical for any shard
// count, so this is purely a parallelism knob. Ignored by the
// single-group Open.
func WithShards(n int) Option {
	return func(o *serviceOptions) {
		if n > 0 {
			o.shards = n
		}
	}
}
