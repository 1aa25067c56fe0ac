package rgb

import (
	"github.com/rgbproto/rgb/internal/discovery"
	"github.com/rgbproto/rgb/internal/runtime"
)

// Runtime substrate: the Service runs the protocol engine over a clock
// (time and timers) and a transport (message delivery) it builds and
// closes itself. There are two:
//
//   - the deterministic discrete-event simulator (the default), where
//     protocol time is virtual and a fixed seed makes runs
//     bit-reproducible; and
//   - the real-time runtime, where timers run on wall time, an engine
//     goroutine per shard serializes the protocol, and a message between
//     two entities of the process is handed over in memory — the engine
//     demonstrably does not depend on virtual time.
//     Networked (Listen, Dial, ListenCluster), a message for an entity
//     of another process is a real UDP datagram through the wire codec;
//     in-process (WithLiveRuntime), there is no socket and no other
//     process.
//
// The real-time one exists only as a group view of one host — engine
// shards, a mux over them, one view per group, with or without a socket
// — whether the process serves one group (Open, Listen, Dial) or many
// (NewCluster, ListenCluster).
type (
	// Stats aggregates transport-level delivery counters.
	Stats = runtime.Stats

	// NetStats counts wire-level events of a networked runtime:
	// decode errors, version mismatches, routing misses, relays and
	// discovery traffic.
	NetStats = runtime.NetStats

	// FaultPlan configures seeded adversarial fault injection
	// (WithFaults): per-message probabilities for corrupt, duplicate/
	// replay, misroute and reorder.
	FaultPlan = runtime.FaultPlan

	// FaultStats counts the faults a plan injected, per group and
	// alike on every substrate (rgb_faults_injected_total).
	FaultStats = runtime.FaultStats

	// PeerInfo is one entry of a networked deployment's live peer
	// table: slot, address, liveness state, last-seen age and frame
	// count (see Service.Peers and Cluster.Peers).
	PeerInfo = discovery.PeerInfo

	// PeerState is a peer-table liveness state (PeerUp, PeerSuspect,
	// PeerEvicted).
	PeerState = discovery.State

	// Kind classifies messages for hop-count accounting.
	Kind = runtime.Kind

	// LatencyModel decides the delivery delay of each message.
	LatencyModel = runtime.LatencyModel
	// ConstantLatency delivers every message after a fixed delay.
	ConstantLatency = runtime.ConstantLatency
	// UniformLatency delivers after a uniform delay in [Min, Max).
	UniformLatency = runtime.UniformLatency
	// TierLatency models the 4-tier architecture's per-tier delays.
	TierLatency = runtime.TierLatency
)

// Peer-table liveness states (PeerInfo.State): a peer is up while its
// frames keep arriving, suspect once it has been silent past the
// discovery plane's suspect window (and is being probed), and evicted
// once silent past its eviction window — an evicted slot stops routing
// and its entities are failed out of their rings until the peer returns.
const (
	PeerUp      = discovery.StateUp
	PeerSuspect = discovery.StateSuspect
	PeerEvicted = discovery.StateEvicted
)

// Message kinds, for per-kind delivery accounting (Stats.DeliveredOf).
const (
	KindToken     = runtime.KindToken
	KindNotify    = runtime.KindNotify
	KindAck       = runtime.KindAck
	KindMemberMsg = runtime.KindMemberMsg
	KindQuery     = runtime.KindQuery
	KindReply     = runtime.KindReply
	KindControl   = runtime.KindControl
)

// DefaultTierLatency is the standard mobile-Internet latency profile:
// 2ms inside an access network, 10ms across an AS, 50ms between ASs.
func DefaultTierLatency() TierLatency { return runtime.DefaultTierLatency() }
