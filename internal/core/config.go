// Package core implements the RGB group membership protocol itself:
// the network-entity state machine of Section 4.2, the One-Round Token
// Passing Membership algorithm of Figure 3, membership propagation
// through the ring-based hierarchy, failure detection by token
// retransmission with local ring repair (§5.2), the Membership-Query
// algorithm of Section 4.4 (TMS/BMS/IMS schemes), and the
// Membership-Partition/Merge extension sketched as future work in §6.
//
// The protocol runs over the simulated mobile-Internet message plane
// (internal/simnet) driven by the deterministic event kernel
// (internal/des). All protocol communication — tokens, notifications,
// acknowledgements, queries — flows through simulated messages and is
// accounted per message kind, which is what the Table I reproduction
// measures.
//
// One deliberate simulation shortcut: transfer of *token ownership*
// between rounds (who may start the next round in a ring) is brokered
// by the System rather than by idle token circulation, so a quiescent
// hierarchy schedules no events. Every hop that the paper's hop-count
// model counts — token passes and parent/child notifications — is a
// real simulated message.
//
// The brokering is per process, so a ring spanning processes runs their
// rounds concurrently. That is safe: list writes commute by member
// version (tombstone.go), and a token waits its turn at each link
// (Node.passToken) rather than cancel another round's resend.
package core

import (
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/token"
)

// DisseminationMode selects how far a membership change propagates.
type DisseminationMode uint8

const (
	// DisseminateFull propagates every change through every logical
	// ring (the worst-case model behind formulas (5)-(6): each change
	// costs one round in all tn rings plus every inter-ring link).
	// Every ring runs the change, and each keeps in its
	// ListOfRingMembers the members its subtree covers.
	DisseminateFull DisseminationMode = iota

	// DisseminatePathOnly propagates a change only up the chain of
	// rings from the originating AP to the topmost ring — the
	// efficient mode of the paper's §6 remark ("only a sequence of
	// logical rings from bottom to top, not all the rings ... will be
	// involved"). Global membership is maintained at the topmost ring
	// (the TMS maintenance scheme of §4.4).
	DisseminatePathOnly
)

// String names the mode.
func (m DisseminationMode) String() string {
	if m == DisseminateFull {
		return "full"
	}
	return "path-only"
}

// Config parameterizes a simulated RGB deployment.
type Config struct {
	// H and R give the full hierarchy shape: height H >= 1 ring
	// levels with exactly R nodes per ring (R >= 2).
	H, R int

	// GID is the group served by this hierarchy.
	GID ids.GroupID

	// Seed makes the run reproducible.
	Seed uint64

	// Latency is the message-plane latency model; nil selects the
	// default 4-tier profile.
	Latency runtime.LatencyModel

	// Loss is the independent message-loss probability.
	Loss float64

	// Dissemination selects full vs path-only propagation (E4).
	Dissemination DisseminationMode

	// Aggregate enables MQ aggregation (E5 ablation when disabled).
	Aggregate bool

	// NeighborLists enables ListOfNeighborMembers maintenance for
	// fast handoff (E7 ablation when disabled).
	NeighborLists bool

	// RetransmitTimeout is how long a node waits for the
	// acknowledgement of a token pass or notification before
	// resending; Retransmit bounds the resends before the peer is
	// declared faulty.
	RetransmitTimeout time.Duration
	Retransmit        token.RetransmitPolicy

	// HeartbeatInterval, when positive, runs periodic empty token
	// rounds in every ring so failures are detected without
	// membership traffic. Zero disables heartbeats (required by the
	// hop-count experiments, which need a quiet network).
	HeartbeatInterval time.Duration

	// Owns and MHBase place this System at one slot of a deployment
	// whose hierarchy is spread over several Systems, whether separate
	// processes or Systems sharing one simulator. A slot is an index
	// into an entity → slot map (normally topology.SubtreeOwners): the
	// System builds only the entities of its slot, and messages for the
	// rest travel through the shared transport. MHBase is where the
	// slot's block of ids.MHBlockSize mobile-host and query-app
	// ordinals starts, so no two slots mint the same endpoint. Set both
	// with Place. Owns nil means one System builds every entity.
	Owns   func(ids.NodeID) bool
	MHBase int

	// BatchWindow, when positive, defers locally-submitted membership
	// changes (Member-Join/Leave/Handoff/Failure arriving at an access
	// proxy) for up to one window so every change observed in it rides
	// one multi-member token round — O(changes/window) dissemination
	// instead of O(changes), the Rapid-style batched view change. Zero
	// disables batching entirely: every path is byte-identical to the
	// unbatched protocol, which is what the pinned golden digests run.
	BatchWindow time.Duration

	// StabilityK, when >= 2, arms the K-observer stability filter: a
	// network entity is evicted from its ring only once K distinct
	// observers (pass-timeout detectors, the heartbeat's silent-leader
	// suspicion, the discovery plane's FailOutRemote) concur within the
	// suspicion window of five heartbeat intervals (five retransmit
	// timeouts without heartbeats). Unconfirmed suspicions still route
	// the token around the suspect, so rounds keep completing while
	// confirmation accumulates. An entity evicted and readmitted
	// repeatedly is held out of rejoin for ten heartbeat intervals (ten
	// retransmit timeouts) doubled per repeat offense. Values <= 1
	// disable the filter and the quarantine (every suspicion evicts
	// immediately — the pre-filter protocol).
	StabilityK int
}

// DefaultConfig returns a ready-to-run configuration for an (h, r)
// hierarchy.
func DefaultConfig(h, r int) Config {
	return Config{
		H:                 h,
		R:                 r,
		GID:               ids.NewGroupID(1),
		Seed:              1,
		Latency:           runtime.DefaultTierLatency(),
		Dissemination:     DisseminateFull,
		Aggregate:         true,
		NeighborLists:     true,
		RetransmitTimeout: 250 * time.Millisecond,
		Retransmit:        token.DefaultRetransmitPolicy(),
	}
}

// Place puts cfg at one slot of a deployment spread over several
// Systems: it owns exactly the entities owners assigns to slot, and its
// mobile hosts and query apps take the slot's ordinal block. A slot
// that no entity belongs to (a client) owns nothing but still gets a
// block of its own. Place is the one place either field is set.
func Place(cfg *Config, owners map[ids.NodeID]int, slot int) {
	cfg.Owns = func(id ids.NodeID) bool { return owners[id] == slot }
	cfg.MHBase = slot * ids.MHBlockSize
}

// validate panics on nonsensical configurations.
func (c *Config) validate() {
	if c.H < 1 || c.R < 2 {
		panic("core: config requires H >= 1 and R >= 2")
	}
	if c.Latency == nil {
		c.Latency = runtime.DefaultTierLatency()
	}
	if c.RetransmitTimeout <= 0 {
		c.RetransmitTimeout = 250 * time.Millisecond
	}
	if c.Retransmit.MaxRetries <= 0 {
		c.Retransmit = token.DefaultRetransmitPolicy()
	}
}
