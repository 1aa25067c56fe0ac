package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/topology"
	"github.com/rgbproto/rgb/internal/wire"
)

// Member is the data structure an MH keeps (Section 4.2): group,
// attached AP, global and local identities, and status, in the record
// it sends with every change. The MH advances the record's version on
// every join, leave and handoff it submits (tombstone.go).
type Member struct {
	ids.MemberInfo

	node      ids.NodeID // the MH's own message endpoint
	sys       *System
	ackedAt   runtime.Time // when the last Holder-Acknowledgement arrived
	acks      int
	submitted runtime.Time // when the change at the current Ver was submitted (instrument.go)
}

// Node returns the MH's message endpoint identity.
func (m *Member) Node() ids.NodeID { return m.node }

// Acks returns how many Holder-Acknowledgements this MH received.
func (m *Member) Acks() int { return m.acks }

// HandleMessage lets the MH consume Holder-Acknowledgements. The MH is
// the final consumer of whatever is delivered to it and hands the body
// back.
func (m *Member) HandleMessage(msg runtime.Message) {
	if _, ok := msg.Body.(*wire.HolderAck); ok {
		m.acks++
		m.ackedAt = m.sys.clock.Now()
	}
	m.sys.free.Recycle(msg.Body)
}

// leftMH is what a System keeps of a member whose departure committed
// (System.collapse): its endpoint's ordinal past Config.mhBase and the
// version it left at, all that a re-join needs.
type leftMH struct {
	ord uint32
	ver uint16
}

// departedEndpoint is the one endpoint every collapsed member's endpoint
// is registered to: a Holder-Acknowledgement that arrives after the
// departure committed is delivered to it and swallowed.
type departedEndpoint struct{}

func (departedEndpoint) HandleMessage(runtime.Message) {}

// pendingRound is a deferred round start for a busy ring.
type pendingRound struct {
	at        ids.NodeID
	dir       token.Direction
	source    ring.ID
	batch     mq.Batch
	forwarder ids.NodeID // the entity that notified batch (startRound)
}

// ringState is the round state of one logical ring as this process
// sees it. There is one record per ring of the hierarchy, built once in
// NewSystemOn and shared by pointer with every locally-owned node of
// the ring, so round admission is a property of the ring rather than
// of whichever map a call site remembers to consult.
type ringState struct {
	// busy marks a locally-held round in circulation: the System
	// brokers token ownership so that "at any time there is at most one
	// membership change message propagated along a ring" (§4.3).
	// pending queues the round starts deferred meanwhile.
	busy    bool
	pending []pendingRound

	// lastTok is when a locally-owned node of the ring last saw a
	// circulating token (the ring's creation before the first one). With
	// heartbeats on, prolonged silence means this process's ring
	// fragment has no reachable leader (killed or cut away in another
	// process) — the trigger for leader suspicion.
	lastTok runtime.Time

	// roundStart is when this process last put the ring busy. The
	// token-loss watchdog measures a round's age from here rather than
	// from lastTok: on a ring spanning several processes, other holders'
	// heartbeat tokens keep flowing through local members and refresh
	// lastTok, so global token silence never occurs even when this
	// process's own round died with its carrier. The observer hears
	// the round's duration from the same stamp.
	roundStart runtime.Time
}

// RepairEvent records one local ring repair for observability.
type RepairEvent struct {
	Ring ring.ID
	Dead ids.NodeID
}

// System is a complete RGB deployment: the hierarchy, all network
// entities, the mobile hosts, and the runtime substrate driving them.
//
// The protocol state machine talks only to the runtime.Clock and
// runtime.Transport interfaces, so the same System runs on the
// deterministic simulator (simnet.SimRuntime, the default) or on real
// time (a runtime.NetRuntime group view).
//
// A System is not internally synchronized: every method that touches
// protocol state must run in engine context. On the simulated runtime
// that is any single-goroutine caller; on a real-time one, wrap calls
// in Runtime().Do (the rgb.Service facade does this).
type System struct {
	cfg   Config
	rt    runtime.Runtime
	clock runtime.Clock
	tr    runtime.Transport
	hier  *topology.RingHierarchy
	rng   *mathx.RNG

	nodes   map[ids.NodeID]*Node
	arena   []Node // every hosted entity, level by level
	top     []Node // the hosted topmost-ring entities, the head of arena
	members map[ids.GUID]*Member

	// mhOwner resolves an MH message endpoint to its Member record, so
	// a network cut can classify mobile-host traffic by the side its
	// serving AP is on.
	mhOwner map[ids.NodeID]*Member

	// left holds the members whose departure committed here, each
	// shrunk to its endpoint and version (collapse). departed holds the
	// GUIDs of departed members that wait for the hosted entities to
	// forget them, oldest first, and departedWait how many hosted
	// entities still hold the first (evicted). mhFree holds the
	// endpoints of released members, longest released first.
	left         map[ids.GUID]leftMH
	departed     fifo[ids.GUID]
	departedWait int
	mhFree       fifo[ids.NodeID]

	// netCut is set while a PartitionNetwork cut is installed.
	netCut bool

	// probeSeq numbers the merge probes the heartbeat sends to
	// roster-excluded ring-mates.
	probeSeq uint64

	rings map[ring.ID]*ringState

	// free holds the round bodies handed back here by their receivers,
	// and by a networked transport once it encoded them, for the next
	// sends (wire.Bodies). The System lends it to such a transport
	// (runtime.BodyRecycler), and lent records that it did: that
	// transport also copies or encodes a query reply before Send
	// returns, so the reply may lend its ring's own list.
	free wire.Bodies
	lent bool

	mhOrdinal int
	luidSeq   map[ids.NodeID]uint32

	// staleNE marks restored-but-not-yet-rejoined entities whose ring
	// state predates their crash; they must not answer join requests
	// or be chosen as rejoin contacts until a snapshot refreshes them.
	staleNE map[ids.NodeID]bool

	repairs    []RepairEvent
	rounds     uint64
	opsCarried uint64
	querySeq   uint64
	queryFree  []*queryCollector // idle reply collectors (query.go)

	observer func(Observation) // nil: nobody observes (events.go)

	// K-observer stability filter state (stability.go); the maps are
	// allocated only when Config.StabilityK arms the filter.
	suspects    map[ids.NodeID]*suspicion
	flapScore   map[ids.NodeID]int
	quarantined map[ids.NodeID]runtime.Time

	// Stability counters (stability.go).
	flapQuarantines   uint64
	evictionsDeferred uint64

	heartbeats []runtime.Ticker
}

// NewSystem builds and wires a full deployment on the default
// substrate: a fresh deterministic simulator runtime.
func NewSystem(cfg Config) *System {
	cfg.validate()
	rt := simnet.NewSimRuntime(cfg.Latency, cfg.Seed)
	if cfg.Loss > 0 {
		rt.Net().SetLoss(cfg.Loss)
	}
	return NewSystemOn(cfg, rt)
}

// NewSystemOn builds and wires a full deployment on the given runtime
// substrate. The caller must invoke it in engine context (for a live
// runtime, inside rt.Do). Config.Latency and Config.Loss apply only
// to runtimes the System builds itself; a caller-supplied runtime
// arrives with its own message plane already configured.
func NewSystemOn(cfg Config, rt runtime.Runtime) *System {
	cfg.validate()
	hier := topology.NewRingHierarchy(cfg.H, cfg.R)
	allRings := hier.Rings()
	s := &System{
		cfg:     cfg,
		rt:      rt,
		clock:   rt.Clock(),
		tr:      rt.Transport(),
		hier:    hier,
		rng:     mathx.NewRNG(cfg.Seed ^ 0x9b2e5f4ac3d17086),
		members: make(map[ids.GUID]*Member),
		mhOwner: make(map[ids.NodeID]*Member),
		left:    make(map[ids.GUID]leftMH),
		rings:   make(map[ring.ID]*ringState, len(allRings)),
		luidSeq: make(map[ids.NodeID]uint32),
		staleNE: make(map[ids.NodeID]bool),
		free:    wire.NewBodies(len(allRings)),
	}
	if r, ok := s.tr.(runtime.BodyRecycler); ok {
		r.LendBodies(&s.free)
		s.lent = true
	}
	if s.stabilityOn() {
		s.suspects = make(map[ids.NodeID]*suspicion)
		s.flapScore = make(map[ids.NodeID]int)
		s.quarantined = make(map[ids.NodeID]runtime.Time)
	}
	// Count the owned entities and index ring leaders up front: the
	// arena below holds every Node in one allocation, and child-leader
	// lookup drops from a per-node level scan to one map hit.
	owned := 0
	leaderOf := make(map[ring.ID]ids.NodeID, len(allRings))
	states := make([]ringState, len(allRings))
	now := s.clock.Now()
	for i, rg := range allRings {
		leaderOf[rg.ID()] = rg.Leader()
		states[i].lastTok = now
		s.rings[rg.ID()] = &states[i]
		for _, id := range rg.Nodes() {
			if s.owns(id) {
				owned++
			}
		}
	}
	s.nodes = make(map[ids.NodeID]*Node, owned)
	s.arena = make([]Node, owned)
	next := 0
	for level := 0; level < s.hier.NumLevels(); level++ {
		for _, rg := range s.hier.Level(level) {
			parent := s.hier.ParentOf(rg.ID())
			for _, id := range rg.Nodes() {
				if !s.owns(id) {
					continue
				}
				n := &s.arena[next]
				next++
				*n = Node{
					sys:    s,
					id:     id,
					level:  level,
					ringID: rg.ID(),
					ring:   s.rings[rg.ID()],
					roster: rg.Nodes(),
					leader: rg.Leader(),
					parent: parent,
					queue:  mq.New(cfg.Aggregate),
					pass:   passResend(n),
					gone:   ids.NewTombstones(tombstoneWindow),
				}
				if child, ok := s.hier.ChildRingOf(id); ok {
					n.hasChild = true
					n.childRing = child
					n.childLeader = leaderOf[child]
				}
				s.nodes[id] = n
				s.tr.Register(id, n)
			}
		}
		if level == 0 {
			s.top = s.arena[:next]
		}
	}
	if cfg.HeartbeatInterval > 0 {
		s.startHeartbeats()
	}
	return s
}

// Clock returns the substrate clock.
func (s *System) Clock() runtime.Clock { return s.clock }

// Transport returns the substrate message plane.
func (s *System) Transport() runtime.Transport { return s.tr }

// Hierarchy returns the static topology.
func (s *System) Hierarchy() *topology.RingHierarchy { return s.hier }

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// Node returns the network entity with the given identity.
func (s *System) Node(id ids.NodeID) *Node { return s.nodes[id] }

// APs returns the bottommost access proxies.
func (s *System) APs() []ids.NodeID { return s.hier.APs() }

// Repairs returns every local ring repair performed so far.
func (s *System) Repairs() []RepairEvent { return s.repairs }

// Rounds returns the total number of completed token rounds.
func (s *System) Rounds() uint64 { return s.rounds }

// OpsCarried returns the total membership operations carried across
// all completed rounds — the workload metric the MQ aggregation
// ablation (E5) compares.
func (s *System) OpsCarried() uint64 { return s.opsCarried }

// send is the single funnel for protocol sends. Every message is
// stamped with the deployment's group, so a multi-group transport
// (runtime.NetMux) can demultiplex the reply traffic of coexisting
// Systems sharing one socket.
func (s *System) send(from, to ids.NodeID, kind runtime.Kind, body wire.Payload) {
	s.tr.Send(runtime.Message{From: from, To: to, Group: s.cfg.GID, Kind: kind, Body: body})
}

// owns reports whether this System instantiates the given entity
// (always true for single-process deployments).
func (s *System) owns(id ids.NodeID) bool {
	return s.cfg.owns == nil || s.cfg.owns(id)
}

// sameRing reports whether two entities belong to the same logical
// ring of the static hierarchy.
func (s *System) sameRing(a, b ids.NodeID) bool {
	ra, rb := s.hier.RingOf(a), s.hier.RingOf(b)
	return ra != nil && rb != nil && ra.ID() == rb.ID()
}

// requestRound asks to start a round at node n fed from its own MQ.
func (s *System) requestRound(n *Node, dir token.Direction, source ring.ID) {
	s.requestRoundWithBatch(n, dir, source, nil, ids.NoNode)
}

// requestRoundWithBatch schedules a round at node n. If the ring is
// busy the request queues until the current round completes — the
// System brokers token ownership so that "at any time there is at most
// one membership change message propagated along a ring" (§4.3).
// forwarder is the entity that notified batch, zero for a batch of the
// ring's own.
func (s *System) requestRoundWithBatch(n *Node, dir token.Direction, source ring.ID, batch mq.Batch, forwarder ids.NodeID) {
	if s.tr.Crashed(n.id) || n.ring.busy {
		// Park the request: a busy ring runs it when the current round
		// completes, a crashed entity if it is restored.
		n.ring.pending = append(n.ring.pending, pendingRound{at: n.id, dir: dir, source: source, batch: batch, forwarder: forwarder})
		return
	}
	if dir == token.FromLocal && batch == nil && n.queue.Len() == 0 {
		return // nothing to do
	}
	s.markRingBusy(n.ring)
	n.startRound(dir, source, batch, forwarder)
}

// roundDone is called by the holder when a round completes. It
// releases the ring and dispatches any deferred rounds; a mid-round
// repair first triggers a convergence round so every surviving member
// learns the exclusion.
func (s *System) roundDone(holder *Node, tok *token.Token, repaired bool) {
	s.rounds++
	s.opsCarried += uint64(len(tok.Ops))
	if s.observer != nil && holder.ring.busy {
		// A round this process did not start (adopted from a holder in
		// another process, or written off by the token-loss watchdog)
		// has no start stamp here and is not reported.
		now := s.clock.Now()
		s.observer(Observation{Event: Event{Kind: EventRoundDone, At: now},
			Took: now.Sub(holder.ring.roundStart)})
	}
	holder.ring.busy = false
	if repaired && len(tok.Ops) > 0 {
		// A mid-round repair means some members executed the token
		// before the exclusion was folded in — and, if the old leader
		// died, nobody forwarded the batch upward. Re-circulate the
		// whole batch once: membership operations are idempotent, the
		// NE-Failure reaches every survivor, and the (new) leader
		// forwards the batch up the hierarchy. The re-circulation is
		// the ring's own round, so a notified batch goes in a copy that
		// replies to its forwarder.
		batch := tok.Ops
		if len(tok.Contributors) > 0 {
			batch = slices.Clone(batch)
			readdress(batch, tok.Contributors[0])
		}
		s.requestRoundWithBatch(holder, token.FromLocal, ring.ID{}, batch, ids.NoNode)
		return
	}
	s.dispatchPending(holder.ring)
}

// dispatchPending starts the next deferred round of a ring, if any.
// Local requests whose queue was already drained by en-route folding
// are skipped rather than run as empty rounds. A request is popped from
// the front of the same array, so the ring parks its next rounds into
// capacity; the vacated slot is zeroed, as it held a batch.
func (s *System) dispatchPending(rs *ringState) {
	for len(rs.pending) > 0 {
		next := rs.pending[0]
		last := copy(rs.pending, rs.pending[1:])
		rs.pending[last] = pendingRound{}
		rs.pending = rs.pending[:last]
		n := s.nodes[next.at]
		if n == nil || s.tr.Crashed(next.at) {
			continue
		}
		if next.dir == token.FromLocal && next.batch == nil && n.queue.Len() == 0 {
			continue
		}
		s.markRingBusy(rs)
		n.startRound(next.dir, next.source, next.batch, next.forwarder)
		return
	}
}

// noteRepair records and reports one local ring repair, with the
// token silence since the ring last saw a token.
func (s *System) noteRepair(id ring.ID, dead ids.NodeID) {
	s.repairs = append(s.repairs, RepairEvent{Ring: id, Dead: dead})
	if s.observer != nil {
		now := s.clock.Now()
		s.observer(Observation{Event: Event{Kind: EventRepair, Ring: id.String(), Dead: dead, At: now},
			Took: now.Sub(s.rings[id].lastTok)})
	}
}

// startHeartbeats arms one periodic empty round per ring for failure
// detection in the absence of membership traffic. In a partitioned
// deployment only rings with a locally-owned member are armed, and a
// tick fires only when the current leader view is local — so across
// processes with consistent views, each ring beats exactly once.
func (s *System) startHeartbeats() {
	for _, rg := range s.hier.Rings() {
		ringNodes := rg.Nodes()
		if !slices.ContainsFunc(ringNodes, s.owns) {
			continue
		}
		rs := s.rings[rg.ID()]
		// A round's token can die with its carrier (kill -9 of the
		// process holding it after it acknowledged the pass): the local
		// holder then waits forever and the ring stays busy. Declare the
		// token lost after a silence exceeding the worst-case repair
		// walk (every ring-mate excluded back to back), release the
		// ring, and let heartbeat rounds and leader suspicion take over.
		lostAfter := time.Duration(len(ringNodes)) *
			time.Duration(s.cfg.Retransmit.MaxRetries+1) * s.cfg.RetransmitTimeout
		if w := 5 * s.cfg.HeartbeatInterval; w > lostAfter {
			lostAfter = w
		}
		t := s.clock.Every(s.cfg.HeartbeatInterval, func() {
			if rs.busy {
				if s.clock.Now().Sub(rs.roundStart) > lostAfter {
					rs.busy = false
					s.noteTokenSeen(rs)
					s.requeueOpenRounds(rs, ringNodes)
					s.dispatchPending(rs)
				}
				return
			}
			leaderNode := s.currentLeaderOf(ringNodes)
			if leaderNode == nil {
				s.suspectSilentLeader(ringNodes)
				return
			}
			if s.stabilityOn() {
				s.suspectCrashedLeader(leaderNode)
			}
			s.probeExcluded(leaderNode, ringNodes)
			s.markRingBusy(rs)
			leaderNode.startRound(token.FromLocal, ring.ID{}, nil, ids.NoNode)
		})
		s.heartbeats = append(s.heartbeats, t)
	}
}

// noteTokenSeen stamps ring liveness: a circulating token proves the
// ring's current leader regime is functioning, so leader suspicion
// starts its silence window over.
func (s *System) noteTokenSeen(rs *ringState) { rs.lastTok = s.clock.Now() }

// markRingBusy claims a ring for a locally-held round and stamps the
// round's start time for the token-loss watchdog.
func (s *System) markRingBusy(rs *ringState) {
	rs.busy = true
	rs.roundStart = s.clock.Now()
}

// requeueOpenRounds re-submits the retained batch of any locally-owned
// holder whose round the watchdog just declared lost. A token dies
// with its carrier (kill -9 of a process that acknowledged the pass),
// and the operations it carried — already acknowledged to their
// originators — would otherwise vanish: the notify retransmission
// protection was satisfied the moment the holder folded them in.
// Membership operations are idempotent (the mid-round-repair
// re-circulation in roundDone relies on the same property), so if the
// round was merely slow rather than lost, the extra round is harmless.
func (s *System) requeueOpenRounds(rs *ringState, ringNodes []ids.NodeID) {
	for _, m := range ringNodes {
		n := s.nodes[m]
		if n == nil || !s.owns(m) || s.tr.Crashed(m) || s.neStale(m) || len(n.openRound) == 0 {
			continue
		}
		batch := n.openRound
		n.openRound = nil
		rs.pending = append([]pendingRound{{at: n.id, dir: token.FromLocal, batch: batch}}, rs.pending...)
	}
}

// suspectSilentLeader is the heartbeat fallback for a ring fragment
// with no locally-reachable leader: every member of this process's
// fragment believes some node in another process leads the ring, so
// nothing here ever starts a heartbeat round — and if that remote
// leader is dead (kill -9) or cut away (partition), the fragment would
// stay wedged forever, never repairing and never answering merge
// probes. After a silence of five heartbeat intervals without any
// circulating token, the first live local member excludes its believed
// leader; successive ticks walk the leadership to a live local node,
// which resumes beating (and with it pass-timeout repair and the
// probe/merge path).
func (s *System) suspectSilentLeader(ringNodes []ids.NodeID) {
	var n *Node
	for _, m := range ringNodes {
		if c := s.nodes[m]; c != nil && !s.tr.Crashed(m) && !s.neStale(m) {
			n = c
			break
		}
	}
	if n == nil || n.leader == n.id || !n.rosterContains(n.id) {
		return
	}
	if s.clock.Now().Sub(n.ring.lastTok) < 5*s.cfg.HeartbeatInterval {
		return
	}
	dead := n.leader
	if !s.confirmEviction(dead, n.id) {
		return // stability filter: await more observers before surgery
	}
	s.noteRepair(n.ringID, dead)
	n.excludeFromRoster(dead)
	s.noteTokenSeen(n.ring)
}

// FailOutRemote feeds a liveness verdict from outside the protocol —
// the networked runtime's discovery plane has evicted a peer process —
// into the ordinary repair path: dead lists the hierarchy entities the
// evicted process owned, and every live locally-owned member of a ring
// containing one excludes it immediately (electing the deterministic
// successor where the dead node led), instead of waiting out the
// heartbeat silence window of suspectSilentLeader. If the process comes
// back (same slot, any address), the probe/merge machinery readmits its
// entities exactly as it readmits a healed partition.
func (s *System) FailOutRemote(dead ...ids.NodeID) {
	for _, d := range dead {
		if s.owns(d) {
			continue // local entities answer to Crash/Restore, not gossip
		}
		rg := s.hier.RingOf(d)
		if rg == nil {
			continue
		}
		// The discovery verdict is decisive — a probed process death,
		// not one more glance; see confirmEvictionDecisive.
		s.confirmEvictionDecisive(d)
		excluded := false
		for _, m := range rg.Nodes() {
			n := s.nodes[m]
			if n == nil || s.tr.Crashed(m) || s.neStale(m) || !s.owns(m) {
				continue
			}
			if n.rosterContains(d) && n.id != d {
				n.excludeFromRoster(d)
				excluded = true
			}
		}
		if excluded {
			s.noteRepair(rg.ID(), d)
			s.noteTokenSeen(s.rings[rg.ID()])
		}
	}
}

// currentLeaderOf finds a locally-owned, live node of the ring whose
// leader view is itself local and live (falling back across crashed
// entities). It is nil when the leader lives in another System, which
// beats the ring.
func (s *System) currentLeaderOf(ringNodes []ids.NodeID) *Node {
	var probe *Node
	for _, m := range ringNodes {
		if n := s.nodes[m]; n != nil && !s.tr.Crashed(m) {
			probe = n
			break
		}
	}
	if probe == nil {
		return nil
	}
	if !s.tr.Crashed(probe.leader) {
		return s.nodes[probe.leader]
	}
	for _, m := range probe.roster {
		if !s.tr.Crashed(m) {
			return s.nodes[m]
		}
	}
	return nil
}

// --- Mobile host operations -----------------------------------------

// newMemberAt registers the MH bookkeeping for a join at the given AP.
// A member whose departure collapsed takes its endpoint and version
// back. It fails only when a new member finds no endpoint (mhEndpoint).
func (s *System) newMemberAt(guid ids.GUID, ap ids.NodeID) (*Member, error) {
	m, ok := s.members[guid]
	if !ok {
		node, ver, err := s.mhEndpoint(guid)
		if err != nil {
			return nil, err
		}
		m = &Member{
			MemberInfo: ids.MemberInfo{GID: s.cfg.GID, GUID: guid, Ver: ver},
			node:       node,
			sys:        s,
		}
		s.members[guid] = m
		s.mhOwner[m.node] = m
		s.tr.Register(m.node, m)
	}
	// The care-of identity is minted from this System's per-AP
	// counter. In a partitioned deployment two processes joining
	// members at the same (remote) AP can mint the same Local value —
	// every membership list is keyed by GUID, so nothing breaks, but
	// a networked deployment that needs globally unique LUIDs must
	// have the AP's owner assign them (a future handshake; today the
	// LUID is informational, mirroring the paper's care-of address).
	s.luidSeq[ap]++
	m.AP = ap
	m.LUID = ids.LUID{AP: ap, Local: s.luidSeq[ap]}
	m.Status = ids.StatusOperational
	// The member may have changed through another process, or before
	// this one restarted: go past what the topmost entity holds.
	if top := s.topNode(); top != nil {
		if v, ok := top.held(guid); ok && ids.VerAfter(v, m.Ver) {
			m.Ver = v
		}
	}
	m.Ver++
	m.submitted = s.clock.Now()
	return m, nil
}

// mhEndpoint returns the endpoint and version a new MH record of guid
// starts from: a collapsed member's own (left), or else version 0 at
// the endpoint released longest ago, or else at the next ordinal of this
// System's block. Minting stops below queryOrdinalBase, where the query
// apps' ordinals start.
func (s *System) mhEndpoint(guid ids.GUID) (ids.NodeID, uint16, error) {
	if e, ok := s.left[guid]; ok {
		delete(s.left, guid)
		return s.mhNode(e.ord), e.ver, nil
	}
	if s.mhFree.len() > 0 {
		return s.mhFree.pop(), 0, nil
	}
	if s.mhOrdinal == queryOrdinalBase {
		return ids.NoNode, 0, fmt.Errorf("core: %d mobile hosts: %w", s.mhOrdinal, errNoEndpoint)
	}
	s.mhOrdinal++
	return s.mhNode(uint32(s.mhOrdinal - 1)), 0, nil
}

// mhNode is the endpoint at ordinal ord of this System's block.
func (s *System) mhNode(ord uint32) ids.NodeID {
	return ids.MakeNodeID(ids.TierMH, s.cfg.mhBase+int(ord))
}

// departedBacklog bounds how many departed GUIDs wait in
// System.departed for the hosted entities to forget them; past it the
// oldest keeps its endpoint and version for good.
const departedBacklog = 64

// collapse is told each leave or failure of g at version v that the
// first topmost entity applies. If that is the departure of this
// System's record of g, the record shrinks to its endpoint and version
// (shrink). The observer has heard the commit already.
func (s *System) collapse(g ids.GUID, v uint16) {
	if m, ok := s.members[g]; ok && !m.Status.Operational() && m.Ver == v {
		s.shrink(m)
	}
}

// shrink forgets a departed member's record but for what a re-join
// needs: the Member and its mhOwner entry go, its endpoint and version
// go into left, and the endpoint stays registered, to departedEndpoint,
// so a Holder-Acknowledgement still in flight is delivered.
func (s *System) shrink(m *Member) {
	delete(s.members, m.GUID)
	delete(s.mhOwner, m.node)
	s.tr.Register(m.node, departedEndpoint{})
	s.left[m.GUID] = leftMH{ord: uint32(m.node.Ordinal() - s.cfg.mhBase), ver: m.Ver}
}

// departedHere reports whether this System keeps g as a departed
// member: shrunk, or a full record whose departure never collapsed
// (the first topmost entity was crashed when it committed).
func (s *System) departedHere(g ids.GUID) bool {
	if _, ok := s.left[g]; ok {
		return true
	}
	m, ok := s.members[g]
	return ok && !m.Status.Operational()
}

// evicted is told every GUID a hosted entity n evicts from its removal
// window. The first topmost entity sees every change in both
// dissemination modes, so its eviction of a departed member's GUID,
// tombstoneWindow distinct removals after the member's, queues the
// member to be released: its endpoint's last Holder-Acknowledgement is
// long delivered. The member goes once no hosted entity lists or buries
// it. The lower rings that hear a change after the top ring still bury
// the GUID then; each of their evictions of the oldest waiting GUID
// counts down departedWait, and at zero the queue is checked again.
//
// Under path-only dissemination a ring hears only the changes under
// it, so a lower ring of another process may bury the GUID long after
// every window here dropped it, and a re-join at a new version, one
// that knows nothing of that tombstone, would not reach it. So a System
// that hosts part of a path-only hierarchy releases nothing.
func (s *System) evicted(n *Node, g ids.GUID) {
	switch {
	case len(s.top) > 0 && n == &s.top[0]:
		if s.cfg.Dissemination != DisseminateFull && s.cfg.owns != nil {
			return
		}
		if s.departedHere(g) {
			s.departed.push(g)
		}
	case s.departed.len() == 0 || s.departed.front() != g:
		return
	default:
		if s.departedWait--; s.departedWait > 0 {
			return
		}
	}
	for s.departed.len() > 0 {
		if g := s.departed.front(); s.departedHere(g) {
			if k := s.holders(g); k == 0 {
				s.release(g)
			} else if s.departed.len() <= departedBacklog {
				s.departedWait = k
				return
			}
		}
		s.departed.pop()
	}
}

// holders counts the entities this System hosts that list g or bury it.
func (s *System) holders(g ids.GUID) int {
	k := 0
	for i := range s.arena {
		if _, ok := s.arena[i].held(g); ok {
			k++
		}
	}
	return k
}

// release forgets departed member g: what shrink kept of it, the
// registration of its endpoint, and the endpoint itself, which a later
// new member takes. A full record shrinks first.
func (s *System) release(g ids.GUID) {
	if m, ok := s.members[g]; ok {
		s.shrink(m)
	}
	node := s.mhNode(s.left[g].ord)
	delete(s.left, g)
	s.tr.Unregister(node)
	s.mhFree.push(node)
}

// Member returns the MH record for a GUID, if known. The record of a
// member that left or failed goes when the first topmost entity this
// System hosts commits the departure (if that entity missed the commit,
// once every hosted entity has forgotten the member); a re-join then
// starts a new record at the same endpoint, past the version the member
// left at.
func (s *System) Member(guid ids.GUID) (*Member, bool) {
	m, ok := s.members[guid]
	return m, ok
}

// JoinMemberAt submits a Member-Join for guid at the given AP: the MH
// contacts the AP (one wireless message), the AP queues the change,
// and the one-round algorithm propagates it. Joining an operational
// member again returns ErrDuplicateJoin; re-joining after a leave or
// failure is allowed.
func (s *System) JoinMemberAt(guid ids.GUID, ap ids.NodeID) (*Member, error) {
	if guid == 0 {
		return nil, fmt.Errorf("core: %w", ErrInvalidGUID)
	}
	if err := s.requireAP(ap); err != nil {
		return nil, err
	}
	if m, ok := s.members[guid]; ok && m.Status.Operational() {
		return nil, fmt.Errorf("core: %s at %s: %w", guid, m.AP, ErrDuplicateJoin)
	}
	m, err := s.newMemberAt(guid, ap)
	if err != nil {
		return nil, err
	}
	s.send(m.node, ap, runtime.KindMemberMsg, wire.MemberChange{Op: mq.OpMemberJoin, Member: m.MemberInfo})
	return m, nil
}

// JoinMember joins at a deterministic-pseudorandom AP.
func (s *System) JoinMember(guid ids.GUID) (*Member, error) {
	aps := s.APs()
	return s.JoinMemberAt(guid, aps[s.rng.Intn(len(aps))])
}

// LeaveMember submits a voluntary Member-Leave from the MH's current
// AP.
func (s *System) LeaveMember(guid ids.GUID) error {
	m, err := s.operational(guid)
	if err != nil {
		return err
	}
	m.Status = ids.StatusVoluntaryDisc
	m.Ver++
	m.submitted = s.clock.Now()
	s.send(m.node, m.AP, runtime.KindMemberMsg, wire.MemberChange{Op: mq.OpMemberLeave, Member: m.MemberInfo})
	return nil
}

// FailMember injects a Member-Failure detected by the serving AP
// (faulty disconnection). The AP removes the member at the version it
// holds, which beats a put at that version.
func (s *System) FailMember(guid ids.GUID) error {
	m, err := s.operational(guid)
	if err != nil {
		return err
	}
	m.Status = ids.StatusFailed
	m.submitted = s.clock.Now()
	ap := s.nodes[m.AP]
	if ap == nil {
		// The serving AP lives in another process: deliver the
		// detected failure as a message instead of direct queue
		// surgery. (The single-process path below stays message-free
		// so fixed-seed traces are unchanged.)
		s.send(m.node, m.AP, runtime.KindMemberMsg, wire.MemberChange{Op: mq.OpMemberFailure, Member: m.MemberInfo})
		return nil
	}
	c := mq.Change{Op: mq.OpMemberFailure, Member: m.MemberInfo}
	ap.queue.Insert(c)
	s.scheduleBatchedRound(ap)
	return nil
}

// HandoffMember moves the MH to a new AP: the MH registers at the new
// AP (Member-Handoff), and the location change propagates from there.
// Nothing is sent to the old AP. Under DisseminateFull the change
// reaches every ring, and the old AP drops the member from its lists
// when the round reaches it; under DisseminatePathOnly only the rings
// above the new AP run it, and the old AP's ring keeps the member at
// its old location. Only an operational member can move: a handoff of
// one that left or failed returns ErrUnknownMember and sends nothing,
// since its Member-Handoff would make it operational again.
func (s *System) HandoffMember(guid ids.GUID, newAP ids.NodeID) error {
	if err := s.requireAP(newAP); err != nil {
		return err
	}
	m, err := s.operational(guid)
	if err != nil {
		return err
	}
	oldAP := m.AP
	if oldAP == newAP {
		return nil
	}
	m.AP = newAP
	s.luidSeq[newAP]++
	m.LUID = ids.LUID{AP: newAP, Local: s.luidSeq[newAP]}
	m.Ver++
	m.submitted = s.clock.Now()
	s.send(m.node, newAP, runtime.KindMemberMsg, wire.MemberChange{Op: mq.OpMemberHandoff, Member: m.MemberInfo})
	return nil
}

// FastHandoffHit reports whether the destination AP already knows the
// member through its ListOfNeighborMembers — the fast-handoff path.
func (s *System) FastHandoffHit(guid ids.GUID, newAP ids.NodeID) bool {
	n := s.nodes[newAP]
	return n != nil && s.cfg.NeighborLists && n.neighbors.Contains(guid)
}

// --- Failure injection ----------------------------------------------

// CrashNE makes a network entity faulty (it stops sending/receiving).
func (s *System) CrashNE(id ids.NodeID) { s.tr.Crash(id) }

// RestoreNE revives a previously crashed entity and re-admits it to
// its ring via the NE-Join protocol: it asks a live, *current* ring
// member to route the join request to the leader. The restored entity
// itself is quarantined as stale — its pre-crash state must not answer
// join requests — until a state snapshot refreshes it.
func (s *System) RestoreNE(id ids.NodeID) {
	s.tr.Restore(id)
	n := s.nodes[id]
	if n == nil {
		return
	}
	s.staleNE[id] = true
	for _, peer := range s.hier.RingOf(id).Nodes() {
		if peer != id && !s.tr.Crashed(peer) && !s.staleNE[peer] {
			s.send(id, peer, runtime.KindControl, wire.JoinRequest{Node: id})
			return
		}
	}
}

// neStale reports whether the entity awaits a post-restore snapshot.
func (s *System) neStale(id ids.NodeID) bool { return s.staleNE[id] }

// clearStale lifts the quarantine once fresh ring state arrived.
func (s *System) clearStale(id ids.NodeID) { delete(s.staleNE, id) }

// --- Running ---------------------------------------------------------

// Run drains all pending work (to quiescence). With heartbeats
// enabled this would never return, so it bounds the run to ten
// heartbeat intervals instead; use RunFor for explicit heartbeat runs.
func (s *System) Run() {
	if s.cfg.HeartbeatInterval > 0 {
		s.rt.RunFor(10 * s.cfg.HeartbeatInterval)
		return
	}
	s.rt.Run()
}

// RunFor advances protocol time by d.
func (s *System) RunFor(d time.Duration) { s.rt.RunFor(d) }

// StopHeartbeats cancels all ring heartbeat tickers (so Run can reach
// quiescence).
func (s *System) StopHeartbeats() {
	for _, t := range s.heartbeats {
		t.Stop()
	}
	s.heartbeats = nil
}

// GlobalMembership returns the authoritative group membership as seen
// by the topmost ring (its ListOfRingMembers covers the whole
// hierarchy).
func (s *System) GlobalMembership() []ids.MemberInfo {
	if n := s.topNode(); n != nil {
		return n.ringMems.Snapshot()
	}
	// No topmost node is hosted here (a partitioned process owning
	// only lower rings, or a pure client): the authoritative view
	// must be fetched with a Membership-Query instead.
	return nil
}

// topNode returns the first live topmost-ring entity this System
// hosts, or nil when it hosts none.
func (s *System) topNode() *Node {
	for i := range s.top {
		if !s.tr.Crashed(s.top[i].id) {
			return &s.top[i]
		}
	}
	return nil
}

// TopmostView reports the repair state of the locally hosted
// topmost-ring node: how many entities its live roster holds and which
// node it currently follows as leader. ok is false when no topmost
// node is hosted here. Fragments of an asymmetric partition report
// shrunken rosters (or disagreeing leaders) until the probe/merge
// protocol reunites the ring, so comparing TopmostViews across
// processes detects split-brain that a Membership-Query — answered by
// a single fragment's leader — cannot. Engine context required.
func (s *System) TopmostView() (rosterSize int, leader ids.NodeID, ok bool) {
	if n := s.topNode(); n != nil {
		return len(n.roster), n.leader, true
	}
	return 0, ids.NoNode, false
}

// MembershipDeviation compares the authoritative global membership
// against an expected roster (normally workload.LiveAtEnd of the
// scenario that was applied): missing counts expected members absent
// from the converged view, extra counts operational members the view
// holds beyond the roster. Both zero means the hierarchy converged to
// exactly the scenario's outcome.
func (s *System) MembershipDeviation(expected []ids.GUID) (missing, extra int) {
	want := make(map[ids.GUID]bool, len(expected))
	for _, g := range expected {
		want[g] = true
	}
	got := make(map[ids.GUID]bool)
	for _, m := range s.GlobalMembership() {
		if m.Status.Operational() {
			got[m.GUID] = true
		}
	}
	for g := range want {
		if !got[g] {
			missing++
		}
	}
	for g := range got {
		if !want[g] {
			extra++
		}
	}
	return missing, extra
}

// MeasureDisseminationHops injects a single Member-Join at the given
// AP into a quiet system, runs to quiescence and returns the number of
// propagation messages (token passes + notifications) — the measured
// counterpart of HCN_Ring (formula (6)) under DisseminateFull, or the
// path-only cost under DisseminatePathOnly.
func (s *System) MeasureDisseminationHops(guid ids.GUID, ap ids.NodeID) (uint64, error) {
	s.tr.ResetStats()
	if _, err := s.JoinMemberAt(guid, ap); err != nil {
		return 0, err
	}
	s.rt.Run()
	st := s.tr.Stats()
	return st.PropagationHops(), nil
}
