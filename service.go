package rgb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/runtime"
)

// Service is the RGB group membership service: the ring hierarchy and
// the one-round token protocol of one group running over a pluggable
// runtime substrate. Open builds a standalone one (a one-group
// Cluster); Cluster.Open returns one per hosted group. The zero value
// is not usable.
//
// Concurrency: on a live, networked or sharded (Cluster) runtime every
// method is safe for concurrent use — protocol state is only ever
// touched on the owning engine goroutine. A standalone sim-backed
// Service (rgb.Open without a cluster) is single-threaded by
// construction (determinism requires it) and must be driven from one
// goroutine at a time; its Do runs work inline on the caller.
type Service struct {
	rt  runtime.Runtime // built for this group, closed with it
	sys *core.System
	gid GroupID

	// cluster is the owning container (every Service belongs to one;
	// rgb.Open makes a single-group cluster). Close deregisters the
	// group there.
	cluster *Cluster

	watchBuf int
	tel      *groupTelemetry // nil until the registry instruments the group; engine context only

	mu          sync.Mutex
	closed      bool
	done        chan struct{}
	nextWatcher int
	observing   bool
	watchers    map[int]*watcher
	calls       []*doCall // do's idle call records
}

// watcher is one Watch subscription: its event channel and the count
// of events dropped since its last successful delivery (surfaced as a
// synthetic EventDropped once the channel drains).
type watcher struct {
	ch   chan MembershipEvent
	lost int
}

// Open builds and starts a standalone membership service. With no
// options it serves a 3x5 hierarchy on a fresh deterministic simulated
// runtime; see the With... options for hierarchy shape, seeds, the
// protocol configuration, and runtime selection.
//
// Open is the one-group special case of NewCluster: it builds a
// one-group cluster, opens its group with the caller's seed untouched,
// and returns that Service, whose Close closes the cluster with it. A
// real-time substrate (WithLiveRuntime, Listen) is the same host
// every cluster uses — one engine shard, a mux (with or without a
// socket), one group view. The simulator is the exception: it runs
// inline, with no shard worker — directly on the caller, preserving its
// single-threaded discipline and allocation profile.
// Use NewCluster to host many groups in one process.
func Open(opts ...Option) (*Service, error) {
	o, err := parseOptions(opts)
	if err != nil {
		return nil, err
	}
	c, err := newCluster(o, true)
	if err != nil {
		return nil, err
	}
	svc, err := c.Open(o.cfg.GID)
	if err != nil {
		c.Close()
		return nil, err
	}
	return svc, nil
}

// parseOptions applies opts over the defaults and rejects nonsensical
// combinations, for Open and NewCluster alike.
func parseOptions(opts []Option) (serviceOptions, error) {
	o := defaultServiceOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.cfg.H < 1 || o.cfg.R < 2 {
		return o, fmt.Errorf("%w (h=%d, r=%d)", ErrBadHierarchy, o.cfg.H, o.cfg.R)
	}
	return o, nil
}

// newService wires a Service around an already-built runtime and
// System.
func newService(c *Cluster, gid GroupID, rt runtime.Runtime, sys *core.System, o *serviceOptions) *Service {
	return &Service{
		rt:       rt,
		sys:      sys,
		gid:      gid,
		cluster:  c,
		watchBuf: o.watchBuf,
		done:     make(chan struct{}),
		watchers: make(map[int]*watcher),
	}
}

// Close shuts the service down: subscribers' channels are closed, the
// group is deregistered from its cluster, and the runtime the cluster
// built for it is closed with it (a mux view, so only this group's
// slice of the substrate). The Service of rgb.Open and Listen
// then closes its one-group cluster too: socket, mux and shard worker
// all go. Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	watchers := s.watchers
	s.watchers = make(map[int]*watcher)
	close(s.done)
	s.mu.Unlock()

	s.rt.Do(func() {
		s.sys.SetObserver(nil)
		// The engine shard may outlive this group; its periodic tickers
		// must not keep firing into a closed System.
		s.sys.StopHeartbeats()
	})
	for _, w := range watchers {
		close(w.ch)
	}
	s.cluster.forget(s.gid)
	err := s.rt.Close()
	if s.cluster.single {
		if cerr := s.cluster.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Group returns the group identity this service maintains membership
// for.
func (s *Service) Group() GroupID { return s.gid }

// Config returns the active protocol configuration.
func (s *Service) Config() Config { return s.sys.Config() }

// TopologyInfo summarizes the static hierarchy of a service.
type TopologyInfo struct {
	Levels   int // ring levels (hierarchy height)
	RingSize int // entities per ring
	Rings    int // total logical rings
	Entities int // total network entities
	APs      int // bottommost access proxies
}

// Topology returns the static hierarchy shape.
func (s *Service) Topology() TopologyInfo {
	h := s.sys.Hierarchy()
	cfg := s.sys.Config()
	return TopologyInfo{
		Levels:   cfg.H,
		RingSize: cfg.R,
		Rings:    h.NumRings(),
		Entities: h.NumNodes(),
		APs:      h.NumAPs(),
	}
}

// APs returns the bottommost access proxies — the attachment points
// for Join and Handoff.
func (s *Service) APs() []NodeID {
	src := s.sys.APs()
	out := make([]NodeID, len(src))
	copy(out, src)
	return out
}

// isClosed reports whether Close has run.
func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// doCall is one do in flight: fn, the error it returned, and run, which
// calls it and is bound once, so a recycled record costs a call nothing.
type doCall struct {
	fn  func() error
	err error
	ran atomic.Bool
	run func()
}

func (c *doCall) exec() {
	c.err = c.fn()
	c.ran.Store(true)
}

// do runs fn in engine context after the usual liveness checks. If
// Close closed the runtime between the check and the call, a dropped fn
// reports ErrClosed instead of silently succeeding. The call record
// comes from the Service's free list and goes back only once fn ran: a
// Do that gave up on a closing runtime may still run it later.
func (s *Service) do(ctx context.Context, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	var c *doCall
	if n := len(s.calls); n > 0 {
		c, s.calls = s.calls[n-1], s.calls[:n-1]
	}
	s.mu.Unlock()
	if c == nil {
		c = &doCall{}
		c.run = c.exec
	}
	c.fn = fn
	s.rt.Do(c.run)
	if !c.ran.Load() {
		return ErrClosed
	}
	err := c.err
	c.fn, c.err = nil, nil
	c.ran.Store(false)
	s.mu.Lock()
	s.calls = append(s.calls, c)
	s.mu.Unlock()
	return err
}

// Join adds the member to the group at a deterministically chosen
// access proxy and returns it. The join propagates asynchronously;
// subscribe with Watch or call Settle to observe the commit.
func (s *Service) Join(ctx context.Context, guid GUID) (NodeID, error) {
	var ap NodeID
	err := s.do(ctx, func() error {
		m, err := s.sys.JoinMember(guid)
		if err != nil {
			return err
		}
		ap = m.AP
		return nil
	})
	return ap, err
}

// JoinAt adds the member to the group at the given access proxy.
func (s *Service) JoinAt(ctx context.Context, guid GUID, ap NodeID) error {
	return s.do(ctx, func() error {
		_, err := s.sys.JoinMemberAt(guid, ap)
		return err
	})
}

// Leave submits the member's voluntary departure.
func (s *Service) Leave(ctx context.Context, guid GUID) error {
	return s.do(ctx, func() error { return s.sys.LeaveMember(guid) })
}

// Fail injects a member failure as detected by its serving access
// proxy (faulty disconnection).
func (s *Service) Fail(ctx context.Context, guid GUID) error {
	return s.do(ctx, func() error { return s.sys.FailMember(guid) })
}

// Handoff moves the member to a new access proxy (a cell crossing).
func (s *Service) Handoff(ctx context.Context, guid GUID, newAP NodeID) error {
	return s.do(ctx, func() error { return s.sys.HandoffMember(guid, newAP) })
}

// Members returns the authoritative group membership: the topmost
// ring's view.
func (s *Service) Members(ctx context.Context) ([]MemberInfo, error) {
	var out []MemberInfo
	err := s.do(ctx, func() error {
		out = s.sys.GlobalMembership()
		return nil
	})
	return out, err
}

// RingView is the topmost-ring repair state as seen by the locally
// hosted topmost node. After an asymmetric partition, fragments report
// shrunken rosters (or disagreeing leaders) until the probe/merge
// protocol reunites the ring; comparing RingViews across processes
// therefore detects split-brain that a Membership-Query — answered by
// a single fragment's leader — cannot. Drivers should wait for all
// processes to agree on a full roster before treating membership
// changes as durable.
type RingView struct {
	Roster int    // live roster size of the hosted topmost node
	Leader string // NodeID the hosted topmost node follows as leader
	Hosted bool   // false when this process hosts no topmost node
}

// RingView reports the hosted topmost node's roster size and leader.
func (s *Service) RingView(ctx context.Context) (RingView, error) {
	var v RingView
	err := s.do(ctx, func() error {
		if size, leader, ok := s.sys.TopmostView(); ok {
			v = RingView{Roster: size, Leader: leader.String(), Hosted: true}
		}
		return nil
	})
	return v, err
}

// Query runs a Membership-Query from the given entry access proxy with
// the TMS scheme; QueryWith takes any other.
func (s *Service) Query(ctx context.Context, entry NodeID) (QueryResult, error) {
	return s.QueryWith(ctx, entry, core.TMS())
}

// QueryWith runs a Membership-Query with an explicit scheme. It
// drives the runtime until the answer is complete.
func (s *Service) QueryWith(ctx context.Context, entry NodeID, scheme QueryScheme) (QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return QueryResult{}, err
	}
	if s.isClosed() {
		return QueryResult{}, ErrClosed
	}
	// RunQuery manages its own engine-context phases; wrapping it in
	// do would deadlock a live runtime.
	return s.sys.RunQuery(entry, scheme)
}

// Watch subscribes to membership events: joins, leaves, failures,
// handoffs (as they commit at the topmost ring) and ring repairs. The
// channel closes when ctx is cancelled or the service closes.
//
// Delivery contract: sends never block the protocol engine. A
// subscriber that falls behind by more than the watch buffer (1024
// events) loses the overflow — but never silently: as soon
// as the subscriber drains enough to accept a send again, it first
// receives a synthetic event with Kind == EventDropped whose Count
// says exactly how many events were lost since its last delivered
// event. Gap detection is therefore always possible; the lost events
// themselves are not recoverable (re-read Members for current truth).
// Events dropped between the subscriber's last receive and channel
// close are not reported.
func (s *Service) Watch(ctx context.Context) (<-chan MembershipEvent, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	id := s.nextWatcher
	s.nextWatcher++
	ch := make(chan MembershipEvent, s.watchBuf)
	s.watchers[id] = &watcher{ch: ch}
	s.mu.Unlock()

	s.observeEngine()
	go func() {
		select {
		case <-ctx.Done():
			s.unwatch(id)
		case <-s.done:
			// Close already shut the channel down.
		}
	}()
	return ch, nil
}

// observeEngine installs the group's one observer the first time Watch
// or the registry needs it; only Close removes it (clearing it when the
// watcher set drains would race with a new subscriber). The install
// re-checks closed in engine context, so it cannot land after Close.
func (s *Service) observeEngine() {
	s.mu.Lock()
	install := !s.observing
	s.observing = true
	s.mu.Unlock()
	if install {
		s.rt.Do(func() {
			if !s.isClosed() {
				s.sys.SetObserver(s.observe)
			}
		})
	}
}

// observe is the group's one observer of its engine. Watch hears
// commits and repairs, the telemetry everything.
func (s *Service) observe(o core.Observation) {
	if o.Kind.Watched() {
		s.broadcast(o.Event)
	}
	if s.tel != nil {
		s.tel.observe(o)
	}
}

// broadcast fans one event out to every subscriber. It runs in engine
// context; sends never block (lagging subscribers lose the overflow
// and are owed an EventDropped gap marker — see Watch).
func (s *Service) broadcast(ev MembershipEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.watchers {
		if w.lost > 0 {
			// The gap marker must precede the next real event so the
			// subscriber sees the hole where it happened. If the
			// channel is still full, the current event joins the gap.
			select {
			case w.ch <- MembershipEvent{Kind: EventDropped, Count: w.lost, At: ev.At}:
				w.lost = 0
			default:
				w.lost++
				continue
			}
		}
		select {
		case w.ch <- ev:
		default:
			w.lost++
		}
	}
}

// unwatch removes one subscriber and closes its channel. The observer
// stays installed (see Watch); an empty watcher set just makes
// broadcast a no-op.
func (s *Service) unwatch(id int) {
	s.mu.Lock()
	w, ok := s.watchers[id]
	if ok {
		delete(s.watchers, id)
	}
	s.mu.Unlock()
	if ok {
		close(w.ch)
	}
}

// Settle drives the runtime to quiescence: every submitted change has
// fully propagated when it returns. With heartbeats enabled a
// deployment never quiesces, so Settle bounds the run to ten
// heartbeat intervals instead.
//
// Cancellation is checked only at the boundaries: the blocking run in
// the middle (the simulator draining its queue, or a live runtime
// waiting out its in-flight work) is not interruptible.
func (s *Service) Settle(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.isClosed() {
		return ErrClosed
	}
	s.sys.Run()
	return ctx.Err()
}

// Advance drives the runtime for d of protocol time: virtual time on
// the simulated runtime, wall time on a live one.
func (s *Service) Advance(d time.Duration) { s.sys.RunFor(d) }

// Crash makes a network entity faulty: it stops sending and
// receiving until Restore.
func (s *Service) Crash(ctx context.Context, id NodeID) error {
	return s.do(ctx, func() error { s.sys.CrashNE(id); return nil })
}

// Restore revives a crashed entity; it rejoins its ring through the
// NE-Join protocol.
func (s *Service) Restore(ctx context.Context, id NodeID) error {
	return s.do(ctx, func() error { s.sys.RestoreNE(id); return nil })
}

// Partition severs the entities in fragment (plus the mobile hosts
// they serve) from the rest of the deployment: messages crossing the
// cut are dropped at the transport, and nothing else changes. The
// protocol finds the cut as a deployment would, through its rounds and
// heartbeats, and splits each ring the cut divides into fragments.
// Heal lifts the cut, and the heartbeat's merge probes reunite the
// fragments. Only simulated runtimes support transport cuts, and only
// with WithHeartbeat, since without heartbeats the fragments would
// never merge. Otherwise Partition returns an error wrapping
// ErrOptionUnsupported (a real network is partitioned from outside the
// process; see Cluster.Block, the chaos harness and docs/OPERATIONS.md).
//
// A second Partition before Heal returns ErrPartitioned; a fragment
// that splits no ring of the hierarchy returns ErrBadFragment.
func (s *Service) Partition(ctx context.Context, fragment ...NodeID) error {
	return s.do(ctx, func() error {
		return mapPartitionErr(s.sys.PartitionNetwork(fragment))
	})
}

// Heal removes the cut installed by Partition. The fragments merge
// back through the protocol (the Membership-Merge extension) within a
// few heartbeat intervals. Without an active cut it returns
// ErrNotPartitioned.
func (s *Service) Heal(ctx context.Context) error {
	return s.do(ctx, func() error {
		return mapPartitionErr(s.sys.HealNetwork())
	})
}

// mapPartitionErr translates the engine's capability error into the
// facade's option vocabulary.
func mapPartitionErr(err error) error {
	if errors.Is(err, core.ErrPartitionUnsupported) {
		return fmt.Errorf("rgb: partition on this runtime: %w", ErrOptionUnsupported)
	}
	return err
}

// ApplyTrace schedules a workload scenario onto the service's clock.
// Drive the runtime afterwards (Settle or Advance) to execute it.
// Events that have become invalid by execution time (e.g. a handoff
// for a member that failed) are skipped.
func (s *Service) ApplyTrace(tr Trace) {
	s.rt.Do(func() { core.ApplyTrace(s.sys, tr) })
}

// ServiceMetrics summarizes a deployment's protocol counters.
type ServiceMetrics struct {
	Rounds            uint64 // completed token rounds
	OpsCarried        uint64 // membership operations carried by rounds
	Repairs           int    // local ring repairs performed
	FunctionWellRings int    // hosted rings currently reporting Function-Well
	TotalRings        int    // logical rings this process hosts an entity of
}

// Metrics returns the service's protocol counters.
func (s *Service) Metrics() ServiceMetrics {
	var m ServiceMetrics
	s.rt.Do(func() {
		m.Rounds = s.sys.Rounds()
		m.OpsCarried = s.sys.OpsCarried()
		m.Repairs = len(s.sys.Repairs())
		m.FunctionWellRings, m.TotalRings = s.sys.FunctionWellRings()
	})
	return m
}

// Stats returns the transport-level delivery counters.
func (s *Service) Stats() Stats {
	var st Stats
	s.rt.Do(func() { st = s.sys.Transport().Stats() })
	return st
}

// Inspect runs fn in engine context with the underlying protocol
// System — the escape hatch for diagnostics and scenario tooling that
// the designed surface does not cover (rosters, raw member records,
// per-ring detail beyond Partition/Heal). fn must not retain the
// System or block.
func (s *Service) Inspect(fn func(sys *System)) {
	s.rt.Do(func() { fn(s.sys) })
}
