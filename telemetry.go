package rgb

import (
	goruntime "runtime" // the Go runtime (memstats); the substrate is rgbruntime
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgbproto/rgb/internal/core"
	rgbruntime "github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/telemetry"
)

type (
	// Telemetry is the cluster's metrics registry: dependency-free
	// atomic counters, gauges and latency histograms with a Prometheus
	// text exposition (WriteProm) and a programmatic reader (Gather).
	// Obtain one with Cluster.Telemetry or Service.Telemetry; see
	// docs/OPERATIONS.md for the full metric reference.
	Telemetry = telemetry.Registry

	// Sample is one flattened metric reading from Telemetry.Gather —
	// the programmatic twin of the /metrics exposition.
	Sample = telemetry.Sample
)

// Telemetry returns the cluster's metrics registry, creating and
// wiring it on first call: every open group (and every group opened
// later) gets its protocol engine instrumented — membership size,
// token-round duration, view-change and repair latency histograms —
// and the shared substrate's socket, discovery and transport counters
// are registered as scrape-sampled series. Instrumentation is purely
// observational: it never sends messages, arms timers or draws
// randomness, so fixed-seed runs behave identically with or without
// it. A cluster that never calls Telemetry pays nothing.
func (c *Cluster) Telemetry() *Telemetry {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureTelemetryLocked()
	return c.tel
}

// Telemetry returns the owning cluster's metrics registry (every
// Service belongs to one; rgb.Open makes a single-group cluster).
func (s *Service) Telemetry() *Telemetry { return s.cluster.Telemetry() }

// Cluster returns the container this service belongs to. For a
// standalone rgb.Open/Listen service this is its implicit one-group
// cluster — the handle to the shared-substrate surface (Telemetry,
// Health, LocalAddr, Peers, NetStats, Block) that rgbnode serves.
func (s *Service) Cluster() *Cluster { return s.cluster }

// ensureTelemetryLocked builds the registry on first use. Caller
// holds c.mu.
func (c *Cluster) ensureTelemetryLocked() {
	if c.tel != nil {
		return
	}
	c.tel = telemetry.New()
	c.registerClusterMetrics()
	for _, svc := range c.groups {
		c.instrumentGroup(svc)
	}
}

// registerClusterMetrics registers the process- and substrate-level
// series: Go memstats, open-group and shard gauges, the networked
// socket's NetStats counters, discovery peer-state gauges, and the
// transport delivery totals aggregated over groups. All of them are
// sampled at scrape time from counters that already live elsewhere —
// no double accounting, no cost between scrapes.
func (c *Cluster) registerClusterMetrics() {
	reg := c.tel

	// Process vitals: the soak runner's memory ceiling reads these.
	var (
		pmu  sync.Mutex
		mem  goruntime.MemStats
		gors float64
	)
	reg.OnScrape(func() {
		pmu.Lock()
		defer pmu.Unlock()
		goruntime.ReadMemStats(&mem)
		gors = float64(goruntime.NumGoroutine())
	})
	procGauge := func(name, help string, f func() float64) {
		reg.GaugeFunc(name, help, func() float64 {
			pmu.Lock()
			defer pmu.Unlock()
			return f()
		})
	}
	procGauge("go_goroutines", "goroutines currently live", func() float64 { return gors })
	procGauge("go_heap_alloc_bytes", "bytes of allocated heap objects", func() float64 { return float64(mem.HeapAlloc) })
	procGauge("go_heap_sys_bytes", "bytes of heap obtained from the OS", func() float64 { return float64(mem.HeapSys) })
	reg.CounterFunc("go_alloc_bytes_total", "cumulative bytes allocated", func() float64 {
		pmu.Lock()
		defer pmu.Unlock()
		return float64(mem.TotalAlloc)
	})
	reg.CounterFunc("go_gc_cycles_total", "completed GC cycles", func() float64 {
		pmu.Lock()
		defer pmu.Unlock()
		return float64(mem.NumGC)
	})

	reg.GaugeFunc("rgb_uptime_seconds", "seconds since the registry was created", func() float64 {
		return time.Since(reg.Start()).Seconds()
	})
	reg.GaugeFunc("rgb_groups_open", "groups currently open on this cluster", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.groups))
	})
	reg.GaugeFunc("rgb_shards", "engine worker shards", func() float64 {
		return float64(c.Shards())
	})

	// Socket and discovery counters of the networked substrate (one
	// shared snapshot per scrape; zero-valued when not networked).
	var (
		nmu sync.Mutex
		ns  NetStats
	)
	reg.OnScrape(func() {
		if s, ok := c.NetStats(); ok {
			nmu.Lock()
			ns = s
			nmu.Unlock()
		}
	})
	netCounter := func(name, help string, f func(*NetStats) uint64) {
		reg.CounterFunc(name, help, func() float64 {
			nmu.Lock()
			defer nmu.Unlock()
			return float64(f(&ns))
		})
	}
	netCounter("rgb_net_received_total", "datagrams read from the socket", func(n *NetStats) uint64 { return n.Received })
	netCounter("rgb_net_decode_errors_total", "frames rejected by the codec", func(n *NetStats) uint64 { return n.DecodeErrors })
	netCounter("rgb_net_unknown_version_total", "frames from a different wire version", func(n *NetStats) uint64 { return n.UnknownVersion })
	netCounter("rgb_net_unknown_group_total", "group-tagged frames for a group not hosted here", func(n *NetStats) uint64 { return n.UnknownGroup })
	netCounter("rgb_net_unknown_peer_total", "sends with no route, and frames for an endpoint not hosted here", func(n *NetStats) uint64 { return n.UnknownPeer })
	netCounter("rgb_net_oversize_total", "frames larger than one UDP datagram, dropped", func(n *NetStats) uint64 { return n.Oversize })
	netCounter("rgb_net_write_failed_total", "frames in datagrams the socket refused to write", func(n *NetStats) uint64 { return n.WriteFailed })
	netCounter("rgb_net_peer_joined_total", "peers that joined, rejoined or moved address", func(n *NetStats) uint64 { return n.PeerJoined })
	netCounter("rgb_net_peer_evicted_total", "liveness evictions issued by the probe sweep", func(n *NetStats) uint64 { return n.PeerEvicted })
	netCounter("rgb_net_gossip_frames_total", "discovery frames sent (hello, peer list, probe)", func(n *NetStats) uint64 { return n.GossipFrames })

	// Discovery peer-state gauges.
	var (
		dmu                  sync.Mutex
		up, suspect, evicted float64
	)
	reg.OnScrape(func() {
		peers, ok := c.Peers()
		if !ok {
			return
		}
		var u, s, e float64
		for _, p := range peers {
			switch p.State {
			case PeerUp:
				u++
			case PeerSuspect:
				s++
			case PeerEvicted:
				e++
			}
		}
		dmu.Lock()
		up, suspect, evicted = u, s, e
		dmu.Unlock()
	})
	peerGauge := func(state string, f func() float64) {
		reg.GaugeFunc("rgb_peers", "known peer processes by liveness state", func() float64 {
			dmu.Lock()
			defer dmu.Unlock()
			return f()
		}, "state", state)
	}
	peerGauge("up", func() float64 { return up })
	peerGauge("suspect", func() float64 { return suspect })
	peerGauge("evicted", func() float64 { return evicted })

	// Transport delivery totals, aggregated over groups. Each group's
	// last-seen stats persist in the map so the totals stay monotonic
	// when a group closes mid-flight.
	var (
		tmu  sync.Mutex
		last = make(map[GroupID]Stats)
	)
	reg.OnScrape(func() {
		c.mu.Lock()
		svcs := make([]*Service, 0, len(c.groups))
		for _, svc := range c.groups {
			svcs = append(svcs, svc)
		}
		c.mu.Unlock()
		tmu.Lock()
		defer tmu.Unlock()
		for _, svc := range svcs {
			var st Stats
			ran := false
			svc.rt.Do(func() {
				st = svc.sys.Transport().Stats()
				ran = true
			})
			if ran {
				last[svc.gid] = st
			}
		}
	})
	transportCounter := func(name, help string, f func(*Stats) uint64) {
		reg.CounterFunc(name, help, func() float64 {
			tmu.Lock()
			defer tmu.Unlock()
			var total uint64
			for gid := range last {
				st := last[gid]
				total += f(&st)
			}
			return float64(total)
		})
	}
	transportCounter("rgb_transport_sent_total", "messages submitted to the transport", func(s *Stats) uint64 { return s.Sent })
	transportCounter("rgb_transport_delivered_total", "messages actually delivered", func(s *Stats) uint64 { return s.Delivered })
	transportCounter("rgb_transport_dropped_total", "messages lost to crash, random loss or a cut", func(s *Stats) uint64 { return s.Dropped })
	transportCounter("rgb_transport_cut_total", "messages dropped by an active partition cut or block rule", func(s *Stats) uint64 { return s.Cut })
}

// groupTelemetry is one group's stream-fed series: the group's
// observer hands it every observation, in engine context.
type groupTelemetry struct {
	round, batch, repair *telemetry.Histogram
	// latency and changes are indexed by commit kind, EventJoin
	// through EventHandoff.
	latency [4]*telemetry.Histogram
	changes [4]*telemetry.Counter
}

func (g *groupTelemetry) observe(o core.Observation) {
	switch o.Kind {
	case core.EventRoundDone:
		g.round.ObserveDuration(o.Took)
	case core.EventBatchFlushed:
		g.batch.Observe(float64(o.Size))
	case core.EventRepair:
		g.repair.ObserveDuration(o.Took)
	case core.EventJoin, core.EventLeave, core.EventFail, core.EventHandoff:
		g.changes[o.Kind].Inc()
		if o.Measured {
			g.latency[o.Kind].ObserveDuration(o.Took)
		}
	}
}

// groupSnapshot is one scrape's reading of a group's engine-owned
// counters.
type groupSnapshot struct {
	members, rounds, ops, repairs, roster float64
	quarantines, defers                   float64
	faults                                FaultStats
}

// instrumentGroup wires one group's protocol engine into the
// registry: a groupTelemetry the group's observer feeds for the
// timing histograms and the view-change counters, plus a scrape hook
// sampling the engine's own counters (membership size, rounds, ops
// carried, repairs). Caller holds c.mu; a reopened group re-registers
// onto the same series, so counts continue.
func (c *Cluster) instrumentGroup(svc *Service) {
	reg := c.tel
	gid := svc.gid.String()

	gt := &groupTelemetry{
		round: reg.Histogram("rgb_round_duration_seconds",
			"token round duration, start at the holder to completion", nil, "group", gid),
		batch: reg.Histogram("rgb_viewchange_batch_size",
			"membership operations coalesced per batched view-change flush (WithBatchWindow)",
			[]float64{1, 2, 5, 10, 25, 50, 100}, "group", gid),
		repair: reg.Histogram("rgb_repair_gap_seconds",
			"token silence a ring repair closed (how long the failure went unrepaired)", nil, "group", gid),
	}
	for k := core.EventJoin; k <= core.EventHandoff; k++ {
		gt.latency[k] = reg.Histogram("rgb_view_change_latency_seconds",
			"submit-to-commit latency of locally-submitted membership operations", nil,
			"group", gid, "kind", k.String())
		gt.changes[k] = reg.Counter("rgb_view_changes_total",
			"membership operations committed at the topmost ring",
			"group", gid, "kind", k.String())
	}
	hasFaults := false
	svc.rt.Do(func() {
		svc.tel = gt
		_, hasFaults = svc.sys.Transport().(*rgbruntime.FaultTransport)
	})
	svc.observeEngine()

	// Engine-owned counters, sampled in engine context once per
	// scrape so the snapshot is internally consistent. If the group
	// has closed (Do drops the fn), the last snapshot holds.
	var snap atomic.Pointer[groupSnapshot]
	snap.Store(new(groupSnapshot))
	reg.OnScrape(func() {
		s := new(groupSnapshot)
		ran := false
		svc.rt.Do(func() {
			ran = true
			for _, m := range svc.sys.GlobalMembership() {
				if m.Status.Operational() {
					s.members++
				}
			}
			if size, _, ok := svc.sys.TopmostView(); ok {
				s.roster = float64(size)
			}
			s.rounds = float64(svc.sys.Rounds())
			s.ops = float64(svc.sys.OpsCarried())
			s.repairs = float64(len(svc.sys.Repairs()))
			s.quarantines = float64(svc.sys.FlapQuarantines())
			s.defers = float64(svc.sys.EvictionsDeferred())
			if ft, ok := svc.sys.Transport().(*rgbruntime.FaultTransport); ok {
				s.faults = ft.FaultStats()
			}
		})
		if ran {
			snap.Store(s)
		}
	})
	reg.GaugeFunc("rgb_group_members", "operational members in the authoritative (topmost-ring) view",
		func() float64 { return snap.Load().members }, "group", gid)
	reg.GaugeFunc("rgb_topmost_roster_size", "live roster size of the hosted topmost-ring node; below the ring size it signals an unhealed partition fragment",
		func() float64 { return snap.Load().roster }, "group", gid)
	reg.CounterFunc("rgb_rounds_total", "completed token rounds",
		func() float64 { return snap.Load().rounds }, "group", gid)
	reg.CounterFunc("rgb_round_ops_total", "membership operations carried by token rounds",
		func() float64 { return snap.Load().ops }, "group", gid)
	reg.CounterFunc("rgb_repairs_total", "local ring repairs performed",
		func() float64 { return snap.Load().repairs }, "group", gid)
	reg.CounterFunc("rgb_flap_quarantines_total", "flapping members quarantined by the stability filter",
		func() float64 { return snap.Load().quarantines }, "group", gid)
	reg.CounterFunc("rgb_evictions_deferred_total", "suspected evictions held back awaiting K-observer confirmation",
		func() float64 { return snap.Load().defers }, "group", gid)
	if hasFaults {
		faultCounter := func(kind string, f func() float64) {
			reg.CounterFunc("rgb_faults_injected_total", "faults injected by the WithFaults plan",
				f, "group", gid, "kind", kind)
		}
		faultCounter("corrupt", func() float64 { return float64(snap.Load().faults.Corrupted) })
		faultCounter("replay", func() float64 { return float64(snap.Load().faults.Duplicated) })
		faultCounter("misroute", func() float64 { return float64(snap.Load().faults.Misrouted) })
		faultCounter("reorder", func() float64 { return float64(snap.Load().faults.Reordered) })
		faultCounter("undecodable", func() float64 { return float64(snap.Load().faults.Undecodable) })
	}
}
