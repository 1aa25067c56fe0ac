// Package experiment is the parallel experiment-sweep harness: it
// expands a declarative grid of scenario parameters (hierarchy shape,
// group size, churn/mobility/loss rates, crash counts, dissemination
// mode, query scheme) crossed with N seeds into independent simulation
// runs, fans the runs out over a worker pool, and aggregates per-cell
// metrics into mean/stddev/95%-CI summaries.
//
// Determinism is the load-bearing property: every run owns its own
// discrete-event kernel and RNG, its seed is a pure function of
// (base seed, cell index, seed index), and results are aggregated in
// grid order rather than completion order — so a sweep produces
// bit-identical output whether it runs on one worker or sixteen.
// That is what lets future performance work prove "same numbers,
// less time".
package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/metrics"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/workload"
)

// Scenario is one fully specified grid cell: everything a run needs
// except its seed. The zero value is not runnable; cells come from
// Grid.Expand.
type Scenario struct {
	H             int     `json:"h"`             // hierarchy height (ring levels)
	R             int     `json:"r"`             // entities per ring
	Members       int     `json:"members"`       // initial group members
	JoinRate      float64 `json:"join_rate"`     // joins per second
	LeaveRate     float64 `json:"leave_rate"`    // leaves per second
	FailRate      float64 `json:"fail_rate"`     // member failures per second
	HopRate       float64 `json:"hop_rate"`      // mobility cell hops/s/host
	Loss          float64 `json:"loss"`          // message loss probability
	Crash         int     `json:"crash"`         // network entities crashed mid-run
	Dissemination string  `json:"dissemination"` // "full" or "path-only"
	Scheme        string  `json:"scheme"`        // "tms", "bms" or "ims:<level>"

	Duration time.Duration `json:"duration_ns"` // virtual scenario length
	Queries  int           `json:"queries"`     // membership queries measured per run

	// Partition, when positive, cuts the network mid-run: one topmost
	// subtree is split away at Duration/2 and healed Partition later.
	// The protocol detects the cut and merges the fragments under the
	// cell's churn, so such a cell runs with a heartbeat.
	Partition time.Duration `json:"partition_ns,omitempty"`

	// Churn, when positive, adds a flapping-member stream on top of
	// the Poisson processes: members leave and promptly rejoin at this
	// many cycles per second, the workload the batching and stability
	// layers absorb. The stream draws from its own RNG, so cells with
	// Churn 0 reproduce the exact pre-flap traces.
	Churn float64 `json:"churn,omitempty"`
}

// Name renders the cell's canonical key, stable across runs and used
// to label table rows.
func (sc Scenario) Name() string {
	var b strings.Builder
	fmt.Fprintf(&b, "h=%d,r=%d,m=%d", sc.H, sc.R, sc.Members)
	fmt.Fprintf(&b, ",join=%g,leave=%g,fail=%g", sc.JoinRate, sc.LeaveRate, sc.FailRate)
	if sc.HopRate > 0 {
		fmt.Fprintf(&b, ",hop=%g", sc.HopRate)
	}
	if sc.Loss > 0 {
		fmt.Fprintf(&b, ",loss=%g", sc.Loss)
	}
	if sc.Crash > 0 {
		fmt.Fprintf(&b, ",crash=%d", sc.Crash)
	}
	if sc.Partition > 0 {
		fmt.Fprintf(&b, ",part=%s", sc.Partition)
	}
	if sc.Churn > 0 {
		fmt.Fprintf(&b, ",flap=%g", sc.Churn)
	}
	fmt.Fprintf(&b, ",%s,%s", sc.Dissemination, sc.Scheme)
	return b.String()
}

// ResolveScheme parses a scheme name ("tms", "bms", "ims:<level>")
// against a hierarchy of height h. Intermediate levels beyond the
// hierarchy clamp to the bottommost ring level, so a grid mixing
// heights stays runnable.
func ResolveScheme(name string, h int) (core.QueryScheme, error) {
	switch {
	case name == "tms":
		return core.TMS(), nil
	case name == "bms":
		return core.BMS(h), nil
	case strings.HasPrefix(name, "ims:"):
		level, err := strconv.Atoi(strings.TrimPrefix(name, "ims:"))
		if err != nil || level < 0 {
			return core.QueryScheme{}, fmt.Errorf("experiment: bad IMS level in %q", name)
		}
		if level > h-1 {
			level = h - 1
		}
		return core.IMS(level), nil
	default:
		return core.QueryScheme{}, fmt.Errorf("experiment: unknown query scheme %q", name)
	}
}

// RunResult is the raw outcome of one (scenario, seed) simulation.
// Every field except WallTime is a deterministic function of the pair.
type RunResult struct {
	Scenario Scenario
	Seed     uint64

	// Message-plane accounting (snapshot of the run's counters).
	Counters map[string]int64

	// Membership-view convergence against the scenario's expected
	// outcome.
	ExpectedMembers int
	FinalMembers    int
	Missing, Extra  int

	// Ring health at the end of the run.
	FWRings, TotalRings int

	// Membership-Query cost and accuracy, averaged over the run's
	// queries.
	QueryMsgs    float64
	QueryLatency *metrics.Histogram
	QueryMissing int
	QueryExtra   int

	VirtualTime time.Duration
	WallTime    time.Duration // informational only; excluded from metrics
}

// Metric is one named observation of a run.
type Metric struct {
	Name  string
	Value float64
}

// Metrics flattens the run into the ordered list of observations the
// aggregator summarizes. WallTime is deliberately absent: it is the
// only nondeterministic field, and sweeps must produce identical
// summaries regardless of worker count.
func (r RunResult) Metrics() []Metric {
	c := func(name string) float64 { return float64(r.Counters[name]) }
	fw := 0.0
	if r.TotalRings > 0 {
		fw = float64(r.FWRings) / float64(r.TotalRings)
	}
	queryLatMs := 0.0
	if r.QueryLatency != nil && r.QueryLatency.N() > 0 {
		queryLatMs = float64(r.QueryLatency.Mean()) / float64(time.Millisecond)
	}
	return []Metric{
		{"messages.sent", c("messages.sent")},
		{"messages.delivered", c("messages.delivered")},
		{"messages.dropped", c("messages.dropped")},
		{"hops.token", c("hops.token")},
		{"hops.notify", c("hops.notify")},
		{"hops.propagation", c("hops.token") + c("hops.notify")},
		{"rounds", c("rounds")},
		{"ops.carried", c("ops.carried")},
		{"repairs", c("repairs")},
		{"fw.rings", fw},
		{"members.expected", float64(r.ExpectedMembers)},
		{"members.final", float64(r.FinalMembers)},
		{"members.missing", float64(r.Missing)},
		{"members.extra", float64(r.Extra)},
		{"query.msgs", r.QueryMsgs},
		{"query.latency.ms", queryLatMs},
		{"query.missing", float64(r.QueryMissing)},
		{"query.extra", float64(r.QueryExtra)},
	}
}

// runSeed derives the seed of one (cell, seed-index) run. It mixes the
// indices through the RNG's initializer so neighbouring runs do not
// get correlated streams.
func runSeed(base uint64, cell, seedIdx int) uint64 {
	return mathx.NewRNG(base ^
		uint64(cell+1)*0x9e3779b97f4a7c15 ^
		uint64(seedIdx+1)*0xbf58476d1ce4e5b9).Uint64()
}

// RunScenario executes one cell with one seed, end to end: build a
// fresh deployment (own kernel, network and RNG), construct and apply
// the churn+mobility trace, crash a deterministic sample of network
// entities halfway through, run to the scenario horizon plus drain,
// then measure queries and collect metrics. It is safe to call from
// many goroutines concurrently: runs share nothing. It panics on an
// invalid Scenario (use Grid.Validate / Grid.Expand to build cells).
func RunScenario(sc Scenario, seed uint64) RunResult {
	res, _ := runScenario(sc, seed)
	return res
}

// runScenario is RunScenario that also hands back the drained System.
func runScenario(sc Scenario, seed uint64) (RunResult, *core.System) {
	start := time.Now()

	// Fail fast on an unrunnable scenario, before any simulation work.
	// Grid.Expand always produces valid cells; hand-built Scenarios
	// (e.g. through the rgb facade) hit this panic immediately rather
	// than after the run.
	scheme, err := ResolveScheme(sc.Scheme, sc.H)
	if err != nil {
		panic(err)
	}

	cfg := core.DefaultConfig(sc.H, sc.R)
	cfg.Seed = seed
	cfg.Loss = sc.Loss
	if sc.Dissemination == core.DisseminatePathOnly.String() {
		cfg.Dissemination = core.DisseminatePathOnly
	}
	if sc.Partition > 0 {
		cfg.HeartbeatInterval = partitionHeartbeat
	}
	sys := core.NewSystem(cfg)

	tr := workload.Build(sys.APs(), workload.Spec{
		Churn: workload.ChurnConfig{
			InitialMembers: sc.Members,
			JoinRate:       sc.JoinRate,
			LeaveRate:      sc.LeaveRate,
			FailRate:       sc.FailRate,
			Duration:       sc.Duration,
			// Decorrelate from the network RNG (seeded with the raw
			// seed): a shared stream would make the draws that place
			// members coincide with the draws that drop messages.
			Seed: seed ^ 0x94d049bb133111eb,
		},
		HopRate:  sc.HopRate,
		FlapRate: sc.Churn,
	}, 1)
	core.ApplyTrace(sys, tr)
	scheduleCrashes(sys, sc, seed)
	schedulePartition(sys, sc)

	t0 := sys.Clock().Now()
	sys.RunFor(sc.Duration + 30*time.Second)

	res := RunResult{
		Scenario:    sc,
		Seed:        seed,
		VirtualTime: sys.Clock().Now().Sub(t0),
	}
	expected := workload.LiveAtEnd(tr)
	res.ExpectedMembers = len(expected)
	res.Missing, res.Extra = sys.MembershipDeviation(expected)
	res.FinalMembers = operationalCount(sys)
	res.FWRings, res.TotalRings = sys.FunctionWellRings()

	measureQueries(sys, sc, scheme, &res)

	st := sys.Transport().Stats()
	c := metrics.NewCounters()
	c.Add("messages.sent", int64(st.Sent))
	c.Add("messages.delivered", int64(st.Delivered))
	c.Add("messages.dropped", int64(st.Dropped))
	c.Add("hops.token", int64(st.DeliveredOf(runtime.KindToken)))
	c.Add("hops.notify", int64(st.DeliveredOf(runtime.KindNotify)))
	c.Add("rounds", int64(sys.Rounds()))
	c.Add("ops.carried", int64(sys.OpsCarried()))
	c.Add("repairs", int64(len(sys.Repairs())))
	res.Counters = c.Snapshot()

	res.WallTime = time.Since(start)
	return res, sys
}

// scheduleCrashes arms the scenario's mid-run crash faults: a
// seed-deterministic sample of distinct network entities, capped at
// half the hierarchy so the run stays meaningful.
func scheduleCrashes(sys *core.System, sc Scenario, seed uint64) {
	if sc.Crash <= 0 {
		return
	}
	all := sys.Hierarchy().AllNodes()
	crash := sc.Crash
	if crash > len(all)/2 {
		crash = len(all) / 2
	}
	rng := mathx.NewRNG(seed ^ 0xc2b2ae3d27d4eb4f)
	victims := make(map[int]bool, crash)
	for len(victims) < crash {
		victims[rng.Intn(len(all))] = true
	}
	// Map iteration order is irrelevant: all crashes fire at the same
	// virtual instant and CrashNE calls commute.
	clock := sys.Clock()
	for idx := range victims {
		victim := all[idx]
		clock.After(sc.Duration/2, func() { sys.CrashNE(victim) })
	}
}

// partitionHeartbeat is the heartbeat of a cell that cuts the
// network. The cut is only a transport cut: the fragments merge through
// the heartbeat's probes after the heal, so PartitionNetwork refuses a
// System without one.
const partitionHeartbeat = 250 * time.Millisecond

// schedulePartition arms the scenario's mid-run network partition: the
// second topmost subtree (slot 1 of a 2-way deterministic hierarchy
// split) is cut away at Duration/2 and the network heals sc.Partition
// later, leaving the drain window for the protocol to detect the cut
// and merge the fragments. The cut is a deterministic function of the
// hierarchy shape alone, so every seed of a cell partitions the same
// entities, and an error is a bug: it panics like an invalid Scenario.
func schedulePartition(sys *core.System, sc Scenario) {
	if sc.Partition <= 0 {
		return
	}
	frag := sys.Hierarchy().OwnedBy(2, 1)
	clock := sys.Clock()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	clock.After(sc.Duration/2, func() { must(sys.PartitionNetwork(frag)) })
	clock.After(sc.Duration/2+sc.Partition, func() { must(sys.HealNetwork()) })
}

// measureQueries runs the cell's query workload after the scenario
// has drained and records cost and accuracy.
func measureQueries(sys *core.System, sc Scenario, scheme core.QueryScheme, res *RunResult) {
	if sc.Queries <= 0 {
		return
	}
	aps := sys.APs()
	lat := &metrics.Histogram{}
	var msgs uint64
	for q := 0; q < sc.Queries; q++ {
		qr, err := sys.RunQuery(aps[(q*13)%len(aps)], scheme)
		if err != nil {
			panic(err) // scheme resolved against this hierarchy above
		}
		msgs += qr.Messages
		lat.Add(qr.Latency)
		missing, extra := sys.VerifyQueryAnswer(qr)
		res.QueryMissing += missing
		res.QueryExtra += extra
	}
	res.QueryMsgs = float64(msgs) / float64(sc.Queries)
	res.QueryLatency = lat
}

func operationalCount(sys *core.System) int {
	n := 0
	for _, m := range sys.GlobalMembership() {
		if m.Status.Operational() {
			n++
		}
	}
	return n
}
