// Command benchmark is the repository's end-to-end and per-layer
// benchmark: four fixed-op-count workloads, three on loopback UDP and
// one on the simulator, whose outputs it verifies. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/rgbproto/rgb"
)

// config is one invocation of the benchmark.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// setups is how many times the untraced run sets the workload up
	// (3; the smoke test does it once); setup_s is the median, the last
	// set-up is the one measured on.
	setups int
	// preload scales the resident population (1; the smoke test shrinks
	// it).
	preload float64
	outDir  string // where trace-<workload>.jsonl goes
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		cfg       config
		name      = flag.String("workload", "all", "workload to run, or all")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans and layer probes")
		stability = flag.Bool("stability", false, "run every workload in two sets of five child runs and compare them with the bounds")
	)
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input: GUIDs, access proxies, op mix, churn trace")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "sizes the fixed op count: ops = the workload's nominal rate x seconds")
	flag.Parse()
	cfg.trace, cfg.setups, cfg.preload, cfg.outDir = *trace != 0, 3, 1, outDir()

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	printEnvironment()
	if *stability {
		if err := runStability(selected, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// outDir is benchmark/out whether the command runs from the repository
// root or from its own directory.
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// printEnvironment records where the numbers come from.
func printEnvironment() {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s kernel=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, commit)
}

// opCount turns --seconds into the workload's fixed op count, a
// multiple of 4*segments so that the traced run can quarter it.
func opCount(w workload, seconds float64) int {
	const unit = 4 * segments
	return (int(float64(w.rate)*seconds) + unit - 1) / unit * unit
}

// warmCount is the warm-up, a tenth of the op count; it is part of
// set-up.
func warmCount(n int) int { return (n/10 + segments - 1) / segments * segments }

// region runs one region of n ops on inst and returns its figures.
func region(inst instance, n int, tr *tracer) (regionStats, error) {
	m := newMeter(n)
	samples := inst.ops(m, tr)
	if !m.finished() {
		return regionStats{}, errors.New("too many ops failed; run abandoned")
	}
	return m.stats(samples...), nil
}

// setUp builds the workload and warms it up, timing both.
func setUp(w workload, cfg config, t *tally, tr *tracer) (instance, float64, error) {
	lane := tr.lane(1 << 12)
	start := time.Now()
	inst, err := w.setup(params{seed: cfg.seed, preload: cfg.preload}, t, lane)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	sp := lane.begin(spanWarm, -1, -1)
	_, err = region(inst, warmCount(opCount(w, cfg.seconds)), nil)
	lane.end(sp)
	if err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return inst, time.Since(start).Seconds(), nil
}

func runWorkload(w workload, cfg config) (result, error) {
	fmt.Printf("# %s seed=%d ops=%d trace=%v\n", w.name, cfg.seed, opCount(w, cfg.seconds), cfg.trace)
	t := &tally{}
	var (
		values  map[string]float64
		defs    []metricDef
		correct bool
		err     error
	)
	if cfg.trace {
		defs = perLayer
		values, correct, err = runTraced(w, cfg, t)
	} else {
		defs = endToEnd
		values, correct, err = runUntraced(w, cfg, t)
	}
	for _, note := range t.notes {
		fmt.Printf("# failed: %s\n", note)
	}
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   correct && t.failed.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Printf("%-20s %-32s %14.4f %s\n", w.name, d.name, values[d.name], d.unit)
	}
	fmt.Printf("%-20s %-32s %14.6f 1 (%d of %d ops)\n", w.name, "failed_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// checkCounters turns the must-be-zero counters into correctness
// failures.
func checkCounters(c counters, t *tally) error {
	switch {
	case c.drops != 0:
		return fmt.Errorf("%d datagrams rejected by the socket layer", c.drops)
	case c.repairs != 0:
		return fmt.Errorf("%d ring repairs", c.repairs)
	case c.evictions != 0:
		return fmt.Errorf("%d peer evictions", c.evictions)
	case t.eventsDropped.Load() != 0:
		return fmt.Errorf("%d Watch events dropped", t.eventsDropped.Load())
	}
	return nil
}

// settledCounters reads the counters once the deployment has gone
// quiet: dissemination and acknowledgements go on after the Watch event
// that completes an op, and a delta between two quiet reads holds every
// message of the ops between them and of no other.
func settledCounters(inst instance) counters {
	c := inst.counters()
	for i := 0; i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
		next := inst.counters()
		if next.delivered == c.delivered {
			return next
		}
		c = next
	}
	return c
}

// runUntraced is the end-to-end run: cfg.setups set-ups, then one
// timed region on the last of them, with tracing off.
func runUntraced(w workload, cfg config, t *tally) (map[string]float64, bool, error) {
	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.close()
		}
		var (
			s   float64
			err error
		)
		if inst, s, err = setUp(w, cfg, t, nil); err != nil {
			return nil, false, err
		}
		setups = append(setups, s)
	}
	defer inst.close()
	n := opCount(w, cfg.seconds)
	before := settledCounters(inst)
	rs, err := region(inst, n, nil)
	if err != nil {
		return nil, false, err
	}
	after := settledCounters(inst)
	heap := liveHeapMB() // the deployment is still open and referenced
	correct := true
	if err := errors.Join(inst.verify(), checkCounters(inst.counters(), t)); err != nil {
		fmt.Printf("# incorrect: %v\n", err)
		correct = false
	}
	fmt.Printf("# whole region: %d samples in %.3fs, p50 %.1f us, p99 %.1f us, %.1f ops/s, %.1f us cpu/op, %.3f KB/op; gated figures are the third best of %d segments, %d samples beyond each segment's p99\n",
		rs.samples, rs.wall.Seconds(), rs.p50, rs.p99, rs.opsPerSec, rs.cpuPerOp, rs.allocKBPerOp, segments, n/segments/100)
	fmt.Printf("# p50 per segment, us: %.1f\n# p99 per segment, us: %.1f\n", rs.segP50s, rs.segP99s)
	return map[string]float64{
		"setup_s":         median(setups),
		"op_p50_us":       rs.p50Seg,
		"op_p99_us":       rs.p99Seg,
		"ops_per_s":       rs.opsPerSecSeg,
		"cpu_us_per_op":   rs.cpuPerOpSeg,
		"alloc_kb_per_op": rs.allocKBPerOp,
		"live_heap_mb":    heap,
		"msgs_per_op":     float64(after.delivered-before.delivered) / float64(rs.completed),
	}, correct, nil
}

// observer samples the engine hand-off round trip every 10 ms beside
// the traced region of a live workload.
type observer struct {
	stop, stopped chan struct{}
	rtts          []time.Duration
}

func observe(svc *rgb.Service, lane *lane) *observer {
	o := &observer{stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(o.stopped)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-tick.C:
			}
			sp := lane.begin(spanDoRTT, -1, -1)
			start := time.Now()
			svc.Inspect(func(*rgb.System) {})
			o.rtts = append(o.rtts, time.Since(start))
			lane.end(sp)
		}
	}()
	return o
}

func (o *observer) halt() {
	close(o.stop)
	<-o.stopped
}

// runTraced is the per-layer run: one set-up, then on the same
// deployment a quarter of the ops untraced, half of them traced and the
// last quarter untraced again, then the layer probes. The tracing
// overhead is the traced half against the mean of the two quarters
// around it, which cancels what drifts with the op count (the heap
// grows with every member ever seen).
func runTraced(w workload, cfg config, t *tally) (map[string]float64, bool, error) {
	tr := newTracer()
	inst, _, err := setUp(w, cfg, t, tr)
	if err != nil {
		return nil, false, err
	}
	defer inst.close()
	half := opCount(w, cfg.seconds) / 2
	lead, err := region(inst, half/2, nil)
	if err != nil {
		return nil, false, err
	}

	svc, cl, live := inst.observed()
	obs := &observer{}
	olane := tr.lane(1 << 14)
	before := settledCounters(inst)
	start := time.Now()
	if live {
		obs = observe(svc, olane)
	}
	traced, err := region(inst, half, tr)
	if live {
		obs.halt()
	}
	if err != nil {
		return nil, false, err
	}
	elapsed := time.Since(start).Seconds()
	after := settledCounters(inst)
	heapBefore := liveHeapMB() // the traced half's spans are in it, the trailing quarter adds none
	trail, err := region(inst, half/2, nil)
	if err != nil {
		return nil, false, err
	}
	heapAfter := liveHeapMB()
	plainP50 := (lead.p50Seg + trail.p50Seg) / 2
	correct := true
	if err := errors.Join(inst.verify(), checkCounters(inst.counters(), t)); err != nil {
		fmt.Printf("# incorrect: %v\n", err)
		correct = false
	}

	ops := float64(traced.completed)
	v := map[string]float64{
		"runtime.do_rtt_idle_us":        doRTT(svc, 5000),
		"runtime.do_rtt_loaded_us":      durationsP50(obs.rtts),
		"runtime.datagrams_per_op":      float64(after.received-before.received) / ops,
		"runtime.relayed_per_op":        float64(after.relayed-before.relayed) / ops,
		"runtime.dup_dropped":           float64(after.dupDropped - before.dupDropped),
		"runtime.drops_total":           float64(after.drops),
		"core.rounds_per_op":            float64(after.rounds-before.rounds) / ops,
		"core.ops_per_round":            float64(after.opsCarried-before.opsCarried) / float64(after.rounds-before.rounds),
		"core.token_hops_per_op":        float64(after.tokenHops-before.tokenHops) / ops,
		"core.notify_hops_per_op":       float64(after.notifyHops-before.notifyHops) / ops,
		"core.repairs":                  float64(after.repairs),
		"service.submit_us_p50":         tr.p50(spanSubmit),
		"service.commit_wait_us_p50":    tr.p50(spanCommitWait),
		"service.settle_us_p50":         tr.p50(spanSettle),
		"service.query_tms_us_p50":      tr.p50(spanQueryTMS),
		"service.query_bms_us_p50":      tr.p50(spanQueryBMS),
		"service.events_dropped":        float64(t.eventsDropped.Load()),
		"discovery.gossip_frames_per_s": float64(after.gossip-before.gossip) / elapsed,
		"discovery.peer_evictions":      float64(after.evictions),
		"go.mallocs_per_op":             traced.mallocsPerOp,
		"go.gc_cycles":                  float64(traced.gcCycles),
		"go.gc_pause_ms_total":          traced.gcPauseMS,
		"go.goroutines_peak":            float64(traced.goroutinesPeak),
		"go.heap_growth_kb_per_kop":     (heapAfter - heapBefore) * 1024 / (float64(trail.completed) / 1000),
		"trace.overhead_pct":            100 * (traced.p50Seg - plainP50) / plainP50,
	}
	if x, ok := inst.(interface {
		layerMetrics(v map[string]float64, rs regionStats)
	}); ok {
		x.layerMetrics(v, traced)
	}

	plane := tr.lane(1 << 8)
	probeTelemetry(cl, plane, v)
	if err := errors.Join(probeWire(plane, v), probeUDPFloor(plane, v), probeWatchFanout(plane, v), probeClusterOpen(plane, v)); err != nil {
		return nil, false, fmt.Errorf("layer probe: %w", err)
	}
	probeDES(plane, v)
	if jw, ok := inst.(*joinWatch); ok {
		// Socket crossings between JoinAt returning and the event on
		// process 1, at best: mobile host -> access proxy, one round
		// of the r-entity bottom ring, the notification to the parent,
		// and the top ring's pass to process 1's entity. Every message
		// crosses the socket, also between entities of one process.
		crossings := float64(len(jw.ring0) + 3)
		perCrossing := v["runtime.udp_floor_rtt_us"]/2 + (v["wire.encode_ns_token1"]+v["wire.decode_ns_token1"])/1000 + v["runtime.do_rtt_idle_us"]
		v["trace.unattributed_us"] = traced.p50Seg - crossings*perCrossing
	}

	path := filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, false, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# spans written to %s; p50 of the untraced quarters %.1f and %.1f us, of the traced half between them %.1f us\n",
		path, lead.p50Seg, trail.p50Seg, traced.p50Seg)
	fmt.Printf("# %-22s %9s %12s %12s %10s\n", "span", "count", "total ms", "self ms", "p50 us")
	for _, s := range tr.summarize() {
		fmt.Printf("# %-22s %9d %12.1f %12.1f %10.1f\n", s.name, s.count, us(s.total)/1000, us(s.self)/1000, s.p50)
	}
	return v, correct, nil
}
