// Command rgbsoak is the long-haul operability runner: it launches a
// live multi-process rgbnode deployment (the same engine as the CI
// chaos suite, with the -http plane enabled on every daemon), drives
// it through seeded join/leave/fail/partition churn for a configurable
// duration, scrapes each process's /metrics the whole time, and
// asserts the operator-facing SLOs at the end:
//
//   - memory ceiling: max observed go_heap_alloc_bytes per process
//   - goroutine ceiling: max observed go_goroutines per process
//   - convergence SLO: after the final heal, every process must agree
//     on the full membership within -converge-slo
//   - health: every /healthz must report ok once converged
//
// The verdict — per-node maxima, churn op counts, final counters and
// any SLO breaches — is written as SOAK_RGB.json. A breach exits
// nonzero so CI fails loudly.
//
//	go run ./cmd/rgbsoak -duration 60s            # builds rgbnode itself
//	rgbsoak -rgbnode ./rgbnode -duration 30m      # overnight soak
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/rgbproto/rgb/internal/chaos"
)

func main() {
	log.SetFlags(log.Ltime)
	cfg := soakConfig{}
	flag.StringVar(&cfg.Bin, "rgbnode", "", "path to an rgbnode binary (default: go build it into a temp dir)")
	flag.IntVar(&cfg.Nodes, "nodes", 4, "process count (one topmost-subtree owner each; needs -r >= -nodes)")
	flag.IntVar(&cfg.H, "h", 2, "hierarchy height")
	flag.IntVar(&cfg.R, "r", 4, "ring size")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "deployment and churn seed (same seed, same churn schedule)")
	flag.DurationVar(&cfg.Heartbeat, "heartbeat", 250*time.Millisecond, "heartbeat interval (drives failure detection)")
	flag.DurationVar(&cfg.Duration, "duration", 60*time.Second, "churn phase length")
	flag.DurationVar(&cfg.Scrape, "scrape", 2*time.Second, "/metrics scrape interval")
	flag.DurationVar(&cfg.ConvergeSLO, "converge-slo", 60*time.Second, "deadline for full convergence after the final heal")
	flag.Uint64Var(&cfg.HeapCeiling, "heap-ceiling", 128<<20, "max tolerated go_heap_alloc_bytes per process")
	flag.Uint64Var(&cfg.GoroutineCeiling, "goroutine-ceiling", 200, "max tolerated go_goroutines per process")
	flag.StringVar(&cfg.Out, "out", "SOAK_RGB.json", "verdict file path")
	flag.Parse()

	report, err := run(cfg)
	if err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	if err := writeReport(cfg.Out, report); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Printf("verdict written to %s", cfg.Out)
	if !report.Pass {
		log.Fatalf("FAIL: %s", strings.Join(report.Breaches, "; "))
	}
	fmt.Println("PASS")
}

type soakConfig struct {
	Bin              string        `json:"-"`
	Nodes            int           `json:"nodes"`
	H                int           `json:"h"`
	R                int           `json:"r"`
	Seed             uint64        `json:"seed"`
	Heartbeat        time.Duration `json:"-"`
	Duration         time.Duration `json:"-"`
	Scrape           time.Duration `json:"-"`
	ConvergeSLO      time.Duration `json:"-"`
	HeapCeiling      uint64        `json:"heap_ceiling_bytes"`
	GoroutineCeiling uint64        `json:"goroutine_ceiling"`
	Out              string        `json:"-"`

	HeartbeatMS   int64   `json:"heartbeat_ms"`
	DurationSec   float64 `json:"duration_seconds"`
	ConvergeSLOMS int64   `json:"converge_slo_ms"`
}

// nodeReport is one process's soak verdict.
type nodeReport struct {
	Index            int     `json:"index"`
	HTTPAddr         string  `json:"http_addr"`
	Scrapes          int     `json:"scrapes"`
	MaxHeapBytes     uint64  `json:"max_heap_alloc_bytes"`
	MaxGoroutines    uint64  `json:"max_goroutines"`
	RoundsTotal      float64 `json:"rounds_total"`
	ViewChangesTotal float64 `json:"view_changes_total"`
	NetReceived      float64 `json:"net_received_total"`
	DecodeErrors     float64 `json:"net_decode_errors_total"`
}

type report struct {
	Config     soakConfig   `json:"config"`
	ChurnOps   ops          `json:"churn_ops"`
	Members    int          `json:"members_final"`
	ChurnSec   float64      `json:"churn_seconds"`
	ConvergeMS int64        `json:"final_convergence_ms"`
	Nodes      []nodeReport `json:"nodes"`
	Breaches   []string     `json:"breaches"`
	Pass       bool         `json:"pass"`
}

type ops struct {
	Join       int `json:"join"`
	Leave      int `json:"leave"`
	Fail       int `json:"fail"`
	Partitions int `json:"partitions"`
}

func run(cfg soakConfig) (*report, error) {
	if cfg.Bin == "" {
		dir, err := os.MkdirTemp("", "rgbsoak-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		log.Printf("building rgbnode into %s", dir)
		if cfg.Bin, err = chaos.BuildNode(dir); err != nil {
			return nil, err
		}
	}
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("rgbsoak: the partition scenario needs at least 3 nodes, got %d", cfg.Nodes)
	}
	if cfg.R < cfg.Nodes {
		return nil, fmt.Errorf("rgbsoak: -r %d cannot seat %d topmost-subtree owners", cfg.R, cfg.Nodes)
	}

	eng, err := chaos.Launch(chaos.Config{
		Bin: cfg.Bin, Nodes: cfg.Nodes, H: cfg.H, R: cfg.R, Seed: cfg.Seed,
		Heartbeat: cfg.Heartbeat,
		HTTP:      true,
		Logf:      log.Printf,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	// Background scraper: every live daemon's /metrics, tracking the
	// per-process heap and goroutine high-water marks the whole run.
	mon := newMonitor(eng)
	stopScrape := mon.start(cfg.Scrape)
	defer stopScrape()

	// Deterministic churn: same seed, same op schedule. GUIDs are
	// allocated once and never reused; members maps each live GUID to
	// the process that joined it — the member entity lives there, so
	// leave and fail must be issued from the same daemon.
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	members := map[int]int{}
	nextGUID := 0
	join := func() error {
		nextGUID++
		guid := nextGUID
		slot := rng.Intn(cfg.Nodes)
		ap := cfg.R*slot + rng.Intn(cfg.R)
		log.Printf("churn: join mh-%d at ap %d via rgbnode[%d]", guid, ap, slot)
		if _, err := eng.Proc(slot).Do(fmt.Sprintf("join %d %d", guid, ap)); err != nil {
			return err
		}
		members[guid] = slot
		return nil
	}
	pick := func() int {
		live := make([]int, 0, len(members))
		for g := range members {
			live = append(live, g)
		}
		sort.Ints(live)
		return live[rng.Intn(len(live))]
	}
	wantOf := func() string {
		names := make([]string, 0, len(members))
		for g := range members {
			names = append(names, "mh-"+strconv.Itoa(g))
		}
		sort.Strings(names)
		return "members=" + strings.Join(names, ",")
	}

	// settle demands full agreement: the query path answers want, every
	// process's own topmost view matches (AwaitAuthoritative), AND the
	// topmost ring itself is whole again — every process reports a full
	// roster under one leader (AwaitRingUnited). Identical member lists
	// are not enough after a heal: while the ring is still split, any
	// removal commits on one fragment only, and reaches the other only
	// through the merge's tombstones once the fragments reunite. Ring
	// unity closes that window before the next op fires.
	settle := func(timeout time.Duration) error {
		want := wantOf()
		if err := eng.AwaitConvergence(want, timeout); err != nil {
			return err
		}
		if err := eng.AwaitAuthoritative(want, timeout); err != nil {
			return err
		}
		return eng.AwaitRingUnited(cfg.R, timeout)
	}

	// Steady state: two members per process before the abuse begins.
	var counts ops
	for i := 0; i < 2*cfg.Nodes; i++ {
		if err := join(); err != nil {
			return nil, err
		}
		counts.Join++
	}
	if err := settle(45 * time.Second); err != nil {
		return nil, err
	}
	log.Printf("steady state: %d members across %d processes", len(members), cfg.Nodes)

	// Churn phase. Partition windows pause membership churn (the cut
	// splits the query path, so the live set must hold still); all
	// other ops fire back to back with a short breather.
	churnStart := time.Now()
	minMembers := cfg.Nodes // never shrink below one member per process
	for time.Since(churnStart) < cfg.Duration {
		switch roll := rng.Intn(10); {
		case roll < 4:
			if err := join(); err != nil {
				return nil, err
			}
			counts.Join++
		case roll < 6 && len(members) > minMembers:
			g := pick()
			log.Printf("churn: leave mh-%d via rgbnode[%d]", g, members[g])
			if _, err := eng.Proc(members[g]).Do(fmt.Sprintf("leave %d", g)); err != nil {
				return nil, err
			}
			delete(members, g)
			counts.Leave++
		case roll < 8 && len(members) > minMembers:
			g := pick()
			log.Printf("churn: fail mh-%d via rgbnode[%d]", g, members[g])
			if _, err := eng.Proc(members[g]).Do(fmt.Sprintf("fail %d", g)); err != nil {
				return nil, err
			}
			delete(members, g)
			counts.Fail++
		default:
			// Flush pending view changes cluster-wide before cutting: a
			// removal not yet applied by every topmost node would be
			// resurrected by the union merge after the heal.
			if err := settle(60 * time.Second); err != nil {
				return nil, err
			}
			cut := 1 + rng.Intn(cfg.Nodes-1)
			var a, b []int
			for s := 0; s < cfg.Nodes; s++ {
				if s < cut {
					a = append(a, s)
				} else {
					b = append(b, s)
				}
			}
			if err := eng.Partition(a, b); err != nil {
				return nil, err
			}
			time.Sleep(4 * cfg.Heartbeat)
			if err := eng.Heal(); err != nil {
				return nil, err
			}
			counts.Partitions++
			// Reconverge before churning again so a back-to-back cut
			// can't wedge a half-merged view.
			if err := settle(60 * time.Second); err != nil {
				return nil, err
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	churnSec := time.Since(churnStart).Seconds()
	log.Printf("churn done: %+v over %.1fs, %d members live", counts, churnSec, len(members))

	// Final heal + convergence SLO.
	if err := eng.Heal(); err != nil {
		return nil, err
	}
	convergeStart := time.Now()
	if err := settle(cfg.ConvergeSLO); err != nil {
		return nil, err
	}
	convergeMS := time.Since(convergeStart).Milliseconds()
	log.Printf("final convergence in %dms (SLO %s)", convergeMS, cfg.ConvergeSLO)

	stopScrape()
	mon.scrapeOnce() // one last sample so final counters are fresh

	cfg.HeartbeatMS = cfg.Heartbeat.Milliseconds()
	cfg.DurationSec = cfg.Duration.Seconds()
	cfg.ConvergeSLOMS = cfg.ConvergeSLO.Milliseconds()
	rep := &report{
		Config:     cfg,
		ChurnOps:   counts,
		Members:    len(members),
		ChurnSec:   churnSec,
		ConvergeMS: convergeMS,
		Nodes:      mon.reports(),
		Pass:       true,
	}
	for _, n := range rep.Nodes {
		if n.Scrapes == 0 {
			rep.Breaches = append(rep.Breaches, fmt.Sprintf("rgbnode[%d]: no successful /metrics scrape", n.Index))
		}
		if n.MaxHeapBytes > cfg.HeapCeiling {
			rep.Breaches = append(rep.Breaches, fmt.Sprintf(
				"rgbnode[%d]: heap %d bytes exceeds ceiling %d", n.Index, n.MaxHeapBytes, cfg.HeapCeiling))
		}
		if n.MaxGoroutines > cfg.GoroutineCeiling {
			rep.Breaches = append(rep.Breaches, fmt.Sprintf(
				"rgbnode[%d]: %d goroutines exceeds ceiling %d", n.Index, n.MaxGoroutines, cfg.GoroutineCeiling))
		}
		if n.DecodeErrors > 0 {
			rep.Breaches = append(rep.Breaches, fmt.Sprintf(
				"rgbnode[%d]: %v wire decode errors", n.Index, n.DecodeErrors))
		}
	}
	for _, p := range eng.Procs() {
		status, body, err := httpGet(p.HTTPAddr, "/healthz")
		if err != nil || status != http.StatusOK {
			rep.Breaches = append(rep.Breaches, fmt.Sprintf(
				"rgbnode[%d]: /healthz = %d %s (%v) after convergence", p.Index, status, strings.TrimSpace(body), err))
		}
	}
	rep.Pass = len(rep.Breaches) == 0
	return rep, nil
}

// monitor owns the scrape loop and the per-process high-water marks.
type monitor struct {
	eng   *chaos.Engine
	mu    sync.Mutex
	nodes []nodeReport
}

func newMonitor(eng *chaos.Engine) *monitor {
	m := &monitor{eng: eng}
	for _, p := range eng.Procs() {
		m.nodes = append(m.nodes, nodeReport{Index: p.Index, HTTPAddr: p.HTTPAddr})
	}
	return m
}

// start launches the scrape ticker; the returned stop is idempotent.
func (m *monitor) start(interval time.Duration) func() {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m.scrapeOnce()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// scrapeOnce samples every live daemon's /metrics and folds the
// exposition into the high-water marks and final counters.
func (m *monitor) scrapeOnce() {
	for _, p := range m.eng.Procs() {
		if p.Dead() || p.HTTPAddr == "" {
			continue
		}
		status, body, err := httpGet(p.HTTPAddr, "/metrics")
		if err != nil || status != http.StatusOK {
			continue
		}
		sums := sumExposition(body)
		m.mu.Lock()
		n := &m.nodes[p.Index]
		n.Scrapes++
		if heap := uint64(sums["go_heap_alloc_bytes"]); heap > n.MaxHeapBytes {
			n.MaxHeapBytes = heap
		}
		if gs := uint64(sums["go_goroutines"]); gs > n.MaxGoroutines {
			n.MaxGoroutines = gs
		}
		n.RoundsTotal = sums["rgb_rounds_total"]
		n.ViewChangesTotal = sums["rgb_view_changes_total"]
		n.NetReceived = sums["rgb_net_received_total"]
		n.DecodeErrors = sums["rgb_net_decode_errors_total"]
		m.mu.Unlock()
	}
}

func (m *monitor) reports() []nodeReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]nodeReport(nil), m.nodes...)
}

// sumExposition folds a Prometheus text page into per-metric sums,
// keyed by base name with labels stripped — exactly what a ceiling
// check needs (rgb_rounds_total is per group; the process total is
// the sum).
func sumExposition(body string) map[string]float64 {
	sums := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		sums[name] += v
	}
	return sums
}

func httpGet(addr, path string) (int, string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
