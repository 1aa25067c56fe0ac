package experiment

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/analytic"
	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/mathx"
)

// smallGrid is a fast 4-cell grid used by the determinism tests.
func smallGrid() Grid {
	return Grid{
		H:        []int{2},
		R:        []int{3},
		Members:  []int{8},
		Loss:     []float64{0, 0.005},
		Schemes:  []string{"tms", "bms"},
		Duration: 5 * time.Second,
		Queries:  1,
	}
}

func TestGridExpandSizeAndOrder(t *testing.T) {
	g := Grid{
		H:       []int{2, 3},
		R:       []int{3, 4},
		Members: []int{10},
		Schemes: []string{"tms", "bms"},
	}
	cells := g.Expand()
	if got, want := len(cells), g.Size(); got != want {
		t.Fatalf("Expand produced %d cells, Size says %d", got, want)
	}
	if len(cells) != 8 {
		t.Fatalf("expected 2x2x2 = 8 cells, got %d", len(cells))
	}
	// Fixed nesting order: H outermost, Schemes innermost.
	wantOrder := []struct {
		h, r   int
		scheme string
	}{
		{2, 3, "tms"}, {2, 3, "bms"}, {2, 4, "tms"}, {2, 4, "bms"},
		{3, 3, "tms"}, {3, 3, "bms"}, {3, 4, "tms"}, {3, 4, "bms"},
	}
	for i, w := range wantOrder {
		c := cells[i]
		if c.H != w.h || c.R != w.r || c.Scheme != w.scheme {
			t.Errorf("cell %d: got (h=%d r=%d %s), want (h=%d r=%d %s)",
				i, c.H, c.R, c.Scheme, w.h, w.r, w.scheme)
		}
	}
	// Defaults fill unspecified axes.
	if cells[0].JoinRate != 0.5 || cells[0].Duration != 30*time.Second {
		t.Errorf("defaults not applied: %+v", cells[0])
	}
}

func TestGridValidate(t *testing.T) {
	bad := []Grid{
		{H: []int{0}},
		{R: []int{1}},
		{Loss: []float64{1.5}},
		{Crash: []int{-1}},
		{Schemes: []string{"nonsense"}},
		{Schemes: []string{"ims:x"}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %d: expected validation error", i)
		}
	}
	if err := (Grid{}).Validate(); err != nil {
		t.Errorf("empty grid should normalize to valid defaults: %v", err)
	}
}

func TestResolveScheme(t *testing.T) {
	cases := []struct {
		name  string
		h     int
		level int
	}{
		{"tms", 3, 0},
		{"bms", 3, 2},
		{"ims:1", 3, 1},
		{"ims:7", 3, 2}, // clamps to bottommost
	}
	for _, c := range cases {
		q, err := ResolveScheme(c.name, c.h)
		if err != nil {
			t.Fatalf("ResolveScheme(%q, %d): %v", c.name, c.h, err)
		}
		if q != core.IMS(c.level) {
			t.Errorf("ResolveScheme(%q, %d) = level %d, want %d", c.name, c.h, q.Level, c.level)
		}
	}
	for _, name := range []string{"", "topmost", "ims:", "ims:-1"} {
		if _, err := ResolveScheme(name, 3); err == nil {
			t.Errorf("ResolveScheme(%q) should fail", name)
		}
	}
}

// TestRunScenarioDeterministic re-runs one cell with the same seed and
// requires identical results (modulo wall time).
func TestRunScenarioDeterministic(t *testing.T) {
	sc := smallGrid().Expand()[1] // the loss>0, tms cell
	a := RunScenario(sc, 42)
	b := RunScenario(sc, 42)
	a.WallTime, b.WallTime = 0, 0
	if !reflect.DeepEqual(a.Metrics(), b.Metrics()) {
		t.Fatalf("same (scenario, seed) produced different metrics:\n%v\nvs\n%v",
			a.Metrics(), b.Metrics())
	}
	c := RunScenario(sc, 43)
	if reflect.DeepEqual(a.Metrics(), c.Metrics()) {
		t.Fatalf("different seeds produced identical metrics — seed not applied")
	}
}

// TestPartitionCellCutsAndMerges: a cell with a partition really cuts
// the network, and the protocol merges the fragments in the drain
// window. The same cell without a partition drops nothing (it has no
// loss) and repairs nothing, so the drops and repairs are the cut's.
func TestPartitionCellCutsAndMerges(t *testing.T) {
	sc := Scenario{H: 2, R: 5, Members: 20, JoinRate: 0.5, LeaveRate: 0.3, FailRate: 0.05,
		Dissemination: "full", Scheme: "tms", Duration: 30 * time.Second}
	quiet := RunScenario(sc, 7)
	if d, r := quiet.Counters["messages.dropped"], quiet.Counters["repairs"]; d != 0 || r != 0 {
		t.Fatalf("no partition: %d dropped, %d repairs, want none", d, r)
	}
	sc.Partition = 5 * time.Second
	res, sys := runScenario(sc, 7)
	if res.Counters["messages.dropped"] == 0 {
		t.Error("partition cell dropped no message: the cut was never installed")
	}
	if res.Counters["repairs"] == 0 {
		t.Error("partition cell repaired nothing: no side detected the cut")
	}
	if d := sys.RosterAgreement(); d != 0 {
		t.Errorf("%d rings disagree after the drain window", d)
	}
}

// TestSweepWorkerCountInvariance is the core contract: the JSON report
// must be bit-identical for 1 worker and many workers.
func TestSweepWorkerCountInvariance(t *testing.T) {
	g := smallGrid()
	serial, err := Sweep(g, Options{Seeds: 3, BaseSeed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(g, Options{Seeds: 3, BaseSeed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(js) != string(jp) {
		t.Fatalf("worker count changed the report:\nserial:   %s\nparallel: %s", js, jp)
	}
	if len(serial.Cells) != g.Size() {
		t.Fatalf("report has %d cells, grid has %d", len(serial.Cells), g.Size())
	}
	for _, cell := range serial.Cells {
		if cell.Seeds != 3 {
			t.Errorf("cell %s aggregated %d seeds, want 3", cell.Scenario.Name(), cell.Seeds)
		}
	}
}

// TestSummarizeFixture checks the aggregate statistics on a
// hand-computed fixture: three runs whose "rounds" metric is 1, 2, 3.
//   - mean  = 2
//   - std   = sample stddev of {1,2,3} = 1
//   - ci95  = 1.96 * 1 / sqrt(3) ≈ 1.131607...
func TestSummarizeFixture(t *testing.T) {
	sc := Scenario{H: 2, R: 3, Dissemination: "full", Scheme: "tms"}
	runs := make([]RunResult, 3)
	for i := range runs {
		runs[i] = RunResult{
			Scenario: sc,
			Counters: map[string]int64{"rounds": int64(i + 1)},
		}
	}
	cell := summarize(sc, runs)
	st := cell.Metrics["rounds"]
	if st.Mean != 2 {
		t.Errorf("mean = %v, want 2", st.Mean)
	}
	if st.Std != 1 {
		t.Errorf("std = %v, want 1", st.Std)
	}
	if st.Min != 1 || st.Max != 3 {
		t.Errorf("min/max = %v/%v, want 1/3", st.Min, st.Max)
	}
	wantCI := 1.96 / math.Sqrt(3)
	if math.Abs(st.CI95-wantCI) > 1e-12 {
		t.Errorf("ci95 = %v, want %v", st.CI95, wantCI)
	}
	// A metric identical across runs has zero spread.
	if zero := cell.Metrics["repairs"]; zero.Mean != 0 || zero.Std != 0 || zero.CI95 != 0 {
		t.Errorf("constant metric summarized as %+v, want all zero", zero)
	}
}

// TestStatOfSingleObservation: one seed means no spread estimate.
func TestStatOfSingleObservation(t *testing.T) {
	s := &mathx.Summary{}
	s.Add(5)
	st := statOf(s)
	if st.Mean != 5 || st.Std != 0 || st.CI95 != 0 || st.Min != 5 || st.Max != 5 {
		t.Errorf("statOf single obs = %+v", st)
	}
}

func TestFanOutCoversAllJobs(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		hits := make([]int64, 100)
		fanOut(len(hits), workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestCompareDeterminism: the analytic comparison modes must also be
// worker-count invariant.
func TestCompareDeterminism(t *testing.T) {
	a := CompareTableII(500, 1, 9)
	b := CompareTableII(500, 6, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CompareTableII differs across worker counts")
	}
	for _, cell := range a {
		if math.Abs(cell.MC.FW-cell.Row.FW) > 0.05 {
			t.Errorf("MC estimate %.4f far from formula %.4f at n=%d f=%g k=%d",
				cell.MC.FW, cell.Row.FW, cell.Row.N, cell.Row.F, cell.Row.K)
		}
	}

	// The text renderer shows both hierarchy heights of a Table I row.
	text := TableIText([]TableICell{{Row: analytic.TableI()[0]}})
	lines := strings.Split(text, "\n")
	wantHeader := []string{"n", "r", "h(tree)", "HCN_Tree", "meas_Tree", "dev", "h(ring)", "HCN_Ring", "meas_Ring", "dev"}
	if got := strings.Fields(lines[0]); !reflect.DeepEqual(got, wantHeader) {
		t.Errorf("TableIText header = %v, want %v", got, wantHeader)
	}
	if got := strings.Fields(lines[2]); len(got) != len(wantHeader) || got[2] != "3" || got[6] != "2" {
		t.Errorf("TableIText row = %v, want h(tree)=3 and h(ring)=2", got)
	}
}
