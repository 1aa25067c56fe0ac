package reliability

import (
	"math"
	"testing"

	"github.com/rgbproto/rgb/internal/analytic"
)

func TestTrialNoFaults(t *testing.T) {
	e := NewEstimator(3, 5, 1)
	out := e.Trial(0)
	if out.FaultyNodes != 0 || out.RepairedRings != 0 || out.PartitionedRings != 0 {
		t.Fatalf("outcome with f=0: %+v", out)
	}
}

func TestTrialAllFaults(t *testing.T) {
	e := NewEstimator(3, 5, 1)
	out := e.Trial(1)
	if out.FaultyNodes != len(e.nodes) {
		t.Fatalf("faulty = %d, want all %d", out.FaultyNodes, len(e.nodes))
	}
	if out.PartitionedRings != len(e.rings) {
		t.Fatalf("partitioned = %d, want all %d rings", out.PartitionedRings, len(e.rings))
	}
}

func TestTrialAccountingConsistency(t *testing.T) {
	e := NewEstimator(3, 5, 7)
	for i := 0; i < 200; i++ {
		out := e.Trial(0.05)
		if out.RepairedRings+out.PartitionedRings > len(e.rings) {
			t.Fatalf("ring classification overflow: %+v", out)
		}
		// Every partitioned ring needs >= 2 faults, every repaired ring
		// exactly 1, so faults >= repaired + 2*partitioned.
		if out.FaultyNodes < out.RepairedRings+2*out.PartitionedRings {
			t.Fatalf("fault conservation violated: %+v", out)
		}
	}
}

func TestEstimateMatchesAnalyticSmall(t *testing.T) {
	// h=2, r=5 keeps the trial cheap; 60k trials gives a tight CI.
	e := NewEstimator(2, 5, 42)
	results := e.Estimate(0.02, []int{1, 2, 3}, 60000)
	for _, res := range results {
		if !res.WithinCI() {
			t.Errorf("analytic %.5f outside MC interval: %s", res.Analytic(), res)
		}
		if res.FW < 0 || res.FW > 1 {
			t.Errorf("estimate out of range: %s", res)
		}
	}
	// Monotone in k on shared trials.
	if !(results[0].FW <= results[1].FW && results[1].FW <= results[2].FW) {
		t.Error("shared-trial estimates must be monotone in k")
	}
}

func TestEstimateMatchesAnalyticTableIILeft(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo at n=125 skipped in -short")
	}
	// Table II left half at its most partition-prone cell (f=2%).
	res := TableIICell(3, 5, 0.02, 1, 40000, 99)
	if !res.WithinCI() {
		t.Errorf("analytic %.5f outside MC interval: %s", res.Analytic(), res)
	}
	// The published value includes one extra ring factor and is
	// slightly lower; the MC estimate of formula (8) must sit above
	// the published value.
	published := analytic.ProbFWHierarchyPublished(3, 5, 0.02, 1)
	if res.FW <= published-0.02 {
		t.Errorf("MC %.5f far below published %.5f", res.FW, published)
	}
}

func TestPartitionHistogram(t *testing.T) {
	e := NewEstimator(2, 5, 5)
	results := e.Estimate(0.05, []int{1}, 20000)
	res := results[0]
	total := 0
	for _, c := range res.PartitionHist {
		total += c
	}
	if total != res.Trials {
		t.Fatalf("histogram total %d != trials %d", total, res.Trials)
	}
	// Expected partitioned rings per trial = tn * (1-t); at f=0.05,
	// r=5: 1-t = 1-(1.2)*(0.95)^4 ~ 0.0226; tn=6 -> ~0.14. Bucket 0
	// should dominate.
	if res.PartitionHist[0] < res.Trials/2 {
		t.Errorf("bucket 0 = %d, expected majority of %d", res.PartitionHist[0], res.Trials)
	}
}

func TestMeanRepairedReasonable(t *testing.T) {
	e := NewEstimator(2, 5, 11)
	res := e.Estimate(0.02, []int{1}, 30000)[0]
	// E[repaired rings] = tn * C(5,1) f (1-f)^4 = 6 * 5*0.02*0.98^4.
	want := 6 * 5 * 0.02 * math.Pow(0.98, 4)
	if math.Abs(res.MeanRepaired-want) > 0.05*want+0.01 {
		t.Errorf("MeanRepaired = %.4f, want ~%.4f", res.MeanRepaired, want)
	}
}

func TestDeterministicEstimates(t *testing.T) {
	a := TableIICell(2, 5, 0.02, 2, 5000, 123)
	b := TableIICell(2, 5, 0.02, 2, 5000, 123)
	if a.FW != b.FW {
		t.Fatalf("same seed, different estimates: %g vs %g", a.FW, b.FW)
	}
	c := TableIICell(2, 5, 0.02, 2, 5000, 124)
	if a.FW == c.FW {
		t.Log("different seeds produced identical estimates (possible but unlikely)")
	}
}

func TestMonteCarloTableIIGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II grid skipped in -short")
	}
	results := MonteCarloTableII(8000, 7)
	if len(results) != 18 {
		t.Fatalf("%d results, want 18", len(results))
	}
	misses := 0
	for _, res := range results {
		if !res.WithinCI() {
			misses++
			t.Logf("outside CI: %s", res)
		}
	}
	// With 18 cells at 95% intervals, allow a couple of boundary
	// misses but not systematic failure.
	if misses > 3 {
		t.Errorf("%d/18 cells outside their 95%% intervals", misses)
	}
}

func TestEstimatePanicsOnBadTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEstimator(2, 5, 1).Estimate(0.1, []int{1}, 0)
}
