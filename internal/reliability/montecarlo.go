// Package reliability validates the paper's §5.2 reliability analysis
// empirically: it injects independent node faults into the ring-based
// hierarchy built by the topology package and classifies every ring by
// the paper's counting rule (a single faulty node in a ring is repaired
// locally; two or more faults partition the ring). It counts
// partitioned rings and estimates the Function-Well probability of the
// hierarchy by Monte Carlo. The estimates are compared against
// formula (8).
package reliability

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/analytic"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/topology"
)

// TrialOutcome summarizes one fault-injection trial over the full
// hierarchy.
type TrialOutcome struct {
	FaultyNodes      int // nodes drawn faulty
	RepairedRings    int // rings with exactly one fault (locally repaired)
	PartitionedRings int // rings with >= 2 faults
}

// Estimator runs Monte-Carlo fault injection over a fixed hierarchy.
type Estimator struct {
	hier  *topology.RingHierarchy
	rings []*ring.Ring
	nodes []ids.NodeID
	rng   *mathx.RNG
	// faulty is reused across trials to avoid per-trial allocation.
	faulty map[ids.NodeID]bool
}

// NewEstimator builds an estimator over the full (h, r) hierarchy.
func NewEstimator(h, r int, seed uint64) *Estimator {
	hier := topology.NewRingHierarchy(h, r)
	return &Estimator{
		hier:   hier,
		rings:  hier.Rings(),
		nodes:  hier.AllNodes(),
		rng:    mathx.NewRNG(seed),
		faulty: make(map[ids.NodeID]bool, len(hier.AllNodes())/8+1),
	}
}

// Trial samples one independent fault assignment with node fault
// probability f and classifies every ring.
func (e *Estimator) Trial(f float64) TrialOutcome {
	for k := range e.faulty {
		delete(e.faulty, k)
	}
	var out TrialOutcome
	for _, n := range e.nodes {
		if e.rng.Bernoulli(f) {
			e.faulty[n] = true
			out.FaultyNodes++
		}
	}
	for _, rg := range e.rings {
		switch c := rg.FaultyCount(e.faulty); {
		case c == 1:
			out.RepairedRings++
		case c >= 2:
			out.PartitionedRings++
		}
	}
	return out
}

// Result is a Monte-Carlo Function-Well estimate for one (f, k) cell.
type Result struct {
	H, R   int
	F      float64
	K      int
	Trials int
	FW     float64 // point estimate
	Lo, Hi float64 // 95% Wilson interval
	// PartitionHist[i] counts trials with exactly i partitioned rings
	// (the tail is folded into the last bucket).
	PartitionHist []int
	// MeanRepaired is the average number of locally repaired rings per
	// trial — protocol work that the analytic model treats as free.
	MeanRepaired float64
}

// Analytic returns formula (8) for the same cell.
func (r Result) Analytic() float64 {
	return analytic.ProbFWHierarchy(r.H, r.R, r.F, r.K)
}

// WithinCI reports whether the analytic value lies inside the 95%
// confidence interval of the estimate.
func (r Result) WithinCI() bool {
	a := r.Analytic()
	return a >= r.Lo && a <= r.Hi
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("h=%d r=%d f=%.3f k=%d: fw=%.5f [%.5f,%.5f] (analytic %.5f, %d trials)",
		r.H, r.R, r.F, r.K, r.FW, r.Lo, r.Hi, r.Analytic(), r.Trials)
}

// Estimate runs the given number of trials at fault probability f and
// evaluates the Function-Well frequency for every k in ks. Sharing
// trials across the k values mirrors how the paper derives the k
// columns of Table II from one fault model.
func (e *Estimator) Estimate(f float64, ks []int, trials int) []Result {
	if trials <= 0 {
		panic("reliability: non-positive trial count")
	}
	const histCap = 16
	hist := make([]int, histCap)
	sumRepaired := 0
	for i := 0; i < trials; i++ {
		out := e.Trial(f)
		b := out.PartitionedRings
		if b >= histCap {
			b = histCap - 1
		}
		hist[b]++
		sumRepaired += out.RepairedRings
	}
	results := make([]Result, 0, len(ks))
	for _, k := range ks {
		successes := 0
		for i := 0; i < k && i < histCap; i++ {
			successes += hist[i]
		}
		lo, hi := mathx.WilsonInterval(successes, trials, 1.96)
		histCopy := make([]int, histCap)
		copy(histCopy, hist)
		results = append(results, Result{
			H: e.hier.H, R: e.hier.R, F: f, K: k,
			Trials:        trials,
			FW:            float64(successes) / float64(trials),
			Lo:            lo,
			Hi:            hi,
			PartitionHist: histCopy,
			MeanRepaired:  float64(sumRepaired) / float64(trials),
		})
	}
	return results
}

// TableIICell runs the Monte-Carlo estimate for one Table II cell.
func TableIICell(h, r int, f float64, k, trials int, seed uint64) Result {
	e := NewEstimator(h, r, seed)
	return e.Estimate(f, []int{k}, trials)[0]
}
