package experiment

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/analytic"
	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/metrics"
	"github.com/rgbproto/rgb/internal/reliability"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/tree"
)

// TableICell pairs one Table I row with hop counts measured on the
// simulated hierarchies, plus the deviation of measurement from
// formula. DeviationRing is zero when the simulator reproduces
// formula (6) exactly; the tree side keeps the known one-hop
// discrepancy of the h=5 rows (see EXPERIMENTS.md).
type TableICell struct {
	Row           analytic.TableIRow `json:"row"`
	MeasuredRing  uint64             `json:"measured_ring"`
	MeasuredTree  uint64             `json:"measured_tree"`
	DeviationRing float64            `json:"deviation_ring"`
	DeviationTree float64            `json:"deviation_tree"`
}

// CompareTableI measures every Table I row on the simulated ring and
// tree hierarchies, one row per worker-pool job. Row order and values
// are independent of the worker count.
func CompareTableI(workers int, seed uint64) []TableICell {
	rows := analytic.TableI()
	out := make([]TableICell, len(rows))
	fanOut(len(rows), workers, func(i int) {
		row := rows[i]

		cfg := core.DefaultConfig(row.RingH, row.R)
		cfg.Seed = seed
		cfg.Latency = runtime.ConstantLatency(1_000_000)
		sys := core.NewSystem(cfg)
		ring, err := sys.MeasureDisseminationHops(ids.GUID(1), sys.APs()[0])
		if err != nil {
			panic(err) // Table I configurations are always valid
		}

		svc := tree.NewService(row.TreeH, row.R, true, seed)
		treeHops := svc.MeasureRound(ids.GUID(1), svc.Tree().Leaves()[0]).FloodHops

		out[i] = TableICell{
			Row:           row,
			MeasuredRing:  ring,
			MeasuredTree:  treeHops,
			DeviationRing: deviation(float64(ring), float64(row.HCNRing)),
			DeviationTree: deviation(float64(treeHops), float64(row.HCNTree)),
		}
	})
	return out
}

// TableIICell pairs one Table II row with its Monte-Carlo estimate
// over the real hierarchy and the deviations from formula (8) and
// from the published value.
type TableIICell struct {
	Row                analytic.TableIIRow `json:"row"`
	MC                 reliability.Result  `json:"mc"`
	DeviationFormula   float64             `json:"deviation_formula"`
	DeviationPublished float64             `json:"deviation_published"`
	WithinCI           bool                `json:"within_ci"`
}

// CompareTableII estimates every Table II cell by fault injection,
// one cell per worker-pool job. Each cell owns a fresh estimator
// seeded from (seed, cell index), so — unlike the shared-trials
// reliability.MonteCarloTableII — cells are independent and
// order-insensitive.
func CompareTableII(trials, workers int, seed uint64) []TableIICell {
	rows := analytic.TableII()
	out := make([]TableIICell, len(rows))
	fanOut(len(rows), workers, func(i int) {
		row := rows[i]
		mc := reliability.TableIICell(row.H, row.R, row.F, row.K, trials, runSeed(seed, i, 0))
		out[i] = TableIICell{
			Row:                row,
			MC:                 mc,
			DeviationFormula:   mc.FW - row.FW,
			DeviationPublished: mc.FW - row.FWPublished,
			WithinCI:           mc.WithinCI(),
		}
	})
	return out
}

// TableIText renders a Table I comparison as an aligned text table.
func TableIText(cells []TableICell) string {
	tb := metrics.NewTable("n", "r", "h(tree)", "HCN_Tree", "meas_Tree", "dev", "h(ring)", "HCN_Ring", "meas_Ring", "dev")
	for _, c := range cells {
		tb.AddRow(
			c.Row.N, c.Row.R,
			c.Row.TreeH, c.Row.HCNTree, c.MeasuredTree, fmt.Sprintf("%+.3f", c.DeviationTree),
			c.Row.RingH, c.Row.HCNRing, c.MeasuredRing, fmt.Sprintf("%+.3f", c.DeviationRing),
		)
	}
	return tb.String()
}

// TableIIText renders a Table II comparison as an aligned text table.
func TableIIText(cells []TableIICell) string {
	tb := metrics.NewTable("n", "f(%)", "k", "formula8(%)", "paper(%)", "MC(%)", "MC 95% CI", "inCI")
	for _, c := range cells {
		tb.AddRow(
			c.Row.N,
			fmt.Sprintf("%.1f", c.Row.F*100),
			c.Row.K,
			analytic.FWPercent(c.Row.FW),
			analytic.FWPercent(c.Row.FWPublished),
			analytic.FWPercent(c.MC.FW),
			fmt.Sprintf("[%.3f, %.3f]", c.MC.Lo*100, c.MC.Hi*100),
			c.WithinCI,
		)
	}
	return tb.String()
}

// deviation returns (measured − analytic) / analytic, the relative
// error of the simulation against the closed form.
func deviation(measured, analyticVal float64) float64 {
	if analyticVal == 0 {
		return 0
	}
	return (measured - analyticVal) / analyticVal
}
