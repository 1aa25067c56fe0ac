package rgb

import (
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/runtime"
)

func TestFacadeQuickstart(t *testing.T) {
	sys := core.NewSystem(DefaultConfig(2, 5))
	sys.JoinMember(GUID(1))
	sys.JoinMember(GUID(2))
	sys.Run()
	if got := len(sys.GlobalMembership()); got != 2 {
		t.Fatalf("membership = %d, want 2", got)
	}
}

func TestFacadeTables(t *testing.T) {
	if len(TableI()) != 6 || len(TableII()) != 18 {
		t.Fatal("table shapes wrong")
	}
	if HCNRing(3, 5) != 185 || HCNTree(4, 5) != 149 {
		t.Fatal("HCN formulas wrong through facade")
	}
	if ProbFWRing(5, 0) != 1 {
		t.Fatal("ProbFWRing wrong")
	}
	if fw := ProbFWHierarchy(3, 10, 0.001, 1); fw < 0.99 || fw > 1 {
		t.Fatalf("ProbFWHierarchy = %g", fw)
	}
}

func TestFacadeQuery(t *testing.T) {
	sys := core.NewSystem(DefaultConfig(2, 5))
	sys.JoinMember(GUID(1))
	sys.Run()
	res, err := sys.RunQuery(sys.APs()[0], TMS())
	if err != nil {
		t.Fatalf("RunQuery: %v", err)
	}
	if len(res.Members) != 1 {
		t.Fatalf("TMS answer = %v", res.Members)
	}
	if BMS(2).Level != 1 || IMS(1).Level != 1 {
		t.Fatal("scheme constructors wrong")
	}
}

func TestFacadeScenario(t *testing.T) {
	cfg := DefaultConfig(2, 5)
	cfg.Latency = runtime.ConstantLatency(time.Millisecond)
	sys := core.NewSystem(cfg)
	churnCfg := DefaultChurnConfig()
	churnCfg.InitialMembers = 20
	churnCfg.Duration = 30 * time.Second
	tr := ChurnOver(sys.APs(), churnCfg, 1)
	grid := NewGridOver(sys.APs(), 100)
	wp := DefaultWaypointConfig(10)
	wp.Duration = 30 * time.Second
	tr = WithMobility(tr, RandomWaypoint(grid, wp, 1))
	core.ApplyTrace(sys, tr)
	sys.Run()
	want := LiveAtEnd(tr)
	got := sys.GlobalMembership()
	gotSet := map[GUID]bool{}
	for _, m := range got {
		gotSet[m.GUID] = true
	}
	for _, g := range want {
		if !gotSet[g] {
			t.Errorf("member %s missing from final membership", g)
		}
	}
	if len(got) != len(want) {
		t.Errorf("membership = %d, want %d", len(got), len(want))
	}
}

func TestFacadeMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo skipped in -short")
	}
	results := MonteCarloTableII(2000, 3)
	if len(results) != 18 {
		t.Fatalf("results = %d", len(results))
	}
}

func TestFacadeTreeBaseline(t *testing.T) {
	svc := NewTreeService(3, 5, true, 1)
	cost := svc.MeasureRound(GUID(1), svc.Tree().Leaves()[0])
	if cost.FloodHops != 29 {
		t.Fatalf("tree flood hops = %d, want 29", cost.FloodHops)
	}
}
