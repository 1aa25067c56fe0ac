package rgb

import (
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/experiment"
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

// TestFacadeMonteCarlo: the Table II Monte-Carlo, reached through
// `rgbsweep -compare table2`, yields all 18 cells at the trial count
// asked for.
func TestFacadeMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo skipped in -short")
	}
	cells := experiment.CompareTableII(2000, 0, 3)
	if len(cells) != 18 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.MC.Trials != 2000 {
			t.Errorf("n=%d f=%g k=%d: %d trials, want 2000", c.Row.N, c.Row.F, c.Row.K, c.MC.Trials)
		}
	}
}
