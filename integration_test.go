package rgb

// Integration tests crossing package boundaries: the simulated
// protocol against the analytic models, scenario replay against
// expected membership, and end-to-end consistency invariants.

import (
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/analytic"
	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/reliability"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/tree"
)

// TestEndToEndTableIRingColumn replays every ring-side Table I
// configuration through the full protocol stack and checks the
// measured propagation cost against formula (6).
func TestEndToEndTableIRingColumn(t *testing.T) {
	rows := []struct{ h, r int }{{2, 5}, {3, 5}, {4, 5}, {2, 10}, {3, 10}, {4, 10}}
	for _, row := range rows {
		cfg := DefaultConfig(row.h, row.r)
		cfg.Latency = runtime.ConstantLatency(time.Millisecond)
		sys := core.NewSystem(cfg)
		got, err := sys.MeasureDisseminationHops(GUID(1), sys.APs()[0])
		if err != nil {
			t.Fatalf("MeasureDisseminationHops: %v", err)
		}
		want := uint64(analytic.HCNRing(row.h, row.r))
		if got != want {
			t.Errorf("h=%d r=%d: protocol measured %d hops, formula (6) says %d", row.h, row.r, got, want)
		}
	}
}

// TestEndToEndTableITreeColumn does the same for the tree baseline.
// The measured count equals formula (4) for h<=4 and is one hop lower
// at h=5 (see EXPERIMENTS.md).
func TestEndToEndTableITreeColumn(t *testing.T) {
	rows := []struct {
		h, r     int
		expected uint64
	}{
		{3, 5, 29}, {4, 5, 149}, {5, 5, 749}, {3, 10, 109}, {4, 10, 1099}, {5, 10, 10999},
	}
	for _, row := range rows {
		svc := tree.NewService(row.h, row.r, true, 1)
		got := svc.MeasureRound(GUID(1), svc.Tree().Leaves()[0]).FloodHops
		if got != row.expected {
			t.Errorf("h=%d r=%d: tree measured %d hops, want %d", row.h, row.r, got, row.expected)
		}
	}
}

// TestScenarioMembershipMatchesTraceExactly runs a combined
// churn+mobility+NE-failure scenario and requires the final global
// membership to equal the trace's expected survivors exactly.
func TestScenarioMembershipMatchesTraceExactly(t *testing.T) {
	cfg := DefaultConfig(3, 4)
	cfg.Latency = runtime.ConstantLatency(time.Millisecond)
	cfg.Seed = 7
	sys := core.NewSystem(cfg)
	churn := ChurnConfig{
		InitialMembers: 30,
		JoinRate:       1.0,
		LeaveRate:      0.5,
		FailRate:       0.1,
		Duration:       90 * time.Second,
		Seed:           7,
	}
	tr := ChurnOver(sys.APs(), churn, 1)
	grid := NewGridOver(sys.APs(), 60)
	wp := DefaultWaypointConfig(30)
	wp.Duration = churn.Duration
	wp.Seed = 7
	tr = WithMobility(tr, RandomWaypoint(grid, wp, 1))
	core.ApplyTrace(sys, tr)

	// Note: no NE crashes here — a member attached to a crashed AP
	// cannot deregister (its leave is lost with the AP), so exact
	// trace matching only holds on a live infrastructure. Crash
	// behaviour is covered by the core failure tests.
	sys.RunFor(churn.Duration + 30*time.Second)

	want := map[GUID]bool{}
	for _, g := range LiveAtEnd(tr) {
		want[g] = true
	}
	got := map[GUID]bool{}
	for _, m := range sys.GlobalMembership() {
		got[m.GUID] = true
	}
	for g := range want {
		if !got[g] {
			t.Errorf("member %d missing from final membership", g)
		}
	}
	for g := range got {
		if !want[g] {
			t.Errorf("member %d unexpectedly still in membership", g)
		}
	}
}

// TestQueryAgreesWithTopRingUnderChurn: after arbitrary churn, every
// query scheme returns exactly the top ring's view.
func TestQueryAgreesWithTopRingUnderChurn(t *testing.T) {
	cfg := DefaultConfig(3, 4)
	cfg.Latency = runtime.ConstantLatency(time.Millisecond)
	sys := core.NewSystem(cfg)
	tr := ChurnOver(sys.APs(), ChurnConfig{
		InitialMembers: 20, JoinRate: 1, LeaveRate: 0.7, Duration: time.Minute, Seed: 9,
	}, 1)
	core.ApplyTrace(sys, tr)
	sys.RunFor(2 * time.Minute)
	for level := 0; level < 3; level++ {
		res, err := sys.RunQuery(sys.APs()[level*7], IMS(level))
		if err != nil {
			t.Fatalf("RunQuery: %v", err)
		}
		if missing, extra := sys.VerifyQueryAnswer(res); missing != 0 || extra != 0 {
			t.Errorf("level %d query: missing=%d extra=%d", level, missing, extra)
		}
	}
}

// TestMonteCarloAgreesWithFormula8AtScale runs the protocol-free
// fault model over the real n=125 topology and compares with the
// analytic value at a high fault rate, where disagreement would be
// most visible.
func TestMonteCarloAgreesWithFormula8AtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo skipped in -short")
	}
	misses := 0
	for _, k := range []int{1, 2, 3} {
		cell := reliability.TableIICell(3, 5, 0.02, k, 40000, 11)
		if !cell.WithinCI() {
			misses++
			t.Logf("k=%d: analytic %.5f outside CI [%.5f, %.5f]", k, cell.Analytic(), cell.Lo, cell.Hi)
		}
	}
	// 95% intervals: tolerate a single boundary miss, not systematic
	// disagreement.
	if misses > 1 {
		t.Errorf("%d/3 cells outside their 95%% intervals", misses)
	}
}

// TestPathOnlyMaintainsTopAccuracy: in TMS maintenance mode the top
// ring still tracks every change exactly, even though lower rings are
// not refreshed.
func TestPathOnlyMaintainsTopAccuracy(t *testing.T) {
	cfg := DefaultConfig(3, 4)
	cfg.Latency = runtime.ConstantLatency(time.Millisecond)
	cfg.Dissemination = DisseminatePathOnly
	sys := core.NewSystem(cfg)
	aps := sys.APs()
	for g := 1; g <= 30; g++ {
		sys.JoinMemberAt(GUID(g), aps[(g*5)%len(aps)])
	}
	sys.Run()
	for g := 1; g <= 30; g += 2 {
		sys.HandoffMember(GUID(g), aps[(g*11)%len(aps)])
	}
	sys.Run()
	for g := 1; g <= 30; g += 3 {
		sys.LeaveMember(GUID(g))
	}
	sys.Run()
	want := 20
	if got := len(sys.GlobalMembership()); got != want {
		t.Fatalf("top-ring membership = %d, want %d", got, want)
	}
	// TMS queries stay exact in path-only mode.
	res, err := sys.RunQuery(aps[0], TMS())
	if err != nil {
		t.Fatalf("RunQuery: %v", err)
	}
	if missing, extra := sys.VerifyQueryAnswer(res); missing != 0 || extra != 0 {
		t.Fatalf("TMS in path-only mode: missing=%d extra=%d", missing, extra)
	}
}

// TestScaleH4R5 exercises the 625-AP hierarchy end to end (780
// entities, 156 rings) — the third Table I row — with live traffic.
func TestScaleH4R5(t *testing.T) {
	if testing.Short() {
		t.Skip("large hierarchy skipped in -short")
	}
	cfg := DefaultConfig(4, 5)
	cfg.Latency = runtime.ConstantLatency(time.Millisecond)
	sys := core.NewSystem(cfg)
	aps := sys.APs()
	for g := 1; g <= 50; g++ {
		sys.JoinMemberAt(GUID(g), aps[(g*13)%len(aps)])
	}
	sys.Run()
	if got := len(sys.GlobalMembership()); got != 50 {
		t.Fatalf("membership = %d, want 50", got)
	}
	if sys.RosterAgreement() != 0 {
		t.Fatal("roster divergence at scale")
	}
	ok, total := sys.FunctionWellRings()
	if ok != total {
		t.Fatalf("function-well census %d/%d", ok, total)
	}
}
