package rgb

import (
	"context"
	"reflect"
	"testing"

	rgbruntime "github.com/rgbproto/rgb/internal/runtime"
)

// TestFaultsNetworkedLiveGroup is the adversarial-network acceptance
// check: a live three-process loopback-UDP group runs with every
// message fault armed at 5% on every process — corrupt,
// duplicate/replay, misroute, reorder — and must still admit every
// member with zero panics. Each process's FaultStats prove every kind
// of fault fired, and no process saw a frame its codec rejected: a
// corrupted message that no longer decodes is dropped at the sender.
func TestFaultsNetworkedLiveGroup(t *testing.T) {
	ctx := context.Background()
	procs := listenProcs(t, 3, WithHierarchy(2, 4), WithSeed(7),
		WithFaults(FaultPlan{Seed: 7, Corrupt: 0.05, Duplicate: 0.05, Misroute: 0.05, Reorder: 0.05}))
	svc, aps := procs[0], slot0APs(procs[0], 3)

	const joins = 6
	for g := 1; g <= joins; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[(g*3)%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
	}
	// Retransmission must push every join through the fault gauntlet;
	// convergence is awaited rather than settled because a reordered
	// message can be held across the local quiescence point.
	clusterSettle(t, func() bool {
		members, err := svc.Members(ctx)
		return err == nil && len(members) == joins
	})

	var received uint64
	var faults FaultStats
	for i, p := range procs {
		ns := netStatsOf(t, p)
		if ns.DecodeErrors != 0 {
			t.Errorf("proc %d: %d frames failed to decode under fault injection", i, ns.DecodeErrors)
		}
		received += ns.Received
		fs := faultStatsOf(t, p)
		faults.Corrupted += fs.Corrupted
		faults.Duplicated += fs.Duplicated
		faults.Misrouted += fs.Misrouted
		faults.Reordered += fs.Reordered
	}
	if received == 0 {
		t.Fatal("faulted run exchanged no datagrams")
	}
	if faults.Corrupted == 0 || faults.Duplicated == 0 || faults.Misrouted == 0 || faults.Reordered == 0 {
		t.Fatalf("a fault kind never fired: %+v", faults)
	}
}

// faultStatsOf returns the counters of the one fault injector WithFaults
// installs on a service's runtime, whatever the substrate.
func faultStatsOf(t *testing.T, svc *Service) FaultStats {
	t.Helper()
	var (
		ft *rgbruntime.FaultTransport
		fs FaultStats
	)
	svc.rt.Do(func() {
		if ft, _ = svc.rt.Transport().(*rgbruntime.FaultTransport); ft != nil {
			fs = ft.FaultStats()
		}
	})
	if ft == nil {
		t.Fatalf("WithFaults did not install a fault transport (got %T)", svc.rt.Transport())
	}
	return fs
}

// gatheredFaults reads a service's rgb_faults_injected_total series back
// into a FaultStats.
func gatheredFaults(svc *Service) FaultStats {
	var fs FaultStats
	for _, s := range svc.Telemetry().Gather() {
		if s.Name != "rgb_faults_injected_total" {
			continue
		}
		n := uint64(s.Value)
		switch s.Label("kind") {
		case "corrupt":
			fs.Corrupted += n
		case "replay":
			fs.Duplicated += n
		case "misroute":
			fs.Misrouted += n
		case "reorder":
			fs.Reordered += n
		case "undecodable":
			fs.Undecodable += n
		}
	}
	return fs
}

// TestFaultsSimDeterminism: the fault injector draws from its own
// seeded RNG, so two simulated runs with the same seeds replay the
// identical faulted history — same event sequence, same final
// membership, same fault counters. It is the one injector on every
// substrate: the simulator, the in-process host and a Listen process
// each run the same FaultTransport, and its counters are what
// rgb_faults_injected_total reports.
func TestFaultsSimDeterminism(t *testing.T) {
	ctx := context.Background()
	type outcome struct {
		events  []string
		members []string
		faults  FaultStats
	}
	run := func(t *testing.T, open func(...Option) (*Service, error)) outcome {
		svc, err := open(WithHierarchy(2, 4), WithSeed(9),
			WithFaults(FaultPlan{Seed: 7, Corrupt: 0.02, Duplicate: 0.02, Misroute: 0.02, Reorder: 0.02}))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		events, err := svc.Watch(ctx)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		aps := svc.APs()
		for g := 1; g <= 8; g++ {
			must(svc.JoinAt(ctx, GUID(g), aps[(g*3)%len(aps)]))
		}
		must(svc.Settle(ctx))
		must(svc.Handoff(ctx, GUID(2), aps[0]))
		must(svc.Leave(ctx, GUID(3)))
		must(svc.Settle(ctx))

		var o outcome
	drain:
		for {
			select {
			case ev := <-events:
				o.events = append(o.events, ev.String())
			default:
				break drain
			}
		}
		members, err := svc.Members(ctx)
		if err != nil {
			t.Fatal(err)
		}
		o.members = renderMembers(members)
		o.faults = faultStatsOf(t, svc)
		if got := gatheredFaults(svc); got != o.faults {
			t.Fatalf("rgb_faults_injected_total = %+v, FaultStats = %+v", got, o.faults)
		}
		if total := o.faults.Corrupted + o.faults.Undecodable + o.faults.Duplicated +
			o.faults.Misrouted + o.faults.Reordered; total == 0 {
			t.Fatal("no faults were injected — the check is vacuous")
		}
		return o
	}

	for _, row := range []struct {
		name string
		open func(...Option) (*Service, error)
	}{
		{"simulator", Open},
		{"in-process", func(opts ...Option) (*Service, error) { return Open(append(opts, WithLiveRuntime())...) }},
		{"listen", func(opts ...Option) (*Service, error) { return Listen("127.0.0.1:0", opts...) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			a := run(t, row.open)
			if row.name != "simulator" {
				return // real timers: the schedule, and so the history, varies
			}
			if b := run(t, row.open); !reflect.DeepEqual(a, b) {
				t.Fatalf("faulted runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
			}
			if len(a.members) == 0 {
				t.Fatal("scenario left no members — not a meaningful check")
			}
		})
	}
}

// TestDuplicatedFrameIsNotAnotherRing: a BMS query waits for one reply
// per bottom ring. A replayed Query frame makes a ring answer twice and
// a replayed QueryReply delivers one answer twice; neither is another
// ring, so the answer must still hold every member and report exactly
// the rings there are. Counted per reply, 77 of these 200 answers came
// back short (as few as 24 of 54 members) while claiming Replies == 9.
func TestDuplicatedFrameIsNotAnotherRing(t *testing.T) {
	ctx := context.Background()
	const members, queries = 54, 10
	short := 0
	for seed := uint64(1); seed <= 20; seed++ {
		svc := openTest(t, WithHierarchy(3, 3), WithSeed(seed), WithFaults(FaultPlan{Seed: seed, Duplicate: 0.02}))
		aps := svc.APs()
		joinSettled(t, svc, members)
		for q := 0; q < queries; q++ {
			res, err := svc.QueryWith(ctx, aps[q%len(aps)], BMS(3))
			if err != nil {
				t.Fatalf("seed %d query %d: %v", seed, q, err)
			}
			if res.Replies != 9 {
				t.Errorf("seed %d query %d: Replies = %d, want 9", seed, q, res.Replies)
			}
			if len(res.Members) != members {
				short++
				t.Logf("seed %d query %d: %d of %d members from %d replies", seed, q, len(res.Members), members, res.Replies)
			}
		}
	}
	if short != 0 {
		t.Errorf("%d of %d answers short", short, 20*queries)
	}
}
