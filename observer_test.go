package rgb

import (
	"context"
	"maps"
	"slices"
	"testing"
	"time"
)

// TestOneObserverFeedsWatchAndTelemetry: a Watch subscriber and the
// metrics registry hear one group's engine together, whichever of them
// is installed first and whether the group opens before or after the
// registry. A join through a batch window, beside a crashed ring-mate
// of its access proxy, reaches Watch as exactly one join and one
// repair; the registry counts the same join and repair, the one
// flushed batch and the join's rounds. Nothing is heard after Close.
func TestOneObserverFeedsWatchAndTelemetry(t *testing.T) {
	ctx := context.Background()
	type setup func(t *testing.T, opts []Option) (*Service, <-chan MembershipEvent, *Telemetry)
	watch := func(t *testing.T, svc *Service) <-chan MembershipEvent {
		t.Helper()
		events, err := svc.Watch(ctx)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		return events
	}
	orders := []struct {
		name  string
		setup setup
	}{
		{"watch-then-telemetry", func(t *testing.T, opts []Option) (*Service, <-chan MembershipEvent, *Telemetry) {
			svc := openTest(t, opts...)
			events := watch(t, svc)
			return svc, events, svc.Telemetry()
		}},
		{"telemetry-then-watch", func(t *testing.T, opts []Option) (*Service, <-chan MembershipEvent, *Telemetry) {
			svc := openTest(t, opts...)
			tel := svc.Telemetry()
			return svc, watch(t, svc), tel
		}},
		{"group-after-telemetry", func(t *testing.T, opts []Option) (*Service, <-chan MembershipEvent, *Telemetry) {
			c, err := NewCluster(append(opts, WithShards(1))...)
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			t.Cleanup(func() { c.Close() })
			tel := c.Telemetry()
			svc, err := c.Open(NewGroupID(1))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return svc, watch(t, svc), tel
		}},
	}
	for _, plane := range []struct {
		name string
		opts []Option
	}{{"sim", nil}, {"live", []Option{WithLiveRuntime()}}} {
		for _, order := range orders {
			t.Run(plane.name+"/"+order.name, func(t *testing.T) {
				opts := append([]Option{WithHierarchy(2, 4), WithSeed(5), WithBatchWindow(10 * time.Millisecond)}, plane.opts...)
				svc, events, tel := order.setup(t, opts)
				aps := svc.APs()
				var victim NodeID
				svc.Inspect(func(sys *System) { victim = sys.Node(aps[0]).Roster()[1] })
				for _, err := range []error{
					svc.Crash(ctx, victim),
					svc.JoinAt(ctx, GUID(1), aps[0]),
					svc.Settle(ctx),
				} {
					if err != nil {
						t.Fatal(err)
					}
				}
				gid := svc.Group().String()
				before := observedSeries(tel, gid)
				if err := svc.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}

				var heard []string
				for ev := range events { // Close closes the channel
					heard = append(heard, ev.Kind.String())
				}
				slices.Sort(heard)
				if want := []string{"join", "repair"}; !slices.Equal(heard, want) {
					t.Errorf("Watch heard %v, want %v", heard, want)
				}
				want := map[string]float64{
					`rgb_view_changes_total{kind="join"}`:                1,
					`rgb_view_change_latency_seconds_count{kind="join"}`: 1,
					`rgb_repair_gap_seconds_count`:                       1,
					`rgb_viewchange_batch_size_count`:                    1,
				}
				for name, v := range want {
					if before[name] != v {
						t.Errorf("%s = %v, want %v", name, before[name], v)
					}
				}
				// The join climbs both levels, one round at each.
				if rounds := before["rgb_round_duration_seconds_count"]; rounds < 2 {
					t.Errorf("rgb_round_duration_seconds_count = %v, want at least 2", rounds)
				}
				if after := observedSeries(tel, gid); !maps.Equal(after, before) {
					t.Errorf("series moved after Close:\nbefore %v\n after %v", before, after)
				}
			})
		}
	}
}

// observedSeries reads the group's stream-fed series from reg: the
// view-change counters and the four histograms' counts, keyed by name
// and kind.
func observedSeries(reg *Telemetry, gid string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Gather() {
		if s.Label("group") != gid {
			continue
		}
		switch s.Name {
		case "rgb_view_changes_total", "rgb_view_change_latency_seconds_count":
			out[s.Name+`{kind="`+s.Label("kind")+`"}`] = s.Value
		case "rgb_repair_gap_seconds_count", "rgb_viewchange_batch_size_count", "rgb_round_duration_seconds_count":
			out[s.Name] = s.Value
		}
	}
	return out
}
