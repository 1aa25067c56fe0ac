// Conference: a video-conference group — one of the paper's
// motivating applications — with Poisson join/leave churn, member
// failures, and roaming attendees, on the full 4-tier hierarchy with
// realistic per-tier latencies, driven through the Service API. A
// Watch subscription counts committed changes while the scenario
// runs; the final consistency check compares against the trace's
// expected survivors.
//
//	go run ./examples/conference
package main

import (
	"context"
	"fmt"
	"time"

	"github.com/rgbproto/rgb"
)

func main() {
	svc, err := rgb.Open(rgb.WithHierarchy(3, 5), rgb.WithSeed(42)) // 125 APs under 5 ASs
	if err != nil {
		panic(err)
	}
	defer svc.Close()
	ctx := context.Background()

	churn := rgb.ChurnConfig{
		InitialMembers: 40,
		JoinRate:       0.8,
		LeaveRate:      0.4,
		FailRate:       0.05,
		Duration:       3 * time.Minute,
		Seed:           42,
	}
	aps := svc.APs()
	tr := rgb.ChurnOver(aps, churn, 1)

	// Attendees on the move: vehicles and pedestrians.
	grid := rgb.NewGridOver(aps, 80)
	wp := rgb.DefaultWaypointConfig(40)
	wp.Duration = churn.Duration
	wp.Seed = 42
	tr = rgb.WithMobility(tr, rgb.RandomWaypoint(grid, wp, 1))

	counts := tr.Counts()
	fmt.Printf("conference scenario: %d joins, %d leaves, %d failures, %d handoffs\n\n",
		counts[rgb.EvJoin], counts[rgb.EvLeave], counts[rgb.EvFail], counts[rgb.EvHandoff])

	events, err := svc.Watch(ctx)
	if err != nil {
		panic(err)
	}
	svc.ApplyTrace(tr)
	svc.Advance(churn.Duration + 30*time.Second)

	// Committed changes observed on the subscription stream.
	committed := map[rgb.MembershipEventKind]int{}
drain:
	for {
		select {
		case ev := <-events:
			committed[ev.Kind]++
		default:
			break drain
		}
	}
	fmt.Printf("committed events observed: %d joins, %d leaves, %d failures, %d handoffs\n",
		committed[rgb.EventJoin], committed[rgb.EventLeave],
		committed[rgb.EventFail], committed[rgb.EventHandoff])

	// Confirmation: members still in the group whose join was
	// acknowledged by a round holder (Holder-Acknowledgement back to
	// the MH). A departed member's record goes when its departure
	// commits, so members that left or failed are not counted.
	acked := 0
	svc.Inspect(func(sys *rgb.System) {
		for g := 1; g <= counts[rgb.EvJoin]; g++ {
			if m, ok := sys.Member(rgb.GUID(g)); ok && m.Acks() > 0 {
				acked++
			}
		}
	})
	fmt.Printf("members in the group acknowledged by holders: %d\n", acked)

	want := rgb.LiveAtEnd(tr)
	got, _ := svc.Members(ctx)
	fmt.Printf("final membership: %d (scenario expects %d)\n", len(got), len(want))

	// Spot check: every expected member is present with an AP.
	gotSet := map[rgb.GUID]rgb.NodeID{}
	for _, m := range got {
		gotSet[m.GUID] = m.AP
	}
	missing := 0
	for _, g := range want {
		if _, ok := gotSet[g]; !ok {
			missing++
		}
	}
	fmt.Printf("missing members: %d\n", missing)
}
