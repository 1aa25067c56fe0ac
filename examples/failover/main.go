// Failover: inject network-entity crashes — the "frequent failure
// occurrence" challenge of the paper's introduction — and watch the
// protocol detect them by token retransmission, repair rings locally,
// elect new leaders, and finally split and merge a ring across a
// network cut (the §6 future-work extension). Repairs arrive on the
// Service's Watch stream; deep ring-state pokes use Service.Inspect.
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"time"

	"github.com/rgbproto/rgb"
)

func main() {
	svc, err := rgb.Open(
		rgb.WithHierarchy(2, 6), // 6 AP rings of 6, one top ring
		rgb.WithSeed(1),
		rgb.WithHeartbeat(2*time.Second),
	)
	if err != nil {
		panic(err)
	}
	defer svc.Close()
	ctx := context.Background()
	aps := svc.APs()

	events, err := svc.Watch(ctx)
	if err != nil {
		panic(err)
	}

	for g := 1; g <= 12; g++ {
		must(svc.JoinAt(ctx, rgb.GUID(g), aps[(g*5)%len(aps)]))
	}
	svc.Advance(5 * time.Second)
	members, _ := svc.Members(ctx)
	m := svc.Metrics()
	fmt.Printf("steady state: %d members, function-well rings: %d/%d\n\n",
		len(members), m.FunctionWellRings, m.TotalRings)

	// Crash a non-leader AP: heartbeat rounds detect it and the ring
	// repairs itself without losing any membership.
	var ring0 []rgb.NodeID
	svc.Inspect(func(sys *rgb.System) { ring0 = sys.Node(aps[0]).Roster() })
	victim := ring0[3]
	fmt.Printf("crashing %s (non-leader)...\n", victim)
	must(svc.Crash(ctx, victim))
	svc.Advance(10 * time.Second)
	svc.Inspect(func(sys *rgb.System) {
		fmt.Printf("repairs performed: %d; roster of %s now %v\n",
			len(sys.Repairs()), aps[0], sys.Node(aps[0]).Roster())
	})
	members, _ = svc.Members(ctx)
	fmt.Printf("membership preserved: %d members\n", len(members))
	// The Watch stream interleaves the joins with the repair; scan
	// forward to it.
repairScan:
	for {
		select {
		case ev := <-events:
			if ev.Kind == rgb.EventRepair {
				fmt.Printf("watch stream observed: %s\n\n", ev)
				break repairScan
			}
		default:
			fmt.Println()
			break repairScan
		}
	}

	// Crash the ring leader: the successor takes over and announces
	// itself to the parent. Ask a *surviving* member for its view —
	// the crashed leader's own state is stale by definition.
	var leader, witness rgb.NodeID
	svc.Inspect(func(sys *rgb.System) {
		leader = sys.Node(aps[0]).Leader()
		for _, id := range sys.Node(aps[0]).Roster() {
			if id != leader {
				witness = id
				break
			}
		}
	})
	fmt.Printf("crashing %s (ring leader)...\n", leader)
	must(svc.Crash(ctx, leader))
	svc.Advance(10 * time.Second)
	svc.Inspect(func(sys *rgb.System) {
		fmt.Printf("new leader per survivor %s: %s\n\n", witness, sys.Node(witness).Leader())
	})

	// The crashed entities come back and rejoin via NE-Join.
	fmt.Println("restoring both entities...")
	must(svc.Restore(ctx, victim))
	must(svc.Restore(ctx, leader))
	svc.Advance(10 * time.Second)
	svc.Inspect(func(sys *rgb.System) {
		fmt.Printf("roster after rejoin: %v\n\n", sys.Node(aps[0]).Roster())
	})

	// Network partition and heal (the §6 future-work extension) on the
	// supported Service surface. Partition only cuts the transport; the
	// protocol finds the cut through its own rounds, as a deployment
	// would. The near side holds the top ring's leader, whose heartbeat
	// rounds fail the far side out. The far side hears no round, so it
	// keeps its full roster until a change there starts a round of its
	// own, whose passes to the near side time out. After the heal the
	// leaders' merge probes reunite the fragments into one ring.
	var frag []rgb.NodeID
	var nearTop, farTop, farAP rgb.NodeID
	svc.Inspect(func(sys *rgb.System) {
		frag = sys.Hierarchy().OwnedBy(2, 1)
		cut := make(map[rgb.NodeID]bool, len(frag))
		for _, id := range frag {
			cut[id] = true
		}
		for _, id := range sys.Hierarchy().Rings()[0].Nodes() {
			if cut[id] {
				farTop = id
			} else {
				nearTop = id
			}
		}
		for _, ap := range aps {
			if cut[ap] {
				farAP = ap
				break
			}
		}
	})
	fmt.Printf("partitioning %d entities away from the deployment...\n", len(frag))
	must(svc.Partition(ctx, frag...))
	svc.Advance(10 * time.Second)
	svc.Inspect(func(sys *rgb.System) {
		fmt.Printf("during cut: near side roster %v\n", sys.Node(nearTop).Roster())
		fmt.Printf("during cut: far side, quiet, still %v\n", sys.Node(farTop).Roster())
	})
	fmt.Printf("joining a member at %s, on the far side...\n", farAP)
	must(svc.JoinAt(ctx, rgb.GUID(13), farAP))
	svc.Advance(10 * time.Second)
	svc.Inspect(func(sys *rgb.System) {
		fmt.Printf("during cut: far side roster  %v\n", sys.Node(farTop).Roster())
	})

	fmt.Println("healing the partition...")
	must(svc.Heal(ctx))
	svc.Advance(10 * time.Second)
	members, _ = svc.Members(ctx)
	svc.Inspect(func(sys *rgb.System) {
		fmt.Printf("after merge: roster %v, agreement disagreements: %d, %d members\n",
			sys.Node(nearTop).Roster(), sys.RosterAgreement(), len(members))
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
