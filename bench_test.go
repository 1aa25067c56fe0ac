// Benchmark harness regenerating the paper's evaluation:
//
//	BenchmarkTableI_Ring                          — Table I (E1): one
//	  membership change's propagation cost in the ring hierarchy; the
//	  hops/op metric is the table's HCN_Ring column (the tree column is
//	  internal/tree's BenchmarkTableI_Tree).
//	BenchmarkTableII_MonteCarlo                   — Table II (E2): the
//	  fw/op metric is the Function-Well probability estimate.
//	BenchmarkAblationDissemination                — E4: full vs
//	  path-only propagation.
//	BenchmarkAblationAggregation                  — E5: MQ aggregation
//	  on/off under bursty churn (ops/op = carried operations).
//	BenchmarkQuerySchemes                         — E6: TMS/IMS/BMS
//	  query cost (msgs/op).
//	BenchmarkHandoff                              — E7: handoff with
//	  and without neighbor lists.
//	BenchmarkRepair                               — E8: crash
//	  detection + local ring repair cycle.
//	BenchmarkTokenRound / BenchmarkMQInsert       — microbenchmarks of
//	  the two hot paths.
//
// Run: go test -bench=. -benchmem
package rgb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/reliability"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// fastConfig returns a quiet constant-latency configuration so hop
// counts are exact and rounds are cheap.
func fastConfig(h, r int) Config {
	cfg := DefaultConfig(h, r)
	cfg.Latency = runtime.ConstantLatency(time.Millisecond)
	return cfg
}

// BenchmarkTableI_Ring measures one full dissemination per iteration
// for every ring-side configuration of Table I. hops/op reproduces
// the HCN_Ring column (35, 185, 935, 120, 1220, 12220).
func BenchmarkTableI_Ring(b *testing.B) {
	for _, cfg := range []struct{ h, r int }{
		{2, 5}, {3, 5}, {4, 5}, {2, 10}, {3, 10}, {4, 10},
	} {
		name := fmt.Sprintf("n=%d/h=%d/r=%d", pow(cfg.r, cfg.h), cfg.h, cfg.r)
		b.Run(name, func(b *testing.B) {
			sys := core.NewSystem(fastConfig(cfg.h, cfg.r))
			ap := sys.APs()[0]
			var hops uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hops, _ = sys.MeasureDisseminationHops(GUID(i+1), ap)
			}
			b.ReportMetric(float64(hops), "hops/op")
		})
	}
}

// BenchmarkTableII_MonteCarlo estimates each Table II cell; fw/op is
// the Function-Well estimate (compare with the published percents).
func BenchmarkTableII_MonteCarlo(b *testing.B) {
	const trialsPerOp = 2000
	for _, cfg := range []struct {
		r int
		f float64
		k int
	}{
		{5, 0.001, 1}, {5, 0.005, 1}, {5, 0.02, 1}, {5, 0.02, 3},
		{10, 0.001, 1}, {10, 0.005, 1}, {10, 0.02, 1}, {10, 0.02, 3},
	} {
		name := fmt.Sprintf("n=%d/f=%.1f%%/k=%d", pow(cfg.r, 3), cfg.f*100, cfg.k)
		b.Run(name, func(b *testing.B) {
			est := reliability.NewEstimator(3, cfg.r, 7)
			var fw float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw = est.Estimate(cfg.f, []int{cfg.k}, trialsPerOp)[0].FW
			}
			b.ReportMetric(fw*100, "fw%")
			b.ReportMetric(trialsPerOp, "trials/op")
		})
	}
}

// BenchmarkAblationDissemination contrasts full dissemination (every
// ring; BMS-grade knowledge everywhere) with path-only propagation
// (TMS maintenance; the §6 efficiency remark).
func BenchmarkAblationDissemination(b *testing.B) {
	for _, mode := range []DisseminationMode{DisseminateFull, DisseminatePathOnly} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := fastConfig(3, 5)
			cfg.Dissemination = mode
			sys := core.NewSystem(cfg)
			ap := sys.APs()[0]
			var hops uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hops, _ = sys.MeasureDisseminationHops(GUID(i+1), ap)
			}
			b.ReportMetric(float64(hops), "hops/op")
		})
	}
}

// BenchmarkAblationAggregation drives a churn burst through one AP
// with the MQ aggregation on and off; ops/op counts the operations
// the token rounds actually carried.
func BenchmarkAblationAggregation(b *testing.B) {
	for _, aggregate := range []bool{true, false} {
		name := "aggregated"
		if !aggregate {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			cfg := fastConfig(2, 5)
			cfg.Aggregate = aggregate
			sys := core.NewSystem(cfg)
			ap := sys.APs()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A burst of 16 join/leave flips before the network
				// can start the round.
				g := GUID(i + 1)
				for j := 0; j < 8; j++ {
					sys.JoinMemberAt(g, ap)
					sys.LeaveMember(g)
				}
				sys.Run()
			}
			b.StopTimer()
			b.ReportMetric(float64(sys.OpsCarried())/float64(b.N), "ops/op")
		})
	}
}

// BenchmarkQuerySchemes measures Membership-Query cost per scheme
// (E6): msgs/op, the virtual latency and, at a small and a large
// population, the bytes a query allocates (-benchmem).
func BenchmarkQuerySchemes(b *testing.B) {
	for _, members := range []int{50, 1000} {
		sys := core.NewSystem(fastConfig(3, 5))
		aps := sys.APs()
		for g := 1; g <= members; g++ {
			sys.JoinMemberAt(GUID(g), aps[(g*7)%len(aps)])
		}
		sys.Run()
		for level := 0; level < 3; level++ {
			name := fmt.Sprintf("IMS-%d", level)
			if level == 0 {
				name = "TMS"
			}
			if level == 2 {
				name = "BMS"
			}
			b.Run(fmt.Sprintf("n=%d/%s", members, name), func(b *testing.B) {
				var msgs uint64
				var lat time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, _ := sys.RunQuery(aps[i%len(aps)], IMS(level))
					msgs = res.Messages
					lat = res.Latency
				}
				b.ReportMetric(float64(msgs), "msgs/op")
				b.ReportMetric(float64(lat.Microseconds()), "vlat_us/op")
			})
		}
	}
}

// BenchmarkHandoff measures a roam across neighboring cells with the
// ListOfNeighborMembers fast path on and off (E7); hit/op reports the
// fast-handoff hit rate.
func BenchmarkHandoff(b *testing.B) {
	for _, neighbors := range []bool{true, false} {
		name := "neighbor-lists"
		if !neighbors {
			name = "no-neighbor-lists"
		}
		b.Run(name, func(b *testing.B) {
			cfg := fastConfig(2, 5)
			cfg.NeighborLists = neighbors
			sys := core.NewSystem(cfg)
			ring0 := sys.Node(sys.APs()[0]).Roster()
			sys.JoinMemberAt(GUID(1), ring0[0])
			sys.Run()
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target := ring0[(i+1)%len(ring0)]
				if sys.FastHandoffHit(GUID(1), target) {
					hits++
				}
				sys.HandoffMember(GUID(1), target)
				sys.Run()
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
		})
	}
}

// BenchmarkRepair measures a full crash-detect-repair-rejoin cycle
// (E8): token retransmission timeout, local exclusion, convergence
// round, NE-Join readmission.
func BenchmarkRepair(b *testing.B) {
	cfg := fastConfig(2, 5)
	sys := core.NewSystem(cfg)
	apNode := sys.Node(sys.APs()[0])
	roster := apNode.Roster()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := roster[2]
		sys.CrashNE(victim)
		sys.JoinMemberAt(GUID(i+1), roster[0])
		sys.Run() // detection + repair + propagation
		sys.RestoreNE(victim)
		sys.Run() // rejoin
	}
	b.StopTimer()
	b.ReportMetric(float64(len(sys.Repairs()))/float64(b.N), "repairs/op")
}

// BenchmarkTokenRound measures one complete one-round token pass in a
// single ring of size r (the protocol's innermost loop).
func BenchmarkTokenRound(b *testing.B) {
	for _, r := range []int{5, 10, 25, 50} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			sys := core.NewSystem(fastConfig(1, r))
			ap := sys.APs()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.JoinMemberAt(GUID(i+1), ap)
				sys.Run()
			}
		})
	}
}

// BenchmarkClusterTokenRound measures aggregate one-round throughput
// of a multi-group cluster: G groups (each a full height-1, r=5
// hierarchy) sharded over GOMAXPROCS engine workers, all driving
// complete token rounds concurrently. The b.N rounds are split across
// the groups, so ops/s is the cluster's aggregate round throughput;
// with enough cores it scales near-linearly from groups=1 (one shard
// busy) to groups >= shards (all shards busy), because distinct shards
// share no protocol state. On a single-core host the sub-benchmarks
// collapse to the same throughput — the scaling claim is per core, and
// the shards metric records the worker count of the run.
func BenchmarkClusterTokenRound(b *testing.B) {
	for _, groups := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			c, err := NewCluster(WithHierarchy(1, 5), WithSeed(1),
				withConfigEdit(func(cfg *core.Config) { cfg.Latency = runtime.ConstantLatency(time.Millisecond) }))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			svcs := make([]*Service, groups)
			for i := range svcs {
				if svcs[i], err = c.Open(NewGroupID(uint32(i + 1))); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			var taken atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, svc := range svcs {
				wg.Add(1)
				go func(svc *Service) {
					defer wg.Done()
					aps := svc.APs()
					for g := 1; taken.Add(1) <= int64(b.N); g++ {
						if err := svc.JoinAt(ctx, GUID(g), aps[0]); err != nil {
							b.Error(err)
							return
						}
						if err := svc.Settle(ctx); err != nil {
							b.Error(err)
							return
						}
					}
				}(svc)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(c.Shards()), "shards")
		})
	}
}

// convergenceRounds drives `changes` joins into sys, spaced `spacing`
// of virtual time apart and round-robined over the first `spread`
// access proxies (a flash crowd arrives through a few ingress points,
// which is exactly where per-AP batching earns its keep), drains to
// quiescence, and returns the number of token rounds the burst cost.
// firstGUID keeps successive calls on one system from colliding.
func convergenceRounds(sys *System, firstGUID, changes, spread int, spacing time.Duration) uint64 {
	aps := sys.APs()
	start := sys.Rounds()
	for j := 0; j < changes; j++ {
		g := firstGUID + j
		sys.JoinMemberAt(GUID(g), aps[g%spread])
		sys.RunFor(spacing)
	}
	sys.Run()
	return sys.Rounds() - start
}

// BenchmarkViewChangeConvergence measures the PR-10 batching claim at
// paper scale: n=10000 entities (h=4, r=10, path-only dissemination)
// absorbing a 1% churn burst — 100 joins trickling in 5ms apart, the
// arrival pattern of a flash crowd. rounds/change is the convergence
// cost; the batched run must come in at least 5x under the unbatched
// one (TestViewChangeConvergenceGuard pins the ratio deterministically
// at smaller scale).
func BenchmarkViewChangeConvergence(b *testing.B) {
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{
		{"unbatched", 0},
		{"batched", 500 * time.Millisecond},
	} {
		b.Run("n=10000/churn=1%/"+tc.name, func(b *testing.B) {
			cfg := fastConfig(4, 10)
			cfg.Dissemination = DisseminatePathOnly
			cfg.BatchWindow = tc.window
			sys := core.NewSystem(cfg)
			const changes = 100
			var perChange float64
			next := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rounds := convergenceRounds(sys, next, changes, 4, 5*time.Millisecond)
				next += changes
				perChange = float64(rounds) / changes
			}
			b.ReportMetric(perChange, "rounds/change")
		})
	}
}

// TestViewChangeConvergenceGuard pins the batching win deterministically
// at a scale the regular test job can afford: the same churn-burst
// shape as BenchmarkViewChangeConvergence on h=3, r=5, where the
// batched run must cost at least 5x fewer token rounds per change than
// the unbatched one.
func TestViewChangeConvergenceGuard(t *testing.T) {
	const changes = 60
	run := func(window time.Duration) uint64 {
		cfg := fastConfig(3, 5)
		cfg.Dissemination = DisseminatePathOnly
		cfg.BatchWindow = window
		return convergenceRounds(core.NewSystem(cfg), 1, changes, 4, 5*time.Millisecond)
	}
	unbatched := run(0)
	batched := run(250 * time.Millisecond)
	if batched == 0 || unbatched == 0 {
		t.Fatalf("degenerate round counts: unbatched=%d batched=%d", unbatched, batched)
	}
	if ratio := float64(unbatched) / float64(batched); ratio < 5 {
		t.Errorf("batched convergence only %.1fx cheaper (unbatched %d rounds, batched %d rounds for %d changes), want >= 5x",
			ratio, unbatched, batched, changes)
	}
}

// BenchmarkMQInsert measures the aggregating queue's insert path.
func BenchmarkMQInsert(b *testing.B) {
	for _, aggregate := range []bool{true, false} {
		name := "aggregated"
		if !aggregate {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			q := mq.New(aggregate)
			ap := ids.MakeNodeID(ids.TierAP, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Insert(mq.Change{
					Op:     mq.OpMemberJoin,
					Member: ids.MemberInfo{GUID: ids.GUID(i % 64), AP: ap},
				})
				if i%128 == 127 {
					q.DrainBatch()
				}
			}
		})
	}
}

// BenchmarkHierarchyBuild measures deployment construction cost.
func BenchmarkHierarchyBuild(b *testing.B) {
	for _, cfg := range []struct{ h, r int }{{3, 5}, {3, 10}} {
		b.Run(fmt.Sprintf("h=%d/r=%d", cfg.h, cfg.r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := core.NewSystem(fastConfig(cfg.h, cfg.r))
				_ = sys
			}
		})
	}
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// --- Wire codec benchmarks -------------------------------------------
//
// BenchmarkWireEncode / BenchmarkWireDecode measure the message-plane
// codec per payload kind. The encode path is append-style with buffer
// reuse and must stay at 0 B/op — it runs once per datagram on every
// hop of a networked deployment.

// wireBenchToken builds a representative mid-round token: a batch of
// four aggregated operations circulating a five-entity ring.
func wireBenchToken() *token.Token {
	mk := func(i int) mq.Change {
		ap := ids.MakeNodeID(ids.TierAP, i)
		return mq.Change{
			Op:      mq.OpMemberJoin,
			Member:  ids.MemberInfo{GID: ids.NewGroupID(1), GUID: ids.GUID(100 + i), LUID: ids.LUID{AP: ap, Local: 1}, AP: ap},
			ReplyTo: ids.MakeNodeID(ids.TierMH, i),
		}
	}
	route := make([]ids.NodeID, 5)
	for i := range route {
		route[i] = ids.MakeNodeID(ids.TierAP, i)
	}
	return &token.Token{
		Ring:         ring.ID{Tier: ids.TierAP, Index: 3},
		Holder:       route[0],
		Round:        42,
		Ops:          mq.Batch{mk(0), mk(1), mk(2), mk(3)},
		Dir:          token.FromLocal,
		Route:        route,
		Contributors: route[:2],
	}
}

// wireBenchPayloads covers the protocol's hot payload kinds: the five
// bodies of a ring round (token, notification and the three
// acknowledgements, pointer payloads but the token message) and the
// member change and query reply.
func wireBenchPayloads() []struct {
	name string
	p    wire.Payload
} {
	ap := ids.MakeNodeID(ids.TierAP, 1)
	members := make([]ids.MemberInfo, 8)
	for i := range members {
		members[i] = ids.MemberInfo{GID: ids.NewGroupID(1), GUID: ids.GUID(i + 1), AP: ap}
	}
	return []struct {
		name string
		p    wire.Payload
	}{
		{"token", wire.TokenMsg{Tok: wireBenchToken()}},
		{"member-change", wire.MemberChange{Op: mq.OpMemberJoin, Member: members[0]}},
		{"notify", &wire.Notify{Batch: mq.Batch{{Op: mq.OpMemberJoin, Member: members[1]}}, From: ring.ID{Tier: ids.TierAP, Index: 1}, Up: true, Seq: 7}},
		{"notify-ack", &wire.NotifyAck{Seq: 7}},
		{"pass-ack", &wire.PassAck{Holder: ap, Round: 42}},
		{"holder-ack", &wire.HolderAck{Ring: ring.ID{Tier: ids.TierAP, Index: 1}, Round: 42, Count: 1}},
		{"query-reply", wire.QueryReply{ID: 9, From: ring.ID{Tier: ids.TierBR}, Members: members}},
	}
}

// BenchmarkWireEncode: framed encode per payload kind. B/op must be 0
// (append-style with buffer reuse).
func BenchmarkWireEncode(b *testing.B) {
	from, to := ids.MakeNodeID(ids.TierAP, 0), ids.MakeNodeID(ids.TierAP, 1)
	for _, tc := range wireBenchPayloads() {
		b.Run(tc.name, func(b *testing.B) {
			buf := make([]byte, 0, 4096)
			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = wire.AppendFrame(buf[:0], wire.Frame{From: from, To: to, Class: 1, Payload: tc.p})
				size = len(buf)
			}
			b.ReportMetric(float64(size), "frameB/op")
		})
	}
}

// BenchmarkWireDecode: framed decode per payload kind (allocates the
// payload value — the receive-path cost of a networked hop).
func BenchmarkWireDecode(b *testing.B) {
	from, to := ids.MakeNodeID(ids.TierAP, 0), ids.MakeNodeID(ids.TierAP, 1)
	for _, tc := range wireBenchPayloads() {
		b.Run(tc.name, func(b *testing.B) {
			enc := wire.AppendFrame(nil, wire.Frame{From: from, To: to, Class: 1, Payload: tc.p})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeFrame(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
