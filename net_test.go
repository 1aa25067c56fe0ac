package rgb

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/topology"
	"github.com/rgbproto/rgb/internal/wire"
)

// renderMembers renders a membership snapshot into a sorted,
// runtime-independent form for equivalence comparison.
func renderMembers(members []MemberInfo) []string {
	out := make([]string, 0, len(members))
	for _, m := range members {
		out = append(out, fmt.Sprintf("%s@%s[%v]", m.GUID, m.AP, m.Status))
	}
	sort.Strings(out)
	return out
}

// reservePorts binds n ephemeral loopback UDP ports and releases them,
// returning their addresses. The tiny release-to-rebind window is
// acceptable on loopback.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := range addrs {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs
}

// subtreeOwners is the slot of every entity of an (h, r) hierarchy
// spread over n processes: the partition WithCluster computes.
func subtreeOwners(h, r, n int) map[NodeID]int {
	return topology.NewRingHierarchy(h, r).SubtreeOwners(n)
}

// slot0APs lists the access proxies that process 0 of an n-process
// deployment hosts. A scenario meant to run unchanged on deployments of
// different widths submits every change there, on process 0, so its
// changes enter through the same process at every width. Changes that
// enter through every process are Trap 2's script
// (internal/core/trap_test.go).
func slot0APs(svc *Service, n int) []NodeID {
	top := svc.Topology()
	owners := subtreeOwners(top.Levels, top.RingSize, n)
	var out []NodeID
	for _, ap := range svc.APs() {
		if owners[ap] == 0 {
			out = append(out, ap)
		}
	}
	return out
}

// listenProcs starts an n-process networked deployment of one group
// inside this process: n Listen services on loopback UDP.
func listenProcs(t *testing.T, n int, opts ...Option) []*Service {
	t.Helper()
	addrs := reservePorts(t, n)
	procs := make([]*Service, n)
	for i := range procs {
		svc, err := Listen(addrs[i], append(opts[:len(opts):len(opts)], WithCluster(i, addrs...))...)
		if err != nil {
			t.Fatalf("Listen[%d]: %v", i, err)
		}
		t.Cleanup(func() { svc.Close() })
		procs[i] = svc
	}
	return procs
}

// joinOnProcessZero joins members 1..n through process 0 of a networked
// deployment, round-robin over the access proxies it hosts, one at a
// time: each join has committed, as process 1's Watch shows, before the
// next is submitted (benchmark/README.md "Traps").
func joinOnProcessZero(t *testing.T, procs []*Service, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := procs[1].Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	aps := slot0APs(procs[0], len(procs))
	for g := 1; g <= n; g++ {
		if err := procs[0].JoinAt(ctx, GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
		timeout := time.After(10 * time.Second)
		for seen := false; !seen; {
			select {
			case ev := <-events:
				seen = ev.Member.GUID == GUID(g)
			case <-timeout:
				t.Fatalf("join %d never reached process 1", g)
			}
		}
	}
}

// simProcs opens one group as n Services on one simulator, the way n
// processes would host it: Service i is slot i of subtreeOwners, placed
// with core.Place, its System built on the shared simulator and wrapped
// in a one-group cluster of its own. They share the simulator's clock
// and transport counters, so Settle on any of them runs them all.
func simProcs(t *testing.T, n int, opts ...Option) []*Service {
	t.Helper()
	o, err := parseOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := simnet.NewSimRuntime(o.cfg.Latency, o.cfg.Seed)
	owners := subtreeOwners(o.cfg.H, o.cfg.R, n)
	procs := make([]*Service, n)
	for slot := range procs {
		po := o
		core.Place(&po.cfg, owners, slot)
		c, err := newCluster(po, true)
		if err != nil {
			t.Fatal(err)
		}
		svc := newService(c, po.cfg.GID, rt, core.NewSystemOn(po.cfg, rt), &po)
		c.groups[svc.gid] = svc
		t.Cleanup(func() { svc.Close() })
		procs[slot] = svc
	}
	return procs
}

// awaitQuiet waits until the processes serving one group have gone
// quiet together: every message sent anywhere was delivered or dropped
// somewhere, and nothing moved for a few polls. Each process only sees
// its own quiescence, so Settle alone cannot tell. It does not hold
// under injected faults, which duplicate deliveries.
func awaitQuiet(t *testing.T, procs []*Service) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last Stats
	for calm := 0; calm < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("deployment did not go quiet within 15s: %+v", last)
		}
		time.Sleep(20 * time.Millisecond)
		sum := sumStats(procs)
		if sum.Sent == sum.Delivered+sum.Dropped && sum == last {
			calm++
		} else {
			calm, last = 0, sum
		}
	}
}

// sumStats adds up the transport counters of one group's processes.
func sumStats(procs []*Service) Stats {
	var sum Stats
	for _, p := range procs {
		st := p.Stats()
		sum.Sent += st.Sent
		sum.Delivered += st.Delivered
		sum.Dropped += st.Dropped
		for k, n := range st.ByKind {
			sum.ByKind[k] += n
		}
	}
	return sum
}

// netStatsOf returns the wire-level counters of a networked service's
// socket.
func netStatsOf(t *testing.T, svc *Service) NetStats {
	t.Helper()
	ns, ok := svc.Cluster().NetStats()
	if !ok {
		t.Fatal("NetStats: not a networked service")
	}
	return ns
}

// assertDatagramsFlowed fails unless every process received datagrams
// from its peers and decoded all of them: a networked run proves the
// codec only on hops that really crossed a socket.
func assertDatagramsFlowed(t *testing.T, procs []*Service) {
	t.Helper()
	for i, svc := range procs {
		ns := netStatsOf(t, svc)
		if ns.Received == 0 {
			t.Fatalf("proc %d exchanged no datagrams", i)
		}
		if ns.DecodeErrors != 0 || ns.UnknownVersion != 0 {
			t.Fatalf("proc %d wire errors: %+v", i, ns)
		}
	}
}

// netScenario drives the shared equivalence script on svc, entering at
// the given access proxies: joins, a handoff, a leave and a failure,
// settling between phases.
func netScenario(t *testing.T, svc *Service, aps []NodeID, settle func()) []string {
	t.Helper()
	ctx := context.Background()
	for g := 1; g <= 8; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[(g*3)%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
	}
	settle()
	if err := svc.Handoff(ctx, GUID(2), aps[0]); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if err := svc.Leave(ctx, GUID(3)); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := svc.Fail(ctx, GUID(4)); err != nil {
		t.Fatalf("fail: %v", err)
	}
	settle()
	members, err := svc.Members(ctx)
	if err != nil {
		t.Fatalf("members: %v", err)
	}
	return renderMembers(members)
}

// settleOf adapts Service.Settle to netScenario.
func settleOf(t *testing.T, svc *Service) func() {
	return func() {
		t.Helper()
		if err := svc.Settle(context.Background()); err != nil {
			t.Fatalf("settle: %v", err)
		}
	}
}

// TestCrossRuntimeEquivalenceNet is the acceptance check of the wire
// redesign: the same scenario driven through the deterministic
// simulator and through a three-process networked deployment on
// loopback UDP — where every hop between two processes crosses a real
// socket through the wire codec — converges to the identical
// membership.
func TestCrossRuntimeEquivalenceNet(t *testing.T) {
	sim := openTest(t, WithHierarchy(2, 4), WithSeed(9))
	aps := slot0APs(sim, 3)
	simMembers := netScenario(t, sim, aps, settleOf(t, sim))

	procs := listenProcs(t, 3, WithHierarchy(2, 4), WithSeed(9))
	netMembers := netScenario(t, procs[0], aps, func() { awaitQuiet(t, procs) })

	if len(simMembers) == 0 {
		t.Fatal("scenario left no members — not a meaningful equivalence check")
	}
	if !reflect.DeepEqual(simMembers, netMembers) {
		t.Fatalf("membership diverged across runtimes:\nsim: %v\nnet: %v", simMembers, netMembers)
	}
	// The equivalence only means something if the datagrams really
	// flowed and decoded cleanly.
	assertDatagramsFlowed(t, procs)
}

// TestListenerCountInvariance is the msgs-per-op identity: how many
// processes a deployment is spread over decides which hops become
// datagrams, never how many hops there are. The same changes, one at a
// time, on one listener and on three end with the identical membership
// and the identical delivery counts, total and per kind.
func TestListenerCountInvariance(t *testing.T) {
	ctx := context.Background()
	run := func(n int) ([]string, Stats) {
		procs := listenProcs(t, n, WithHierarchy(2, 3), WithSeed(5))
		svc, aps := procs[0], slot0APs(procs[0], 3)
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%d listeners, %s: %v", n, what, err)
			}
			awaitQuiet(t, procs)
		}
		step("join 1", svc.JoinAt(ctx, GUID(1), aps[0]))
		step("join 2", svc.JoinAt(ctx, GUID(2), aps[1]))
		step("join 3", svc.JoinAt(ctx, GUID(3), aps[2]))
		step("handoff 1", svc.Handoff(ctx, GUID(1), aps[1]))
		step("leave 2", svc.Leave(ctx, GUID(2)))
		step("fail 3", svc.Fail(ctx, GUID(3)))
		members, err := svc.Members(ctx)
		if err != nil {
			t.Fatalf("%d listeners, members: %v", n, err)
		}
		switch {
		case n > 1:
			assertDatagramsFlowed(t, procs)
		case n == 1:
			if ns := netStatsOf(t, svc); ns.Received != 0 {
				t.Fatalf("a lone listener sent itself %d datagrams", ns.Received)
			}
		}
		return renderMembers(members), sumStats(procs)
	}
	oneMembers, one := run(1)
	threeMembers, three := run(3)
	if len(oneMembers) == 0 || one.Delivered == 0 {
		t.Fatalf("scenario too weak: members %v, stats %+v", oneMembers, one)
	}
	if !reflect.DeepEqual(oneMembers, threeMembers) {
		t.Fatalf("membership differs with the listener count:\n1: %v\n3: %v", oneMembers, threeMembers)
	}
	if one.Delivered != three.Delivered || one.ByKind != three.ByKind {
		t.Fatalf("delivery counts differ with the listener count:\n1: %+v\n3: %+v", one, three)
	}
}

// clusterSettle polls all cluster members until pred holds (each
// process only sees local quiescence, so convergence is awaited
// explicitly).
func clusterSettle(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("cluster did not converge within 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestThreeListenerCluster forms one hierarchy from three networked
// Services (the in-process equivalent of three rgbnode processes),
// drives joins and a leave from different members, and asserts every
// process converges to the same membership via queries.
func TestThreeListenerCluster(t *testing.T) {
	ctx := context.Background()
	procs := listenProcs(t, 3, WithHierarchy(2, 3), WithSeed(7))

	// Every process derives the same topology; each drives joins at
	// access proxies it may or may not own.
	aps := procs[0].APs()
	want := map[GUID]bool{}
	for g := 1; g <= 6; g++ {
		owner := procs[g%3]
		if err := owner.JoinAt(ctx, GUID(g), aps[(g*2)%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
		want[GUID(g)] = true
	}
	// Operations on a member are submitted by the process that joined
	// it (that process holds the MH endpoint): GUID 5 joined via
	// procs[5%3].
	if err := procs[5%3].Leave(ctx, GUID(5)); err != nil {
		t.Fatalf("leave: %v", err)
	}
	delete(want, GUID(5))

	// Converged when every process's query (from an AP it owns or
	// not) returns exactly the expected member set.
	matches := func(svc *Service, entry NodeID) bool {
		res, err := svc.Query(ctx, entry)
		if err != nil {
			return false
		}
		got := map[GUID]bool{}
		for _, m := range res.Members {
			got[m.GUID] = true
		}
		return reflect.DeepEqual(got, want)
	}
	clusterSettle(t, func() bool {
		for i, svc := range procs {
			if !matches(svc, aps[i%len(aps)]) {
				return false
			}
		}
		return true
	})

	// The topmost-ring view must agree wherever a process hosts a
	// piece of it.
	for i, svc := range procs {
		members, err := svc.Members(ctx)
		if err != nil {
			t.Fatalf("members[%d]: %v", i, err)
		}
		got := map[GUID]bool{}
		for _, m := range members {
			if m.Status.Operational() {
				got[m.GUID] = true
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("proc %d top view = %v, want %v", i, got, want)
		}
	}

	// Cross-process traffic really happened on every node.
	assertDatagramsFlowed(t, procs)
}

// TestMetricsMultiProcess: Metrics works on every process of a
// multi-process deployment. Each process censuses the rings it hosts a
// piece of — here the topmost ring and its own AP ring — and skips the
// entities other processes host.
func TestMetricsMultiProcess(t *testing.T) {
	ctx := context.Background()
	procs := listenProcs(t, 3, WithHierarchy(2, 3), WithSeed(7))
	if err := procs[0].JoinAt(ctx, GUID(1), slot0APs(procs[0], 3)[0]); err != nil {
		t.Fatalf("join: %v", err)
	}
	awaitQuiet(t, procs)
	var rounds uint64
	for i, svc := range procs {
		m := svc.Metrics()
		if m.TotalRings != 2 || m.FunctionWellRings != 2 {
			t.Fatalf("proc %d: %d of %d hosted rings function well, want 2 of 2", i, m.FunctionWellRings, m.TotalRings)
		}
		rounds += m.Rounds
	}
	if rounds == 0 {
		t.Fatal("no token round completed anywhere")
	}
}

// TestObserverClientRoutesByBlock: a slotless observer, seeded from
// slot 1, is a client of a three-process deployment. It joins members at
// access proxies of every process and runs TMS and BMS queries entering
// at every process. Each reply reaches it from the process that built
// it, through the client slot its hellos announced, including those of
// processes its own traffic never crossed: every answer is exact and no
// process drops a frame for want of a route.
func TestObserverClientRoutesByBlock(t *testing.T) {
	ctx := context.Background()
	const n = 3
	addrs := reservePorts(t, n)
	procs := make([]*Service, n)
	for i := range procs {
		svc, err := Listen(addrs[i], WithHierarchy(2, 3), WithSeed(3), WithCluster(i, addrs...))
		if err != nil {
			t.Fatalf("Listen[%d]: %v", i, err)
		}
		t.Cleanup(func() { svc.Close() })
		procs[i] = svc
	}
	client, err := Listen("127.0.0.1:0", WithSeeds(addrs[1]))
	if err != nil {
		t.Fatalf("seed join: %v", err)
	}
	t.Cleanup(func() { client.Close() })

	// Two access proxies of every process.
	owners := subtreeOwners(2, 3, n)
	var entries []NodeID
	for slot := 0; slot < n; slot++ {
		taken := 0
		for _, ap := range client.APs() {
			if owners[ap] == slot && taken < 2 {
				entries = append(entries, ap)
				taken++
			}
		}
	}
	want := map[GUID]bool{}
	for i, ap := range entries {
		g := GUID(i + 1)
		if err := client.JoinAt(ctx, g, ap); err != nil {
			t.Fatalf("join %v at %v: %v", g, ap, err)
		}
		want[g] = true
	}
	exact := func(entry NodeID, scheme QueryScheme, replies int) error {
		res, err := client.QueryWith(ctx, entry, scheme)
		if err != nil {
			return err
		}
		got := map[GUID]bool{}
		for _, m := range res.Members {
			got[m.GUID] = true
		}
		if !reflect.DeepEqual(got, want) || len(res.Members) != len(want) || res.Replies != replies {
			return fmt.Errorf("%v at %v: %d members %v from %d replies, want %d from %d",
				scheme, entry, len(res.Members), got, res.Replies, len(want), replies)
		}
		return nil
	}
	clusterSettle(t, func() bool {
		for _, entry := range entries {
			if exact(entry, TMS(), 1) != nil || exact(entry, BMS(2), 3) != nil {
				return false
			}
		}
		return true
	})
	for _, entry := range entries {
		for _, q := range []struct {
			scheme  QueryScheme
			replies int
		}{{TMS(), 1}, {BMS(2), 3}} {
			if err := exact(entry, q.scheme, q.replies); err != nil {
				t.Error(err)
			}
		}
	}
	for i, svc := range append(procs, client) {
		if ns := netStatsOf(t, svc); ns.UnknownPeer != 0 {
			t.Errorf("process %d: %d frames or sends without a route", i, ns.UnknownPeer)
		}
	}
}

// TestSingleProcessServesObserverClient: a process that listens with no
// cluster, or with a cluster of one, runs the discovery plane all the
// same, so a slotless observer seeded from it bootstraps, joins members
// at its access proxies and queries them, and neither side drops a
// frame for want of a route.
func TestSingleProcessServesObserverClient(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		name    string
		cluster bool
	}{{"listen", false}, {"cluster-of-one", true}} {
		t.Run(row.name, func(t *testing.T) {
			addr := reservePorts(t, 1)[0]
			opts := []Option{WithHierarchy(2, 3), WithSeed(3)}
			if row.cluster {
				opts = append(opts, WithCluster(0, addr))
			}
			server, err := Listen(addr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { server.Close() })
			client, err := Listen("127.0.0.1:0", WithSeeds(addr))
			if err != nil {
				t.Fatalf("seed join: %v", err)
			}
			t.Cleanup(func() { client.Close() })

			aps := client.APs()
			want := map[GUID]bool{}
			for g := 1; g <= 3; g++ {
				if err := client.JoinAt(ctx, GUID(g), aps[g%len(aps)]); err != nil {
					t.Fatalf("join %d: %v", g, err)
				}
				want[GUID(g)] = true
			}
			exact := func(entry NodeID, scheme QueryScheme) bool {
				res, err := client.QueryWith(ctx, entry, scheme)
				if err != nil {
					return false
				}
				got := map[GUID]bool{}
				for _, m := range res.Members {
					got[m.GUID] = true
				}
				return reflect.DeepEqual(got, want) && len(res.Members) == len(want)
			}
			clusterSettle(t, func() bool { return exact(aps[0], TMS()) && exact(aps[len(aps)-1], BMS(2)) })
			for i, svc := range []*Service{server, client} {
				if ns := netStatsOf(t, svc); ns.UnknownPeer != 0 {
					t.Errorf("process %d: %d frames or sends without a route", i, ns.UnknownPeer)
				}
			}
		})
	}
}

// TestWithLossEmulatedOnLiveRuntime: on the real-time host the loss
// option is honored by emulation — messages actually drop. Loss reaches
// each group's transport only through NetMux.Open, the same way its
// seed does.
func TestWithLossEmulatedOnLiveRuntime(t *testing.T) {
	t.Run("listen", func(t *testing.T) {
		ctx := context.Background()
		svc, err := Listen("127.0.0.1:0", WithHierarchy(1, 3), WithSeed(5), withConfigEdit(func(cfg *core.Config) { cfg.Loss = 0.3 }))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		for g := 1; g <= 10; g++ {
			if _, err := svc.Join(ctx, GUID(g)); err != nil {
				t.Fatalf("join: %v", err)
			}
		}
		svc.Settle(ctx)
		if st := svc.Stats(); st.Dropped == 0 {
			t.Fatalf("no losses despite Loss 0.3: %+v", st)
		}
	})
}

// TestCollapsedEndpointSink: on a live runtime, once a member's leave
// commits its record is gone but its endpoint stays registered, so a
// Holder-Acknowledgement sent to it afterwards is delivered in process:
// nothing is dropped and nothing is refused for want of a route. The
// re-join takes the same endpoint at the next version.
func TestCollapsedEndpointSink(t *testing.T) {
	ctx := context.Background()
	c, err := ListenCluster("127.0.0.1:0", WithHierarchy(2, 3), WithSeed(5))
	if err != nil {
		t.Fatalf("ListenCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	svc, err := c.Open(NewGroupID(1))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	g, ap := GUID(9), svc.APs()[0]
	settle := func(err error) {
		t.Helper()
		if err == nil {
			err = svc.Settle(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	settle(svc.JoinAt(ctx, g, ap))
	var node NodeID
	var ver uint16
	svc.Inspect(func(sys *System) {
		m, _ := sys.Member(g)
		node = m.Node()
	})
	settle(svc.Leave(ctx, g))
	before, net0 := svc.Stats(), mustNetStats(t, c)
	svc.Inspect(func(sys *System) {
		if m, ok := sys.Member(g); ok {
			t.Errorf("the record of %s outlives its committed leave: %+v", g, m.MemberInfo)
		}
		sys.Transport().Send(runtime.Message{From: ap, To: node, Kind: runtime.KindAck, Body: &wire.HolderAck{Round: 1, Count: 1}})
	})
	settle(nil)
	after, net1 := svc.Stats(), mustNetStats(t, c)
	if after.Delivered != before.Delivered+1 || after.Dropped != before.Dropped || net1.UnknownPeer != net0.UnknownPeer {
		t.Errorf("a late Holder-Acknowledgement to %s: delivered %+d, dropped %+d, unknown peer %+d; want 1, 0, 0",
			node, after.Delivered-before.Delivered, after.Dropped-before.Dropped, net1.UnknownPeer-net0.UnknownPeer)
	}
	settle(svc.JoinAt(ctx, g, ap))
	svc.Inspect(func(sys *System) {
		m, ok := sys.Member(g)
		if !ok || m.Node() != node {
			t.Fatalf("the re-join of %s took %v, want endpoint %s", g, m, node)
		}
		ver = m.Ver
	})
	if ver != 3 {
		t.Errorf("the re-join of %s is at v%d, want v3: past its join and leave", g, ver)
	}
}

func mustNetStats(t *testing.T, c *Cluster) NetStats {
	t.Helper()
	ns, ok := c.NetStats()
	if !ok {
		t.Fatal("a listening cluster has no NetStats")
	}
	return ns
}
