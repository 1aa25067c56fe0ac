package rgb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/runtime"
)

// clusterGroups returns n distinct group identities.
func clusterGroups(n int) []GroupID {
	out := make([]GroupID, n)
	for i := range out {
		out[i] = NewGroupID(uint32(i + 1))
	}
	return out
}

// clusterScenario drives one group through a script that varies with
// the group ordinal k (so per-group digests differ) and returns the
// group's sorted membership digest: joins, a handoff, a leave, a
// failure, settling between phases. Changes enter at access proxies
// that process 0 of a three-process deployment hosts, so the script
// runs unchanged on one process and on three.
func clusterScenario(t *testing.T, svc *Service, k int, settle func()) []string {
	t.Helper()
	ctx := context.Background()
	aps := slot0APs(svc, 3)
	n := 4 + k%3
	for g := 1; g <= n; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[(g*2+k)%len(aps)]); err != nil {
			t.Fatalf("group %d join %d: %v", k, g, err)
		}
	}
	settle()
	if err := svc.Handoff(ctx, GUID(1), aps[k%len(aps)]); err != nil {
		t.Fatalf("group %d handoff: %v", k, err)
	}
	if err := svc.Leave(ctx, GUID(2)); err != nil {
		t.Fatalf("group %d leave: %v", k, err)
	}
	if err := svc.Fail(ctx, GUID(3)); err != nil {
		t.Fatalf("group %d fail: %v", k, err)
	}
	settle()
	members, err := svc.Members(ctx)
	if err != nil {
		t.Fatalf("group %d members: %v", k, err)
	}
	return renderMembers(members)
}

// runClusterScenario opens every group on each cluster of one
// deployment (one cluster, or one per process of a networked one) and
// drives each group through its scenario on the first, returning
// per-group digests. Groups run concurrently — on a sharded cluster
// that exercises real parallelism across shards.
func runClusterScenario(t *testing.T, gids []GroupID, clusters ...*Cluster) map[GroupID][]string {
	t.Helper()
	digests := make(map[GroupID][]string, len(gids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k, gid := range gids {
		procs := make([]*Service, len(clusters))
		for i, c := range clusters {
			svc, err := c.Open(gid)
			if err != nil {
				t.Fatalf("Open(%v) on cluster %d: %v", gid, i, err)
			}
			procs[i] = svc
		}
		settle := settleOf(t, procs[0])
		if len(procs) > 1 {
			settle = func() { awaitQuiet(t, procs) }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := clusterScenario(t, procs[0], k, settle)
			mu.Lock()
			digests[gid] = d
			mu.Unlock()
		}()
	}
	wg.Wait()
	return digests
}

// TestClusterShardCountInvariance: the same seed produces identical
// per-group membership digests whatever the shard count — sharding is
// a parallelism knob, not a behaviour knob.
func TestClusterShardCountInvariance(t *testing.T) {
	gids := clusterGroups(8)
	run := func(shards int) map[GroupID][]string {
		c, err := NewCluster(WithHierarchy(2, 3), WithSeed(11), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := c.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		return runClusterScenario(t, gids, c)
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("digests differ across shard counts:\n1 shard:  %v\n4 shards: %v", one, four)
	}
	// The group scripts differ, so at least two groups must have
	// different digests — otherwise the invariance check is vacuous.
	distinct := map[string]bool{}
	for _, d := range one {
		distinct[fmt.Sprint(d)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all groups converged to identical digests — scenario too weak: %v", one)
	}
}

// TestClusterCrossRuntimeEquivalence is the acceptance check of the
// multi-group engine: the same 8-group scenario with the same seed,
// run on the sharded simulator, the shared live in-process plane, a
// three-process loopback-UDP networked cluster (every hop between two
// processes crossing their shared sockets with its group tag), and
// three Systems per group on one simulator (the processes without the
// sockets), must converge to identical per-group membership digests.
func TestClusterCrossRuntimeEquivalence(t *testing.T) {
	gids := clusterGroups(8)
	const seed = 17

	sim, err := NewCluster(WithHierarchy(2, 3), WithSeed(seed), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	simDigests := runClusterScenario(t, gids, sim)

	live, err := NewCluster(WithHierarchy(2, 3), WithSeed(seed), WithShards(4),
		WithLiveRuntime())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	liveDigests := runClusterScenario(t, gids, live)

	addrs := reservePorts(t, 3)
	netcs := make([]*Cluster, len(addrs))
	for i := range netcs {
		netcs[i], err = ListenCluster(addrs[i], WithHierarchy(2, 3), WithSeed(seed), WithShards(4),
			WithCluster(i, addrs...))
		if err != nil {
			t.Fatal(err)
		}
		defer netcs[i].Close()
	}
	netDigests := runClusterScenario(t, gids, netcs...)

	procsDigests := make(map[GroupID][]string, len(gids))
	for k, gid := range gids {
		procs := simProcs(t, 3, WithHierarchy(2, 3), WithSeed(seedForGroup(seed, gid)),
			withConfigEdit(func(cfg *core.Config) { cfg.GID = gid }))
		procsDigests[gid] = clusterScenario(t, procs[0], k, settleOf(t, procs[0]))
	}

	for _, gid := range gids {
		if len(simDigests[gid]) == 0 {
			t.Fatalf("group %v: empty sim digest — not a meaningful check", gid)
		}
		if !reflect.DeepEqual(simDigests[gid], liveDigests[gid]) {
			t.Errorf("group %v diverged sim vs live:\nsim:  %v\nlive: %v", gid, simDigests[gid], liveDigests[gid])
		}
		if !reflect.DeepEqual(simDigests[gid], netDigests[gid]) {
			t.Errorf("group %v diverged sim vs net:\nsim: %v\nnet: %v", gid, simDigests[gid], netDigests[gid])
		}
		if !reflect.DeepEqual(simDigests[gid], procsDigests[gid]) {
			t.Errorf("group %v diverged sim vs sim processes:\nsim:   %v\nprocs: %v", gid, simDigests[gid], procsDigests[gid])
		}
	}

	// The networked run only proves something if the group-tagged
	// datagrams really crossed the shared sockets and decoded cleanly.
	for i, netc := range netcs {
		ns, ok := netc.NetStats()
		if !ok {
			t.Fatalf("networked cluster %d reports no NetStats", i)
		}
		if ns.Received == 0 {
			t.Fatalf("networked cluster %d exchanged no datagrams", i)
		}
		if ns.DecodeErrors != 0 || ns.UnknownVersion != 0 || ns.UnknownGroup != 0 {
			t.Fatalf("cluster %d wire errors during equivalence run: %+v", i, ns)
		}
	}
}

// TestClusterOpenSemantics: Open is idempotent per group, groups are
// listed sorted, shard pinning is stable, and closing one group leaves
// the others running.
func TestClusterOpenSemantics(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(WithHierarchy(1, 3), WithSeed(3), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a, b := NewGroupID(7), NewGroupID(8)
	svcA, err := c.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := c.Open(a); err != nil || again != svcA {
		t.Fatalf("re-Open returned (%p, %v), want the original service %p", again, err, svcA)
	}
	if svcA.Group() != a {
		t.Fatalf("Group() = %v, want %v", svcA.Group(), a)
	}
	svcB, err := c.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Groups(); !reflect.DeepEqual(got, []GroupID{a, b}) {
		t.Fatalf("Groups() = %v, want [%v %v]", got, a, b)
	}
	if got, ok := c.Group(b); !ok || got != svcB {
		t.Fatalf("Group lookup failed: %v %v", got, ok)
	}
	if s1, s2 := c.ShardOf(a), c.ShardOf(a); s1 != s2 {
		t.Fatalf("ShardOf unstable: %d vs %d", s1, s2)
	}

	if err := svcA.Close(); err != nil {
		t.Fatalf("closing group A: %v", err)
	}
	if _, ok := c.Group(a); ok {
		t.Fatal("closed group still listed")
	}
	// Group B is unaffected.
	if _, err := svcB.Join(ctx, GUID(1)); err != nil {
		t.Fatalf("group B after closing A: %v", err)
	}
	if err := svcB.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	members, err := svcB.Members(ctx)
	if err != nil || len(members) != 1 {
		t.Fatalf("group B membership = %v, %v", members, err)
	}
	// A group can be reopened after closing (fresh state).
	if _, err := c.Open(a); err != nil {
		t.Fatalf("re-Open after close: %v", err)
	}
}

// TestClusterGroupReopenOnMux: closing one group of a shared-substrate
// cluster (live mux, net mux) must release its identity — the same
// GroupID reopens with fresh state and works, while sibling groups are
// untouched.
func TestClusterGroupReopenOnMux(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		mk   func() (*Cluster, error)
	}{
		{"live", func() (*Cluster, error) {
			return NewCluster(WithHierarchy(1, 3), WithSeed(4), WithShards(2),
				WithLiveRuntime())
		}},
		{"net", func() (*Cluster, error) {
			return ListenCluster("127.0.0.1:0", WithHierarchy(1, 3), WithSeed(4), WithShards(2))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			gid, sibling := NewGroupID(1), NewGroupID(2)
			svc, err := c.Open(gid)
			if err != nil {
				t.Fatal(err)
			}
			sib, err := c.Open(sibling)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Join(ctx, GUID(1)); err != nil {
				t.Fatal(err)
			}
			if err := svc.Settle(ctx); err != nil {
				t.Fatal(err)
			}
			if err := svc.Close(); err != nil {
				t.Fatalf("closing group: %v", err)
			}

			reopened, err := c.Open(gid)
			if err != nil {
				t.Fatalf("reopen after close: %v", err)
			}
			members, err := reopened.Members(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(members) != 0 {
				t.Fatalf("reopened group inherited state: %v", members)
			}
			if _, err := reopened.Join(ctx, GUID(9)); err != nil {
				t.Fatal(err)
			}
			if err := reopened.Settle(ctx); err != nil {
				t.Fatal(err)
			}
			members, err = reopened.Members(ctx)
			if err != nil || len(members) != 1 {
				t.Fatalf("reopened group membership = %v, %v", members, err)
			}
			// The sibling group kept working throughout.
			if _, err := sib.Join(ctx, GUID(5)); err != nil {
				t.Fatal(err)
			}
			if err := sib.Settle(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterClosedErrors: operations on a closed cluster fail with
// ErrClosed.
func TestClusterClosedErrors(t *testing.T) {
	c, err := NewCluster(WithHierarchy(1, 2), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.Open(NewGroupID(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after Close err = %v, want ErrClosed", err)
	}
}

// TestOpenIsOneGroupCluster: the standalone Open carries its group
// identity and keeps the exact caller seed (golden traces elsewhere
// depend on it) on every substrate, its cluster has one shard, and
// closing the Service releases the whole substrate — the UDP port
// re-binds and no goroutine is left behind. A cluster derives distinct
// per-group streams.
func TestOpenIsOneGroupCluster(t *testing.T) {
	addr := reservePorts(t, 1)[0]
	opts := []Option{WithHierarchy(1, 3), WithSeed(5), withConfigEdit(func(cfg *core.Config) { cfg.GID = NewGroupID(12) })}
	for name, open := range map[string]func() (*Service, error){
		"sim":  func() (*Service, error) { return Open(opts...) },
		"live": func() (*Service, error) { return Open(append(opts[:3:3], WithLiveRuntime())...) },
		"net":  func() (*Service, error) { return Listen(addr, opts...) },
	} {
		t.Run(name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			// Twice: the second Listen binds the port the first released.
			for pass := 0; pass < 2; pass++ {
				svc, err := open()
				if err != nil {
					t.Fatalf("open (pass %d): %v", pass, err)
				}
				if svc.Group() != NewGroupID(12) {
					t.Fatalf("Group() = %v", svc.Group())
				}
				if got := svc.Config().Seed; got != 5 {
					t.Fatalf("standalone Open changed the seed: %d", got)
				}
				if got := svc.Cluster().Shards(); got != 1 {
					t.Fatalf("Shards() = %d, want 1", got)
				}
				if err := svc.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for goruntime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before Open", goruntime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}

	c, err := NewCluster(WithHierarchy(1, 3), WithSeed(5), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g1, err := c.Open(NewGroupID(1))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Open(NewGroupID(2))
	if err != nil {
		t.Fatal(err)
	}
	if g1.Config().Seed == g2.Config().Seed {
		t.Fatal("cluster groups share one deterministic stream")
	}
}

// TestInProcessOpensNoSocketNoPumps: the in-process real-time host is
// the networked one without the socket — its only goroutines are the
// shard workers, however many endpoints a group registers (h=3 r=5 has
// 155) — and it keeps reporting "not networked".
func TestInProcessOpensNoSocketNoPumps(t *testing.T) {
	before := goruntime.NumGoroutine()
	c, err := NewCluster(WithHierarchy(3, 5), WithLiveRuntime(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc, err := c.Open(NewGroupID(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Join(context.Background(), GUID(1)); err != nil {
		t.Fatal(err)
	}
	// Polled: a firing timer borrows a goroutine for a moment.
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: want only the 2 shard workers added", goruntime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := c.LocalAddr(); ok {
		t.Error("LocalAddr reports a socket")
	}
	if _, ok := c.NetStats(); ok {
		t.Error("NetStats reports a socket")
	}
	if _, ok := c.Peers(); ok {
		t.Error("Peers reports a peer table")
	}
	if err := c.Block(1); !errors.Is(err, ErrOptionUnsupported) {
		t.Errorf("Block err = %v, want ErrOptionUnsupported", err)
	}
}

// TestEmptyBindIsNotInProcess: only WithLiveRuntime selects the
// socketless host; a networked option with no bind address stays an
// error instead of silently becoming an in-process group.
func TestEmptyBindIsNotInProcess(t *testing.T) {
	if _, err := Listen(""); !errors.Is(err, ErrBadCluster) {
		t.Errorf(`Listen("") err = %v, want ErrBadCluster`, err)
	}
	if _, err := Open(withNetConfig(runtime.NetConfig{})); !errors.Is(err, ErrBadCluster) {
		t.Errorf("a NetConfig with no Bind: err = %v, want ErrBadCluster", err)
	}
	if _, err := ListenCluster("", WithLiveRuntime()); !errors.Is(err, ErrBadCluster) {
		t.Errorf(`ListenCluster("", WithLiveRuntime()) err = %v, want ErrBadCluster`, err)
	}
}
