package rgb

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/runtime"
)

// TestSeedBootstrapObserver: a process that knows nothing but one seed
// address — no hierarchy shape, no peer list, no slot — bootstraps into
// a running three-process deployment, adopts its topology, and drives
// joins and queries like any member.
func TestSeedBootstrapObserver(t *testing.T) {
	ctx := context.Background()
	addrs := reservePorts(t, 3)

	procs := make([]*Service, 3)
	for i := range procs {
		svc, err := Listen(addrs[i],
			WithHierarchy(2, 3), WithSeed(7),
			WithCluster(i, addrs...))
		if err != nil {
			t.Fatalf("Listen[%d]: %v", i, err)
		}
		t.Cleanup(func() { svc.Close() })
		procs[i] = svc
	}

	// The joiner is configured with one address and nothing else.
	joiner, err := Listen("127.0.0.1:0", WithSeeds(addrs[1]))
	if err != nil {
		t.Fatalf("seed join: %v", err)
	}
	t.Cleanup(func() { joiner.Close() })

	// It adopted the deployment's shape, not its own default.
	if top := joiner.Topology(); top.Levels != 2 || top.RingSize != 3 {
		t.Fatalf("adopted topology = %dx%d, want 2x3", top.Levels, top.RingSize)
	}
	// It claimed no slot: a pure observer owns no hierarchy entity.
	if owns := joiner.Config().Owns; owns == nil || owns(joiner.APs()[0]) {
		t.Fatal("slotless seed joiner owns hierarchy entities")
	}

	// Its peer table knows every deployment member.
	peers, ok := joiner.Cluster().Peers()
	if !ok {
		t.Fatal("no peer table on a seed-joined service")
	}
	up := 0
	for _, p := range peers {
		if p.Slot >= 0 && p.State == PeerUp {
			up++
		}
	}
	if up < 3 {
		t.Fatalf("joiner peer table has %d live slots, want 3: %+v", up, peers)
	}

	// The joiner drives membership like any process.
	aps := joiner.APs()
	want := map[GUID]bool{}
	for g := 1; g <= 4; g++ {
		if err := joiner.JoinAt(ctx, GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
		want[GUID(g)] = true
	}
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
		if !matches(joiner, aps[0]) {
			return false
		}
		for i, svc := range procs {
			if !matches(svc, aps[i%len(aps)]) {
				return false
			}
		}
		return true
	})

	// The static members learned the joiner through its hellos.
	clusterSettle(t, func() bool {
		for _, svc := range procs {
			if peers, _ := svc.Cluster().Peers(); len(peers) < 4 {
				return false
			}
		}
		return true
	})
	if ns := netStatsOf(t, joiner); ns.GossipFrames == 0 {
		t.Fatalf("joiner sent no discovery frames: %+v", ns)
	}
}

// TestSeedBootstrapClusterObserver: the multi-group container bootstraps
// the same way through ListenCluster, and surfaces the peer table on
// the Cluster itself.
func TestSeedBootstrapClusterObserver(t *testing.T) {
	ctx := context.Background()
	addrs := reservePorts(t, 2)

	procs := make([]*Cluster, 2)
	for i := range procs {
		c, err := ListenCluster(addrs[i],
			WithHierarchy(2, 2), WithSeed(5),
			WithCluster(i, addrs...))
		if err != nil {
			t.Fatalf("ListenCluster[%d]: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
		procs[i] = c
	}
	gid := NewGroupID(3)
	svcs := make([]*Service, 2)
	for i, c := range procs {
		svc, err := c.Open(gid)
		if err != nil {
			t.Fatalf("Open[%d]: %v", i, err)
		}
		svcs[i] = svc
	}

	joiner, err := ListenCluster("127.0.0.1:0", WithSeeds(addrs[0]))
	if err != nil {
		t.Fatalf("seed join: %v", err)
	}
	t.Cleanup(func() { joiner.Close() })
	jsvc, err := joiner.Open(gid)
	if err != nil {
		t.Fatalf("joiner Open: %v", err)
	}

	aps := jsvc.APs()
	if err := jsvc.JoinAt(ctx, GUID(1), aps[0]); err != nil {
		t.Fatalf("join: %v", err)
	}
	clusterSettle(t, func() bool {
		res, err := jsvc.Query(ctx, aps[0])
		return err == nil && len(res.Members) == 1
	})

	peers, ok := joiner.Peers()
	if !ok {
		t.Fatal("networked cluster reported no peer table")
	}
	up := 0
	for _, p := range peers {
		if p.Slot >= 0 && p.State == PeerUp {
			up++
		}
	}
	if up < 2 {
		t.Fatalf("joiner peer table has %d live slots, want 2: %+v", up, peers)
	}
	if _, ok := procs[0].Peers(); !ok {
		t.Fatal("static networked cluster reported no peer table")
	}
}

// TestSeedBootstrapNoSeedListening: bootstrap against a dead seed fails
// within the timeout instead of hanging.
func TestSeedBootstrapNoSeedListening(t *testing.T) {
	dead := reservePorts(t, 1)[0] // reserved then released: nobody answers
	start := time.Now()
	_, err := Listen("127.0.0.1:0",
		withNetConfig(runtime.NetConfig{BootstrapTimeout: 300 * time.Millisecond}),
		WithSeeds(dead))
	if err == nil {
		t.Fatal("bootstrap against a dead seed succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("bootstrap failure took %v, want ~300ms", time.Since(start))
	}
}

// TestSeedsWithClusterRejected: a static peer list needs no bootstrap —
// combining the two configuration styles is a loud error.
func TestSeedsWithClusterRejected(t *testing.T) {
	_, err := Listen("127.0.0.1:0",
		WithCluster(0, "127.0.0.1:7000", "127.0.0.1:7001"),
		WithSeeds("127.0.0.1:7000"))
	if !errors.Is(err, ErrBadCluster) {
		t.Fatalf("err = %v, want ErrBadCluster", err)
	}
}
