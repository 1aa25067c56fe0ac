package rgb

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"
)

// partitionGoldenDigests pins the end state of the partition/merge
// scenario per seed: the digest hashes the sorted authoritative
// membership plus the rotation-normalized topmost-ring roster after a
// cut, per-side joins, and a heal. Sharding is a parallelism knob, not
// a behaviour knob, so each seed's digest must match on every shard
// count. The seeds differ only in the top ring's cycle order. The cut
// is the transport's and the merge the protocol's, and after the heal
// the top ring passes through three fragments, [BR-0 BR-4],
// [BR-1 BR-3 BR-4] and [BR-2 BR-4]. A merge splices its joiners in
// right after the receiving leader, so whichever fragment the seed's
// latencies merge into BR-0 first ends up later in the cycle. Re-pin
// only for a deliberate protocol change (use the digest printed by the
// failure and call the change out in the PR).
var partitionGoldenDigests = map[uint64]string{
	1: "29548cb28a2303eddc7cd335e73718b69339041afd2f6454abe3784cce148c7f", // [BR-0 BR-2 BR-3 BR-1 BR-4]
	2: "d75f7a90928dc43c71258ba87b6e54847bbd36ac46ba6ebb7d158fa2860ec56c", // [BR-0 BR-3 BR-1 BR-2 BR-4]
	3: "d75f7a90928dc43c71258ba87b6e54847bbd36ac46ba6ebb7d158fa2860ec56c",
	4: "29548cb28a2303eddc7cd335e73718b69339041afd2f6454abe3784cce148c7f",
	5: "d75f7a90928dc43c71258ba87b6e54847bbd36ac46ba6ebb7d158fa2860ec56c",
}

// partitionScenarioDigest runs the canonical partition/merge script on
// a fresh cluster and digests the converged end state.
func partitionScenarioDigest(t *testing.T, shards int, seed uint64) string {
	t.Helper()
	ctx := context.Background()
	// The heartbeat's probes merge the fragments after the heal; a
	// group without one cannot be partitioned.
	c, err := NewCluster(WithHierarchy(2, 5), WithSeed(seed), WithShards(shards), WithHeartbeat(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc, err := c.Open(NewGroupID(1))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	aps := svc.APs()

	for g := 1; g <= 6; g++ {
		must(svc.JoinAt(ctx, GUID(g), aps[(g*3)%len(aps)]))
	}
	must(svc.Settle(ctx))

	// Cut the slot-1 topmost subtree away, join one member on each side
	// of the cut, then heal: the merge must reunite the fragments and
	// both mid-cut joins.
	var frag []NodeID
	svc.Inspect(func(sys *System) {
		frag = sys.Hierarchy().OwnedBy(2, 1)
	})
	must(svc.Partition(ctx, frag...))
	must(svc.JoinAt(ctx, GUID(7), aps[0]))
	must(svc.JoinAt(ctx, GUID(8), aps[6]))
	must(svc.Settle(ctx))
	must(svc.Heal(ctx))
	must(svc.Settle(ctx))

	members, err := svc.Members(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(members); got != 8 {
		t.Fatalf("seed %d shards %d: %d members after merge, want 8", seed, shards, got)
	}
	var top []string
	svc.Inspect(func(sys *System) {
		if d := sys.RosterAgreement(); d != 0 {
			t.Errorf("seed %d shards %d: %d rings disagree after merge", seed, shards, d)
		}
		roster := sys.Node(sys.Hierarchy().Rings()[0].Nodes()[0]).Roster()
		// Rosters are cycles: rotate the smallest ID to the front so the
		// digest is insensitive to which member the view starts at.
		start := 0
		for i, id := range roster {
			if id < roster[start] {
				start = i
			}
		}
		for i := range roster {
			top = append(top, roster[(start+i)%len(roster)].String())
		}
	})

	h := sha256.New()
	fmt.Fprintln(h, strings.Join(renderMembers(members), "\n"))
	fmt.Fprintln(h, strings.Join(top, " "))
	return hex.EncodeToString(h.Sum(nil))
}

// TestPartitionMergeGoldenDigests: five seeds, each run on 1 and 4
// shards, each matching its seed's pinned digest.
func TestPartitionMergeGoldenDigests(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		want := partitionGoldenDigests[seed]
		for _, shards := range []int{1, 4} {
			if got := partitionScenarioDigest(t, shards, seed); got != want {
				t.Errorf("seed %d shards %d: digest %s, want %s", seed, shards, got, want)
			}
		}
	}
}
