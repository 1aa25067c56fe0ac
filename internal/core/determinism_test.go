package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
)

// traceGoldenDigest pins the SHA-256 of the full (time, seq, kind)
// message trace of a fixed-seed 3x5 scenario. It is the repo's
// finest-grained determinism oracle: any change to event ordering in
// the kernel, the message plane or the protocol core shifts at least
// one trace entry and breaks the digest. Performance refactors must
// keep it green; only a deliberate semantic change may re-pin it (use
// the value printed by the failure and call the change out in the PR).
const traceGoldenDigest = "00a4ffaaf70cc1584136d050c736c39cbd7491dbe85e8f1e9e9fcb4b8deaa738"

// goldenScenario drives a deterministic churn-and-failure script on a
// h=3, r=5 hierarchy and returns the hash of its message trace and the
// size of the membership it converged to.
func goldenScenarioDigest() (string, int) {
	cfg := DefaultConfig(3, 5)
	cfg.Seed = 42
	cfg.Latency = runtime.DefaultTierLatency()
	cfg.Loss = 0.01
	sys := NewSystem(cfg)

	h := sha256.New()
	sim := sys.rt.(*simnet.SimRuntime)
	sim.Net().SetTrace(func(msg runtime.Message, outcome string) {
		fmt.Fprintf(h, "%d %d %s %s %s %s\n",
			int64(sim.Kernel().Now()), sim.Kernel().Executed(),
			msg.From, msg.To, msg.Kind, outcome)
	})

	aps := sys.APs()
	for i := 0; i < 20; i++ {
		sys.JoinMemberAt(ids.GUID(i+1), aps[(i*7)%len(aps)])
	}
	sys.Run()
	for i := 0; i < 10; i++ {
		sys.HandoffMember(ids.GUID(i+1), aps[(i*11+3)%len(aps)])
	}
	sys.Run()
	for i := 0; i < 5; i++ {
		sys.LeaveMember(ids.GUID(i + 1))
	}
	sys.FailMember(ids.GUID(6))
	sys.Run()

	victim := sys.Node(aps[0]).Roster()[2]
	sys.CrashNE(victim)
	sys.JoinMemberAt(ids.GUID(100), aps[0])
	sys.Run()
	sys.RestoreNE(victim)
	sys.Run()
	sys.RunFor(5 * time.Second)

	return hex.EncodeToString(h.Sum(nil)), len(sys.GlobalMembership())
}

func TestEventTraceGoldenDigest(t *testing.T) {
	got, members := goldenScenarioDigest()
	// 20 joins − 5 leaves − 1 failure + 1 join. A digest is only worth
	// pinning over a run that lost nothing: the one pinned before
	// retransmissions had an owner ended on 20 members, the topmost ring
	// wedged behind a lost token whose resend a stale ack had cancelled.
	if members != 15 {
		t.Fatalf("golden scenario converged to %d members, want 15", members)
	}
	if got != traceGoldenDigest {
		t.Fatalf("event trace digest changed:\n got %s\nwant %s\n(event order of the fixed-seed scenario is no longer identical)", got, traceGoldenDigest)
	}
}

// TestEventTraceRepeatable guards the oracle itself: two runs of the
// golden scenario in one process must agree before the pinned digest
// means anything.
func TestEventTraceRepeatable(t *testing.T) {
	a, _ := goldenScenarioDigest()
	if b, _ := goldenScenarioDigest(); a != b {
		t.Fatalf("golden scenario not repeatable: %s vs %s", a, b)
	}
}
