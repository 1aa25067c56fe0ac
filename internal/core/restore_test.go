package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/workload"
)

// crashRestoreSeeds is how many seeds each cell of
// TestCrashRestoreKeepsEveryChange replays.
const crashRestoreSeeds = 100

// TestCrashRestoreKeepsEveryChange: a non-AP entity crashes at 1 s, in
// the middle of a random join/leave/fail/handoff script, and is
// restored at 3 s. Every notification to or through it runs out of
// retries meanwhile, and what it carried is owed to its link until a
// round, a heartbeat's included, passes the sender again. At h=3 r=3
// with 250 ms heartbeats, 20 s later the top ring must hold exactly the
// script's live members, in both dissemination modes, whether or not
// the script goes on after the restore.
//
// The last three cells are skipped reproductions of what an owed batch
// does not reach (ROADMAP item 3, B1 residue); item 23's digest repair
// is their fix. Without heartbeats and with no op after the restore,
// nothing carries the owed batch. In full mode, with no op after the
// restore, the restored parent's subtree never hears what other
// subtrees changed during the outage, so its lower lists disagree with
// the top ring.
func TestCrashRestoreKeepsEveryChange(t *testing.T) {
	for _, mode := range []DisseminationMode{DisseminateFull, DisseminatePathOnly} {
		for _, after := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/ops-after-restore=%v", mode, after), func(t *testing.T) {
				crashRestoreCell(t, mode, after, true, false)
			})
		}
	}
	for _, mode := range []DisseminationMode{DisseminateFull, DisseminatePathOnly} {
		t.Run(fmt.Sprintf("%s/no-heartbeat", mode), func(t *testing.T) {
			t.Skip("nothing carries an owed batch without heartbeats or traffic after the restore " +
				"(26 of 100 seeds wrong in full mode, 50 in path-only); see ROADMAP item 23")
			crashRestoreCell(t, mode, false, false, false)
		})
	}
	t.Run("full/lower-lists", func(t *testing.T) {
		t.Skip("the restored parent's subtree misses the changes made elsewhere during the outage " +
			"(53 of 100 seeds wrong); see ROADMAP item 23")
		crashRestoreCell(t, DisseminateFull, false, true, true)
	})
}

// crashRestoreCell runs TestCrashRestoreKeepsEveryChange's script and
// crash over crashRestoreSeeds seeds and fails with how many went wrong:
// the top ring does not hold the script's live members or, with lower
// set, some live entity's ListOfRingMembers disagrees with the top ring
// (coverageMismatch). after keeps the script's ops past the restore;
// heartbeat runs 250 ms heartbeats.
func crashRestoreCell(t *testing.T, mode DisseminationMode, after, heartbeat, lower bool) {
	const crashAt, restoreAt = time.Second, 3 * time.Second
	var wrong []string
	for seed := uint64(1); seed <= crashRestoreSeeds; seed++ {
		cfg := quietConfig(3, 3)
		cfg.Seed = seed
		cfg.Dissemination = mode
		if heartbeat {
			cfg.HeartbeatInterval = 250 * time.Millisecond
		}
		sys := NewSystem(cfg)
		var script workload.Trace
		for _, e := range randomScript(seed, sys.APs(), 20, 120, 35*time.Millisecond) {
			e.At *= 30
			if after || e.At < restoreAt {
				script = append(script, e)
			}
		}
		ApplyTrace(sys, script)
		var inner []ids.NodeID
		for _, id := range sys.hier.AllNodes() {
			if id.Tier() != ids.TierAP {
				inner = append(inner, id)
			}
		}
		victim := inner[mathx.NewRNG(seed).Intn(len(inner))]
		sys.RunFor(crashAt)
		sys.CrashNE(victim)
		sys.RunFor(restoreAt - crashAt)
		sys.RestoreNE(victim)
		sys.RunFor(20 * time.Second)
		if missing, extra := sys.MembershipDeviation(workload.LiveAtEnd(script)); missing+extra != 0 {
			wrong = append(wrong, fmt.Sprintf("seed %d (%s crashed): the top ring misses %d and adds %d members", seed, victim, missing, extra))
		} else if lower {
			if msg := coverageMismatch(sys); msg != "" {
				wrong = append(wrong, fmt.Sprintf("seed %d (%s crashed): %s", seed, victim, msg))
			}
		}
	}
	if len(wrong) > 0 {
		t.Fatalf("%d of %d seeds wrong, the first: %s", len(wrong), crashRestoreSeeds, wrong[0])
	}
}
