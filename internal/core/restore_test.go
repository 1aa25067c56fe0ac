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
func TestCrashRestoreKeepsEveryChange(t *testing.T) {
	const crashAt, restoreAt = time.Second, 3 * time.Second
	for _, mode := range []DisseminationMode{DisseminateFull, DisseminatePathOnly} {
		for _, after := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/ops-after-restore=%v", mode, after), func(t *testing.T) {
				var wrong []string
				for seed := uint64(1); seed <= crashRestoreSeeds; seed++ {
					cfg := quietConfig(3, 3)
					cfg.Seed = seed
					cfg.Dissemination = mode
					cfg.HeartbeatInterval = 250 * time.Millisecond
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
					}
				}
				if len(wrong) > 0 {
					t.Fatalf("%d of %d seeds wrong, the first: %s", len(wrong), crashRestoreSeeds, wrong[0])
				}
			})
		}
	}
}
