package chaos

import (
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildRgbnode compiles the real daemon binary the harness drives.
func buildRgbnode(t *testing.T) string {
	t.Helper()
	bin, err := BuildNode(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// mustDo fails the test on a command error.
func mustDo(t *testing.T, p *Proc, cmd string) string {
	t.Helper()
	line, err := p.Do(cmd)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestPartitionKillHeal is the chaos acceptance scenario (CI runs it
// in short mode): five real rgbnode processes on loopback UDP form a
// 2x5 hierarchy; the harness joins members, cuts the deployment into
// {0,1,2} | {3,4}, joins one member on each side of the cut, kill -9s
// process 4, heals the partition, and asserts every surviving process
// converges to the one merged membership — the live-socket version of
// the paper's partition/merge extension, with heartbeat-driven failure
// detection and the probe/merge protocol doing the repair.
func TestPartitionKillHeal(t *testing.T) {
	bin := buildRgbnode(t)

	eng, err := Launch(Config{
		Bin: bin, Nodes: 5, H: 2, R: 5, Seed: 1,
		Heartbeat: 300 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Six members at APs owned by side-A slots (slot k owns AP indexes
	// 5k..5k+4), each join submitted at the owning process.
	for i, ap := range []int{0, 1, 5, 6, 10, 11} {
		mustDo(t, eng.Proc(ap/5), fmt.Sprintf("join %d %d", i+1, ap))
	}
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3,mh-4,mh-5,mh-6", 45*time.Second); err != nil {
		t.Fatal(err)
	}

	// Cut the deployment. Queries route through AP 0 (process 0), so
	// only side A is polled while the cut holds.
	if err := eng.Partition([]int{0, 1, 2}, []int{3, 4}); err != nil {
		t.Fatal(err)
	}

	// One join per side: mh-7 on side A, mh-8 on side B (AP 15 is owned
	// by process 3). Side A must converge to exactly its own seven
	// members — seeing mh-8 here would mean the cut leaks.
	mustDo(t, eng.Proc(0), "join 7 2")
	mustDo(t, eng.Proc(3), "join 8 15")
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3,mh-4,mh-5,mh-6,mh-7",
		45*time.Second, 3, 4); err != nil {
		t.Fatal(err)
	}

	// kill -9 one side-B process while the partition holds, then heal.
	// Side B collapses to process 3 alone; the probe/merge protocol
	// must stitch it (and mh-8) back into the majority fragment while
	// process 4 stays dead.
	eng.Proc(4).Kill()
	if err := eng.Heal(); err != nil {
		t.Fatal(err)
	}
	// Generous timeout: the post-heal merge needs several probe/suspect
	// heartbeat windows, and CI runners (or a parallel full-suite run)
	// can slow the five processes down considerably.
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3,mh-4,mh-5,mh-6,mh-7,mh-8",
		150*time.Second, 4); err != nil {
		t.Fatal(err)
	}

	// The cut was real: block rules dropped datagrams somewhere, and
	// nothing failed to decode end to end.
	cutRe := regexp.MustCompile(`\bcut=(\d+)`)
	var totalCut int
	for _, p := range eng.Procs() {
		if p.Dead() {
			continue
		}
		line, err := p.Stats()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("rgbnode[%d] %s", p.Index, line)
		if !strings.Contains(line, "decode_errors=0") {
			t.Fatalf("rgbnode[%d] decode errors: %s", p.Index, line)
		}
		m := cutRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("rgbnode[%d] stats line has no cut counter: %s", p.Index, line)
		}
		n, _ := strconv.Atoi(m[1])
		totalCut += n
	}
	if totalCut == 0 {
		t.Fatal("no datagrams were cut by the partition — block rules never took effect")
	}
}

// TestAddressChurn covers the failure mode static topology maps cannot
// survive: one member's UDP address changes mid-run. The harness kills
// process 2 and relaunches it on a brand-new ephemeral port, giving the
// new process nothing but process 0's address (-seeds) and its old slot
// (-seedslot); no surviving process's configuration is touched. The
// discovery gossip must propagate the new address cluster-wide, the
// probe/merge protocol must readmit the blank-state process, and the
// deployment must keep accepting membership at the restarted slot's
// access proxies.
func TestAddressChurn(t *testing.T) {
	bin := buildRgbnode(t)

	eng, err := Launch(Config{
		Bin: bin, Nodes: 3, H: 2, R: 3, Seed: 1,
		Heartbeat: 200 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Members at APs owned by the surviving slots (slot k owns AP
	// indexes 3k..3k+2), joined at their owning processes so no
	// membership endpoint lives in the process about to churn.
	for i, ap := range []int{0, 1, 3} {
		mustDo(t, eng.Proc(ap/3), fmt.Sprintf("join %d %d", i+1, ap))
	}
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3", 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Change process 2's address mid-run: kill, relaunch on a new port,
	// bootstrap through process 0.
	if err := eng.Restart(2, 0); err != nil {
		t.Fatal(err)
	}

	// The restarted process comes back blank; the merge machinery must
	// hand it the membership, and everyone must route to its new
	// address.
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3", 90*time.Second); err != nil {
		t.Fatal(err)
	}

	// The churned slot serves new joins again: AP 7 is owned by slot 2,
	// submitted from process 0 — the join crosses to the new address.
	mustDo(t, eng.Proc(0), "join 4 7")
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3,mh-4", 60*time.Second); err != nil {
		t.Fatal(err)
	}

	// Every survivor's peer table converged on the new address, up.
	wantAddr := eng.peers[2]
	for _, p := range eng.Procs() {
		line, err := p.Do("peers")
		if err != nil {
			t.Fatal(err)
		}
		if p.Index != 2 && !strings.Contains(line, "2:"+wantAddr+":up") {
			t.Fatalf("rgbnode[%d] peer table missed the address change: %s", p.Index, line)
		}
	}
}

// TestFlappingMember is the PR-10 churn scenario over real processes
// (CI runs it in short mode): three rgbnode daemons launched with the
// batched view-change window and the K=2 stability filter, with one
// process flapping — repeatedly cut off just long enough for its peers
// to fail it out of the topmost ring, then healed so the probe/merge
// protocol readmits it. Each cycle must complete (no wedged eviction:
// the filter needs two distinct observers, and a live deployment has
// them — the token predecessor's pass timeout plus the peer-discovery
// plane's failure report), and after the last heal the deployment must
// converge back to the full membership under one leader.
func TestFlappingMember(t *testing.T) {
	bin := buildRgbnode(t)

	eng, err := Launch(Config{
		Bin: bin, Nodes: 3, H: 2, R: 3, Seed: 1,
		Heartbeat:   200 * time.Millisecond,
		BatchWindow: 100 * time.Millisecond,
		StabilityK:  2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Members only at APs owned by the stable slots (slot k owns AP
	// indexes 3k..3k+2), so the flapper carries ring entities but no
	// membership endpoints and the member list must ride out every cut.
	for i, ap := range []int{0, 1, 3} {
		mustDo(t, eng.Proc(ap/3), fmt.Sprintf("join %d %d", i+1, ap))
	}
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := eng.AwaitRingUnited(3, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	for cycle := 1; cycle <= 3; cycle++ {
		t.Logf("flap cycle %d: cutting process 2", cycle)
		if err := eng.Partition([]int{0, 1}, []int{2}); err != nil {
			t.Fatal(err)
		}
		// The majority side must evict the flapper's topmost entity —
		// proving the K=2 filter can actually confirm over live sockets.
		if err := eng.AwaitRingUnited(2, 60*time.Second, 2); err != nil {
			t.Fatalf("cycle %d: majority never evicted the flapper: %v", cycle, err)
		}
		t.Logf("flap cycle %d: healing", cycle)
		if err := eng.Heal(); err != nil {
			t.Fatal(err)
		}
		if err := eng.AwaitRingUnited(3, 90*time.Second); err != nil {
			t.Fatalf("cycle %d: flapper never readmitted after heal: %v", cycle, err)
		}
	}

	// After the churn the deployment answers with the full membership
	// everywhere — the flapping never cost a member.
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3", 45*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := eng.AwaitAuthoritative("members=mh-1,mh-2,mh-3", 45*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPauseResume covers the stall failure mode: SIGSTOP freezes one
// process long enough for its peers to fail it out of the topmost
// ring, then SIGCONT revives it and the probe/merge protocol must
// readmit it. Skipped in short mode — the double failure-detection
// window (peers failing the stalled process, the revived process
// failing its own stale view before it can answer probes as a
// fragment leader) makes this the slow scenario.
func TestPauseResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping pause/resume chaos scenario")
	}
	bin := buildRgbnode(t)

	eng, err := Launch(Config{
		Bin: bin, Nodes: 3, H: 2, R: 3, Seed: 1,
		Heartbeat: 200 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for i, ap := range []int{0, 3, 6} {
		mustDo(t, eng.Proc(ap/3), fmt.Sprintf("join %d %d", i+1, ap))
	}
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3", 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Stall process 2 across many heartbeat intervals so its silence
	// reads as a crash, then revive it.
	if err := eng.Proc(2).Pause(); err != nil {
		t.Fatal(err)
	}
	mustDo(t, eng.Proc(0), "join 4 1")
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3,mh-4", 45*time.Second, 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Proc(2).Resume(); err != nil {
		t.Fatal(err)
	}
	if err := eng.AwaitConvergence("members=mh-1,mh-2,mh-3,mh-4", 90*time.Second); err != nil {
		t.Fatal(err)
	}
}

// Restart kills the process at slot and relaunches it on a fresh
// ephemeral UDP address, rejoining its slot through the seed process's
// address (-seeds/-seedslot) — the address-churn scenario: no surviving
// process's configuration mentions the new address, so only the
// discovery gossip can restore routing, and the probe/merge protocol
// must readmit the blank-state process to its rings.
func (e *Engine) Restart(slot, seedIndex int) error {
	if slot == seedIndex {
		return fmt.Errorf("chaos: restart slot %d cannot seed from itself", slot)
	}
	if e.procs[seedIndex].Dead() {
		return fmt.Errorf("chaos: seed rgbnode[%d] is dead", seedIndex)
	}
	e.procs[slot].Kill()

	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fmt.Errorf("chaos: reserve restart port: %w", err)
	}
	addr := c.LocalAddr().String()
	c.Close()
	old := e.peers[slot]
	e.peers[slot] = addr

	args := []string{
		"-bind", addr,
		"-seeds", e.peers[seedIndex],
		"-seedslot", strconv.Itoa(slot),
		"-seed", strconv.FormatUint(e.cfg.Seed, 10),
		"-heartbeat", e.cfg.Heartbeat.String(),
	}
	args = append(args, e.protocolArgs()...)
	if e.cfg.HTTP {
		args = append(args, "-http", "127.0.0.1:0")
	}
	p, err := e.launch(slot, args...)
	if err != nil {
		return err
	}
	if err := e.awaitReady(p); err != nil {
		return fmt.Errorf("chaos: restarted rgbnode[%d]: %w", slot, err)
	}
	e.procs[slot] = p
	e.logf("chaos: rgbnode[%d] restarted on %s (was %s), seeded by rgbnode[%d]", slot, addr, old, seedIndex)
	return nil
}

// Pause stalls the process with SIGSTOP: it stops scheduling but keeps
// its socket, so peers see pure silence — the classic GC-pause or
// overcommitted-host failure mode.
func (p *Proc) Pause() error {
	return p.cmd.Process.Signal(syscall.SIGSTOP)
}

// Resume continues a paused process with SIGCONT.
func (p *Proc) Resume() error {
	return p.cmd.Process.Signal(syscall.SIGCONT)
}

// Stats fetches one process's "stats" line (counters for delivered,
// dropped, cut and injected-fault datagrams).
func (p *Proc) Stats() (string, error) {
	return p.Do("stats")
}
