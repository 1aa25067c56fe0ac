package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/chaos"
)

// nodeProc is one rgbnode process under test, driven over its stdin
// line protocol.
type nodeProc struct {
	t     *testing.T
	cmd   *exec.Cmd
	stdin *bufio.Writer
	lines chan string
}

func (p *nodeProc) send(cmd string) {
	p.t.Helper()
	if _, err := p.stdin.WriteString(cmd + "\n"); err != nil {
		p.t.Fatalf("write %q: %v", cmd, err)
	}
	p.stdin.Flush()
}

// expect reads lines until one starts with prefix (or times out) and
// returns it.
func (p *nodeProc) expect(prefix string, timeout time.Duration) string {
	p.t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				p.t.Fatalf("process exited while waiting for %q", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line
			}
			if strings.HasPrefix(line, "err ") {
				p.t.Fatalf("daemon error while waiting for %q: %s", prefix, line)
			}
		case <-deadline:
			p.t.Fatalf("timed out waiting for %q", prefix)
		}
	}
}

// do sends a command and waits for its ok reply.
func (p *nodeProc) do(cmd string) string {
	p.t.Helper()
	p.send(cmd)
	return p.expect("ok "+strings.Fields(cmd)[0], 10*time.Second)
}

func startNode(t *testing.T, bin string, index int, peers []string, h, r int, extra ...string) *nodeProc {
	t.Helper()
	args := []string{
		"-bind", peers[index],
		"-index", fmt.Sprint(index),
		"-peers", strings.Join(peers, ","),
		"-h", fmt.Sprint(h), "-r", fmt.Sprint(r),
		"-seed", "1",
	}
	args = append(args, extra...)
	return launchNode(t, bin, args)
}

func launchNode(t *testing.T, bin string, args []string) *nodeProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		t.Fatalf("start rgbnode %v: %v", args, err)
	}
	p := &nodeProc{t: t, cmd: cmd, stdin: bufio.NewWriter(stdin), lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return p
}

// TestThreeProcessSmoke is the networked-deployment acceptance test:
// it builds the real rgbnode binary, launches three processes on
// loopback forming one height-2 hierarchy, performs a join/leave/query
// round across process boundaries, and asserts all three converge to
// the identical membership before teardown. CI runs exactly this. The
// faulted row repeats the round with every fault flag armed: the same
// membership must result, the stats line must show the injected faults,
// and no process may see a frame its codec rejects. Both rows enter
// changes through every process, so their changes run concurrent
// top-ring rounds (Trap 2, docs/ARCHITECTURE.md).
func TestThreeProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping multi-process smoke")
	}

	bin := buildNode(t)
	script := []smokeStep{
		{0, "join 1 0"}, {0, "join 2 4"}, {1, "join 3 7"}, {1, "join 4 2"}, {2, "join 5 5"}, {1, "leave 4"},
	}
	for _, row := range []struct {
		name  string
		flags []string
	}{
		{"clean", nil},
		{"faulted", []string{"-corrupt", "0.02", "-replay", "0.02", "-misroute", "0.02", "-reorder", "0.02", "-faultseed", "3"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			peers := reservePeers(t, 3)
			procs := make([]*nodeProc, 3)
			for i := range procs {
				procs[i] = startNode(t, bin, i, peers, 2, 3, row.flags...)
			}
			for i, p := range procs {
				p.expect("ready", 15*time.Second)
				t.Logf("rgbnode[%d] ready", i)
			}
			smokeRound(t, procs, script)

			// Wire sanity: traffic flowed, nothing failed to decode, and
			// an armed fault plan fired.
			var faults int
			for i, p := range procs {
				p.send("stats")
				line := p.expect("ok stats", 10*time.Second)
				if strings.Contains(line, "received=0 ") || !strings.Contains(line, "decode_errors=0") {
					t.Fatalf("proc %d suspicious stats: %s", i, line)
				}
				for _, n := range strings.Split(statField(t, line, "faults"), "/") {
					k, err := strconv.Atoi(n)
					if err != nil {
						t.Fatalf("proc %d bad faults= field: %s", i, line)
					}
					faults += k
				}
			}
			t.Logf("%d faults injected", faults)
			if armed := row.flags != nil; armed != (faults > 0) {
				t.Fatalf("fault plan armed=%v but %d faults injected", armed, faults)
			}

			for _, p := range procs {
				p.do("quit")
			}
			for i, p := range procs {
				if err := p.cmd.Wait(); err != nil {
					t.Fatalf("rgbnode[%d] exit: %v", i, err)
				}
			}
		})
	}
}

// smokeStep is one membership command and the process it is sent to.
type smokeStep struct {
	proc int
	cmd  string
}

// smokeRound runs a script that joins members 1-5 and has the joining
// process drop member 4 again, then waits until every process's query
// and topmost-ring view show the remaining four.
func smokeRound(t *testing.T, procs []*nodeProc, script []smokeStep) {
	t.Helper()
	for _, s := range script {
		procs[s.proc].do(s.cmd)
	}

	const want = "members=mh-1,mh-2,mh-3,mh-5"
	converged := func(p *nodeProc) bool {
		p.send("query")
		line := p.expect("ok query", 10*time.Second)
		return strings.HasSuffix(line, want)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		allOK := true
		for _, p := range procs {
			if !converged(p) {
				allOK = false
			}
		}
		if allOK {
			break
		}
		if time.Now().After(deadline) {
			for i, p := range procs {
				p.send("query")
				t.Logf("proc %d: %s", i, p.expect("ok query", 5*time.Second))
			}
			t.Fatal("cluster did not converge to the expected membership")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Every process hosts one topmost-ring node; their authoritative
	// views must agree with the queries.
	for i, p := range procs {
		p.send("members")
		line := p.expect("ok members", 10*time.Second)
		if !strings.HasSuffix(line, want) {
			t.Fatalf("proc %d top view %q, want suffix %q", i, line, want)
		}
	}
}

// TestSeedJoinNode: a three-process static cluster is running; a fourth
// rgbnode is given nothing but one member's address (-seeds, zero
// static-topology flags) and must bootstrap the deployment shape and
// the peer table, then drive membership like any member while every
// process's peer dump converges on the full roster.
func TestSeedJoinNode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping seed-join smoke")
	}

	bin := buildNode(t)
	peers := reservePeers(t, 3)

	procs := make([]*nodeProc, 3)
	for i := range procs {
		procs[i] = startNode(t, bin, i, peers, 2, 3)
	}
	for i, p := range procs {
		p.expect("ready", 15*time.Second)
		t.Logf("rgbnode[%d] ready", i)
	}

	// The joiner knows one address and nothing else about the cluster.
	joiner := launchNode(t, bin, []string{"-bind", "127.0.0.1:0", "-seeds", peers[1]})
	listening := strings.Fields(joiner.expect("rgbnode: listening on", 15*time.Second))
	joiner.expect("ready", 15*time.Second)
	t.Log("seed joiner ready")
	// Its peers row is its client slot, past every cluster slot and
	// derived from the port it bound, at the address it sends from.
	joinerAddr := listening[3]
	_, port, err := net.SplitHostPort(joinerAddr)
	if err != nil {
		t.Fatalf("joiner address %q: %v", joinerAddr, err)
	}
	portN, _ := strconv.Atoi(port)
	joinerRow := fmt.Sprintf(" %d:%s:up:", 1<<6+portN, joinerAddr)

	// Membership driven from a static member and from the joiner.
	procs[0].do("join 1 0")
	joiner.do("join 2 4")

	const want = "members=mh-1,mh-2"
	all := append(append([]*nodeProc{}, procs...), joiner)
	converged := func(p *nodeProc) bool {
		p.send("query")
		return strings.HasSuffix(p.expect("ok query", 10*time.Second), want)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		allOK := true
		for _, p := range all {
			if !converged(p) {
				allOK = false
			}
		}
		if allOK {
			break
		}
		if time.Now().After(deadline) {
			for i, p := range all {
				p.send("query")
				t.Logf("proc %d: %s", i, p.expect("ok query", 5*time.Second))
			}
			t.Fatal("seed-joined cluster did not converge")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The joiner's peer table holds all three static slots, up.
	line := joiner.do("peers")
	for slot := 0; slot < 3; slot++ {
		if !strings.Contains(line, fmt.Sprintf(" %d:", slot)) {
			t.Fatalf("joiner peer dump missing slot %d: %s", slot, line)
		}
	}
	if strings.Count(line, ":up:") < 3 {
		t.Fatalf("joiner peer dump has <3 live peers: %s", line)
	}

	// Every static member learns the slotless joiner from its hellos.
	deadline = time.Now().Add(15 * time.Second)
	for {
		allKnow := true
		for _, p := range procs {
			if !strings.Contains(p.do("peers"), joinerRow) {
				allKnow = false
			}
		}
		if allKnow {
			break
		}
		if time.Now().After(deadline) {
			for i, p := range procs {
				t.Logf("proc %d peers: %s", i, p.do("peers"))
			}
			t.Fatal("static members never learned the seed joiner")
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Discovery traffic flowed and nothing failed to decode.
	for _, p := range all {
		p.send("stats")
		line := p.expect("ok stats", 10*time.Second)
		if strings.Contains(line, "received=0 ") || !strings.Contains(line, "decode_errors=0") {
			t.Fatalf("suspicious stats: %s", line)
		}
		if strings.Contains(line, "gossip=0 ") {
			t.Fatalf("no discovery gossip: %s", line)
		}
	}

	for _, p := range all {
		p.do("quit")
	}
	for i, p := range all {
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("rgbnode[%d] exit: %v", i, err)
		}
	}
}

// TestMultiGroupNode: two rgbnode processes each hosting two groups
// over one socket (-groups 2). Memberships must stay group-isolated on
// both, and the shared-socket wire counters must stay clean — the
// group-tagged frames that cross between the processes route to the
// right engine shard. Every change enters at process 0, at an access
// proxy it hosts (top-ring nodes 0 and 2, so AP indexes 0-2 and 6-8).
func TestMultiGroupNode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping multi-group smoke")
	}

	bin := buildNode(t)
	peers := reservePeers(t, 2)

	procs := make([]*nodeProc, 2)
	for i := range procs {
		procs[i] = startNode(t, bin, i, peers, 2, 3, "-groups", "2")
	}
	for _, p := range procs {
		p.expect("ready", 15*time.Second)
		if line := p.do("groups"); !strings.Contains(line, "n=2") {
			t.Fatalf("groups = %q", line)
		}
	}

	// Group 1 gets members 1 and 2; group 2 gets member 3 only.
	procs[0].do("join 1 0")
	procs[0].do("join 2 6")
	procs[0].do("use 2")
	procs[0].do("join 3 1")

	awaitQuery := func(p *nodeProc, want string) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			p.send("query")
			line := p.expect("ok query", 10*time.Second)
			if strings.HasSuffix(line, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("group view did not converge to %q: %s", want, line)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	procs[1].do("use 2")
	for _, p := range procs {
		awaitQuery(p, "members=mh-3")
		p.do("use 1")
		awaitQuery(p, "members=mh-1,mh-2")
	}

	for i, p := range procs {
		p.send("stats")
		stats := p.expect("ok stats", 10*time.Second)
		if strings.Contains(stats, "received=0 ") ||
			!strings.Contains(stats, "decode_errors=0") ||
			!strings.Contains(stats, "unknown_group=0") {
			t.Fatalf("proc %d suspicious multi-group stats: %s", i, stats)
		}
	}

	// block/unblock act on the shared socket, so they serve every group:
	// with slot 1 blocked the discovery gossip between the two processes
	// (one frame a second each way) is cut and counted within moments,
	// well before the silence could raise a suspicion; after the unblock
	// a join converges across the processes again.
	procs[0].do("block 1")
	cutRe := regexp.MustCompile(`\bcut=([1-9]\d*)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		procs[0].send("stats")
		if stats := procs[0].expect("ok stats", 10*time.Second); cutRe.MatchString(stats) {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("block cut no datagram in multi-group mode: %s", stats)
		}
		time.Sleep(100 * time.Millisecond)
	}
	procs[0].do("unblock")
	procs[0].do("use 2")
	procs[0].do("join 4 1")
	procs[1].do("use 2")
	for _, p := range procs {
		awaitQuery(p, "members=mh-3,mh-4")
	}

	for _, p := range procs {
		p.do("quit")
	}
	for i, p := range procs {
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("rgbnode[%d] exit: %v", i, err)
		}
	}
}

// reservePeers reserves n loopback UDP ports and returns their
// addresses, released just before the daemons bind them.
func reservePeers(t *testing.T, n int) []string {
	t.Helper()
	peers := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := range peers {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		peers[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return peers
}

// buildNode compiles the rgbnode binary into the test's temp dir.
func buildNode(t *testing.T) string {
	t.Helper()
	bin, err := chaos.BuildNode(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// httpGet fetches one admin path from a live daemon.
func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// statField extracts one "k=v" integer from the stats line.
func statField(t *testing.T, line, key string) string {
	t.Helper()
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, key+"=") {
			return strings.TrimPrefix(f, key+"=")
		}
	}
	t.Fatalf("stats line missing %s=: %s", key, line)
	return ""
}

// TestHTTPOperabilityPlane: -http serves /metrics and /healthz on a
// live daemon, the stdin stats line agrees with the exposition, and
// SIGTERM shuts the process down cleanly.
func TestHTTPOperabilityPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process e2e")
	}
	bin := buildNode(t)
	p := launchNode(t, bin, []string{
		"-bind", "127.0.0.1:0", "-h", "2", "-r", "3", "-seed", "1",
		"-http", "127.0.0.1:0",
	})
	httpLine := p.expect("http ", 10*time.Second)
	p.expect("ready", 10*time.Second)
	addr := strings.TrimSpace(strings.TrimPrefix(httpLine, "http "))

	p.do("join 1")
	p.do("join 2")
	p.do("settle")

	code, body := httpGet(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`rgb_group_members{group="224.0.0.1"} 2`,
		`rgb_view_changes_total{group="224.0.0.1",kind="join"} 2`,
		"rgb_view_change_latency_seconds_bucket",
		"rgb_round_duration_seconds_count",
		"rgb_net_received_total",
		"rgb_transport_sent_total",
		"go_heap_alloc_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, health := httpGet(t, addr, "/healthz")
	if code != http.StatusOK || !strings.Contains(health, `"status":"ok"`) {
		t.Fatalf("/healthz = %d %s", code, health)
	}

	// Single source of truth: the stdin stats line and the exposition
	// report the identical transport counter (quiescent after settle,
	// heartbeats disabled, so the value cannot move between reads).
	p.send("stats")
	stats := p.expect("ok stats", 10*time.Second)
	sent := statField(t, stats, "sent")
	_, body = httpGet(t, addr, "/metrics")
	if !strings.Contains(body, "rgb_transport_sent_total "+sent+"\n") {
		t.Errorf("stats line sent=%s disagrees with exposition", sent)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.expect("ok signal", 10*time.Second)
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v", err)
	}
}

// TestHTTPBindFailureExitsNonzero: a daemon that cannot bind its -http
// address must exit nonzero instead of serving blind.
func TestHTTPBindFailureExitsNonzero(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process e2e")
	}
	bin := buildNode(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	p := launchNode(t, bin, []string{
		"-bind", "127.0.0.1:0", "-h", "2", "-r", "3", "-seed", "1",
		"-http", ln.Addr().String(),
	})
	if err := p.cmd.Wait(); err == nil {
		t.Fatal("daemon exited zero despite -http bind failure")
	}
}
