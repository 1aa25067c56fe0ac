// Package chaos is the process-level chaos harness: it launches a real
// multi-process rgbnode deployment on loopback UDP and subjects it to
// the faults a production operator fears — kill -9 and network
// partitions (installed through the daemons' block/unblock
// line-protocol commands, which cut datagrams in both directions) —
// then asserts the surviving cluster converges back to one membership.
// The package's tests add SIGSTOP stalls and restarts on a fresh
// address.
//
// Unlike the simulator's entity-level partition (rgb.Service.Partition)
// this harness exercises the full production path: real processes,
// real sockets, real heartbeat-driven failure detection, and the
// probe/merge protocol healing the fragments afterwards. The package
// deliberately has no testing dependency: cmd/rgbsoak links it.
package chaos

import (
	"bufio"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config parameterizes a chaos deployment.
type Config struct {
	Bin       string        // path to the rgbnode binary (required)
	Nodes     int           // process count (default 5, minimum 2)
	H, R      int           // hierarchy shape (default 2x5)
	Seed      uint64        // deployment seed (default 1)
	Heartbeat time.Duration // heartbeat interval (default 250ms; drives failure detection)

	// BatchWindow > 0 runs the daemons with batched view changes
	// (rgbnode -batch); StabilityK >= 2 arms the K-observer eviction
	// filter (rgbnode -stability). Zero values keep the per-change
	// protocol.
	BatchWindow time.Duration
	StabilityK  int

	// HTTP, when true, gives every daemon an ephemeral -http listener
	// (the /metrics + /healthz + admin plane); the bound address is
	// recorded in Proc.HTTPAddr. rgbsoak scrapes these mid-churn.
	HTTP bool

	// Logf, when non-nil, receives harness progress lines (plug in
	// t.Logf or log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) defaults() error {
	if c.Bin == "" {
		return fmt.Errorf("chaos: Config.Bin (rgbnode binary) is required")
	}
	if c.Nodes == 0 {
		c.Nodes = 5
	}
	if c.Nodes < 2 {
		return fmt.Errorf("chaos: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.H == 0 {
		c.H = 2
	}
	if c.R == 0 {
		c.R = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 250 * time.Millisecond
	}
	return nil
}

// BuildNode compiles the rgbnode daemon into dir and returns the
// binary's path, ready for Config.Bin. It needs the go toolchain and
// must run from inside this module.
func BuildNode(dir string) (string, error) {
	bin := filepath.Join(dir, "rgbnode")
	build := exec.Command("go", "build", "-o", bin, "github.com/rgbproto/rgb/cmd/rgbnode")
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build rgbnode: %v\n%s", err, out)
	}
	return bin, nil
}

// Proc is one rgbnode process under chaos, driven over its stdin line
// protocol. All methods are safe for use from one goroutine at a time.
type Proc struct {
	Index int

	// HTTPAddr is the daemon's bound -http address ("127.0.0.1:port"),
	// empty unless the deployment was launched with Config.HTTP.
	HTTPAddr string

	cmd   *exec.Cmd
	mu    sync.Mutex
	stdin *bufio.Writer
	lines chan string
	dead  bool
}

// Engine owns a running chaos deployment.
type Engine struct {
	cfg   Config
	peers []string
	procs []*Proc
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// Launch reserves cfg.Nodes loopback UDP ports, starts one rgbnode
// process per slot and waits for every daemon's "ready". The caller
// must Close the engine.
func Launch(cfg Config) (*Engine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}

	// Reserve the address book (ports released just before the daemons
	// bind them — the standard loopback-cluster bootstrap race, benign
	// in practice because nothing else is grabbing ephemeral UDP ports
	// this fast).
	conns := make([]*net.UDPConn, cfg.Nodes)
	e.peers = make([]string, cfg.Nodes)
	for i := range e.peers {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("chaos: reserve port: %w", err)
		}
		conns[i] = c
		e.peers[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}

	for i := 0; i < cfg.Nodes; i++ {
		p, err := e.start(i)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.procs = append(e.procs, p)
	}
	for _, p := range e.procs {
		if err := e.awaitReady(p); err != nil {
			e.Close()
			return nil, err
		}
		e.logf("chaos: rgbnode[%d] ready on %s", p.Index, e.peers[p.Index])
	}
	return e, nil
}

// awaitReady consumes a freshly launched daemon's banner: the "http
// <addr>" line first when the HTTP plane is on (Expect discards
// non-matching lines, so the order matters), then "ready".
func (e *Engine) awaitReady(p *Proc) error {
	if e.cfg.HTTP {
		line, err := p.Expect("http ", 20*time.Second)
		if err != nil {
			return fmt.Errorf("chaos: rgbnode[%d] never bound -http: %w", p.Index, err)
		}
		p.HTTPAddr = strings.TrimSpace(strings.TrimPrefix(line, "http "))
	}
	if _, err := p.Expect("ready", 20*time.Second); err != nil {
		return fmt.Errorf("chaos: rgbnode[%d] never became ready: %w", p.Index, err)
	}
	return nil
}

func (e *Engine) start(index int) (*Proc, error) {
	args := []string{
		"-bind", e.peers[index],
		"-index", strconv.Itoa(index),
		"-peers", strings.Join(e.peers, ","),
		"-h", strconv.Itoa(e.cfg.H), "-r", strconv.Itoa(e.cfg.R),
		"-seed", strconv.FormatUint(e.cfg.Seed, 10),
		"-heartbeat", e.cfg.Heartbeat.String(),
	}
	args = append(args, e.protocolArgs()...)
	if e.cfg.HTTP {
		args = append(args, "-http", "127.0.0.1:0")
	}
	return e.launch(index, args...)
}

// protocolArgs renders the optional protocol knobs every daemon of the
// deployment must agree on.
func (e *Engine) protocolArgs() []string {
	var args []string
	if e.cfg.BatchWindow > 0 {
		args = append(args, "-batch", e.cfg.BatchWindow.String())
	}
	if e.cfg.StabilityK > 0 {
		args = append(args, "-stability", strconv.Itoa(e.cfg.StabilityK))
	}
	return args
}

func (e *Engine) launch(index int, args ...string) (*Proc, error) {
	cmd := exec.Command(e.cfg.Bin, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start rgbnode[%d]: %w", index, err)
	}
	p := &Proc{Index: index, cmd: cmd, stdin: bufio.NewWriter(stdin), lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	return p, nil
}

// Procs returns the deployment's processes, slot-indexed.
func (e *Engine) Procs() []*Proc { return e.procs }

// Proc returns the process at the given cluster slot.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// Close tears the deployment down: live daemons get a best-effort
// "quit", everything else a SIGKILL, and all processes are reaped.
func (e *Engine) Close() {
	for _, p := range e.procs {
		if !p.dead {
			p.Send("quit") // best effort; Kill below reaps regardless
		}
	}
	for _, p := range e.procs {
		p.Kill()
	}
}

// Send writes one command line to the daemon's stdin.
func (p *Proc) Send(cmd string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return fmt.Errorf("chaos: rgbnode[%d] is dead", p.Index)
	}
	if _, err := p.stdin.WriteString(cmd + "\n"); err != nil {
		return fmt.Errorf("chaos: write %q to rgbnode[%d]: %w", cmd, p.Index, err)
	}
	return p.stdin.Flush()
}

// Expect reads stdout lines until one starts with prefix and returns
// it. A daemon "err ..." reply or process exit fails immediately.
func (p *Proc) Expect(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("chaos: rgbnode[%d] exited while waiting for %q", p.Index, prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line, nil
			}
			if strings.HasPrefix(line, "err ") {
				return "", fmt.Errorf("chaos: rgbnode[%d] error while waiting for %q: %s", p.Index, prefix, line)
			}
		case <-deadline:
			return "", fmt.Errorf("chaos: rgbnode[%d] timed out waiting for %q", p.Index, prefix)
		}
	}
}

// Do sends a command and waits for its matching "ok <cmd>" reply.
func (p *Proc) Do(cmd string) (string, error) {
	if err := p.Send(cmd); err != nil {
		return "", err
	}
	return p.Expect("ok "+strings.Fields(cmd)[0], 15*time.Second)
}

// Kill delivers SIGKILL — the crash no daemon can trap — and reaps the
// process. Idempotent.
func (p *Proc) Kill() {
	p.mu.Lock()
	already := p.dead
	p.dead = true
	p.mu.Unlock()
	if already {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// Dead reports whether Kill has been called on this process.
func (p *Proc) Dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// Partition cuts the deployment into two sides: every live process in
// a blocks every slot in b and vice versa, so datagrams between the
// sides drop in both directions at both ends. Heal removes the cut.
func (e *Engine) Partition(a, b []int) error {
	block := func(from []int, to []int) error {
		var sb strings.Builder
		sb.WriteString("block")
		for _, s := range to {
			fmt.Fprintf(&sb, " %d", s)
		}
		for _, i := range from {
			p := e.procs[i]
			if p.Dead() {
				continue
			}
			if _, err := p.Do(sb.String()); err != nil {
				return err
			}
		}
		return nil
	}
	if err := block(a, b); err != nil {
		return err
	}
	if err := block(b, a); err != nil {
		return err
	}
	e.logf("chaos: partitioned %v | %v", a, b)
	return nil
}

// Heal clears every live process's block rules, reconnecting the
// deployment.
func (e *Engine) Heal() error {
	for _, p := range e.procs {
		if p.Dead() {
			continue
		}
		if _, err := p.Do("unblock"); err != nil {
			return err
		}
	}
	e.logf("chaos: healed")
	return nil
}

// AwaitConvergence polls "query" on every live process not listed in
// except until each reply line ends with want (the daemon renders
// members sorted, so want is a deterministic suffix), or the timeout
// elapses — in which case the error carries every process's last
// reply.
func (e *Engine) AwaitConvergence(want string, timeout time.Duration, except ...int) error {
	return e.await("query", want, timeout, except...)
}

// AwaitAuthoritative polls "members" — each process's own topmost
// node's authoritative view — until every live process not in except
// renders want. AwaitConvergence proves the hierarchy answers
// consistently through the query path (which routes via AP 0); this
// proves every process's topmost ring actually merged and applied the
// changes. The distinction matters around partitions: a member removed
// while some fragment is still detached is resurrected when that
// fragment's stale list folds back in (the merge is a union with no
// tombstones), so a churn driver must see authoritative agreement
// before it cuts again.
func (e *Engine) AwaitAuthoritative(want string, timeout time.Duration, except ...int) error {
	return e.await("members", want, timeout, except...)
}

// AwaitRingUnited polls "ring" on every live process not in except
// until each one's hosted topmost node reports a roster of want
// entities and all agree on a single leader. Membership agreement
// (AwaitAuthoritative) is necessary but not sufficient after a heal:
// fragments can hold identical member lists while their topmost
// rosters are still split, and a removal committed on a split ring is
// resurrected when the detached fragment's list folds back in. A churn
// driver that waits for ring unity closes that window.
func (e *Engine) AwaitRingUnited(want int, timeout time.Duration, except ...int) error {
	skip := make(map[int]bool, len(except))
	for _, i := range except {
		skip[i] = true
	}
	needle := fmt.Sprintf("roster=%d ", want)
	deadline := time.Now().Add(timeout)
	last := make(map[int]string)
	for {
		all := true
		leaders := make(map[string]bool)
		for _, p := range e.procs {
			if skip[p.Index] || p.Dead() {
				continue
			}
			line, err := p.Do("ring")
			if err != nil {
				return err
			}
			last[p.Index] = line
			if !strings.Contains(line, "hosted=true") {
				continue // pure client slot: no topmost node to compare
			}
			if !strings.Contains(line, needle) {
				all = false
			}
			for _, f := range strings.Fields(line) {
				if l, ok := strings.CutPrefix(f, "leader="); ok {
					leaders[l] = true
				}
			}
		}
		if all && len(leaders) <= 1 {
			e.logf("chaos: ring united at roster=%d", want)
			return nil
		}
		if time.Now().After(deadline) {
			var sb strings.Builder
			fmt.Fprintf(&sb, "chaos: ring not united at roster=%d within %s:", want, timeout)
			for _, p := range e.procs {
				if skip[p.Index] || p.Dead() {
					continue
				}
				fmt.Fprintf(&sb, "\n  rgbnode[%d]: %s", p.Index, last[p.Index])
			}
			return fmt.Errorf("%s", sb.String())
		}
		time.Sleep(150 * time.Millisecond)
	}
}

func (e *Engine) await(cmd, want string, timeout time.Duration, except ...int) error {
	skip := make(map[int]bool, len(except))
	for _, i := range except {
		skip[i] = true
	}
	deadline := time.Now().Add(timeout)
	last := make(map[int]string)
	for {
		all := true
		for _, p := range e.procs {
			if skip[p.Index] || p.Dead() {
				continue
			}
			line, err := p.Do(cmd)
			if err != nil {
				return err
			}
			last[p.Index] = line
			if !strings.HasSuffix(line, want) {
				all = false
			}
		}
		if all {
			e.logf("chaos: %s converged to %q", cmd, want)
			return nil
		}
		if time.Now().After(deadline) {
			var sb strings.Builder
			fmt.Fprintf(&sb, "chaos: no %s convergence to %q within %s:", cmd, want, timeout)
			for _, p := range e.procs {
				if skip[p.Index] || p.Dead() {
					continue
				}
				fmt.Fprintf(&sb, "\n  rgbnode[%d]: %s", p.Index, last[p.Index])
			}
			return fmt.Errorf("%s", sb.String())
		}
		time.Sleep(150 * time.Millisecond)
	}
}
