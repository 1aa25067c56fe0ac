// Command rgbnode is the networked RGB membership daemon: one process
// of a multi-process deployment. Each rgbnode binds a UDP address,
// instantiates the hierarchy entities its cluster slot owns (topmost
// ring node i plus its whole subtree go to slot i mod processes), and
// exchanges every protocol message as wire-encoded datagrams with its
// peers — the same engine that drives the simulator, now spread over
// real sockets.
//
// Three processes on loopback form one height-2 hierarchy:
//
//	rgbnode -bind 127.0.0.1:7000 -index 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -h 2 -r 3
//	rgbnode -bind 127.0.0.1:7001 -index 1 -peers ...same...
//	rgbnode -bind 127.0.0.1:7002 -index 2 -peers ...same...
//
// The daemon is driven by a line protocol on stdin (one command per
// line, one "ok ..."/"err ..." reply per command on stdout):
//
//	join <guid> [apIndex]   submit a Member-Join (at the given AP index)
//	leave <guid>            voluntary Member-Leave (same process that joined)
//	fail <guid>             detected Member-Failure
//	handoff <guid> <apIndex> move the member to another AP
//	query [level]           Membership-Query (TMS by default)
//	members                 local topmost-ring view (empty if not hosted here)
//	ring                    hosted topmost node's roster size and leader
//	settle                  wait for local quiescence
//	stats                   transport + wire counters
//	peers                   live peer table (slot, address, state, age, frames)
//	block <slot> [slot...]  drop all traffic to/from the given peer slots (every group)
//	unblock                 clear the block rules (heal the partition)
//	use <group>             switch the current group (multi-group mode)
//	groups                  list hosted groups and the current one
//	quit                    shut down
//
// With -groups N > 1 the daemon hosts N independent groups over the
// same socket (an rgb.Cluster sharded across engine workers; group
// identities 224.0.0.1 ... 224.0.0.N). Membership commands apply to
// the current group, selected with "use"; every peer process must run
// with the same -groups value.
//
// A single process (no -peers) serves the whole hierarchy, and can
// seed clients like any member of a larger deployment (below).
//
// Instead of a static -peers list, a process can join a running
// deployment knowing only one member's address: -seeds bootstraps the
// topology and the peer table from that seed and keeps the address
// book fresh by gossip. By default it joins as a slotless observer, a
// client of the deployment: it hosts no entity, and every member routes
// replies to its mobile hosts and queries through the client slot its
// hellos announce. -seedslot claims a cluster slot instead — the way to
// restart a member on a new address with no config reload anywhere:
//
//	rgbnode -bind 127.0.0.1:0 -seeds 127.0.0.1:7000 -seedslot 2
//
// With -http addr the daemon additionally serves the read-only HTTP
// operability plane (rgb.NewAdminHandler): GET /metrics in Prometheus
// text format, GET /healthz (200 ok / 503 bootstrapping or degraded),
// and the admin JSON API (/v1/members?group=, /v1/peers, /v1/shards).
// The bound address is announced as an "http <addr>" line before
// "ready"; a bind failure exits nonzero. The stdin "stats" line
// renders from the same telemetry registry the exposition serves, so
// the two can never disagree.
//
// SIGINT/SIGTERM shut the daemon down cleanly: the cluster and the
// HTTP listener close before the process exits (stdin "quit" does the
// same).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/rgbproto/rgb"
)

func main() {
	bind := flag.String("bind", "127.0.0.1:7000", "UDP address to bind")
	advertise := flag.String("advertise", "", "address peers use to reach this process (default: bind)")
	index := flag.Int("index", 0, "this process's slot in -peers")
	peers := flag.String("peers", "", "comma-separated advertise addresses of all processes (empty = single process)")
	seeds := flag.String("seeds", "", "comma-separated seed addresses: bootstrap into a running deployment instead of -peers")
	seedSlot := flag.Int("seedslot", -1, "cluster slot to claim when bootstrapping via -seeds (-1 = slotless observer)")
	h := flag.Int("h", 2, "hierarchy height (ring levels)")
	r := flag.Int("r", 3, "entities per ring")
	seed := flag.Uint64("seed", 1, "deployment seed")
	heartbeat := flag.Duration("heartbeat", 0, "heartbeat interval (0 disables)")
	batch := flag.Duration("batch", 0, "view-change batch window (0 = per-change rounds)")
	stability := flag.Int("stability", 0, "observers required to confirm an eviction (<2 disables the stability filter)")
	groups := flag.Int("groups", 1, "independent groups hosted over this socket")
	httpAddr := flag.String("http", "", "TCP address for /metrics, /healthz and the admin JSON API (empty disables)")
	corrupt := flag.Float64("corrupt", 0, "fault injection: per-message corruption probability")
	replay := flag.Float64("replay", 0, "fault injection: per-message duplicate/replay probability")
	misroute := flag.Float64("misroute", 0, "fault injection: per-message misroute probability")
	reorder := flag.Float64("reorder", 0, "fault injection: per-message reorder probability")
	faultSeed := flag.Uint64("faultseed", 0, "fault injection seed (0 derives from -seed)")
	flag.Parse()

	var extra []rgb.Option
	if *heartbeat > 0 {
		extra = append(extra, rgb.WithHeartbeat(*heartbeat))
	}
	if *batch > 0 {
		extra = append(extra, rgb.WithBatchWindow(*batch))
	}
	if *stability > 0 {
		extra = append(extra, rgb.WithStabilityK(*stability))
	}
	if plan := (rgb.FaultPlan{
		Seed: *faultSeed, Corrupt: *corrupt, Duplicate: *replay,
		Misroute: *misroute, Reorder: *reorder,
	}); plan.Active() {
		extra = append(extra, rgb.WithFaults(plan))
	}
	if *seeds != "" {
		extra = append(extra, rgb.WithSeeds(strings.Split(*seeds, ",")...))
		if *seedSlot >= 0 {
			extra = append(extra, rgb.WithSeedSlot(*seedSlot))
		}
	}
	if err := run(*bind, *advertise, *index, *peers, *httpAddr, *h, *r, *seed, *groups, extra); err != nil {
		fmt.Fprintln(os.Stderr, "rgbnode:", err)
		os.Exit(1)
	}
}

func run(bind, advertise string, index int, peerList, httpAddr string, h, r int, seed uint64, groups int, extra []rgb.Option) error {
	opts := []rgb.Option{
		rgb.WithHierarchy(h, r),
		rgb.WithSeed(seed),
	}
	opts = append(opts, extra...)
	if advertise != "" {
		opts = append(opts, rgb.WithAdvertise(advertise))
	}
	if peerList != "" {
		peers := strings.Split(peerList, ",")
		opts = append(opts, rgb.WithCluster(index, peers...))
	}

	// One group keeps the classic single-Service daemon; more open an
	// rgb.Cluster sharing the socket across group engines.
	var svcs []*rgb.Service
	if groups <= 1 {
		svc, err := rgb.Listen(bind, opts...)
		if err != nil {
			return err
		}
		defer svc.Close()
		svcs = []*rgb.Service{svc}
	} else {
		c, err := rgb.ListenCluster(bind, opts...)
		if err != nil {
			return err
		}
		defer c.Close()
		for i := 0; i < groups; i++ {
			svc, err := c.Open(rgb.NewGroupID(uint32(i + 1)))
			if err != nil {
				return err
			}
			svcs = append(svcs, svc)
		}
	}
	svc := svcs[0]

	// Every mode has an owning cluster (single-group mode an implicit
	// one): the handle for the socket, telemetry, health and the admin
	// surface. Enabling telemetry before announcing readiness means the
	// instrumentation observes every round and commit of the run.
	opc := svc.Cluster()
	reg := opc.Telemetry()

	topo := svc.Topology()
	la, _ := opc.LocalAddr()
	if groups > 1 {
		fmt.Printf("rgbnode: listening on %s index=%d groups=%d shards=%d entities=%d rings=%d aps=%d\n",
			la, index, len(svcs), opc.Shards(), topo.Entities, topo.Rings, topo.APs)
	} else {
		fmt.Printf("rgbnode: listening on %s index=%d entities=%d rings=%d aps=%d\n",
			la, index, topo.Entities, topo.Rings, topo.APs)
	}
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return fmt.Errorf("http listen %s: %w", httpAddr, err)
		}
		srv := &http.Server{Handler: rgb.NewAdminHandler(opc)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("http %s\n", ln.Addr())
	}
	fmt.Println("ready")

	// Stdin commands and termination signals are served from one
	// select loop so SIGINT/SIGTERM get the same clean shutdown path
	// (deferred cluster and HTTP listener closes) as "quit".
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		scanErr <- sc.Err()
		close(lines)
	}()

	ctx := context.Background()
	aps := svc.APs()
	for {
		var line string
		select {
		case sig := <-sigs:
			fmt.Printf("ok signal %s\n", sig)
			return nil
		case l, ok := <-lines:
			if !ok {
				return <-scanErr
			}
			line = l
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit":
			fmt.Println("ok quit")
			return nil
		case "use":
			if len(args) != 1 {
				fmt.Println("err usage: use <group 1..N>")
				continue
			}
			i, err := strconv.Atoi(args[0])
			if err != nil || i < 1 || i > len(svcs) {
				fmt.Printf("err bad group %q (have 1..%d)\n", args[0], len(svcs))
				continue
			}
			svc = svcs[i-1]
			aps = svc.APs()
			fmt.Printf("ok use group=%d gid=%s\n", i, svc.Group())
		case "groups":
			fmt.Printf("ok groups n=%d current=%s\n", len(svcs), svc.Group())
		case "block":
			slots := make([]int, 0, len(args))
			bad := false
			for _, a := range args {
				s, err := strconv.Atoi(a)
				if err != nil {
					fmt.Printf("err bad slot %q\n", a)
					bad = true
					break
				}
				slots = append(slots, s)
			}
			if bad {
				continue
			}
			if len(slots) == 0 {
				fmt.Println("err usage: block <slot> [slot...]")
				continue
			}
			if err := opc.Block(slots...); err != nil {
				fmt.Println("err block:", err)
				continue
			}
			fmt.Printf("ok block slots=%d\n", len(slots))
		case "unblock":
			if err := opc.Unblock(); err != nil {
				fmt.Println("err unblock:", err)
				continue
			}
			fmt.Println("ok unblock")
		case "settle":
			if err := svc.Settle(ctx); err != nil {
				fmt.Println("err settle:", err)
				continue
			}
			fmt.Println("ok settle")
		case "join":
			guid, ap, err := guidAndAP(args, aps, true)
			if err != nil {
				fmt.Println("err", err)
				continue
			}
			if err := svc.JoinAt(ctx, guid, ap); err != nil {
				fmt.Println("err join:", err)
				continue
			}
			fmt.Printf("ok join %s at %s\n", guid, ap)
		case "leave":
			guid, _, err := guidAndAP(args, aps, false)
			if err != nil {
				fmt.Println("err", err)
				continue
			}
			if err := svc.Leave(ctx, guid); err != nil {
				fmt.Println("err leave:", err)
				continue
			}
			fmt.Printf("ok leave %s\n", guid)
		case "fail":
			guid, _, err := guidAndAP(args, aps, false)
			if err != nil {
				fmt.Println("err", err)
				continue
			}
			if err := svc.Fail(ctx, guid); err != nil {
				fmt.Println("err fail:", err)
				continue
			}
			fmt.Printf("ok fail %s\n", guid)
		case "handoff":
			guid, ap, err := guidAndAP(args, aps, true)
			if err != nil {
				fmt.Println("err", err)
				continue
			}
			if err := svc.Handoff(ctx, guid, ap); err != nil {
				fmt.Println("err handoff:", err)
				continue
			}
			fmt.Printf("ok handoff %s to %s\n", guid, ap)
		case "query":
			scheme := rgb.TMS()
			if len(args) > 0 {
				level, err := strconv.Atoi(args[0])
				if err != nil {
					fmt.Println("err bad level:", args[0])
					continue
				}
				scheme = rgb.IMS(level)
			}
			res, err := svc.QueryWith(ctx, aps[0], scheme)
			if err != nil {
				fmt.Println("err query:", err)
				continue
			}
			fmt.Printf("ok query n=%d members=%s\n", len(res.Members), renderGUIDs(res.Members))
		case "members":
			members, err := svc.Members(ctx)
			if err != nil {
				fmt.Println("err members:", err)
				continue
			}
			fmt.Printf("ok members n=%d members=%s\n", len(members), renderGUIDs(members))
		case "ring":
			view, err := svc.RingView(ctx)
			if err != nil {
				fmt.Println("err ring:", err)
				continue
			}
			fmt.Printf("ok ring roster=%d leader=%s hosted=%v\n", view.Roster, view.Leader, view.Hosted)
		case "stats":
			fmt.Println(statsLine(reg))
		case "peers":
			peers, _ := opc.Peers()
			var sb strings.Builder
			fmt.Fprintf(&sb, "ok peers n=%d", len(peers))
			now := time.Now()
			for _, p := range peers {
				fmt.Fprintf(&sb, " %d:%s:%s:%s:%d",
					p.Slot, p.Addr, p.State, now.Sub(p.LastSeen).Truncate(time.Millisecond), p.Frames)
			}
			fmt.Println(sb.String())
		default:
			fmt.Println("err unknown command:", cmd)
		}
	}
}

// guidAndAP parses "<guid> [apIndex]" command arguments.
func guidAndAP(args []string, aps []rgb.NodeID, wantAP bool) (rgb.GUID, rgb.NodeID, error) {
	if len(args) < 1 {
		return 0, 0, fmt.Errorf("missing guid")
	}
	g, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad guid %q", args[0])
	}
	ap := aps[int(g)%len(aps)]
	if wantAP && len(args) > 1 {
		i, err := strconv.Atoi(args[1])
		if err != nil || i < 0 || i >= len(aps) {
			return 0, 0, fmt.Errorf("bad ap index %q", args[1])
		}
		ap = aps[i]
	}
	return rgb.GUID(g), ap, nil
}

// statsLine renders the classic "ok stats ..." line from the
// telemetry registry — the same samples /metrics exposes, summed over
// groups (the injected faults per kind), so the stdin protocol, the
// exposition and Cluster.NetStats can never disagree.
func statsLine(reg *rgb.Telemetry) string {
	totals := make(map[string]float64)
	for _, s := range reg.Gather() {
		name := s.Name
		if name == "rgb_faults_injected_total" {
			name += "/" + s.Label("kind")
		}
		totals[name] += s.Value
	}
	u := func(name string) uint64 { return uint64(totals[name]) }
	return fmt.Sprintf("ok stats sent=%d delivered=%d dropped=%d received=%d decode_errors=%d unknown_version=%d unknown_group=%d cut=%d faults=%d/%d/%d/%d joined=%d evicted=%d gossip=%d",
		u("rgb_transport_sent_total"), u("rgb_transport_delivered_total"), u("rgb_transport_dropped_total"),
		u("rgb_net_received_total"), u("rgb_net_decode_errors_total"),
		u("rgb_net_unknown_version_total"), u("rgb_net_unknown_group_total"),
		u("rgb_transport_cut_total"),
		u("rgb_faults_injected_total/corrupt"), u("rgb_faults_injected_total/replay"),
		u("rgb_faults_injected_total/misroute"), u("rgb_faults_injected_total/reorder"),
		u("rgb_net_peer_joined_total"), u("rgb_net_peer_evicted_total"),
		u("rgb_net_gossip_frames_total"))
}

// renderGUIDs renders member GUIDs sorted and comma-separated.
func renderGUIDs(members []rgb.MemberInfo) string {
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m.Status.Operational() {
			out = append(out, m.GUID.String())
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return "-"
	}
	return strings.Join(out, ",")
}
