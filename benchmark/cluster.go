package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"github.com/rgbproto/rgb"
	"github.com/rgbproto/rgb/internal/topology"
)

const (
	nprocs = 3 // the "processes" of a net3_* workload

	// opTimeout bounds every wait for a Watch event: a lost change
	// costs one timeout and a replacement member, never a hang.
	opTimeout = 2 * time.Second

	convergeTimeout = 10 * time.Second
)

var ctx = context.Background()

// startProcs brings up one networked instance per cluster slot.
// WithCluster needs every address up front, so the ports are reserved
// by binding and releasing them; when another process takes one in the
// gap ("address in use") everything started so far is closed and the
// whole bring-up is retried on fresh ports, at most five times.
func startProcs[T io.Closer](start func(slot int, addrs []string) (T, error)) ([]T, error) {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var addrs []string
		if addrs, err = reservePorts(nprocs); err != nil {
			return nil, err
		}
		procs := make([]T, 0, nprocs)
		for slot := 0; slot < nprocs && err == nil; slot++ {
			var p T
			if p, err = start(slot, addrs); err == nil {
				procs = append(procs, p)
			}
		}
		if err == nil {
			return procs, nil
		}
		for _, p := range procs {
			p.Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cluster bind failed five times: %w", err)
}

func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	return addrs, nil
}

// deployment is a three-process networked deployment on loopback UDP:
// one cluster handle per process and, per hosted group, that group's
// Service on every process.
type deployment struct {
	clusters []*rgb.Cluster
	groups   [][]*rgb.Service // [group][process]
	aps      []rgb.NodeID
	// Every membership change of a net3_* workload is submitted on
	// process 0 and enters at an access proxy it hosts, in an order
	// that keeps each ring's consecutive rounds at one holder or moving
	// to its ring successor; see "Traps" in README.md. entry are the
	// leaders of process 0's bottom rings in the order of their parents
	// in the ring above, ring0 is its first bottom ring in ring order.
	entry, ring0 []rgb.NodeID
	// queryFrom is, per process, an access proxy it hosts.
	queryFrom []rgb.NodeID
}

// listen3 starts three rgb.Listen processes serving one group.
func listen3(h, r int, seed uint64, lane *lane) (*deployment, error) {
	sp := lane.begin(spanOpen, -1, -1)
	svcs, err := startProcs(func(slot int, addrs []string) (*rgb.Service, error) {
		return rgb.Listen(addrs[slot], rgb.WithHierarchy(h, r), rgb.WithSeed(seed), rgb.WithCluster(slot, addrs...))
	})
	lane.end(sp)
	if err != nil {
		return nil, err
	}
	d := &deployment{groups: [][]*rgb.Service{svcs}}
	for _, s := range svcs {
		d.clusters = append(d.clusters, s.Cluster())
	}
	d.partition(h, r)
	return d, nil
}

// listenCluster3 starts three rgb.ListenCluster processes with two
// engine shards each and opens the given groups on all of them.
func listenCluster3(h, r int, seed uint64, gids []rgb.GroupID, lane *lane) (*deployment, error) {
	clusters, err := startProcs(func(slot int, addrs []string) (*rgb.Cluster, error) {
		return rgb.ListenCluster(addrs[slot], rgb.WithHierarchy(h, r), rgb.WithSeed(seed),
			rgb.WithShards(2), rgb.WithCluster(slot, addrs...))
	})
	if err != nil {
		return nil, err
	}
	d := &deployment{clusters: clusters}
	for _, gid := range gids {
		svcs := make([]*rgb.Service, nprocs)
		for p, c := range clusters {
			sp := lane.begin(spanOpen, -1, -1)
			svcs[p], err = c.Open(gid)
			lane.end(sp)
			if err != nil {
				d.close()
				return nil, err
			}
		}
		d.groups = append(d.groups, svcs)
	}
	d.partition(h, r)
	return d, nil
}

// partition records which process hosts which access proxy: the same
// deterministic subtree split every process computes for itself. The
// hierarchy numbers rings and their entities breadth-first, so bottom
// rings come in the ring order of their parents.
func (d *deployment) partition(h, r int) {
	d.aps = d.groups[0][0].APs()
	hier := topology.NewRingHierarchy(h, r)
	owners := hier.SubtreeOwners(nprocs)
	d.queryFrom = make([]rgb.NodeID, nprocs)
	for _, rg := range hier.Level(h - 1) {
		ap := rg.Leader()
		d.queryFrom[owners[ap]] = ap
		if owners[ap] != 0 {
			continue
		}
		if d.entry = append(d.entry, ap); len(d.entry) == 1 {
			d.ring0 = rg.Nodes()
		}
	}
}

func (d *deployment) close() {
	for _, c := range d.clusters {
		c.Close()
	}
}

// counters are the protocol and socket counters a workload's metrics
// are deltas of, summed over every process and group.
type counters struct {
	delivered, tokenHops, notifyHops uint64
	rounds, opsCarried               uint64
	repairs                          int
	received, relayed, dupDropped    uint64
	drops                            uint64 // datagrams the socket layer rejected
	gossip, evictions                uint64
}

func (c *counters) addService(s *rgb.Service) {
	st := s.Stats()
	var m rgb.ServiceMetrics
	s.Inspect(func(sys *rgb.System) {
		m.Rounds, m.OpsCarried, m.Repairs = sys.Rounds(), sys.OpsCarried(), len(sys.Repairs())
	})
	c.delivered += st.Delivered
	c.tokenHops += st.DeliveredOf(rgb.KindToken)
	c.notifyHops += st.DeliveredOf(rgb.KindNotify)
	c.rounds += m.Rounds
	c.opsCarried += m.OpsCarried
	c.repairs += m.Repairs
}

func (d *deployment) counters() counters {
	var c counters
	for _, procs := range d.groups {
		for _, s := range procs {
			c.addService(s)
		}
	}
	for _, cl := range d.clusters {
		ns, _ := cl.NetStats()
		c.received += ns.Received
		c.relayed += ns.Relayed
		c.dupDropped += ns.DupDropped
		c.drops += ns.DecodeErrors + ns.UnknownVersion + ns.UnknownGroup + ns.UnknownPeer + ns.TTLExpired + ns.Oversize
		c.gossip += ns.GossipFrames
		c.evictions += ns.PeerEvicted
	}
	return c
}

// converge waits until every process answers both Members and a Query
// from one of its own access proxies with exactly the expected members
// of group g, and reports the last disagreement if that never happens.
func (d *deployment) converge(g int, want map[rgb.GUID]bool) error {
	deadline := time.Now().Add(convergeTimeout)
	for {
		err := d.agree(g, want)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *deployment) agree(g int, want map[rgb.GUID]bool) error {
	for p, svc := range d.groups[g] {
		members, err := svc.Members(ctx)
		if err != nil {
			return fmt.Errorf("group %d process %d Members: %w", g, p, err)
		}
		if err := sameMembers(members, want); err != nil {
			return fmt.Errorf("group %d process %d Members: %w", g, p, err)
		}
		res, err := svc.Query(ctx, d.queryFrom[p])
		if err != nil {
			return fmt.Errorf("group %d process %d Query: %w", g, p, err)
		}
		if err := sameMembers(res.Members, want); err != nil {
			return fmt.Errorf("group %d process %d Query: %w", g, p, err)
		}
	}
	return nil
}

// sameMembers checks that the operational members are exactly want.
func sameMembers(got []rgb.MemberInfo, want map[rgb.GUID]bool) error {
	n := 0
	for _, m := range got {
		if !m.Status.Operational() {
			continue
		}
		if !want[m.GUID] {
			return fmt.Errorf("unexpected member %v", m.GUID)
		}
		n++
	}
	if n != len(want) {
		return fmt.Errorf("%d members, want %d", n, len(want))
	}
	return nil
}
