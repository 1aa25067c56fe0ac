package core

import (
	"errors"
	"slices"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/wire"
)

// registrations is a System's transport that keeps the set of endpoints
// registered on it.
type registrations struct {
	runtime.Transport
	live map[ids.NodeID]bool
}

func (r *registrations) Register(id ids.NodeID, ep runtime.Endpoint) {
	r.live[id] = true
	r.Transport.Register(id, ep)
}

func (r *registrations) Unregister(id ids.NodeID) {
	delete(r.live, id)
	r.Transport.Unregister(id)
}

// countRegistrations puts a registrations in front of sys's transport,
// holding the entities it registered at construction.
func countRegistrations(sys *System) *registrations {
	r := &registrations{Transport: sys.tr, live: make(map[ids.NodeID]bool)}
	for id := range sys.nodes {
		r.live[id] = true
	}
	sys.tr = r
	return r
}

// joinLeave joins g at ap, runs to quiescence, and has it leave again.
func joinLeave(t *testing.T, sys *System, g ids.GUID, ap ids.NodeID) {
	t.Helper()
	if _, err := sys.JoinMemberAt(g, ap); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if err := sys.LeaveMember(g); err != nil {
		t.Fatal(err)
	}
	sys.Run()
}

// TestDepartedMembersReleased: under fresh-GUID churn a System keeps the
// records of its live members, the endpoint and version of the last
// tombstoneWindow departures, their endpoints' registrations and a flat
// heap, and no more. A departed member's record goes when its departure
// commits; its endpoint and version last exactly while a hosted entity's
// window holds its tombstone, and no endpoint is released while a hosted
// entity lists or buries its member. No Holder-Acknowledgement misses its
// endpoint, and a released GUID joins again as a new member everywhere.
func TestDepartedMembersReleased(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	reg := countRegistrations(sys)
	aps := sys.APs()
	const residents = 20
	for g := 1; g <= residents; g++ {
		if _, err := sys.JoinMemberAt(ids.GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	fresh := func(i int) ids.GUID { return ids.GUID(1000 + i) }
	var heap2 uint64
	for i := 1; i <= 3*tombstoneWindow; i++ {
		joinLeave(t, sys, fresh(i), aps[i%len(aps)])
		if _, ok := sys.Member(fresh(i)); ok {
			t.Fatalf("the record of %s outlives its committed leave", fresh(i))
		}
		if i > tombstoneWindow {
			if _, ok := sys.left[fresh(i-tombstoneWindow+1)]; !ok {
				t.Fatalf("after %d leaves %s, still in every window, is forgotten", i, fresh(i-tombstoneWindow+1))
			}
			g := fresh(i - tombstoneWindow)
			if _, ok := sys.left[g]; ok {
				t.Fatalf("after %d leaves %s, evicted from every window, is kept", i, g)
			}
			if k := sys.holders(g); k != 0 {
				t.Fatalf("the endpoint of %s is released while %d hosted entities hold it", g, k)
			}
		}
		if i == 2*tombstoneWindow {
			heap2 = liveHeap()
		}
	}
	grown := int64(liveHeap()) - int64(heap2)
	t.Logf("live heap grew %d B over the third %d cycles", grown, tombstoneWindow)
	if grown >= 64<<10 {
		t.Errorf("live heap grew %d B over the third %d join/leave cycles, want < 64 KiB", grown, tombstoneWindow)
	}
	if n := len(sys.members); n != residents {
		t.Errorf("%d member records, want the %d live members'", n, residents)
	}
	if n := len(sys.members) + len(sys.left); n > residents+tombstoneWindow {
		t.Errorf("%d members kept, want at most %d live + %d departed", n, residents, tombstoneWindow)
	}
	if n := len(reg.live) - len(sys.nodes); n > residents+tombstoneWindow {
		t.Errorf("%d MH endpoints registered, want at most %d live + %d departed", n, residents, tombstoneWindow)
	}
	if d := sys.tr.Stats().Dropped; d != 0 {
		t.Errorf("%d messages dropped, want 0: a Holder-Acknowledgement lost its endpoint", d)
	}

	g := fresh(1)
	if sys.holders(g) != 0 {
		t.Fatalf("%s is released but an entity still holds it", g)
	}
	m, err := sys.JoinMemberAt(g, aps[0])
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	requireRingListsMatchCoverage(t, sys)
	if !slices.ContainsFunc(sys.GlobalMembership(), func(e ids.MemberInfo) bool { return e.GUID == g && e.Ver == m.Ver }) {
		t.Fatalf("re-joined %s at v%d is not in the top ring's list", g, m.Ver)
	}
}

// TestDepartedMemberKeptWhileLowerRingBuries: under path-only
// dissemination a bottom ring hears only its own changes, so it still
// buries a member that left there long after the top ring evicted it;
// the System keeps that member's endpoint and version while the other
// departures are released.
func TestDepartedMemberKeptWhileLowerRingBuries(t *testing.T) {
	cfg := quietConfig(2, 3)
	cfg.Dissemination = DisseminatePathOnly
	sys := NewSystem(cfg)
	bottom := sys.hier.Level(1)
	kept := ids.GUID(1)
	joinLeave(t, sys, kept, bottom[0].Nodes()[0])
	other := bottom[1].Nodes()
	for i := 1; i <= tombstoneWindow+departedBacklog+1; i++ {
		joinLeave(t, sys, ids.GUID(1000+i), other[i%len(other)])
	}
	if _, ok := sys.top[0].gone.Get(kept); ok {
		t.Fatalf("the top ring still buries %s", kept)
	}
	if _, ok := sys.left[kept]; !ok {
		t.Errorf("%s is forgotten while %s buries it", kept, bottom[0].ID())
	}
	if _, ok := sys.left[ids.GUID(1001)]; ok {
		t.Errorf("%s, which no entity holds, is kept", ids.GUID(1001))
	}
	if n := len(sys.members) + len(sys.left); n > 1+tombstoneWindow+departedBacklog {
		t.Errorf("%d members kept, want at most %d", n, 1+tombstoneWindow+departedBacklog)
	}
}

// TestDepartedMemberAcrossProcesses: a member joins and leaves through
// process 0 at an access proxy of process 1, and then more than
// tombstoneWindow members join and leave at process 0's own. The leave's
// commit drops the member's record either way. Under full dissemination
// every entity buried them all, so process 0 releases the member; under
// path-only process 1's bottom ring still buries it and process 0 keeps
// its endpoint and version. Either way the member's re-join through
// process 0 reaches every ring.
func TestDepartedMemberAcrossProcesses(t *testing.T) {
	for _, mode := range []DisseminationMode{DisseminateFull, DisseminatePathOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := quietConfig(2, 3)
			cfg.Dissemination = mode
			p := newProcs(cfg, 3)
			s0 := p.sys[0]
			g, far, near := ids.GUID(1), p.apsOf(1)[0], p.apsOf(0)
			run := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				p.rt.Run()
			}
			_, err := s0.JoinMemberAt(g, far)
			run(err)
			run(s0.LeaveMember(g))
			for i := 1; i <= tombstoneWindow+1; i++ {
				_, err := s0.JoinMemberAt(ids.GUID(1000+i), near[i%len(near)])
				run(err)
				run(s0.LeaveMember(ids.GUID(1000 + i)))
			}
			if _, ok := s0.Member(g); ok {
				t.Errorf("the record of %s outlives its committed leave", g)
			}
			if _, kept := s0.left[g]; kept != (mode == DisseminatePathOnly) {
				t.Errorf("endpoint and version of %s kept = %v", g, kept)
			}
			_, err = s0.JoinMemberAt(g, far)
			run(err)
			for slot, s := range p.sys {
				if msg := coverageMismatch(s); msg != "" {
					t.Errorf("process %d after the re-join of %s: %s", slot, g, msg)
				}
			}
		})
	}
}

// TestCollapseAtCommit: once the first topmost entity commits a leave,
// the System holds no record of the member but its endpoint stays
// registered; a Holder-Acknowledgement sent to it then is delivered, and
// the re-join takes the same endpoint at the next version.
func TestCollapseAtCommit(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	reg := countRegistrations(sys)
	var outcome string
	sys.rt.(*simnet.SimRuntime).Net().SetTrace(func(_ runtime.Message, o string) { outcome = o })
	g, ap := ids.GUID(7), sys.APs()[1]
	m, err := sys.JoinMemberAt(g, ap)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	node := m.Node()
	if err := sys.LeaveMember(g); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	ver := m.Ver
	if _, ok := sys.Member(g); ok {
		t.Fatalf("the record of %s outlives its committed leave", g)
	}
	if !reg.live[node] {
		t.Fatalf("the endpoint %s of departed %s is unregistered", node, g)
	}
	dropped := sys.tr.Stats().Dropped
	sys.send(ap, node, runtime.KindAck, &wire.HolderAck{Round: 1, Count: 1})
	sys.Run()
	if outcome != "delivered" || sys.tr.Stats().Dropped != dropped {
		t.Fatalf("a late Holder-Acknowledgement to %s was %q", node, outcome)
	}
	m, err = sys.JoinMemberAt(g, ap)
	if err != nil {
		t.Fatal(err)
	}
	if m.Node() != node || m.Ver != ver+1 {
		t.Fatalf("the re-join of %s took %s at v%d, want %s at v%d", g, m.Node(), m.Ver, node, ver+1)
	}
	sys.Run()
	if m.Acks() == 0 {
		t.Fatalf("the re-joined %s heard no Holder-Acknowledgement", g)
	}
	requireRingListsMatchCoverage(t, sys)
}

// departedHeapBudget is the live heap a System may keep per departed
// member while the member is still in the removal windows: its endpoint
// and version in left and its endpoint's registration. The full record
// it kept before cost about 180 B.
const departedHeapBudget = 100

// TestCollapsedMemberHeapBudget holds what a departure leaves behind
// below the window to departedHeapBudget. Every window is first filled
// with burials of GUIDs that never joined, so the departures measured
// evict those and the windows keep their size.
func TestCollapsedMemberHeapBudget(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	for i := range sys.arena {
		for k := range tombstoneWindow {
			sys.arena[i].bury(ids.GUID(1<<40+k), 1)
		}
	}
	aps := sys.APs()
	const warm, n = 100, tombstoneWindow - 100
	for i := 1; i <= warm; i++ {
		joinLeave(t, sys, ids.GUID(i), aps[i%len(aps)])
	}
	before := liveHeap()
	for i := warm + 1; i <= warm+n; i++ {
		joinLeave(t, sys, ids.GUID(i), aps[i%len(aps)])
	}
	perMember := (int64(liveHeap()) - int64(before)) / n
	if len(sys.members) != 0 || len(sys.left) != warm+n {
		t.Fatalf("%d records and %d departed members kept, want 0 and %d", len(sys.members), len(sys.left), warm+n)
	}
	t.Logf("%d B of live heap per departed member", perMember)
	if perMember > departedHeapBudget {
		t.Errorf("a departed member keeps %d B of live heap, budget %d B", perMember, departedHeapBudget)
	}
}

// TestMHOrdinalsBelowQueryRange: a new record takes the endpoint
// released longest ago, and with none released no ordinal at or past
// queryOrdinalBase is minted: the join fails and sends nothing.
func TestMHOrdinalsBelowQueryRange(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	sys.mhOrdinal = queryOrdinalBase - 3
	aps := sys.APs()
	join := func(g ids.GUID) (ids.NodeID, error) {
		t.Helper()
		m, err := sys.JoinMemberAt(g, aps[0])
		if err != nil {
			return ids.NoNode, err
		}
		if m.node.Ordinal() >= sys.cfg.mhBase+queryOrdinalBase {
			t.Fatalf("%s took endpoint %s, in the query apps' range", g, m.node)
		}
		return m.node, nil
	}
	exhausted := func(g ids.GUID) {
		t.Helper()
		sent := sys.tr.Stats().Sent
		if _, err := join(g); !errors.Is(err, errNoEndpoint) {
			t.Fatalf("join of %s with every ordinal in use: err = %v, want errNoEndpoint", g, err)
		}
		if _, ok := sys.Member(g); ok || sys.tr.Stats().Sent != sent {
			t.Fatalf("the failed join of %s left a record or sent a message", g)
		}
	}
	var nodes []ids.NodeID
	for g := ids.GUID(1); g <= 3; g++ {
		n, err := join(g)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	sys.Run()
	exhausted(4)

	// Members 3, 1 and 2 leave in that order; burials of members with no
	// record then push them out of every window, the top ring's last.
	for _, g := range []ids.GUID{3, 1, 2} {
		if err := sys.LeaveMember(g); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	}
	for i := len(sys.arena) - 1; i >= 0; i-- {
		for k := range tombstoneWindow {
			sys.arena[i].bury(ids.GUID(1<<40+k), 1)
		}
	}
	for g := ids.GUID(1); g <= 3; g++ {
		if _, ok := sys.Member(g); ok {
			t.Fatalf("%s is not released", g)
		}
	}
	for i, want := range []ids.NodeID{nodes[2], nodes[0], nodes[1]} {
		got, err := join(ids.GUID(5 + i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("join %d took endpoint %s, want %s, released %d-th", i+1, got, want, i+1)
		}
	}
	exhausted(8)
}
