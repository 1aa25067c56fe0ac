package discovery

import (
	"net"
	"net/netip"
	"testing"
	"time"
)

func addr(port int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(port))
}

// fakeClock is a manually advanced time source for table/map tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTable(selfSlot, slots int) (*Table, *fakeClock) {
	clk := newFakeClock()
	t := NewTable(selfSlot, slots)
	t.now = clk.now
	return t, clk
}

func TestTableHelloRoutesAndCounts(t *testing.T) {
	tbl, _ := newTestTable(0, 3)
	if got := tbl.AddrOf(1); got.IsValid() {
		t.Fatalf("unknown slot routed to %v", got)
	}
	if !tbl.Hello(1, addr(7001)) {
		t.Fatal("first hello did not report a routing change")
	}
	if got := tbl.AddrOf(1); got != addr(7001) {
		t.Fatalf("AddrOf(1) = %v, want 127.0.0.1:7001", got)
	}
	// Same address again: no change, no extra join count.
	if tbl.Hello(1, addr(7001)) {
		t.Fatal("repeat hello reported a routing change")
	}
	if tbl.Joined() != 1 {
		t.Fatalf("Joined = %d, want 1", tbl.Joined())
	}
	// The peer restarts on a new port: the address must move.
	if !tbl.Hello(1, addr(7099)) {
		t.Fatal("address change did not report a routing change")
	}
	if got := tbl.AddrOf(1); got != addr(7099) {
		t.Fatalf("AddrOf(1) after churn = %v, want 127.0.0.1:7099", got)
	}
	if tbl.Joined() != 2 {
		t.Fatalf("Joined after churn = %d, want 2", tbl.Joined())
	}
	// Hellos never overwrite the self slot.
	if tbl.Hello(0, addr(9999)) || tbl.AddrOf(0).IsValid() {
		t.Fatal("hello overwrote the self slot")
	}
}

func TestTableSweepSuspectEvictRevive(t *testing.T) {
	tbl, clk := newTestTable(-1, 2)
	tbl.Set(0, addr(7000))
	tbl.Set(1, addr(7001))

	clk.advance(3 * time.Second)
	tbl.Seen(addr(7001)) // slot 1 stays fresh
	probe, evicted := tbl.Sweep(2*time.Second, 10*time.Second)
	if len(evicted) != 0 {
		t.Fatalf("evicted %v before the eviction window", evicted)
	}
	if len(probe) != 1 || probe[0] != addr(7000) {
		t.Fatalf("probe list = %v, want just 127.0.0.1:7000", probe)
	}

	clk.advance(8 * time.Second) // slot 0 now idle 11s, slot 1 idle 8s
	probe, evicted = tbl.Sweep(2*time.Second, 10*time.Second)
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted = %v, want [0]", evicted)
	}
	if tbl.AddrOf(0).IsValid() {
		t.Fatal("evicted slot still routes")
	}
	if !tbl.AddrOf(1).IsValid() {
		t.Fatal("suspect slot stopped routing")
	}
	if len(probe) != 1 || probe[0] != addr(7001) {
		t.Fatalf("probe list after eviction = %v, want just 127.0.0.1:7001", probe)
	}
	if tbl.Evicted() != 1 {
		t.Fatalf("Evicted = %d, want 1", tbl.Evicted())
	}

	// Any traffic from the evicted peer revives it.
	tbl.Seen(addr(7000))
	if !tbl.AddrOf(0).IsValid() {
		t.Fatal("revived peer does not route")
	}
	snap := tbl.Snapshot()
	if len(snap) != 2 || snap[0].State != StateUp || snap[0].Frames != 1 {
		t.Fatalf("snapshot after revival = %+v", snap)
	}
	if tbl.Joined() != 1 {
		t.Fatalf("Joined after revival = %d, want 1", tbl.Joined())
	}
}

func TestTableLearnPrefersFresherRecords(t *testing.T) {
	tbl, clk := newTestTable(-1, 2)
	// Gossip about an unknown slot is adopted.
	if !tbl.Learn(0, addr(7000), 5*time.Second, StateUp) {
		t.Fatal("gossip about an unknown slot was not adopted")
	}
	// A stale rumor (older than what we already know) is ignored.
	if tbl.Learn(0, addr(7050), 30*time.Second, StateUp) {
		t.Fatal("stale gossip moved a fresher record")
	}
	if got := tbl.AddrOf(0); got != addr(7000) {
		t.Fatalf("AddrOf(0) = %v, want 127.0.0.1:7000", got)
	}
	// A fresher rumor moves the address.
	clk.advance(10 * time.Second)
	if !tbl.Learn(0, addr(7050), time.Second, StateUp) {
		t.Fatal("fresher gossip was not adopted")
	}
	if got := tbl.AddrOf(0); got != addr(7050) {
		t.Fatalf("AddrOf(0) = %v, want 127.0.0.1:7050", got)
	}
	// Evictions never propagate by gossip.
	if tbl.Learn(1, addr(7001), 0, StateEvicted) || tbl.AddrOf(1).IsValid() {
		t.Fatal("gossiped eviction entry was adopted")
	}
}

// TestTableResolvedAddressIsSeen: a slot set from a resolved address is
// refreshed by a datagram from that address in the form a socket
// reports it. net.ResolveUDPAddr yields an IPv4 address in 16 bytes,
// which is != the socket's 4-byte form; a table that kept it would
// never be refreshed, and would evict every configured peer once
// EvictAfter passed.
func TestTableResolvedAddressIsSeen(t *testing.T) {
	for _, host := range []string{"127.0.0.1", "::1"} {
		t.Run(host, func(t *testing.T) {
			hostPort := net.JoinHostPort(host, "7001")
			resolved, err := net.ResolveUDPAddr("udp", hostPort)
			if err != nil {
				t.Fatal(err)
			}
			tbl, clk := newTestTable(-1, 1)
			tbl.Set(0, resolved.AddrPort())
			clk.advance(11 * time.Second)
			tbl.Seen(netip.MustParseAddrPort(hostPort))
			if _, evicted := tbl.Sweep(3*time.Second, 10*time.Second); len(evicted) != 0 {
				t.Fatalf("a peer heard from just now was evicted (table holds %v)", tbl.AddrOf(0))
			}
			if snap := tbl.Snapshot(); snap[0].Frames != 1 || snap[0].Addr != hostPort {
				t.Fatalf("snapshot = %+v, want one frame from %s", snap, hostPort)
			}
		})
	}
}

// clientSlot is the first client slot past the test tables' cluster
// slots (the runtime derives a real one from the bound port).
const clientSlot = 64

func TestTableSlotlessExtrasAreBounded(t *testing.T) {
	tbl, _ := newTestTable(0, 1)
	for i := 0; i < 3*extrasLimit; i++ {
		tbl.Hello(clientSlot+i, addr(10000+i))
	}
	if n := len(tbl.Snapshot()); n > extrasLimit+2 {
		t.Fatalf("extras grew to %d entries under a hello flood", n)
	}
}

// TestTableClientSlots: a slotless process's hello enters its client
// slot in the routing view, which drops it at evictAfter and bounds it
// by extrasLimit. Gossip cannot teach a client slot, and a client hello
// takes neither a cluster slot nor a cluster member's address.
func TestTableClientSlots(t *testing.T) {
	tbl, clk := newTestTable(0, 3)
	tbl.Set(1, addr(7001))
	c := clientSlot + 7100
	if tbl.Hello(c, addr(7100)) {
		t.Fatal("a client hello reported a cluster routing change")
	}
	if got := tbl.AddrOf(c); got != addr(7100) {
		t.Fatalf("AddrOf(client) = %v, want 127.0.0.1:7100", got)
	}
	if tbl.Slots() != 3 {
		t.Fatalf("a client hello widened the table to %d slots", tbl.Slots())
	}
	snap := tbl.Snapshot()
	if last := snap[len(snap)-1]; last.Slot != c || last.Addr != "127.0.0.1:7100" {
		t.Fatalf("snapshot's client row = %+v, want slot %d", last, c)
	}

	// A client that rebinds moves its entry; the old address is forgotten.
	tbl.Hello(c, addr(7101))
	if got := tbl.AddrOf(c); got != addr(7101) {
		t.Fatalf("AddrOf(client) after a move = %v, want 127.0.0.1:7101", got)
	}
	tbl.Seen(addr(7100))
	if n := len(tbl.Snapshot()); n != 2 {
		t.Fatalf("snapshot holds %d rows after a client move, want 2", n)
	}

	// Gossip never teaches a client slot.
	if tbl.Learn(clientSlot+7200, addr(7200), 0, StateUp) || tbl.AddrOf(clientSlot+7200).IsValid() {
		t.Fatal("gossip taught a client slot")
	}

	// A client hello never takes a cluster member's address.
	tbl.Hello(clientSlot+7001, addr(7001))
	if tbl.AddrOf(clientSlot+7001).IsValid() || tbl.AddrOf(1) != addr(7001) {
		t.Fatal("a client hello took over a cluster member's address")
	}

	// Traffic keeps a client entry; silence past evictAfter drops it.
	clk.advance(6 * time.Second)
	tbl.Seen(addr(7101))
	tbl.Seen(addr(7001))
	clk.advance(6 * time.Second)
	if _, evicted := tbl.Sweep(3*time.Second, 10*time.Second); len(evicted) != 0 || tbl.AddrOf(c) != addr(7101) {
		t.Fatalf("a client heard from 6 s ago was dropped (evicted slots %v)", evicted)
	}
	clk.advance(11 * time.Second)
	if _, evicted := tbl.Sweep(3*time.Second, 10*time.Second); len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v, want only the cluster slot 1", evicted)
	}
	if tbl.AddrOf(c).IsValid() {
		t.Fatal("a client entry silent past evictAfter still routes")
	}

	// At extrasLimit entries a new client displaces only the one heard
	// from longest ago: traffic keeps an entry fresh, and every other live
	// client keeps its route.
	wide := clientSlot + 7300
	for i := 0; i < extrasLimit; i++ {
		clk.advance(time.Millisecond)
		tbl.Hello(wide+i, addr(20000+i))
	}
	clk.advance(time.Millisecond)
	tbl.Seen(addr(20000)) // the first client is live; the second is now the stalest
	tbl.Hello(wide+extrasLimit, addr(20000+extrasLimit))
	routable := 0
	for i := 0; i <= extrasLimit; i++ {
		if tbl.AddrOf(wide + i).IsValid() {
			routable++
		}
	}
	if routable != extrasLimit || tbl.AddrOf(wide+1).IsValid() ||
		!tbl.AddrOf(wide).IsValid() || !tbl.AddrOf(wide+extrasLimit).IsValid() {
		t.Fatalf("%d of %d clients route after one hello past extrasLimit, want all but the stalest", routable, extrasLimit+1)
	}

	// A wider cluster drops the client entries it now covers.
	tbl.Reset(0, wide+2)
	if tbl.AddrOf(wide).IsValid() || !tbl.AddrOf(wide+extrasLimit).IsValid() {
		t.Fatal("a client entry holds a cluster slot")
	}
}
