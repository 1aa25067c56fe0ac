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

func TestTableSlotlessExtrasAreBounded(t *testing.T) {
	tbl, _ := newTestTable(0, 1)
	for i := 0; i < 3*extrasLimit; i++ {
		tbl.Hello(-1, addr(10000+i))
	}
	if n := len(tbl.Snapshot()); n > extrasLimit+2 {
		t.Fatalf("extras grew to %d entries under a hello flood", n)
	}
}

func newTestTmpMap(ttl time.Duration, maxEntries int) (*TmpMap, *fakeClock) {
	clk := newFakeClock()
	m := NewTmpMap(ttl, maxEntries)
	m.now = clk.now
	m.lastRotate = clk.t
	return m, clk
}

func TestTmpMapExpiry(t *testing.T) {
	m, clk := newTestTmpMap(time.Second, 1024)
	if !m.Add(42) {
		t.Fatal("first Add not fresh")
	}
	if m.Add(42) {
		t.Fatal("duplicate within the TTL was fresh")
	}
	// One rotation: the key survives in the old generation.
	clk.advance(1100 * time.Millisecond)
	if m.Add(42) {
		t.Fatal("key was forgotten after one rotation")
	}
	// A second rotation discards the old generation. Crucially the
	// Add-hits above did NOT refresh the key, so a steady duplicate
	// stream cannot pin it (that would starve legitimate relayed
	// retransmissions forever).
	clk.advance(1100 * time.Millisecond)
	if !m.Add(42) {
		t.Fatal("key survived past 2x TTL despite Add's no-refresh contract")
	}
}

func TestTmpMapBoundedUnderReplayFlood(t *testing.T) {
	const cap = 512
	m, _ := newTestTmpMap(time.Hour, cap) // TTL never elapses: only the capacity bound rotates
	for key := uint64(0); key < 100*cap; key++ {
		m.Add(key)
	}
	if n := m.Len(); n > 2*cap {
		t.Fatalf("dedup map grew to %d keys under flood, want <= %d", n, 2*cap)
	}
	// And it still dedups what it remembers.
	last := uint64(100*cap - 1)
	if m.Add(last) {
		t.Fatal("freshly flooded key not remembered")
	}
}
