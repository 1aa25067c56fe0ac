package runtime

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/discovery"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/wire"
)

// newDiscoveryPeers opens a two-process deployment on loopback whose
// discovery plane sweeps every 20 ms and evicts a peer silent for
// evictAfter.
func newDiscoveryPeers(t *testing.T, owners map[ids.NodeID]int, suspectAfter, evictAfter time.Duration) (rt0, rt1 *testNet) {
	t.Helper()
	peers := make([]string, 2)
	for i := range peers {
		addr, release := reserveUDP(t)
		release()
		peers[i] = addr
	}
	procs := make([]*testNet, 2)
	for i := range procs {
		procs[i] = newTestNet(t, NetConfig{Bind: peers[i], Peers: peers, Index: i, Owners: owners,
			ProbeInterval: 20 * time.Millisecond, SuspectAfter: suspectAfter, EvictAfter: evictAfter})
	}
	return procs[0], procs[1]
}

// peerState reads the state rt's peer table holds for slot.
func peerState(rt *testNet, slot int) discovery.State {
	for _, p := range rt.mux.Peers() {
		if p.Slot == slot {
			return p.State
		}
	}
	return discovery.StateEvicted
}

// TestEvictReachesOnlyOpenGroups: a peer's eviction reaches the open
// incarnation of a group, not one closed before it on the same mux.
func TestEvictReachesOnlyOpenGroups(t *testing.T) {
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	rt0, rt1 := newDiscoveryPeers(t, map[ids.NodeID]int{a: 0, b: 1}, 60*time.Millisecond, 150*time.Millisecond)
	var closedRuns, openRuns atomic.Int64
	rt0.OnPeerEvict(func([]ids.NodeID) { closedRuns.Add(1) })
	rt0.Close()
	reopened, err := rt0.mux.Open(testGroup, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	reopened.OnPeerEvict(func([]ids.NodeID) { openRuns.Add(1) })

	rt1.mux.Close()
	waitFor(t, func() bool { return openRuns.Load() == 1 })
	// A callback the closed view still held would be queued on the
	// shard by the same sweep, ahead of the open view's: once the open
	// view's has run, so would it have.
	if n := closedRuns.Load(); n != 0 {
		t.Fatalf("the closed group's eviction callback ran %d times", n)
	}
}

// TestDiscoverySuspectEvictRevive: a peer cut off by Block turns suspect
// and then evicted, the eviction hands the group the entities the peer
// owns, and after Unblock the keepalive probe brings it back up.
func TestDiscoverySuspectEvictRevive(t *testing.T) {
	a, b, c := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2), ids.MakeNodeID(ids.TierAP, 3)
	rt0, _ := newDiscoveryPeers(t, map[ids.NodeID]int{a: 0, b: 1, c: 1}, 100*time.Millisecond, 400*time.Millisecond)
	var mu sync.Mutex
	var evicted [][]ids.NodeID
	rt0.OnPeerEvict(func(dead []ids.NodeID) {
		mu.Lock()
		evicted = append(evicted, slices.Clone(dead))
		mu.Unlock()
	})
	if s := peerState(rt0, 1); s != discovery.StateUp {
		t.Fatalf("slot 1 is %v before the cut, want up", s)
	}

	rt0.mux.Block(1)
	waitFor(t, func() bool { return peerState(rt0, 1) != discovery.StateUp })
	if s := peerState(rt0, 1); s != discovery.StateSuspect {
		t.Fatalf("slot 1 went from up to %v, want suspect first", s)
	}
	waitFor(t, func() bool { return peerState(rt0, 1) == discovery.StateEvicted })
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(evicted) > 0
	})
	mu.Lock()
	got := evicted[0]
	mu.Unlock()
	slices.Sort(got)
	if want := []ids.NodeID{b, c}; !slices.Equal(got, want) {
		t.Fatalf("the eviction handed over %v, want slot 1's entities %v", got, want)
	}

	rt0.mux.Unblock()
	waitFor(t, func() bool { return peerState(rt0, 1) == discovery.StateUp })
	if ns := rt0.NetStats(); ns.PeerEvicted != 1 {
		t.Fatalf("PeerEvicted = %d, want 1", ns.PeerEvicted)
	}
}

// TestGossipHelloRidesWithFrame: the paced discovery hello leaves in the
// same datagram as the protocol frame it accompanies, after it.
func TestGossipHelloRidesWithFrame(t *testing.T) {
	a, b := ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	addr0, release := reserveUDP(t)
	release()
	rt := newTestNet(t, NetConfig{Bind: addr0, Peers: []string{addr0, peer.LocalAddr().String()}, Index: 0,
		Owners: map[ids.NodeID]int{a: 0, b: 1}, GossipInterval: time.Hour, ProbeInterval: time.Hour})
	rt.Do(func() { rt.Transport().Send(Message{From: a, To: b, Kind: KindNotify, Body: wire.Probe{Seq: 5}}) })

	buf := make([]byte, wire.MaxDatagram)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := peer.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var frames []wire.Frame
	for rest := buf[:n]; len(rest) > 0; {
		size, err := wire.FrameLen(rest)
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.DecodeFrame(rest[:size])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		rest = rest[size:]
	}
	if len(frames) != 2 {
		t.Fatalf("the first datagram holds %d frames, want the protocol frame and the hello", len(frames))
	}
	if p, ok := frames[0].Payload.(wire.Probe); !ok || p.Seq != 5 || frames[0].To != b {
		t.Fatalf("first frame %+v, want the probe to %v", frames[0], b)
	}
	if h, ok := frames[1].Payload.(wire.PeerHello); !ok || h.Slot != 0 || h.Addr != addr0 {
		t.Fatalf("second frame %+v, want slot 0's hello from %s", frames[1], addr0)
	}
	waitFor(t, func() bool { return rt.NetStats().GossipFrames == 1 })
}
