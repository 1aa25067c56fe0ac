package rgb

import (
	"context"
	"sync"
	"testing"
	"time"
)

// joinSettled joins members 1..n round-robin over the access proxies
// and settles.
func joinSettled(t *testing.T, svc *Service, n int) {
	t.Helper()
	ctx := context.Background()
	aps := svc.APs()
	for g := 1; g <= n; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatal(err)
	}
}

// queryStorm runs eight goroutines of fifty alternating TMS/BMS queries
// against svc, entry access proxies rotating, and checks that every
// answer holds exactly the members 1..n. The queries of one Service
// take their reply collectors from one free list, in engine context;
// the -race CI step is what makes this a test of that.
func queryStorm(t *testing.T, svc *Service, aps []NodeID, n int) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 50; q++ {
				scheme, replies := TMS(), 1
				if (g+q)%2 == 1 {
					scheme, replies = BMS(3), 9
				}
				res, err := svc.QueryWith(ctx, aps[(g*50+q)%len(aps)], scheme)
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, q, err)
					return
				}
				seen := make(map[GUID]bool, n)
				for _, m := range res.Members {
					if m.GUID < 1 || int(m.GUID) > n || seen[m.GUID] {
						t.Errorf("goroutine %d query %d (%v): stray or repeated member %v", g, q, scheme, m)
					}
					seen[m.GUID] = true
				}
				if len(seen) != n || res.Replies != replies {
					t.Errorf("goroutine %d query %d (%v): %d of %d members from %d replies", g, q, scheme, len(seen), n, res.Replies)
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentQueriesInProcess(t *testing.T) {
	svc := openTest(t, withLoopback(), WithHierarchy(3, 3), WithSeed(5))
	const members = 60
	joinSettled(t, svc, members)
	queryStorm(t, svc, svc.APs(), members)
}

// TestTMSQueryPastOneDatagram: a TMS answer from a top-ring entity of
// another process must reach the requester whatever its size. At 3 000
// members the reply is about 81 KB, and one datagram carries at most
// 2 424 members (65 495 bytes): the replier's socket refuses it as
// Oversize, and the query comes back empty.
func TestTMSQueryPastOneDatagram(t *testing.T) {
	t.Skip("ROADMAP item 13: state larger than one datagram is dropped as Oversize; remove this skip with its fix")
	ctx := context.Background()
	procs := listenProcs(t, 3, WithHierarchy(3, 3), WithSeed(13))
	const members = 3000
	joinOnProcessZero(t, procs, members)
	// Entered at an access proxy of process 0, the query climbs to
	// process 0's top-ring entity, whose reply to process 1 is a datagram.
	res, err := procs[1].QueryWith(ctx, slot0APs(procs[0], 3)[0], TMS())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != members || res.Replies != 1 {
		t.Errorf("TMS answer: %d of %d members from %d replies", len(res.Members), members, res.Replies)
	}
	for i, svc := range procs {
		if ns := netStatsOf(t, svc); ns.Oversize != 0 {
			t.Errorf("proc %d dropped %d frames as Oversize", i, ns.Oversize)
		}
	}
}

// bottomWriter submits the changes of a three-process loopback group
// the way benchmark/README.md "Traps" allows: every change on process
// 0, one in flight (each awaited on process 1's Watch, or on process
// 0's when it runs alone), members living at the leaders of process 0's
// bottom rings and handed off through them in the order of their
// parents.
type bottomWriter struct {
	t        *testing.T
	procs    []*Service
	events   <-chan MembershipEvent
	entry    []NodeID // leaders of process 0's bottom rings, in the order of their parents
	at       []int    // member g is at entry[at[g]]
	handoffs int      // handoff k goes to entry[k mod len(entry)]
	walk     int      // the member the next handoff looks at first
}

// newBottomWriter joins members 1..n, member g at entry[g mod 3].
func newBottomWriter(t *testing.T, procs []*Service, n int) *bottomWriter {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	events, err := procs[min(1, len(procs)-1)].Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w := &bottomWriter{t: t, procs: procs, events: events, at: make([]int, n+1), walk: 1}
	top := procs[0].Topology()
	owners := subtreeOwners(top.Levels, top.RingSize, len(procs))
	procs[0].Inspect(func(sys *System) {
		for _, rg := range sys.Hierarchy().Level(top.Levels - 1) {
			if owners[rg.Leader()] == 0 {
				w.entry = append(w.entry, rg.Leader())
			}
		}
	})
	for g := 1; g <= n; g++ {
		w.at[g] = g % len(w.entry)
		w.change(GUID(g), func() error { return procs[0].JoinAt(ctx, GUID(g), w.entry[w.at[g]]) })
	}
	return w
}

// change submits one change on process 0 and waits until the watching
// process has seen it commit.
func (w *bottomWriter) change(guid GUID, submit func() error) {
	w.t.Helper()
	if err := submit(); err != nil {
		w.t.Fatalf("change of %v: %v", guid, err)
	}
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev := <-w.events:
			if ev.Member.GUID == guid {
				return
			}
		case <-timeout:
			w.t.Fatalf("change of %v never reached the watching process", guid)
		}
	}
}

// handoff hands the next member standing at the entry before
// entry[k mod 3] off to it and waits for the commit.
func (w *bottomWriter) handoff() {
	w.t.Helper()
	n := len(w.at) - 1
	to := w.handoffs % len(w.entry)
	for (w.at[w.walk]+1)%len(w.entry) != to {
		w.walk = w.walk%n + 1
	}
	g := w.walk
	w.at[g] = to
	w.handoffs++
	w.walk = w.walk%n + 1
	w.change(GUID(g), func() error { return w.procs[0].Handoff(context.Background(), GUID(g), w.entry[to]) })
}

// TestConcurrentQueriesBesideHandoffs storms process 1 of a
// three-process loopback group while process 0 hands members off
// between its bottom rings (bottomWriter), so replies cross the socket
// and the codec and overlapping ring lists reach the collectors.
func TestConcurrentQueriesBesideHandoffs(t *testing.T) {
	procs := listenProcs(t, 3, WithHierarchy(3, 3), WithSeed(11))
	const members = 30
	w := newBottomWriter(t, procs, members)
	stormed := make(chan struct{})
	go func() {
		defer close(stormed)
		queryStorm(t, procs[1], procs[1].APs(), members)
	}()
	for {
		select {
		case <-stormed:
			if w.handoffs == 0 {
				t.Fatal("no handoff ran beside the queries")
			}
			t.Logf("%d handoffs beside 400 queries", w.handoffs)
			return
		default:
		}
		w.handoff()
	}
}
