package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgbproto/rgb"
)

// workload is one entry of the benchmark: a name, why it exists, the
// nominal op rate that turns --seconds into a fixed op count (the rate
// the seed commit reached on the reference box, so a run measures for
// about --seconds there and for exactly the same op count everywhere),
// and its set-up.
type workload struct {
	name, why string
	rate      int
	setup     func(p params, t *tally, lane *lane) (instance, error)
}

// params are the generated inputs of one run.
type params struct {
	seed uint64
	// preload scales the resident population; 1 except in the smoke
	// test.
	preload float64
}

func (p params) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(p.seed, stream)) }

// guidBase spreads the GUID ranges of different seeds apart; every
// workload numbers its members upward from here.
func (p params) guidBase() rgb.GUID { return rgb.GUID(1 + p.seed%1000*1_000_000) }

func (p params) scaled(n int) int { return max(1, int(float64(n)*p.preload)) }

// instance is a workload between set-up and close.
type instance interface {
	// ops drives ops until m has counted its n completions, then
	// drains what is still in flight, and returns every driver's
	// samples.
	ops(m *meter, tr *tracer) [][]sample
	counters() counters
	// verify compares every process's membership with what the driver
	// expects after the ops it issued.
	verify() error
	// observed returns a service whose engine the ops keep busy and
	// the cluster whose telemetry prices a scrape; live reports
	// whether they may be used from another goroutine while ops runs.
	observed() (svc *rgb.Service, cl *rgb.Cluster, live bool)
	close()
}

var workloads = []workload{
	{
		name: "net3_join_watch",
		why:  "one client's join on process 0 until process 1's Watch shows it: per-change latency through codec, socket, shard queue and engine",
		rate: 3600, setup: setupJoinWatch,
	},
	{
		name: "net3_groups_churn",
		why:  "16 groups on 2 shards with one change in flight per group: the same layers saturated, so throughput bought with latency shows",
		rate: 9000, setup: setupGroupsChurn,
	},
	{
		name: "net3_query_mix",
		why:  "TMS and BMS queries over 1000 members beside 200 handoffs/s: large replies and the query wait, which joins never touch",
		rate: 300, setup: setupQueryMix,
	},
	{
		name: "sim_change_settle",
		why:  "one change then Settle on the simulator at h=4 r=5: core, mq and des with no sockets or codec, flat under networked optimisations",
		rate: 900, setup: setupSimSettle,
	},
}

// tally counts a run's ops and what went wrong with them. A failed op
// is one that errored, timed out or returned a wrong answer; it has no
// latency sample.
type tally struct {
	attempted, failed, eventsDropped atomic.Int64

	mu    sync.Mutex
	notes []string // the first few failures, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// hopeless stops a run whose ops keep failing instead of letting it
// spend a timeout on each of them.
func (t *tally) hopeless() bool { return t.failed.Load() > 50 }

// watcher waits for single events on one Watch channel.
type watcher struct {
	events <-chan rgb.MembershipEvent
	timer  *time.Timer
	tally  *tally
}

func watch(svc *rgb.Service, t *tally) (*watcher, error) {
	ch, err := svc.Watch(ctx)
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(opTimeout)
	timer.Stop()
	return &watcher{events: ch, timer: timer, tally: t}, nil
}

// await blocks until the event (kind, guid) arrives and reports false
// if it does not within opTimeout. Other member events are the late
// events of ops that already timed out and are skipped.
func (w *watcher) await(kind rgb.MembershipEventKind, guid rgb.GUID) bool {
	w.timer.Reset(opTimeout)
	defer w.timer.Stop()
	for {
		select {
		case ev, ok := <-w.events:
			if !ok {
				return false
			}
			if ev.Kind == kind && ev.Member.GUID == guid {
				return true
			}
			w.tally.unexpected(ev)
		case <-w.timer.C:
			return false
		}
	}
}

// unexpected accounts for an event no op was waiting for.
func (t *tally) unexpected(ev rgb.MembershipEvent) {
	switch ev.Kind {
	case rgb.EventDropped:
		t.eventsDropped.Add(int64(ev.Count))
	case rgb.EventRepair:
		t.fail("ring repair during the run: %v", ev)
	}
}

// change submits one membership change and waits for its event,
// counting it as attempted and, when it errors or times out, failed.
func (w *watcher) change(lane *lane, parent int32, op int64, kind rgb.MembershipEventKind, guid rgb.GUID, submit func() error) bool {
	w.tally.attempted.Add(1)
	sp := lane.begin(spanSubmit, parent, op)
	err := submit()
	lane.end(sp)
	if err != nil {
		w.tally.fail("%v of %v: %v", kind, guid, err)
		return false
	}
	sp = lane.begin(spanCommitWait, parent, op)
	ok := w.await(kind, guid)
	lane.end(sp)
	if !ok {
		w.tally.fail("%v of %v: no Watch event within %v", kind, guid, opTimeout)
	}
	return ok
}

// preload joins guids one at a time (two uncommitted changes in one
// group can lose one), guids[i] at entry[(first+i) mod len(entry)].
func preload(d *deployment, g int, w *watcher, guids []rgb.GUID, first int, lane *lane) error {
	sp := lane.begin(spanPreload, -1, -1)
	defer lane.end(sp)
	for i, guid := range guids {
		ap := d.entry[(first+i)%len(d.entry)]
		if !w.change(nil, -1, -1, rgb.EventJoin, guid, func() error { return d.groups[g][0].JoinAt(ctx, guid, ap) }) {
			return fmt.Errorf("preload of %v failed", guid)
		}
	}
	return nil
}

func guidRange(first rgb.GUID, n int) []rgb.GUID {
	out := make([]rgb.GUID, n)
	for i := range out {
		out[i] = first + rgb.GUID(i)
	}
	return out
}

func guidSet(guids []rgb.GUID) map[rgb.GUID]bool {
	set := make(map[rgb.GUID]bool, len(guids))
	for _, g := range guids {
		set[g] = true
	}
	return set
}

// --- net3_join_watch ---------------------------------------------------

// joinWatch is the closed loop of one client: JoinAt on process 0 at
// the access proxy the client is attached to, which process 0 hosts,
// wait for the join on process 1's Watch (the latency sample), Leave,
// wait for the leave. One op is one such cycle with a fresh GUID.
type joinWatch struct {
	*deployment
	watch     *watcher
	residents []rgb.GUID
	next      rgb.GUID
	issued    int64
}

func setupJoinWatch(p params, t *tally, lane *lane) (instance, error) {
	d, err := listen3(2, 3, p.seed, lane)
	if err != nil {
		return nil, err
	}
	w, err := watch(d.groups[0][1], t)
	if err != nil {
		d.close()
		return nil, err
	}
	j := &joinWatch{deployment: d, watch: w, residents: guidRange(p.guidBase(), p.scaled(500))}
	j.next = j.residents[len(j.residents)-1] + 1
	if err := preload(d, 0, w, j.residents, 0, lane); err != nil {
		d.close()
		return nil, err
	}
	return j, nil
}

func (j *joinWatch) ops(m *meter, tr *tracer) [][]sample {
	lane := tr.lane(5 * int(m.n))
	samples := make([]sample, 0, m.n)
	svc := j.groups[0][0]
	for !m.finished() && !j.watch.tally.hopeless() {
		guid, ap, op := j.next, j.entry[0], j.issued
		j.next++
		j.issued++
		root := lane.begin(spanOp, -1, op)
		start := time.Now()
		if j.watch.change(lane, root, op, rgb.EventJoin, guid, func() error { return svc.JoinAt(ctx, guid, ap) }) {
			lat := time.Since(start)
			if j.watch.change(lane, root, op, rgb.EventLeave, guid, func() error { return svc.Leave(ctx, guid) }) {
				m.done(&samples, lat)
			}
		}
		lane.end(root)
	}
	return [][]sample{samples}
}

func (j *joinWatch) verify() error { return j.converge(0, guidSet(j.residents)) }

func (j *joinWatch) observed() (*rgb.Service, *rgb.Cluster, bool) {
	return j.groups[0][1], j.clusters[0], true
}

// --- net3_groups_churn -------------------------------------------------

const (
	churnGroups   = 16
	churnDrivers  = 2
	groupsPerDrv  = churnGroups / churnDrivers
	churnResident = 32
)

// walker is the one member of a group that is changing: it joins at an
// access proxy of process 0's bottom ring, is handed off to that one's
// ring successor and leaves there, and is then replaced by a fresh GUID
// that joins where it left, so a group never has two uncommitted
// changes.
type walker struct {
	svc      *rgb.Service // the group on process 0, where changes are submitted
	events   <-chan rgb.MembershipEvent
	guid     rgb.GUID
	at       int // index in ring0 (the networked walk) or aps (the simulated one)
	phase    int // the change in flight or due next: 0 join, 1 handoff, 2 leave
	present  bool
	inflight bool
	sent     time.Time
	root, sp int32
	op       int64
}

var walkKinds = [3]rgb.MembershipEventKind{rgb.EventJoin, rgb.EventHandoff, rgb.EventLeave}

// groupsChurn is a closed loop of two drivers with eight groups each
// and exactly one uncommitted change per group: sixteen in flight. One
// op is one committed change, seen on process 1's Watch of its group.
type groupsChurn struct {
	*deployment
	tally     *tally
	walkers   [churnGroups]*walker
	residents [churnGroups][]rgb.GUID
	issued    atomic.Int64
}

func setupGroupsChurn(p params, t *tally, lane *lane) (instance, error) {
	gids := make([]rgb.GroupID, churnGroups)
	for g := range gids {
		gids[g] = rgb.NewGroupID(uint32(g + 1))
	}
	d, err := listenCluster3(2, 3, p.seed, gids, lane)
	if err != nil {
		return nil, err
	}
	c := &groupsChurn{deployment: d, tally: t}
	rng := p.rng(1)
	for g := range c.walkers {
		w, err := watch(d.groups[g][1], t)
		if err != nil {
			d.close()
			return nil, err
		}
		c.residents[g] = guidRange(p.guidBase(), p.scaled(churnResident))
		if err := preload(d, g, w, c.residents[g], 0, lane); err != nil {
			d.close()
			return nil, err
		}
		// The groups start a third each at join, handoff and leave, so
		// that at any time the changes in flight are an even mix.
		wk := &walker{
			svc: d.groups[g][0], events: w.events, at: rng.IntN(len(d.ring0)), phase: g % 3,
			guid: c.residents[g][len(c.residents[g])-1] + 1,
		}
		if wk.phase != 0 {
			guid, ap := wk.guid, d.ring0[wk.at]
			if !w.change(nil, -1, -1, rgb.EventJoin, guid, func() error { return wk.svc.JoinAt(ctx, guid, ap) }) {
				d.close()
				return nil, fmt.Errorf("join of walker %v failed", guid)
			}
			wk.present = true
		}
		c.walkers[g] = wk
	}
	return c, nil
}

func (c *groupsChurn) ops(m *meter, tr *tracer) [][]sample {
	out := make([][]sample, churnDrivers)
	var wg sync.WaitGroup
	for drv := range out {
		lane := tr.lane(3 * int(m.n))
		out[drv] = make([]sample, 0, m.n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.drive(m, (*[groupsPerDrv]*walker)(c.walkers[drv*groupsPerDrv:]), &out[drv], lane)
		}()
	}
	wg.Wait()
	return out
}

// drive keeps one change in flight on each of its groups until the
// region is complete, then waits for the changes still in flight.
func (c *groupsChurn) drive(m *meter, ws *[groupsPerDrv]*walker, samples *[]sample, lane *lane) {
	tick := time.NewTicker(opTimeout / 8)
	defer tick.Stop()
	inflight := 0
	for _, w := range ws {
		if c.submit(w, lane) {
			inflight++
		}
	}
	for inflight > 0 {
		var w *walker
		var ev rgb.MembershipEvent
		select {
		case ev = <-ws[0].events:
			w = ws[0]
		case ev = <-ws[1].events:
			w = ws[1]
		case ev = <-ws[2].events:
			w = ws[2]
		case ev = <-ws[3].events:
			w = ws[3]
		case ev = <-ws[4].events:
			w = ws[4]
		case ev = <-ws[5].events:
			w = ws[5]
		case ev = <-ws[6].events:
			w = ws[6]
		case ev = <-ws[7].events:
			w = ws[7]
		case now := <-tick.C:
			for _, w := range ws {
				if w.inflight && now.Sub(w.sent) > opTimeout {
					c.tally.fail("%v of %v: no Watch event within %v", walkKinds[w.phase], w.guid, opTimeout)
					lane.end(w.sp)
					lane.end(w.root)
					inflight--
					w.replace(1)
					if !m.finished() && !c.tally.hopeless() && c.submit(w, lane) {
						inflight++
					}
				}
			}
			continue
		}
		if !w.inflight || ev.Kind != walkKinds[w.phase] || ev.Member.GUID != w.guid {
			c.tally.unexpected(ev)
			continue
		}
		lane.end(w.sp)
		lane.end(w.root)
		w.inflight = false
		inflight--
		w.advance(1)
		m.done(samples, time.Since(w.sent))
		if !m.finished() && !c.tally.hopeless() && c.submit(w, lane) {
			inflight++
		}
	}
}

// advance records that the walker's change committed; after its leave
// the next member, stride GUIDs on, takes its place (with stride 0 the
// same member joins again).
func (w *walker) advance(stride rgb.GUID) {
	w.present = w.phase != 2
	if w.phase++; w.phase == 3 {
		w.phase = 0
		w.guid += stride
	}
}

// replace abandons a walker whose change was lost for a fresh member.
func (w *walker) replace(stride rgb.GUID) {
	w.inflight, w.present, w.phase = false, false, 0
	w.guid += stride
}

// submit issues the walker's next change; a submit error fails the op
// and abandons the member.
func (c *groupsChurn) submit(w *walker, lane *lane) bool {
	c.tally.attempted.Add(1)
	w.op = c.issued.Add(1) - 1
	w.root = lane.begin(spanOp, -1, w.op)
	w.sent = time.Now()
	sp := lane.begin(spanSubmit, w.root, w.op)
	var err error
	switch w.phase {
	case 0:
		err = w.svc.JoinAt(ctx, w.guid, c.ring0[w.at])
	case 1:
		w.at = (w.at + 1) % len(c.ring0)
		err = w.svc.Handoff(ctx, w.guid, c.ring0[w.at])
	case 2:
		err = w.svc.Leave(ctx, w.guid)
	}
	lane.end(sp)
	if err != nil {
		c.tally.fail("%v of %v: %v", walkKinds[w.phase], w.guid, err)
		lane.end(w.root)
		w.replace(1)
		return false
	}
	w.sp = lane.begin(spanCommitWait, w.root, w.op)
	w.inflight = true
	return true
}

func (c *groupsChurn) verify() error {
	for g, w := range c.walkers {
		want := guidSet(c.residents[g])
		if w.present {
			want[w.guid] = true
		}
		if err := c.converge(g, want); err != nil {
			return err
		}
	}
	return nil
}

func (c *groupsChurn) observed() (*rgb.Service, *rgb.Cluster, bool) {
	return c.groups[0][1], c.clusters[0], true
}

// --- net3_query_mix ----------------------------------------------------

const queryMembers = 1000

// queryMix is a reader closed loop beside a writer. One op is a TMS
// Query from process 1 followed by a BMS query from process 2, entry
// access proxies rotating, each answer checked to hold exactly the
// preloaded members. The reader hands the writer, on a second
// goroutine, two tickets per three ops (200 handoffs/s at the seed
// commit's 300 ops/s), so the op mix does not depend on how fast the
// code is; per ticket the writer hands a member off to the next of
// process 0's bottom rings and waits for the Watch event, so the group
// never has two uncommitted changes. How long tickets wait for the
// writer is reported.
type queryMix struct {
	*deployment
	tally   *tally
	watch   *watcher // the writer's: process 1's Watch
	members []rgb.GUID
	want    map[rgb.GUID]bool
	at      []int // members[i] is at entry[at[i]]
	handoff int   // handoffs issued so far; number k moves a member to entry[k mod len(entry)]
	cursor  int   // the writer's walk over members: the next one to look at
	from    int   // queries issued so far; number k enters at aps[k mod len(aps)]
	issued  int64

	late []time.Duration // writer, last region: how long each ticket waited
}

func setupQueryMix(p params, t *tally, lane *lane) (instance, error) {
	d, err := listen3(3, 3, p.seed, lane)
	if err != nil {
		return nil, err
	}
	w, err := watch(d.groups[0][1], t)
	if err != nil {
		d.close()
		return nil, err
	}
	q := &queryMix{deployment: d, tally: t, watch: w, members: guidRange(p.guidBase(), p.scaled(queryMembers))}
	q.want = guidSet(q.members)
	first := p.rng(1).IntN(len(d.entry))
	if err := preload(d, 0, w, q.members, first, lane); err != nil {
		d.close()
		return nil, err
	}
	q.at = make([]int, len(q.members))
	for i := range q.at {
		q.at[i] = (first + i) % len(d.entry)
	}
	q.from = p.rng(2).IntN(len(d.aps))
	return q, nil
}

func (q *queryMix) ops(m *meter, tr *tracer) [][]sample {
	q.late = q.late[:0]
	tickets, written := make(chan time.Time, m.n), make(chan struct{}) // at most n tickets: never blocks the reader
	wlane := tr.lane(2 * int(m.n))
	go func() {
		defer close(written)
		q.write(tickets, wlane)
	}()
	lane := tr.lane(3 * int(m.n))
	samples := make([]sample, 0, m.n)
	tms, bms := q.groups[0][1], q.groups[0][2]
	for !m.finished() && !q.tally.hopeless() {
		op := q.issued
		q.issued++
		q.tally.attempted.Add(1)
		root := lane.begin(spanOp, -1, op)
		start := time.Now()
		ok := q.query(lane, root, op, spanQueryTMS, tms, rgb.TMS()) &&
			q.query(lane, root, op, spanQueryBMS, bms, rgb.BMS(3))
		lane.end(root)
		if ok {
			m.done(&samples, time.Since(start))
			if op%3 != 2 {
				tickets <- time.Now()
			}
		}
	}
	close(tickets)
	<-written
	return [][]sample{samples}
}

func (q *queryMix) query(lane *lane, parent int32, op int64, name string, svc *rgb.Service, scheme rgb.QueryScheme) bool {
	entry := q.aps[q.from%len(q.aps)]
	q.from++
	sp := lane.begin(name, parent, op)
	res, err := svc.QueryWith(ctx, entry, scheme)
	lane.end(sp)
	if err == nil {
		err = sameMembers(res.Members, q.want)
	}
	if err != nil {
		q.tally.fail("%s from %v: %v", name, entry, err)
	}
	return err == nil
}

// write hands one member off per ticket, also the tickets still queued
// when the reader is done. Handoff k goes to entry[k mod 3] and takes the
// next member, walking them in order, that is at the entry before it:
// every handoff moves a member one bottom ring on, in the order of the
// rings' parents, which is the order that leaks no pass timer ("Traps"
// in README.md). A third of the members is at each entry at all times.
func (q *queryMix) write(tickets <-chan time.Time, lane *lane) {
	for issued := range tickets {
		if q.tally.hopeless() {
			continue
		}
		q.late = append(q.late, time.Since(issued))
		to := q.handoff % len(q.entry)
		from := (to + len(q.entry) - 1) % len(q.entry)
		q.handoff++
		for q.at[q.cursor] != from {
			q.cursor = (q.cursor + 1) % len(q.members)
		}
		guid, ap := q.members[q.cursor], q.entry[to]
		q.at[q.cursor] = to
		q.cursor = (q.cursor + 1) % len(q.members)
		q.watch.change(lane, -1, -1, rgb.EventHandoff, guid, func() error { return q.groups[0][0].Handoff(ctx, guid, ap) })
	}
}

func (q *queryMix) verify() error { return q.converge(0, q.want) }

func (q *queryMix) layerMetrics(v map[string]float64, rs regionStats) {
	late := make([]float64, len(q.late))
	for i, d := range q.late {
		late[i] = us(d)
	}
	sort.Float64s(late)
	v["service.writer_late_us_p99"] = quantile(late, 0.99)
	// Well under 1 means a query pair mostly waits instead of computing.
	v["service.query_busy_share"] = rs.cpuPerOpSeg / rs.p50Seg
}

func (q *queryMix) observed() (*rgb.Service, *rgb.Cluster, bool) {
	return q.groups[0][1], q.clusters[0], true
}

// --- sim_change_settle -------------------------------------------------

const simWalkers = 64

// simSettle runs on the deterministic simulator: set-up applies a
// seeded churn trace over 2000 initial members and checks the result
// exactly; one op is one change of a pool of 64 members walking join ->
// handoff -> leave at seeded access proxies, followed by Settle. A
// member that left joins again under its GUID, so the entities' tables
// stop growing (net3_join_watch is the workload of ever-new members).
type simSettle struct {
	svc     *rgb.Service
	tally   *tally
	rng     *rand.Rand
	aps     []rgb.NodeID
	base    map[rgb.GUID]bool // what the churn trace left
	walkers [simWalkers]walker
	issued  int64
	virtual time.Duration // protocol time the last region's ops took to settle
}

func setupSimSettle(p params, t *tally, lane *lane) (instance, error) {
	cfg := rgb.DefaultConfig(4, 5)
	// No message is ever lost on the simulator, and with the default
	// 250 ms the pass timers leaked under the set-up's concurrent load
	// fire into later passes until healthy entities are excluded from
	// their rings ("Traps" in README.md); after an hour nothing is in
	// flight any more.
	cfg.RetransmitTimeout = time.Hour
	sp := lane.begin(spanOpen, -1, -1)
	svc, err := rgb.Open(rgb.WithConfig(cfg), rgb.WithSeed(p.seed))
	lane.end(sp)
	if err != nil {
		return nil, err
	}
	s := &simSettle{svc: svc, tally: t, rng: p.rng(1), aps: svc.APs()}
	sp = lane.begin(spanPreload, -1, -1)
	trace := rgb.ChurnOver(s.aps, rgb.ChurnConfig{
		InitialMembers: p.scaled(2000), JoinRate: 8, LeaveRate: 6, FailRate: 1,
		Duration: time.Duration(float64(60*time.Second) * p.preload), Seed: p.seed,
	}, p.guidBase())
	svc.ApplyTrace(trace)
	err = svc.Settle(ctx)
	lane.end(sp)
	if err != nil {
		svc.Close()
		return nil, err
	}
	s.base = guidSet(rgb.LiveAtEnd(trace))
	// The walkers start a third each at join, handoff and leave, so
	// that any three consecutive ops are one of each kind.
	first := p.guidBase() + rgb.GUID(len(trace)) + 1 // past every GUID the trace used
	for i := range s.walkers {
		w := &s.walkers[i]
		w.guid, w.phase = first+rgb.GUID(i), i%3
		if w.phase != 0 {
			w.at, w.present = s.rng.IntN(len(s.aps)), true
			if err = errors.Join(err, svc.JoinAt(ctx, w.guid, s.aps[w.at])); err != nil {
				break
			}
		}
	}
	if err = errors.Join(err, svc.Settle(ctx)); err == nil {
		err = s.verify()
	}
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("after the churn trace: %w", err)
	}
	return s, nil
}

func (s *simSettle) ops(m *meter, tr *tracer) [][]sample {
	lane := tr.lane(3 * int(m.n))
	samples := make([]sample, 0, m.n)
	before := s.now()
	defer func() { s.virtual = s.now() - before }()
	for !m.finished() && !s.tally.hopeless() {
		op := s.issued
		s.issued++
		w := &s.walkers[op%simWalkers]
		s.tally.attempted.Add(1)
		root := lane.begin(spanOp, -1, op)
		start := time.Now()
		sp := lane.begin(spanSubmit, root, op)
		var err error
		switch w.phase {
		case 0:
			w.at = s.rng.IntN(len(s.aps))
			err = s.svc.JoinAt(ctx, w.guid, s.aps[w.at])
		case 1:
			w.at = (w.at + 1 + s.rng.IntN(len(s.aps)-1)) % len(s.aps) // any other one
			err = s.svc.Handoff(ctx, w.guid, s.aps[w.at])
		case 2:
			err = s.svc.Leave(ctx, w.guid)
		}
		lane.end(sp)
		if err == nil {
			sp = lane.begin(spanSettle, root, op)
			err = s.svc.Settle(ctx)
			lane.end(sp)
		}
		lane.end(root)
		if err != nil {
			s.tally.fail("%v of %v: %v", walkKinds[w.phase], w.guid, err)
			w.replace(simWalkers)
			continue
		}
		m.done(&samples, time.Since(start))
		w.advance(0)
	}
	return [][]sample{samples}
}

func (s *simSettle) layerMetrics(v map[string]float64, rs regionStats) {
	v["core.sim_virtual_ms_per_op"] = float64(s.virtual) / float64(time.Millisecond) / float64(rs.ops)
}

// now is the simulator's protocol time.
func (s *simSettle) now() (t time.Duration) {
	s.svc.Inspect(func(sys *rgb.System) { t = time.Duration(sys.Clock().Now()) })
	return t
}

func (s *simSettle) counters() counters {
	var c counters
	c.addService(s.svc)
	return c
}

func (s *simSettle) verify() error {
	want := make(map[rgb.GUID]bool, len(s.base)+simWalkers)
	for g := range s.base {
		want[g] = true
	}
	for i := range s.walkers {
		if s.walkers[i].present {
			want[s.walkers[i].guid] = true
		}
	}
	members, err := s.svc.Members(ctx)
	if err != nil {
		return err
	}
	return sameMembers(members, want)
}

func (s *simSettle) observed() (*rgb.Service, *rgb.Cluster, bool) {
	return s.svc, s.svc.Cluster(), false
}

func (s *simSettle) close() { s.svc.Close() }
