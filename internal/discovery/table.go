// Package discovery is the dynamic peer-discovery plane of the
// networked runtime: a mutable, concurrency-safe peer table (address,
// claimed slot, liveness state, last-seen) that replaces the static
// address book frozen at startup. The table is the authority for
// slot->address routing, for the cluster's slots and for the client
// slots of processes that own none: seed bootstrap fills it for a
// joining process, a client's own hellos enter its slot, gossiped
// PeerHello/PeerList exchange keeps it fresh under address churn, and
// probe-driven suspicion evicts peers that went permanently silent.
//
// Concurrency contract: every method is safe for concurrent use. The
// hot read path (AddrOf, Slots) is lock-free — an atomically swapped
// routes slice rebuilt on the rare mutation — so the transport's
// per-send routing never contends with the read loop's per-datagram
// liveness marking.
package discovery

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is the liveness state of one peer table entry.
type State uint8

const (
	// StateUp marks a peer heard from within the suspicion window.
	StateUp State = iota

	// StateSuspect marks a peer silent past the suspicion window; it
	// still routes, and is being probed.
	StateSuspect

	// StateEvicted marks a peer declared dead: it no longer routes
	// (sends to its entities count as UnknownPeer) until it is heard
	// from again.
	StateEvicted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateEvicted:
		return "evicted"
	default:
		return "unknown"
	}
}

// PeerInfo is one snapshot row of the peer table.
type PeerInfo struct {
	Slot     int    // cluster slot, or a slotless process's client slot past every cluster slot
	Addr     string // the peer's UDP address as last heard
	State    State
	LastSeen time.Time
	Frames   uint64 // datagrams seen from this peer
}

// peerRec is the mutable record behind one table entry.
type peerRec struct {
	slot     int
	addr     netip.AddrPort
	state    State
	lastSeen time.Time
	frames   uint64
}

// extrasLimit bounds the client entries (a flood of hostile hellos
// must not grow them without limit); past it a new client displaces the
// one heard from longest ago, so a flood costs live clients one entry
// per hello, not all of them at once.
const extrasLimit = 256

// Table is the self-healing address book: slot-indexed peer records
// plus a bounded set of client entries, with lock-free slot->address
// reads for the routing hot path.
//
// A client entry is a slotless process (an observer) kept under its
// client slot, the block it mints mobile-host and query-app endpoints
// in, so replies to those endpoints route like any other. It is entered
// only from the client's own hello, never from gossip, is dropped at
// evictAfter, and never takes a cluster slot or a cluster member's
// address.
type Table struct {
	mu       sync.Mutex
	selfSlot int // never swept or overwritten by gossip
	slots    []*peerRec
	clients  map[int]*peerRec            // client entries, keyed by client slot
	byAddr   map[netip.AddrPort]*peerRec // every record, keyed by address

	// routes is the lock-free routing view, rebuilt under mu on every
	// mutation that changes an address or an eviction state.
	routes atomic.Pointer[routes]

	joined  atomic.Uint64
	evicted atomic.Uint64

	// now is the table's clock (a test seam; time.Now in production).
	now func() time.Time
}

// routes is one immutable routing view: slots[slot] is the zero
// AddrPort for an unknown or evicted cluster slot, and clients holds
// the client entries.
type routes struct {
	slots   []netip.AddrPort
	clients map[int]netip.AddrPort
}

// NewTable builds a table of the given width. selfSlot is this
// process's own slot, cluster or client: it is never suspected, swept
// or overwritten by a hello or gossip.
func NewTable(selfSlot, slots int) *Table {
	t := &Table{
		selfSlot: selfSlot,
		slots:    make([]*peerRec, slots),
		clients:  make(map[int]*peerRec),
		byAddr:   make(map[netip.AddrPort]*peerRec),
		now:      time.Now,
	}
	t.rebuildLocked()
	return t
}

// rebuildLocked swaps in a fresh routes view. Callers hold mu.
func (t *Table) rebuildLocked() {
	rs := &routes{slots: make([]netip.AddrPort, len(t.slots))}
	for i, p := range t.slots {
		if p != nil && p.state != StateEvicted {
			rs.slots[i] = p.addr
		}
	}
	if len(t.clients) > 0 {
		rs.clients = make(map[int]netip.AddrPort, len(t.clients))
		for slot, p := range t.clients {
			rs.clients[slot] = p.addr
		}
	}
	t.routes.Store(rs)
}

// Reset re-dimensions the table (a bootstrap joiner learns the cluster
// width and its own slot from the seed's PeerList) and clears nothing
// already known that still fits. A client entry the wider table
// covers is dropped: it never holds a cluster slot.
func (t *Table) Reset(selfSlot, slots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfSlot = selfSlot
	if slots > len(t.slots) {
		grown := make([]*peerRec, slots)
		copy(grown, t.slots)
		t.slots = grown
	}
	for slot, rec := range t.clients {
		if slot < slots {
			t.dropClientLocked(rec)
		}
	}
	t.rebuildLocked()
}

// AddrOf returns the routable address of a cluster or client slot, or
// the zero AddrPort when the slot is unknown or evicted. Lock-free.
func (t *Table) AddrOf(slot int) netip.AddrPort {
	rs := t.routes.Load()
	if slot >= 0 && slot < len(rs.slots) {
		return rs.slots[slot]
	}
	return rs.clients[slot]
}

// Slots returns the table width (the cluster's process-slot count).
// Lock-free.
func (t *Table) Slots() int { return len(t.routes.Load().slots) }

// Set installs a static slot entry (the WithCluster prefill), state
// up. Unlike Hello it does not count a join: the deployment's initial
// address book is configuration, not discovery.
func (t *Table) Set(slot int, addr netip.AddrPort) {
	addr = Unmapped(addr)
	if !addr.IsValid() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot < 0 || slot >= len(t.slots) {
		return
	}
	rec := &peerRec{slot: slot, addr: addr, lastSeen: t.now()}
	t.replaceLocked(slot, rec)
	t.rebuildLocked()
}

// replaceLocked swaps the record of a slot, keeping byAddr coherent.
func (t *Table) replaceLocked(slot int, rec *peerRec) {
	if old := t.slots[slot]; old != nil {
		delete(t.byAddr, old.addr)
		rec.frames = old.frames
	}
	t.slots[slot] = rec
	t.byAddr[rec.addr] = rec
}

// Hello upserts a peer from a PeerHello: a new slot entry, a changed
// address for a known slot, or a client entry for a slot past the
// cluster's. It reports whether the cluster's routing view changed (a
// new peer, a moved address, or a revival from eviction) — the signal
// the caller uses to broadcast the news. A client entry is not news to
// broadcast: gossip never carries one.
func (t *Table) Hello(slot int, addr netip.AddrPort) bool {
	addr = Unmapped(addr)
	if !addr.IsValid() || slot < 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot == t.selfSlot {
		return false
	}
	now := t.now()
	if slot >= len(t.slots) {
		t.helloClientLocked(slot, addr, now)
		return false
	}
	old := t.slots[slot]
	if old != nil && old.addr == addr {
		revived := old.state == StateEvicted
		old.lastSeen, old.state = now, StateUp
		if revived {
			t.joined.Add(1)
			t.rebuildLocked()
		}
		return revived
	}
	t.replaceLocked(slot, &peerRec{slot: slot, addr: addr, lastSeen: now})
	t.joined.Add(1)
	t.rebuildLocked()
	return true
}

// helloClientLocked upserts the client entry of slot from the client's
// own hello. An address a cluster member holds is refused: a client
// entry never takes over a member's record. At extrasLimit entries the
// stalest client makes room. Callers hold mu.
func (t *Table) helloClientLocked(slot int, addr netip.AddrPort, now time.Time) {
	if rec, ok := t.byAddr[addr]; ok && rec.slot < len(t.slots) {
		return
	}
	old, known := t.clients[slot]
	if known && old.addr == addr {
		old.lastSeen, old.state = now, StateUp
		return
	}
	if known {
		t.dropClientLocked(old)
	} else if len(t.clients) >= extrasLimit {
		var stalest *peerRec
		for _, rec := range t.clients {
			if stalest == nil || rec.lastSeen.Before(stalest.lastSeen) {
				stalest = rec
			}
		}
		t.dropClientLocked(stalest)
	}
	rec := &peerRec{slot: slot, addr: addr, lastSeen: now}
	t.clients[slot] = rec
	t.byAddr[addr] = rec
	t.joined.Add(1)
	t.rebuildLocked()
}

// dropClientLocked removes a client entry. Callers hold mu and rebuild.
func (t *Table) dropClientLocked(rec *peerRec) {
	delete(t.clients, rec.slot)
	if t.byAddr[rec.addr] == rec {
		delete(t.byAddr, rec.addr)
	}
}

// Learn merges one gossiped PeerList entry: adopt the address when the
// slot is unknown here, or when the sender heard from the peer more
// recently than we did (smaller age). Evicted-state entries are never
// adopted — evictions are local verdicts, not gossip — and neither are
// client entries, which only a client's own hello enters.
func (t *Table) Learn(slot int, addr netip.AddrPort, age time.Duration, state State) bool {
	addr = Unmapped(addr)
	if !addr.IsValid() || state == StateEvicted {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot < 0 || slot >= len(t.slots) || slot == t.selfSlot {
		return false
	}
	now := t.now()
	theirLastSeen := now.Add(-age)
	old := t.slots[slot]
	if old != nil {
		if old.addr == addr {
			if theirLastSeen.After(old.lastSeen) {
				old.lastSeen = theirLastSeen
				if old.state != StateEvicted {
					old.state = StateUp
				}
			}
			return false
		}
		if !theirLastSeen.After(old.lastSeen) {
			return false // our record is fresher; keep it
		}
	}
	t.replaceLocked(slot, &peerRec{slot: slot, addr: addr, lastSeen: theirLastSeen})
	t.joined.Add(1)
	t.rebuildLocked()
	return true
}

// Seen refreshes the entry behind a datagram's source address: any
// traffic proves liveness (and revives an evicted peer). Unknown
// sources are ignored — entries are only created by configuration,
// hello or gossip, so a spoof flood cannot grow the table.
func (t *Table) Seen(addr netip.AddrPort) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.byAddr[Unmapped(addr)]
	if !ok {
		return
	}
	rec.lastSeen = t.now()
	rec.frames++
	if rec.state == StateEvicted {
		rec.state = StateUp
		t.joined.Add(1)
		t.rebuildLocked()
		return
	}
	rec.state = StateUp
}

// Sweep advances the suspicion state machine: slot peers silent past
// suspectAfter turn suspect (their addresses are returned for
// probing), peers silent past evictAfter are evicted (their slots are
// returned so the caller can feed the verdict into the protocol's
// fail-out path). Client entries are simply dropped at evictAfter.
func (t *Table) Sweep(suspectAfter, evictAfter time.Duration) (probe []netip.AddrPort, evicted []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	changed := false
	for slot, rec := range t.slots {
		if rec == nil || slot == t.selfSlot {
			continue
		}
		idle := now.Sub(rec.lastSeen)
		switch {
		case rec.state != StateEvicted && idle > evictAfter:
			rec.state = StateEvicted
			t.evicted.Add(1)
			evicted = append(evicted, slot)
			changed = true
		case rec.state == StateUp && idle > suspectAfter:
			rec.state = StateSuspect
			probe = append(probe, rec.addr)
		case rec.state == StateSuspect:
			probe = append(probe, rec.addr)
		case rec.state == StateEvicted:
			// Eviction is a routing verdict, not a restraining order:
			// keep probing the corpse so a healed partition (or a
			// rebooted process on its old address) revives the slot.
			// Without this, two sides that evicted each other stop
			// exchanging datagrams entirely and no Seen can ever
			// resurrect either table — a permanent split.
			probe = append(probe, rec.addr)
		}
	}
	for _, rec := range t.clients {
		if now.Sub(rec.lastSeen) > evictAfter {
			t.dropClientLocked(rec)
			changed = true
		}
	}
	if changed {
		t.rebuildLocked()
	}
	return probe, evicted
}

// Snapshot returns the table's rows, cluster slots first, then client
// entries, each in ascending slot order.
func (t *Table) Snapshot() []PeerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PeerInfo, 0, len(t.slots)+len(t.clients))
	for _, rec := range t.slots {
		if rec != nil {
			out = append(out, rec.info())
		}
	}
	start := len(out)
	for _, rec := range t.clients {
		out = append(out, rec.info())
	}
	sort.Slice(out[start:], func(i, j int) bool { return out[start+i].Slot < out[start+j].Slot })
	return out
}

func (p *peerRec) info() PeerInfo {
	return PeerInfo{Slot: p.slot, Addr: p.addr.String(), State: p.state, LastSeen: p.lastSeen, Frames: p.frames}
}

// Joined returns how many peers joined (or rejoined, or moved
// address) since the table was built.
func (t *Table) Joined() uint64 { return t.joined.Load() }

// Evicted returns how many eviction verdicts the sweeps issued.
func (t *Table) Evicted() uint64 { return t.evicted.Load() }

// Unmapped returns addr with an IPv4-mapped IPv6 address in its 4-byte
// form, the form an IPv4 socket reports a source in. Addresses are map
// keys and are compared with ==, and net.ResolveUDPAddr yields the
// 16-byte form of an IPv4 address, which is != the 4-byte one: every
// address is unmapped where it enters, or a configured peer would never
// be recognised in its own datagrams.
func Unmapped(addr netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port())
}
