// Package discovery is the dynamic peer-discovery plane of the
// networked runtime: a mutable, concurrency-safe peer table (address,
// claimed cluster slot, liveness state, last-seen) that replaces the
// static address book frozen at startup, plus a TTL-bucketed dedup map
// for relayed frames. The table is the authority for slot->address
// routing: seed bootstrap fills it for a joining process, gossiped
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
	Slot     int    // cluster slot; -1 for slotless peers (observers, clients)
	Addr     string // the peer's UDP address as last learned
	State    State
	LastSeen time.Time
	Frames   uint64 // datagrams seen from this peer
}

// peerRec is the mutable record behind one table entry.
type peerRec struct {
	slot     int // -1 = slotless
	addr     netip.AddrPort
	state    State
	lastSeen time.Time
	frames   uint64
}

// extrasLimit bounds the slotless-peer map (a flood of hostile hellos
// must not grow it without limit); past it the map is cleared and
// re-learns from live traffic, the same discipline as the transport's
// learned-address book.
const extrasLimit = 256

// Table is the self-healing address book: slot-indexed peer records
// plus a bounded set of slotless extras, with lock-free slot->address
// reads for the routing hot path.
type Table struct {
	mu       sync.Mutex
	selfSlot int // never swept or overwritten by gossip; -1 = none
	slots    []*peerRec
	extras   map[netip.AddrPort]*peerRec // slotless peers, keyed by address
	byAddr   map[netip.AddrPort]*peerRec // every record, keyed by address

	// routes is the lock-free routing view: routes[slot] is the zero
	// AddrPort for unknown or evicted slots. Rebuilt under mu on every
	// mutation that changes an address or an eviction state.
	routes atomic.Pointer[[]netip.AddrPort]

	joined  atomic.Uint64
	evicted atomic.Uint64

	// now is the table's clock (a test seam; time.Now in production).
	now func() time.Time
}

// NewTable builds a table of the given width. selfSlot (when >= 0) is
// this process's own slot: it is never suspected, swept or overwritten
// by gossip.
func NewTable(selfSlot, slots int) *Table {
	t := &Table{
		selfSlot: selfSlot,
		slots:    make([]*peerRec, slots),
		extras:   make(map[netip.AddrPort]*peerRec),
		byAddr:   make(map[netip.AddrPort]*peerRec),
		now:      time.Now,
	}
	t.rebuildLocked()
	return t
}

// rebuildLocked swaps in a fresh routes view. Callers hold mu.
func (t *Table) rebuildLocked() {
	rs := make([]netip.AddrPort, len(t.slots))
	for i, p := range t.slots {
		if p != nil && p.state != StateEvicted {
			rs[i] = p.addr
		}
	}
	t.routes.Store(&rs)
}

// Reset re-dimensions the table (a bootstrap joiner learns the cluster
// width and its own slot from the seed's PeerList) and clears nothing
// already learned that still fits.
func (t *Table) Reset(selfSlot, slots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfSlot = selfSlot
	if slots > len(t.slots) {
		grown := make([]*peerRec, slots)
		copy(grown, t.slots)
		t.slots = grown
	}
	t.rebuildLocked()
}

// AddrOf returns the routable address of a slot, or the zero AddrPort
// when the slot is unknown or evicted. Lock-free.
func (t *Table) AddrOf(slot int) netip.AddrPort {
	rs := *t.routes.Load()
	if slot < 0 || slot >= len(rs) {
		return netip.AddrPort{}
	}
	return rs[slot]
}

// Slots returns the table width (the cluster's process-slot count).
// Lock-free.
func (t *Table) Slots() int { return len(*t.routes.Load()) }

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
// address for a known slot, or a slotless extra. It reports whether
// the routing view changed (a new peer, a moved address, or a revival
// from eviction) — the signal the caller uses to broadcast the news.
func (t *Table) Hello(slot int, addr netip.AddrPort) bool {
	addr = Unmapped(addr)
	if !addr.IsValid() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if slot < 0 || slot >= len(t.slots) {
		// Slotless peer (observer, dial-style client): track it for
		// the operator's peer dump, bounded against hello floods.
		if rec, ok := t.extras[addr]; ok {
			rec.lastSeen, rec.state = now, StateUp
			return false
		}
		if len(t.extras) >= extrasLimit {
			for k := range t.extras {
				delete(t.byAddr, k)
				delete(t.extras, k)
			}
		}
		rec := &peerRec{slot: -1, addr: addr, lastSeen: now}
		t.extras[addr] = rec
		t.byAddr[addr] = rec
		t.joined.Add(1)
		return false
	}
	if slot == t.selfSlot {
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

// Learn merges one gossiped PeerList entry: adopt the address when the
// slot is unknown here, or when the sender heard from the peer more
// recently than we did (smaller age). Evicted-state entries are never
// adopted — evictions are local verdicts, not gossip.
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
// fail-out path). Slotless extras are simply dropped at evictAfter.
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
	for key, rec := range t.extras {
		if now.Sub(rec.lastSeen) > evictAfter {
			delete(t.byAddr, key)
			delete(t.extras, key)
		}
	}
	if changed {
		t.rebuildLocked()
	}
	return probe, evicted
}

// Snapshot returns the table's rows, slots first (ascending), then
// slotless extras sorted by address.
func (t *Table) Snapshot() []PeerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PeerInfo, 0, len(t.slots)+len(t.extras))
	for _, rec := range t.slots {
		if rec != nil {
			out = append(out, rec.info())
		}
	}
	start := len(out)
	for _, rec := range t.extras {
		out = append(out, rec.info())
	}
	sort.Slice(out[start:], func(i, j int) bool { return out[start+i].Addr < out[start+j].Addr })
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
