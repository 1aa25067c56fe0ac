// Package ids defines the identifier scheme and membership data
// structures of the RGB protocol (Section 4.2 of the paper): group
// identities shaped like IP multicast Class-D addresses, node
// identities shaped like IP addresses, globally/locally unique mobile
// host identities shaped like Mobile IP home and care-of addresses,
// member status, and the MemberInfo records stored in the membership
// lists of every network entity.
package ids

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strconv"
	"strings"
)

// GroupID identifies a communication group. The paper obtains it from
// "some group addressing scheme, e.g. Class D address in IP multicast"
// (RFC 1112); we keep it an opaque 32-bit value whose printed form is a
// Class-D dotted quad.
type GroupID uint32

// NewGroupID builds a GroupID inside the Class-D range 224.0.0.0/4
// from an arbitrary 28-bit group number.
func NewGroupID(n uint32) GroupID {
	return GroupID(0xE0000000 | (n & 0x0FFFFFFF))
}

// String renders the group as a dotted-quad multicast address.
func (g GroupID) String() string {
	return fmt.Sprintf("%d.%d.%d.%d",
		byte(g>>24), byte(g>>16), byte(g>>8), byte(g))
}

// Valid reports whether g lies in the IPv4 multicast range.
func (g GroupID) Valid() bool {
	return g>>28 == 0xE
}

// Tier enumerates the four tiers of the mobile Internet architecture
// (Section 3 / Figure 2). Higher values are higher tiers.
type Tier uint8

// The four tiers, bottom to top.
const (
	TierMH Tier = iota // Mobile Host Tier
	TierAP             // Access Proxy Tier (wireless access networks)
	TierAG             // Access Gateway Tier (intra-AS)
	TierBR             // Border Router Tier (inter-AS)
)

// String returns the paper's abbreviation for the tier.
func (t Tier) String() string {
	switch t {
	case TierMH:
		return "MH"
	case TierAP:
		return "AP"
	case TierAG:
		return "AG"
	case TierBR:
		return "BR"
	default:
		return "Tier(" + strconv.Itoa(int(t)) + ")"
	}
}

// Valid reports whether t is one of the four defined tiers.
func (t Tier) Valid() bool { return t <= TierBR }

// NodeID identifies a network entity (AP, AG or BR) in the hierarchy,
// "e.g. its IP address". The zero value NoNode means "no such
// neighbor" (e.g. the topmost ring's leader has no parent).
//
// The encoding packs the tier and a per-tier ordinal so that IDs are
// stable, comparable and cheaply hashable:
//
//	bits 62-63: tier  (AP=1, AG=2, BR=3)
//	bits  0-61: ordinal within the tier
type NodeID uint64

// NoNode is the absent-neighbor sentinel.
const NoNode NodeID = 0

// MakeNodeID builds the NodeID for the ordinal-th entity of a tier.
// Ordinals start at 0. Mobile hosts get TierMH NodeIDs so they can be
// addressed as message endpoints; network entities use AP/AG/BR.
func MakeNodeID(t Tier, ordinal int) NodeID {
	if !t.Valid() {
		panic("ids: MakeNodeID for invalid tier " + t.String())
	}
	if ordinal < 0 {
		panic("ids: negative NodeID ordinal")
	}
	return NodeID(uint64(t)<<62 | uint64(ordinal+1))
}

// MHBlockSize carves the mobile-host ordinal space into per-process
// blocks: cluster process i mints the ordinals of its mobile hosts and
// query apps in block i (core.Place sets Config.MHBase = i*MHBlockSize),
// so any process routes a reply to one of them by ordinal/MHBlockSize
// alone, without learning. Processes that own no cluster slot take blocks
// past every slot.
const MHBlockSize = 1 << 24

// Tier extracts the tier of the node.
func (n NodeID) Tier() Tier { return Tier(n >> 62) }

// Ordinal extracts the per-tier ordinal of the node.
func (n NodeID) Ordinal() int { return int(n&(1<<62-1)) - 1 }

// IsZero reports whether n is the NoNode sentinel.
func (n NodeID) IsZero() bool { return n == NoNode }

// String renders e.g. "AP-17", "AG-3", "BR-0", or "none".
func (n NodeID) String() string {
	if n.IsZero() {
		return "none"
	}
	return n.Tier().String() + "-" + strconv.Itoa(n.Ordinal())
}

// GUID is the globally unique identity of a mobile host, "available
// from some globally unique identity scheme, e.g. Mobile IP Home
// Address" (RFC 2002). It never changes while the MH roams.
type GUID uint64

// String renders the GUID as a home-address-like string.
func (g GUID) String() string { return "mh-" + strconv.FormatUint(uint64(g), 10) }

// LUID is the locally unique identity of a mobile host under its
// current attachment, "e.g. Mobile IP Care-of Address". It changes on
// every handoff. The encoding pairs the serving AP with a local index.
type LUID struct {
	AP    NodeID // serving access proxy
	Local uint32 // index unique under that AP
}

// String renders e.g. "coa(AP-4/7)".
func (l LUID) String() string {
	return "coa(" + l.AP.String() + "/" + strconv.FormatUint(uint64(l.Local), 10) + ")"
}

// IsZero reports whether l is unassigned.
func (l LUID) IsZero() bool { return l.AP.IsZero() && l.Local == 0 }

// Status is the operational status of a mobile host as tracked by the
// membership service (Section 4.2: "Typical status like operational,
// disconnected, and failed"). Disconnection is further categorized per
// Section 1 into temporary and voluntary; faulty disconnection is
// Failed.
type Status uint8

// Member status values.
const (
	StatusOperational   Status = iota // attached and reachable
	StatusTempDisc                    // temporary disconnection, expected back shortly
	StatusVoluntaryDisc               // user-initiated disconnection, may reconnect anywhere
	StatusFailed                      // faulty disconnection, excluded from membership
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOperational:
		return "operational"
	case StatusTempDisc:
		return "temp-disconnected"
	case StatusVoluntaryDisc:
		return "voluntary-disconnected"
	case StatusFailed:
		return "failed"
	default:
		return "Status(" + strconv.Itoa(int(s)) + ")"
	}
}

// Operational reports whether a member with this status counts toward
// the "list of currently operational processes in the group".
func (s Status) Operational() bool { return s == StatusOperational }

// MemberInfo is one entry of the membership lists kept by network
// entities: ListOfLocalMembers, ListOfRingMembers and
// ListOfNeighborMembers (Section 4.2).
//
// The fields are ordered for size, not meaning: GID, Status and Ver
// share the word after AP, so a record is 40 bytes (a GID ahead of GUID,
// or a 32-bit Ver, would pad it to 48). The wire layout is fixed by the
// codec, not by this order. Ver orders one member's records (core's
// tombstone.go); compare versions only with VerAfter.
type MemberInfo struct {
	GUID   GUID    // permanent identity
	LUID   LUID    // current care-of identity
	AP     NodeID  // currently serving access proxy
	GID    GroupID // group this membership belongs to
	Status Status  // current operational status
	Ver    uint16  // the member's version of this record
}

// VerAfter reports whether version a is newer than b in serial-number
// arithmetic (RFC 1982): a is ahead of b by less than half the 16-bit
// space, so the order survives the counter wrapping.
func VerAfter(a, b uint16) bool { return int16(a-b) > 0 }

// String renders a compact single-line description.
func (m MemberInfo) String() string {
	return fmt.Sprintf("%s@%s[%s]", m.GUID, m.AP, m.Status)
}

// MemberList is an ordered set of members keyed by GUID. It preserves
// deterministic iteration order (insertion order) so that simulations
// and tests are reproducible, while giving O(1) lookup, insertion and
// removal.
//
// The records sit in one dense slice in insertion order and an index
// finds a GUID's slot. Remove marks the slot dead in a side bitset
// (a record's own fields cannot carry the mark: lists hold members
// decoded from the wire verbatim, any Status byte included) and the
// walks skip dead slots. Dead slots at the tail are dropped at once;
// the others are squeezed out when they exceed a quarter of the slots.
//
// The index is a flat open-addressing table the list owns: a
// power-of-two []uint64 in which each live member has one entry, its
// GUID's 32-bit keyed hash (hashGUID) in the high half and its slot
// position + 1 in the low half; 0 is an empty entry. A lookup probes
// linearly from the hash's home entry, compares hashes inside the
// index and reads a slot only to confirm a match, so it touches one
// index cache line besides the record it returns. The table doubles
// before it reaches ¾ load, and a removal shifts the entries of its
// probe run back into the hole, so there are no tombstones.
//
// Shared hands out one read-only copy of the live members, built on first
// demand after a change. The list never writes into that copy: every
// mutation (Put, Remove, Clear) only drops the list's
// reference to it, so a holder keeps the members as they were when it
// asked, however long it holds them.
type MemberList struct {
	slots  []MemberInfo // insertion order, dead slots included
	dead   []uint64     // bit i set: slots[i] was removed
	ndead  int          // set bits in dead; the last slot is never dead
	index  []uint64     // hash<<32 | slot+1 per live member; len 0 or a power of two
	shared []MemberInfo // Shared's copy; nil until asked for after a change
}

// NewMemberList returns an empty list. The zero MemberList is also
// ready to use: the index is allocated on first Put, so the many lists
// that stay empty for a node's whole lifetime (most entities never see
// a neighbor or global entry) cost nothing.
func NewMemberList() *MemberList {
	return &MemberList{}
}

// minIndex is the length of a list's first index: one cache line,
// which holds five members before it doubles.
const minIndex = 8

// hashSeed keys hashGUID. GUIDs come from clients, and an unkeyed hash
// would let a client choose GUIDs that share one probe run in every
// list of every entity. It is drawn once per process; the table's
// layout never reaches an output, because the order lives in slots.
var hashSeed = rand.Uint64()

// hashGUID is the index hash of id: the 128-bit product of the keyed
// GUID and an odd 64-bit constant, folded to 32 bits.
func hashGUID(id GUID) uint32 {
	hi, lo := bits.Mul64(uint64(id)^hashSeed, 0x9e3779b97f4a7c15)
	h := hi ^ lo
	return uint32(h>>32 ^ h)
}

// Len returns the number of members in the list.
func (l *MemberList) Len() int { return len(l.slots) - l.ndead }

// find returns the index entry holding id, or the empty entry where a
// probe for it ends, and whether id is present. h is hashGUID(id).
func (l *MemberList) find(id GUID, h uint32) (int, bool) {
	if len(l.index) == 0 {
		return 0, false
	}
	mask := len(l.index) - 1
	for e := int(h) & mask; ; e = (e + 1) & mask {
		x := l.index[e]
		if x == 0 {
			return e, false
		}
		if uint32(x>>32) == h && l.slots[uint32(x)-1].GUID == id {
			return e, true
		}
	}
}

// slotOf returns the slot of id, if present.
func (l *MemberList) slotOf(id GUID) (int, bool) {
	e, ok := l.find(id, hashGUID(id))
	if !ok {
		return 0, false
	}
	return int(uint32(l.index[e])) - 1, true
}

// Get returns the record for id, if present.
func (l *MemberList) Get(id GUID) (MemberInfo, bool) {
	i, ok := l.slotOf(id)
	if !ok {
		return MemberInfo{}, false
	}
	return l.slots[i], true
}

// Contains reports whether id is in the list.
func (l *MemberList) Contains(id GUID) bool {
	_, ok := l.slotOf(id)
	return ok
}

// Put inserts or updates a member record. An update keeps the member's
// place in the iteration order.
func (l *MemberList) Put(m MemberInfo) {
	h := hashGUID(m.GUID)
	e, ok := l.find(m.GUID, h)
	if ok {
		l.slots[uint32(l.index[e])-1] = m
		l.shared = nil
		return
	}
	l.add(m, h, e)
}

// add appends a member the index does not hold yet. h is its hash and
// e the empty entry where find's probe for it ended; only a grow moves
// that entry, so only then is the probe run again.
func (l *MemberList) add(m MemberInfo, h uint32, e int) {
	if 4*(l.Len()+1) >= 3*len(l.index) {
		l.grow()
		e, _ = l.find(m.GUID, h)
	}
	i := len(l.slots)
	if i>>6 == len(l.dead) {
		l.dead = append(l.dead, 0)
	}
	l.slots = append(l.slots, m)
	l.index[e] = uint64(h)<<32 | uint64(i+1)
	l.shared = nil
}

// grow doubles the index and re-homes every entry by its stored hash.
func (l *MemberList) grow() {
	old := l.index
	l.index = make([]uint64, max(2*len(old), minIndex))
	mask := len(l.index) - 1
	for _, x := range old {
		if x == 0 {
			continue
		}
		e := int(x>>32) & mask
		for l.index[e] != 0 {
			e = (e + 1) & mask
		}
		l.index[e] = x
	}
}

// unindex empties entry e and closes the hole: each later entry of the
// probe run whose home does not lie between the hole and itself moves
// back into the hole, which moves to where that entry was.
func (l *MemberList) unindex(e int) {
	mask := len(l.index) - 1
	for j := (e + 1) & mask; l.index[j] != 0; j = (j + 1) & mask {
		home := int(l.index[j]>>32) & mask
		if (j-home)&mask >= (j-e)&mask {
			l.index[e] = l.index[j]
			e = j
		}
	}
	l.index[e] = 0
}

func (l *MemberList) isDead(i int) bool { return l.dead[i>>6]&(1<<(i&63)) != 0 }

// Remove deletes the member with the given GUID and reports whether it
// was present.
func (l *MemberList) Remove(id GUID) bool {
	e, ok := l.find(id, hashGUID(id))
	if !ok {
		return false
	}
	i := int(uint32(l.index[e])) - 1
	l.unindex(e)
	l.shared = nil
	if n := i; n == len(l.slots)-1 {
		// The tail goes at once, with any dead run it uncovers, so a
		// join-then-leave of a fresh GUID leaves nothing behind.
		for n > 0 && l.isDead(n-1) {
			n--
			l.dead[n>>6] &^= 1 << (n & 63)
			l.ndead--
		}
		l.slots = l.slots[:n]
		return true
	}
	l.dead[i>>6] |= 1 << (i & 63)
	l.ndead++
	if 4*l.ndead > len(l.slots) {
		l.compact()
	}
	return true
}

// compact squeezes the dead slots out, keeping the order. At least a
// quarter of the slots are dead when it runs, so its cost is a constant
// per Remove; only the entries that move have their index rewritten.
func (l *MemberList) compact() {
	w := 0
	for r, m := range l.slots {
		if l.isDead(r) {
			continue
		}
		if w != r {
			l.slots[w] = m
			l.repoint(hashGUID(m.GUID), r, w)
		}
		w++
	}
	l.slots = l.slots[:w]
	clear(l.dead)
	l.ndead = 0
}

// repoint rewrites the index entry of the member that moved from slot
// r to slot w. It matches the entry by hash and old position, not by
// GUID, because compact is rewriting the slots under it.
func (l *MemberList) repoint(h uint32, r, w int) {
	mask := len(l.index) - 1
	from, to := uint64(h)<<32|uint64(r+1), uint64(h)<<32|uint64(w+1)
	for e := int(h) & mask; ; e = (e + 1) & mask {
		if l.index[e] == from {
			l.index[e] = to
			return
		}
	}
}

// Each calls fn for every member in insertion order. fn must not
// mutate the list it walks: a Remove may compact the slots under the
// walk.
func (l *MemberList) Each(fn func(MemberInfo)) {
	for i, m := range l.slots {
		if l.ndead > 0 && l.isDead(i) {
			continue
		}
		fn(m)
	}
}

// Snapshot returns the members as a fresh slice in insertion order,
// its capacity equal to its length. With no dead slot it is one copy.
func (l *MemberList) Snapshot() []MemberInfo {
	if l.ndead == 0 {
		// In this form, with local names, the compiler makes the
		// slice and copies into it without zeroing it first.
		s := l.slots
		out := make([]MemberInfo, len(s))
		copy(out, s)
		return out
	}
	out := make([]MemberInfo, 0, l.Len())
	l.Each(func(m MemberInfo) { out = append(out, m) })
	return out
}

// Shared returns the members in insertion order, like Snapshot, but as
// one slice that every caller gets until the list next changes (nil for
// an empty list). It is read-only for everyone: its capacity equals its
// length, so an append copies, but a write through an index would reach
// every other holder.
func (l *MemberList) Shared() []MemberInfo {
	if l.shared == nil && l.Len() > 0 {
		l.shared = l.Snapshot()
	}
	return l.shared
}

// Borrow returns the list's own slots in insertion order, its capacity
// equal to its length, and allocates nothing; a dead slot is squeezed
// out first. The slice is valid only until the list next changes, which
// may write into it, and is read-only: a caller that keeps it longer
// wants Shared.
func (l *MemberList) Borrow() []MemberInfo {
	if l.ndead > 0 {
		l.compact()
	}
	return l.slots[:len(l.slots):len(l.slots)]
}

// Clear removes all members.
func (l *MemberList) Clear() {
	l.slots = l.slots[:0]
	clear(l.dead)
	l.ndead = 0
	clear(l.index)
	l.shared = nil
}

// GUIDs returns the member identities in insertion order.
func (l *MemberList) GUIDs() []GUID {
	out := make([]GUID, 0, l.Len())
	l.Each(func(m MemberInfo) { out = append(out, m.GUID) })
	return out
}

// String renders a compact summary such as "3 members [mh-1 mh-2 mh-9]".
func (l *MemberList) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d members [", l.Len())
	first := true
	l.Each(func(m MemberInfo) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(m.GUID.String())
	})
	b.WriteByte(']')
	return b.String()
}
