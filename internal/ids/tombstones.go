package ids

// Tombstones is an entity's removal window: the version at which it last
// removed each member, for the newest limit distinct members it removed.
//
// The burials sit in two dense rings in burial order, GUIDs and versions
// apart, so a record costs 10 bytes there. An index finds a GUID's ring
// position: a power-of-two []uint32 with one entry per burial, the low
// bits of its GUID's keyed hash (hashGUID) above the position + 1 in the
// low tombPosBits bits; 0 is an empty entry. A probe compares hash bits
// inside the index and reads a GUID only when they match. A removal from
// the index shifts the later entries of its probe run back, as
// MemberList.unindex does, so there are no deleted markers. Once the
// rings hold limit burials, a new one overwrites the oldest slot.
//
// The rings grow as append grows a slice and the index doubles before
// ¾ load: most entities never fill their window, so neither is allocated
// to its limit up front.
type Tombstones struct {
	guids []GUID   // burial order; the oldest at head once the rings are full
	vers  []uint16 // vers[i] is the removal version of guids[i]
	head  int
	limit int
	index []uint32 // hash<<tombPosBits | position+1 per burial; len 0 or a power of two
}

// tombPosBits is the width of an index entry's position field. The
// 19 hash bits above it also name the entry's home, which bounds the
// index to 2^19 entries, far above what MaxTombstones needs.
const (
	tombPosBits = 13
	tombPosMask = 1<<tombPosBits - 1
)

// MaxTombstones is the largest window a Tombstones keeps: the largest
// position + 1 an index entry holds.
const MaxTombstones = tombPosMask

// NewTombstones returns an empty window that keeps the newest limit
// burials, 1 ≤ limit ≤ MaxTombstones. It allocates nothing until the
// first Bury.
func NewTombstones(limit int) Tombstones {
	if limit < 1 || limit > MaxTombstones {
		panic("ids: tombstone window outside 1..MaxTombstones")
	}
	return Tombstones{limit: limit}
}

// Len returns the number of buried members.
func (t *Tombstones) Len() int { return len(t.guids) }

// find returns the index entry holding g, or the empty entry where a
// probe for it ends, and whether g is buried. tag is
// hashGUID(g)<<tombPosBits. The index must not be empty.
func (t *Tombstones) find(g GUID, tag uint32) (int, bool) {
	mask := len(t.index) - 1
	for e := int(tag>>tombPosBits) & mask; ; e = (e + 1) & mask {
		x := t.index[e]
		if x == 0 {
			return e, false
		}
		if x&^tombPosMask == tag && t.guids[x&tombPosMask-1] == g {
			return e, true
		}
	}
}

// Get returns the version at which g was last removed, if it is buried.
func (t *Tombstones) Get(g GUID) (uint16, bool) {
	if len(t.index) == 0 {
		return 0, false
	}
	e, ok := t.find(g, hashGUID(g)<<tombPosBits)
	if !ok {
		return 0, false
	}
	return t.vers[t.index[e]&tombPosMask-1], true
}

// Bury records that g was removed at version v and reports whether the
// store changed, and the GUID the burial evicted, zero if none. A
// buried g keeps its place in the burial order and takes v only if v
// is newer (VerAfter); a new burial into full rings evicts the oldest.
func (t *Tombstones) Bury(g GUID, v uint16) (changed bool, evicted GUID) {
	tag := hashGUID(g) << tombPosBits
	if len(t.index) == 0 {
		t.grow()
	}
	e, ok := t.find(g, tag)
	if ok {
		if i := t.index[e]&tombPosMask - 1; VerAfter(v, t.vers[i]) {
			t.vers[i] = v
			return true, 0
		}
		return false, 0
	}
	i := len(t.guids)
	if i == t.limit {
		i = t.head
		t.head = (i + 1) % t.limit
		evicted = t.guids[i]
		t.unindex(t.entryOf(hashGUID(evicted)<<tombPosBits | uint32(i+1)))
		t.guids[i], t.vers[i] = g, v
		e, _ = t.find(g, tag) // the shift may have moved the probe's end
	} else {
		if 4*(i+1) >= 3*len(t.index) {
			t.grow()
			e, _ = t.find(g, tag)
		}
		t.guids = append(t.guids, g)
		t.vers = append(t.vers, v)
	}
	t.index[e] = tag | uint32(i+1)
	return true, evicted
}

// grow doubles the index and re-homes every entry by its stored hash.
func (t *Tombstones) grow() {
	old := t.index
	t.index = make([]uint32, max(2*len(old), minIndex))
	mask := len(t.index) - 1
	for _, x := range old {
		if x == 0 {
			continue
		}
		e := int(x>>tombPosBits) & mask
		for t.index[e] != 0 {
			e = (e + 1) & mask
		}
		t.index[e] = x
	}
}

// entryOf returns the index entry equal to x, which must be present.
func (t *Tombstones) entryOf(x uint32) int {
	mask := len(t.index) - 1
	e := int(x>>tombPosBits) & mask
	for t.index[e] != x {
		e = (e + 1) & mask
	}
	return e
}

// unindex empties entry e and closes the hole as MemberList.unindex does.
func (t *Tombstones) unindex(e int) {
	mask := len(t.index) - 1
	for j := (e + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := int(t.index[j]>>tombPosBits) & mask
		if (j-home)&mask >= (j-e)&mask {
			t.index[e] = t.index[j]
			e = j
		}
	}
	t.index[e] = 0
}

// Each calls fn for every buried member with its removal version, in
// ring order.
func (t *Tombstones) Each(fn func(GUID, uint16)) {
	for i, g := range t.guids {
		fn(g, t.vers[i])
	}
}
