package ids

// Tombstones is an entity's removal window: the version at which it last
// removed each member, for the newest limit distinct members it removed.
//
// The burials sit in two dense rings in burial order, GUIDs and versions
// apart, 10 bytes a record. An index finds a GUID's ring position: a
// power-of-two []uint16 with one entry per burial, position + 1 in the
// low tombPosBits bits and the top bits of the GUID's keyed hash
// (hashGUID) above them as a tag; 0 is an empty entry. The hash's low
// bits name the GUID's home entry. A probe compares tags and reads a
// GUID only when they match; growing the index or shifting an entry
// back, as MemberList.unindex does on a removal, hashes the GUID at the
// entry's ring slot for its home. Once the rings hold limit burials, a
// new one overwrites the oldest slot.
//
// The rings grow as append grows a slice, up to limit, and the index
// doubles before ¾ load: most entities never fill their window, so
// neither is allocated up front. A full window of 4 096 costs 14 bytes
// a burial: 10 in the rings and 4 in the index, half of it empty.
type Tombstones struct {
	guids []GUID   // burial order; the oldest at head once the rings are full
	vers  []uint16 // vers[i] is the removal version of guids[i]
	head  int
	limit int
	index []uint16 // tag | position+1 per burial; len 0 or a power of two
}

// tombPosBits is the width of an index entry's position field. The 3 tag
// bits above it, the hash's top bits, name no home in an index of at
// most 2^14 entries.
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

// find returns the index entry holding g, or the empty entry ending its
// probe, and whether g is buried; h is hashGUID(g). The index is not empty.
func (t *Tombstones) find(g GUID, h uint32) (int, bool) {
	mask, tag := len(t.index)-1, uint16(h>>29)<<tombPosBits
	for e := int(h) & mask; ; e = (e + 1) & mask {
		x := t.index[e]
		if x == 0 {
			return e, false
		}
		if x&^tombPosMask == tag && t.guids[x&tombPosMask-1] == g {
			return e, true
		}
	}
}

// home returns the home entry of index entry x by its GUID's hash.
func (t *Tombstones) home(x uint16) int {
	return int(hashGUID(t.guids[x&tombPosMask-1])) & (len(t.index) - 1)
}

// Get returns the version at which g was last removed, if it is buried.
func (t *Tombstones) Get(g GUID) (uint16, bool) {
	if len(t.index) == 0 {
		return 0, false
	}
	if e, ok := t.find(g, hashGUID(g)); ok {
		return t.vers[t.index[e]&tombPosMask-1], true
	}
	return 0, false
}

// Bury records that g was removed at version v and reports whether the
// store changed, and the GUID the burial evicted, zero if none. A
// buried g keeps its place in the burial order and takes v only if v
// is newer (VerAfter); a new burial into full rings evicts the oldest.
func (t *Tombstones) Bury(g GUID, v uint16) (changed bool, evicted GUID) {
	h := hashGUID(g)
	if len(t.index) == 0 {
		t.grow()
	}
	e, ok := t.find(g, h)
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
		old, _ := t.find(evicted, hashGUID(evicted))
		t.unindex(old)
		t.guids[i], t.vers[i] = g, v
		e, _ = t.find(g, h) // the shift may have moved the probe's end
	} else {
		if 4*(i+1) >= 3*len(t.index) {
			t.grow()
			e, _ = t.find(g, h)
		}
		if i == cap(t.guids) && 2*i >= t.limit { // the last growth stops at limit
			t.guids = append(make([]GUID, 0, t.limit), t.guids...)
			t.vers = append(make([]uint16, 0, t.limit), t.vers...)
		}
		t.guids = append(t.guids, g)
		t.vers = append(t.vers, v)
	}
	t.index[e] = uint16(h>>29)<<tombPosBits | uint16(i+1)
	return true, evicted
}

// grow doubles the index and re-homes every entry by its GUID's hash.
func (t *Tombstones) grow() {
	old := t.index
	t.index = make([]uint16, max(2*len(old), minIndex))
	mask := len(t.index) - 1
	for _, x := range old {
		if x == 0 {
			continue
		}
		e := t.home(x)
		for t.index[e] != 0 {
			e = (e + 1) & mask
		}
		t.index[e] = x
	}
}

// unindex empties entry e and closes the hole as MemberList.unindex does.
func (t *Tombstones) unindex(e int) {
	mask := len(t.index) - 1
	for j := (e + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.index[j]))&mask >= (j-e)&mask {
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
