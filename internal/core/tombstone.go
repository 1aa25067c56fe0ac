package core

import (
	"sort"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/wire"
)

// One version per member. Every write to an entity's member lists (a
// token round's member op, a Snapshot load, a MergeRequest union) goes
// through put or remove, which compare MemberInfo.Ver, only ever by
// ids.VerAfter, with what the entity holds. The mobile host advances Ver
// on every join, leave and handoff it submits, a join past what its
// System's topmost entity holds too; an AP-detected failure removes at
// the member's current Ver. put files a record only if it is newer than
// the listed entry and than the tombstone in gone, the version the
// entity last removed g at, so a removal at v beats a put at v; remove
// drops g unless the listed entry is newer, and buries g at v. gone
// travels as the Tombstones of Snapshot and MergeRequest, each applied
// with remove. Only a leave or a failure buries, so the newest record
// wins whatever order a member's changes arrive in except a handoff out
// of a ring's coverage that overtakes an older join
// (docs/ARCHITECTURE.md).
//
// gone is an ids.Tombstones, held by value in the Node: two dense rings
// in burial order, one of GUIDs and one of versions, and an index of
// 16-bit entries, each 3 tag bits of the GUID's keyed hash above its
// ring position + 1. Under full dissemination every change reaches every
// entity (780 at h=4 r=5), so this store is paid once per entity: a
// tombstone costs 12 bytes, 10 in the rings and 2 in its index entry,
// besides the index's empty entries (14 in all in a full window), and a
// probe reads a GUID only when the tag matches. Tombstones stay out of
// ringMems' own index: they would grow a bottom ring's small index about
// 30-fold and push every MemberList.find out of cache (PERF.md).

// tombstoneWindow bounds gone FIFO-style: a late change or a merge
// reconciles only the divergence gone still remembers. A removal lapses
// after tombstoneWindow later distinct burials, so a heal whose cut
// spans that many removals on the kept side lists the departed member
// again (TestTrapHealPastTombstoneWindow, ROADMAP item 38). A re-burial
// keeps its place; the oldest distinct burial is evicted.
const tombstoneWindow = 4096

// The window must fit the position field of gone's index entries: a
// larger tombstoneWindow does not compile.
const _ uint = ids.MaxTombstones - tombstoneWindow

// put files m unless the entity holds the member at the same or a newer
// version, or removed it at one, and reports whether it did. A record at
// an access proxy the ring does not cover unlists the member: it moved
// away. gone is read only for an unlisted member the ring covers: a
// listed entry is always newer than gone's, and elsewhere there is
// nothing to change.
func (n *Node) put(m ids.MemberInfo) bool {
	covered := n.sys.hier.Covers(n.ringID, m.AP)
	if !covered && !n.ringMems.Contains(m.GUID) {
		return false
	}
	if v, known := n.held(m.GUID); known && !ids.VerAfter(m.Ver, v) {
		return false
	}
	if covered {
		n.ringMems.Put(m)
	} else {
		n.ringMems.Remove(m.GUID)
	}
	if n.level != n.sys.cfg.H-1 {
		return true // only access proxies keep the local and neighbor lists
	}
	if m.AP == n.id {
		n.local.Put(m)
	} else {
		n.local.Remove(m.GUID) // handoff away from this AP
	}
	if n.sys.cfg.NeighborLists {
		if m.AP == n.nextLive(n.id) || m.AP == n.prevLive(n.id) {
			n.neighbors.Put(m)
		} else {
			n.neighbors.Remove(m.GUID)
		}
	}
	return true
}

// remove drops g from every list and buries it at v, unless the entity
// lists g at a newer version; it reports whether that changed anything.
func (n *Node) remove(g ids.GUID, v uint16) bool {
	e, listed := n.ringMems.Get(g)
	if listed && ids.VerAfter(e.Ver, v) {
		return false
	}
	buried := n.bury(g, v)
	n.ringMems.Remove(g)
	n.local.Remove(g)
	n.neighbors.Remove(g)
	return listed || buried
}

// changedBy reports whether member change c would change a topmost
// entity, which covers every access proxy, by put's and remove's rule:
// a removal must be newer than the tombstone and not older than the
// listed record, a put newer than both.
func (n *Node) changedBy(c mq.Change) bool {
	g, v := c.Member.GUID, c.Member.Ver
	held, known := n.held(g)
	if known && (c.Op == mq.OpMemberLeave || c.Op == mq.OpMemberFailure) && n.ringMems.Contains(g) {
		return !ids.VerAfter(held, v)
	}
	return !known || ids.VerAfter(v, held)
}

// held returns the version at which the entity lists g or last removed
// it, and whether it knows g at all.
func (n *Node) held(g ids.GUID) (uint16, bool) {
	if e, ok := n.ringMems.Get(g); ok {
		return e.Ver, true
	}
	return n.gone.Get(g)
}

// bury records that the entity removed g at version v, keeping the newer
// of two removals, and reports whether gone changed. It is the only
// writer of gone, and tells the System each GUID it evicts
// (System.evicted).
func (n *Node) bury(g ids.GUID, v uint16) bool {
	changed, evicted := n.gone.Bury(g, v)
	if evicted != 0 {
		n.sys.evicted(n, evicted)
	}
	return changed
}

// tombstoneList renders gone for the wire, sorted by GUID so encodings
// and digests are deterministic.
func (n *Node) tombstoneList() []wire.Tombstone {
	if n.gone.Len() == 0 {
		return nil
	}
	out := make([]wire.Tombstone, 0, n.gone.Len())
	n.gone.Each(func(g ids.GUID, v uint16) { out = append(out, wire.Tombstone{GUID: g, Ver: v}) })
	sort.Slice(out, func(i, j int) bool { return out[i].GUID < out[j].GUID })
	return out
}
