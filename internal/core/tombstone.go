package core

import (
	"sort"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/wire"
)

// Merge tombstones (ROADMAP item 4). MergeFrom unions two ring
// fragments' membership lists, so a member that left (or failed out)
// inside one fragment while the partition held used to be resurrected
// by the merge whenever the other fragment still listed it. The fix is
// a per-node removal counter: memVer[g] counts the Member-Leave /
// Member-Failure operations this node has applied for GUID g. Within
// one ring every member applies the same operations in the same
// order, so the counters of two fragments agree up to the moment of
// the cut and diverge only by what each side saw during it — exactly
// the comparison a merge needs:
//
//   - a fragment whose entry for g has seen FEWER removals than the
//     merging side's counter holds a stale record (the member left
//     here during the cut): the union drops it;
//   - a fragment whose tombstone for g carries MORE removals than the
//     merging side has applied learned of a leave the merging side
//     missed: the kept entry is removed and the tombstone adopted;
//   - equal counters mean both sides share the same removal history,
//     so a live entry (a rejoin after the shared removal) wins.
//
// The counters travel as wire.Tombstone entries (GUID + view counter)
// on Snapshot and MergeRequest: an entry for a GUID absent from the
// accompanying member list is a tombstone proper, one for a listed
// member is rejoin protection. Counters are retained across rejoins
// (a rejoin clears deadness by listing the member, not by resetting
// the count) and capped FIFO-style like the event dedup window.

// tombstoneWindow bounds the per-node removal-counter map: a merge
// reconciles recent divergence, so counters older than the last few
// thousand removals can lapse without risk in practice.
const tombstoneWindow = 4096

// noteMemberRemoved bumps the removal counter for g at this node.
// Called from applyMemberRemove — every Leave/Failure commit, at
// every node that executes it.
func (n *Node) noteMemberRemoved(g ids.GUID) {
	if n.memVer == nil {
		n.memVer = make(map[ids.GUID]uint64)
	}
	before := len(n.memVer)
	n.memVer[g]++ // one probe: the increment finds or makes the entry
	if len(n.memVer) != before {
		n.trackVersioned(g)
	}
}

// adoptVersion merges a peer's view counter for g (max-merge).
func (n *Node) adoptVersion(g ids.GUID, v uint64) {
	if v == 0 {
		return
	}
	if n.memVer == nil {
		n.memVer = make(map[ids.GUID]uint64)
	}
	cur, known := n.memVer[g]
	if v <= cur {
		return
	}
	if !known {
		n.trackVersioned(g)
	}
	n.memVer[g] = v
}

// trackVersioned appends g to the FIFO cap queue, evicting the oldest
// counter past the window.
func (n *Node) trackVersioned(g ids.GUID) {
	if old, full := n.memVerQ.push(g); full {
		delete(n.memVer, old)
	}
}

// versionOf returns the removal counter for g (0 when never removed).
func (n *Node) versionOf(g ids.GUID) uint64 { return n.memVer[g] }

// tombstoneList renders the node's removal counters for the wire,
// sorted by GUID so encodings and digests are deterministic.
func (n *Node) tombstoneList() []wire.Tombstone {
	if len(n.memVer) == 0 {
		return nil
	}
	out := make([]wire.Tombstone, 0, len(n.memVer))
	for g, v := range n.memVer {
		out = append(out, wire.Tombstone{GUID: g, Ver: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GUID < out[j].GUID })
	return out
}
