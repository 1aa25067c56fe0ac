// Package ring implements the logical ring, the structural building
// block of the RGB hierarchy (Section 4.1): an ordered cycle of network
// entities whose first entity is the leader. topology.NewRingHierarchy
// builds every ring with New, and a Ring never changes after New.
//
// The protocol's view of a ring — the one that local repair (§5.2),
// NE-Join and merge change — is each entity's Node.roster and
// Node.leader in package core; a Ring only records the ring the
// topology was built with.
package ring

import (
	"fmt"
	"slices"
	"strings"

	"github.com/rgbproto/rgb/internal/ids"
)

// ID names a logical ring: the tier it lives in and its index among
// the hierarchy's rings (breadth-first order). The index is 32 bits, as
// on the wire, so an ID is 8 bytes and so is every token, notification
// and acknowledgement field that names a ring.
type ID struct {
	Tier  ids.Tier
	Index int32
}

// String renders e.g. "APR-3" (Access Proxy Ring 3), following the
// paper's "APR" naming for AP rings.
func (id ID) String() string {
	return id.Tier.String() + "R-" + fmt.Sprint(id.Index)
}

// Ring is an ordered cycle of distinct nodes led by its first node.
// The zero value is not usable; use New.
type Ring struct {
	id    ID
	nodes []ids.NodeID // cycle order; nodes[i].Next = nodes[(i+1)%len]
}

// New builds a ring from at least one node. The first node is the
// leader. Duplicate or zero nodes panic: rings are built from
// authoritative topology, so these are construction bugs.
func New(id ID, nodes []ids.NodeID) *Ring {
	if len(nodes) == 0 {
		panic("ring: empty ring")
	}
	r := &Ring{id: id, nodes: make([]ids.NodeID, 0, len(nodes))}
	for _, n := range nodes {
		if n.IsZero() {
			panic("ring: zero NodeID")
		}
		if slices.Contains(r.nodes, n) {
			panic("ring: duplicate node " + n.String())
		}
		r.nodes = append(r.nodes, n)
	}
	return r
}

// ID returns the ring's identity.
func (r *Ring) ID() ID { return r.id }

// Nodes returns the cycle order as a fresh slice starting at the leader.
func (r *Ring) Nodes() []ids.NodeID { return slices.Clone(r.nodes) }

// Leader returns the ring's leader, its first node.
func (r *Ring) Leader() ids.NodeID { return r.nodes[0] }

// String renders e.g. "APR-0{AP-0* AP-1 AP-2}" with * marking the
// leader.
func (r *Ring) String() string {
	var b strings.Builder
	b.WriteString(r.id.String())
	b.WriteByte('{')
	for i, n := range r.nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n.String())
		if i == 0 {
			b.WriteByte('*')
		}
	}
	b.WriteByte('}')
	return b.String()
}
