package core

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

// This file implements the Membership-Partition/Merge extension that
// the paper lists as future work (§6). A ring with two or more failed
// entities is partitioned (§5.2), and its fragments "merge with other
// partitions later". Both halves are the protocol's own: pass timeouts
// and heartbeats split a ring that a cut divides, and the heartbeat's
// merge probes reunite the fragments once the cut lifts.

// PartitionNetwork cuts the deployment in two at the transport: every
// message between the entities in `fragment` (plus the mobile hosts
// they serve) and the rest is dropped until HealNetwork. Nothing else
// changes. Each side finds the cut through its own rounds — a pass
// that times out excludes the unreachable ring-mate, and a fragment
// whose leader went silent elects a local one — and after the heal the
// heartbeat's merge probes (probeExcluded → receiveProbe →
// receiveMergeRequest) fold the fragments back together.
//
// Only transports with the partition capability (the simulator)
// support this; elsewhere it returns ErrPartitionUnsupported. So does
// a System without heartbeats, whose fragments would never merge. A
// second partition before HealNetwork returns ErrPartitioned, and a
// fragment that splits no ring of the hierarchy returns ErrBadFragment.
func (s *System) PartitionNetwork(fragment []ids.NodeID) error {
	p, ok := runtime.AsPartitionable(s.tr)
	if !ok {
		return fmt.Errorf("core: %w", ErrPartitionUnsupported)
	}
	if s.cfg.HeartbeatInterval <= 0 {
		return fmt.Errorf("core: no heartbeat to merge the fragments: %w", ErrPartitionUnsupported)
	}
	if s.netCut {
		return fmt.Errorf("core: %w", ErrPartitioned)
	}
	far := make(map[ids.NodeID]bool, len(fragment))
	for _, id := range fragment {
		far[id] = true
	}
	if !s.cutsARing(far) {
		return fmt.Errorf("core: %w", ErrBadFragment)
	}
	// Mobile hosts sit on the side of their serving AP.
	p.Partition(func(id ids.NodeID) bool {
		if m, ok := s.mhOwner[id]; ok {
			return far[m.AP]
		}
		return far[id]
	})
	s.netCut = true
	return nil
}

// cutsARing reports whether some ring of the hierarchy has entities on
// both sides of the cut.
func (s *System) cutsARing(far map[ids.NodeID]bool) bool {
	for _, rg := range s.hier.Rings() {
		nodes := rg.Nodes()
		for _, m := range nodes[1:] {
			if far[m] != far[nodes[0]] {
				return true
			}
		}
	}
	return false
}

// HealNetwork lifts the transport cut; the heartbeat's merge probes
// reunite the fragments. Returns ErrNotPartitioned without an active
// cut.
func (s *System) HealNetwork() error {
	if !s.netCut {
		return fmt.Errorf("core: %w", ErrNotPartitioned)
	}
	p, _ := runtime.AsPartitionable(s.tr) // a cut implies the capability
	p.Heal()
	s.netCut = false
	return nil
}

// probeExcluded is the heartbeat-driven organic merge path: the ring
// leader probes every statically-known ring-mate missing from its
// roster (a crashed entity, or the other side of a healed partition —
// fragments repair symmetrically, so neither side would otherwise ever
// contact the other again). A live excluded leader answers with a
// MergeRequest when the ID order says it is the one that folds in (see
// Node.receiveProbe).
func (s *System) probeExcluded(leader *Node, ringNodes []ids.NodeID) {
	for _, m := range ringNodes {
		if m == leader.id || leader.rosterContains(m) || s.tr.Crashed(m) || s.neStale(m) {
			continue
		}
		s.probeSeq++
		s.send(leader.id, m, runtime.KindControl, wire.Probe{Seq: s.probeSeq})
	}
}

// FunctionWellRings counts rings whose every surviving node still
// lists itself in its roster (RingOK) — the protocol-level
// Function-Well census used by tests and the failover example. The
// census covers the entities this process hosts: a ring with no local
// member is not counted.
func (s *System) FunctionWellRings() (ok, total int) {
	for _, rg := range s.hier.Rings() {
		hosted, well := false, true
		for _, m := range rg.Nodes() {
			n := s.nodes[m]
			if n == nil {
				continue // hosted by another process
			}
			hosted = true
			if s.tr.Crashed(m) {
				continue
			}
			if !n.rosterContains(m) {
				well = false
				break
			}
		}
		if !hosted {
			continue
		}
		total++
		if well {
			ok++
		}
	}
	return ok, total
}

// RosterAgreement checks that every live member of every ring hosted
// by this process agrees on the roster and leader, returning the number
// of disagreeing rings. Zero means the hosted views converged.
func (s *System) RosterAgreement() int {
	disagree := 0
	for _, rg := range s.hier.Rings() {
		var ref *Node
		bad := false
		for _, m := range rg.Nodes() {
			n := s.nodes[m]
			if n == nil || s.tr.Crashed(m) {
				continue
			}
			if ref == nil {
				ref = n
				continue
			}
			if !sameRoster(ref.roster, n.roster) || ref.leader != n.leader {
				bad = true
				break
			}
		}
		if bad {
			disagree++
		}
	}
	return disagree
}

func sameRoster(a, b []ids.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	// Rosters are cycles: compare as rotations with identical order.
	if len(a) == 0 {
		return true
	}
	start := -1
	for i, m := range b {
		if m == a[0] {
			start = i
			break
		}
	}
	if start < 0 {
		return false
	}
	for i := range a {
		if a[i] != b[(start+i)%len(b)] {
			return false
		}
	}
	return true
}
