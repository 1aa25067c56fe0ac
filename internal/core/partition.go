package core

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

// This file implements the Membership-Partition/Merge extension that
// the paper lists as future work (§6): explicit ring partitioning —
// the state the §5.2 analysis declares when two or more entities of a
// ring fail — and the merge procedure that reunites fragments, "which
// will merge with other partitions later" (§5.2).

// PartitionRing splits a ring's surviving membership views in two:
// the entities in `fragment` consider only each other ring-mates, and
// the remainder likewise. Each fragment elects its first member (in
// old cycle order) as leader. The fragment containing the old
// leader's successor keeps the parent link; both fragments mark
// RingOK=false until their next completed round.
//
// Returns the leaders of the two fragments (kept, split-off).
func (s *System) PartitionRing(ringID fmt.Stringer, fragment map[ids.NodeID]bool) (ids.NodeID, ids.NodeID) {
	// Locate the ring in the hierarchy.
	var members []ids.NodeID
	for _, rg := range s.hier.Rings() {
		if rg.ID().String() == ringID.String() {
			members = rg.Nodes()
		}
	}
	if members == nil {
		panic("core: unknown ring " + ringID.String())
	}
	var keep, split []ids.NodeID
	for _, m := range members {
		n := s.nodes[m]
		if n == nil || !n.rosterContains(m) {
			continue
		}
		if fragment[m] {
			split = append(split, m)
		} else {
			keep = append(keep, m)
		}
	}
	if len(keep) == 0 || len(split) == 0 {
		panic("core: partition must leave two non-empty fragments")
	}
	assign := func(group []ids.NodeID) ids.NodeID {
		leader := group[0]
		for _, m := range group {
			n := s.nodes[m]
			n.roster = append([]ids.NodeID(nil), group...)
			n.leader = leader
			n.ringOK = false
		}
		return leader
	}
	keepLeader := assign(keep)
	splitLeader := assign(split)
	// The split fragment's leader loses its parent link: the fragment
	// is disconnected from the hierarchy until merged back.
	for _, m := range split {
		s.nodes[m].parentOK = false
	}
	// The kept fragment announces its (possibly new) leader upward.
	kn := s.nodes[keepLeader]
	if !kn.parent.IsZero() {
		kn.sendNotify(kn.parent, wire.Notify{From: kn.ringID, Up: true, LeaderUpdate: true, NewLeader: keepLeader})
	}
	return keepLeader, splitLeader
}

// MergeFragments reunites a split-off fragment with the fragment that
// kept the parent link: the fragment leader ships its roster and
// membership to the kept leader (one control message), which admits
// every fragment entity through NE-Join operations circulated by the
// normal one-round algorithm and then snapshots state back to the
// joiners.
func (s *System) MergeFragments(fragmentLeader, keptLeader ids.NodeID) {
	fl := s.nodes[fragmentLeader]
	if fl == nil {
		panic("core: unknown fragment leader")
	}
	s.send(fragmentLeader, keptLeader, runtime.KindControl, wire.MergeRequest{
		Roster:     fl.Roster(),
		Members:    fl.ringMems.Snapshot(),
		Tombstones: fl.tombstoneList(),
	})
	// The joining entities adopt the kept fragment's identity once the
	// NE-Join round completes; prime them to accept a snapshot.
	for _, m := range fl.roster {
		if n := s.nodes[m]; n != nil {
			n.parentOK = true
		}
	}
}

// netSplit records one ring's partition so HealNetwork knows which
// fragment pairs to merge back.
type netSplit struct {
	ring        ring.ID
	keptLeader  ids.NodeID
	splitLeader ids.NodeID
}

// PartitionNetwork partitions the whole deployment: the entities in
// `fragment` (plus the mobile hosts attached to them) are severed from
// the rest at the transport level — every message crossing the cut is
// dropped — and every ring spanning the cut is split into two
// fragments with PartitionRing. The far side keeps functioning as an
// isolated sub-hierarchy; HealNetwork reverses the cut and merges the
// fragments back.
//
// Only transports with the partition capability (the simulator)
// support this; elsewhere it returns ErrPartitionUnsupported. A second
// partition before HealNetwork returns ErrPartitioned, and a fragment
// that does not split any ring returns ErrBadFragment.
func (s *System) PartitionNetwork(fragment []ids.NodeID) error {
	p, ok := runtime.AsPartitionable(s.tr)
	if !ok {
		return fmt.Errorf("core: %w", ErrPartitionUnsupported)
	}
	if s.netCut {
		return fmt.Errorf("core: %w", ErrPartitioned)
	}
	far := make(map[ids.NodeID]bool, len(fragment))
	for _, id := range fragment {
		far[id] = true
	}
	// Plan the ring surgery first: a ring is cut when its surviving
	// roster members land on both sides. The side away from the ring's
	// parent becomes the split-off fragment (it loses the parent link);
	// the topmost ring has no parent, so there the far side splits off.
	type ringPlan struct {
		id   ring.ID
		frag map[ids.NodeID]bool
	}
	var plans []ringPlan
	for _, rg := range s.hier.Rings() {
		splitFar := !far[s.hier.ParentOf(rg.ID())]
		frag := make(map[ids.NodeID]bool)
		nearCount, farCount := 0, 0
		for _, m := range rg.Nodes() {
			n := s.nodes[m]
			if n == nil || !n.rosterContains(m) {
				continue
			}
			if far[m] {
				farCount++
			} else {
				nearCount++
			}
			if far[m] == splitFar {
				frag[m] = true
			}
		}
		if nearCount > 0 && farCount > 0 {
			plans = append(plans, ringPlan{id: rg.ID(), frag: frag})
		}
	}
	if len(plans) == 0 {
		return fmt.Errorf("core: %w", ErrBadFragment)
	}
	// Install the transport cut before the ring surgery, so the kept
	// leaders' LeaderUpdate notifications already see the partitioned
	// network. Mobile hosts sit on the side of their serving AP.
	p.Partition(func(id ids.NodeID) bool {
		if m, ok := s.mhOwner[id]; ok {
			return far[m.AP]
		}
		return far[id]
	})
	s.netCut = true
	for _, pl := range plans {
		kept, split := s.PartitionRing(pl.id, pl.frag)
		s.netSplits = append(s.netSplits, netSplit{ring: pl.id, keptLeader: kept, splitLeader: split})
	}
	return nil
}

// HealNetwork removes the transport cut and merges every recorded ring
// split back together (MergeFragments from the current split-side
// leader to the current kept-side leader — either may have changed
// through crashes while partitioned). Returns ErrNotPartitioned
// without an active cut.
func (s *System) HealNetwork() error {
	if !s.netCut {
		return fmt.Errorf("core: %w", ErrNotPartitioned)
	}
	p, ok := runtime.AsPartitionable(s.tr)
	if !ok {
		return fmt.Errorf("core: %w", ErrPartitionUnsupported)
	}
	p.Heal()
	s.netCut = false
	splits := s.netSplits
	s.netSplits = nil
	for _, sp := range splits {
		fl := s.fragmentLeader(sp.splitLeader)
		kl := s.fragmentLeader(sp.keptLeader)
		if fl.IsZero() || kl.IsZero() || fl == kl {
			continue
		}
		s.MergeFragments(fl, kl)
	}
	return nil
}

// fragmentLeader resolves the current leader of the fragment that
// `recorded` led when the partition was installed: the recorded node
// itself if it is live and still believes it leads, else the leader
// view of the fragment's first surviving member. Zero when the whole
// fragment died.
func (s *System) fragmentLeader(recorded ids.NodeID) ids.NodeID {
	n := s.nodes[recorded]
	if n == nil {
		return 0
	}
	if !s.tr.Crashed(recorded) && n.leader == n.id {
		return recorded
	}
	for _, m := range n.roster {
		if s.tr.Crashed(m) {
			continue
		}
		fn := s.nodes[m]
		if fn == nil {
			continue
		}
		if l := s.nodes[fn.leader]; l != nil && !s.tr.Crashed(fn.leader) {
			return fn.leader
		}
		return fn.id
	}
	return 0
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

// FunctionWellRings counts rings whose every surviving node currently
// reports RingOK — the protocol-level Function-Well census used by
// tests and the failover example. The census covers the entities this
// process hosts: a ring with no local member is not counted.
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
			if !n.ringOK || !n.rosterContains(m) {
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
