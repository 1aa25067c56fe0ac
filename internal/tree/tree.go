// Package tree implements the scalability baseline of §5.1: a
// CONGRESS-style tree-based membership service with representatives
// ([4] in the paper). Local Membership Servers (LMSs) sit at the
// leaves, Global Membership Servers (GMSs) above them, and "the
// higher-level logical GMSs are indeed the lowest-level physical
// ones": a logical GMS collapses onto the level-(h−2) GMS reached by
// following first children, so a message between two logical servers
// hosted on the same physical machine costs no network hop.
//
// The service implements the one-round proposal of [14]/[15] in the
// fault-free case, which is the workload the paper's Table I counts:
// a membership change climbs from its LMS to the root and the root
// floods the proposal to every server, crossing each tree edge once.
// Messages between co-hosted logical servers are delivered as local
// (zero-hop) events; everything else crosses the simulated network
// and is counted.
package tree

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/des"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/topology"
	"github.com/rgbproto/rgb/internal/wire"
)

// Server is one logical membership server (LMS or GMS).
type Server struct {
	svc     *Service
	id      ids.NodeID
	level   int
	members *ids.MemberList
	applied uint64
}

// HandleMessage implements runtime.Endpoint. A proposal is a
// wire.MemberChange; its kind names its phase: KindNotify climbs from
// an LMS toward the root, KindToken floods from the root.
func (s *Server) HandleMessage(msg runtime.Message) {
	c, ok := msg.Body.(wire.MemberChange)
	if !ok {
		panic(fmt.Sprintf("tree: %s got unknown message %T", s.id, msg.Body))
	}
	s.deliver(msg.Kind == runtime.KindNotify, c)
}

// deliver executes a proposal at this server and forwards it; up marks
// the climb.
func (s *Server) deliver(up bool, c wire.MemberChange) {
	if up {
		if s.level > 0 {
			// Keep climbing; the change is applied during the flood.
			s.svc.forward(s.id, s.svc.tree.Parent(s.id), up, c)
			return
		}
		// Root: switch to the flood phase.
		up = false
	}
	s.apply(c)
	for _, child := range s.svc.tree.Children(s.id) {
		s.svc.forward(s.id, child, up, c)
	}
}

// apply updates the membership view.
func (s *Server) apply(c wire.MemberChange) {
	s.applied++
	switch c.Op {
	case mq.OpMemberJoin, mq.OpMemberHandoff:
		m := c.Member
		m.Status = ids.StatusOperational
		s.members.Put(m)
	case mq.OpMemberLeave, mq.OpMemberFailure:
		s.members.Remove(c.Member.GUID)
	}
}

// Service is a complete simulated tree-based membership service.
type Service struct {
	kernel     *des.Kernel
	net        *simnet.Network
	tree       *topology.TreeHierarchy
	servers    map[ids.NodeID]*Server
	localFlood uint64 // representative-collapsed flood deliveries
	localUp    uint64 // representative-collapsed climb deliveries
}

// NewService builds the full (h, r) tree with or without
// representatives on a fresh kernel.
func NewService(h, r int, representatives bool, seed uint64) *Service {
	kernel := des.NewKernel()
	svc := &Service{
		kernel:  kernel,
		net:     simnet.New(kernel, runtime.ConstantLatency(1_000_000), seed), // 1ms
		tree:    topology.NewTreeHierarchy(h, r, representatives),
		servers: make(map[ids.NodeID]*Server),
	}
	for level := 0; level < h; level++ {
		for _, id := range svc.tree.Level(level) {
			srv := &Server{svc: svc, id: id, level: level, members: ids.NewMemberList()}
			svc.servers[id] = srv
			svc.net.Register(id, srv)
		}
	}
	return svc
}

// Tree returns the underlying topology.
func (s *Service) Tree() *topology.TreeHierarchy { return s.tree }

// forward routes a proposal from one logical server to another:
// co-hosted servers exchange it as a zero-hop local event, everything
// else crosses the network. Up-phase messages are sent as KindNotify
// and flood messages as KindToken, which tells the receiver the phase
// and lets the two be accounted separately.
func (s *Service) forward(from, to ids.NodeID, up bool, c wire.MemberChange) {
	if to.IsZero() {
		return
	}
	if s.tree.Physical(from) == s.tree.Physical(to) {
		if up {
			s.localUp++
		} else {
			s.localFlood++
		}
		s.kernel.After(0, func() { s.servers[to].deliver(up, c) })
		return
	}
	kind := runtime.KindToken
	if up {
		kind = runtime.KindNotify
	}
	s.net.SendKind(from, to, kind, c)
}

// Submit injects a membership change at a leaf LMS and returns after
// scheduling it (run the kernel to completion to propagate).
func (s *Service) Submit(c mq.Change, leaf ids.NodeID) {
	srv := s.servers[leaf]
	if srv == nil || srv.level != s.tree.H-1 {
		panic("tree: Submit requires a leaf LMS")
	}
	s.kernel.After(0, func() { srv.deliver(true, wire.MemberChange{Op: c.Op, Member: c.Member}) })
}

// Run drains the event queue.
func (s *Service) Run() { s.kernel.Run() }

// RoundCost reports the measured network cost of one membership
// change submitted at the given leaf: the flood hops (the quantity
// Table I's HCN models) and the convergecast hops of the climb to the
// root.
type RoundCost struct {
	FloodHops  uint64 // root-to-everyone dissemination messages
	UpHops     uint64 // leaf-to-root climb messages
	LocalFlood uint64 // representative-collapsed flood deliveries
	LocalUp    uint64 // representative-collapsed climb deliveries
}

// MeasureRound submits one Member-Join at the leaf and measures the
// cost of the complete round.
func (s *Service) MeasureRound(guid ids.GUID, leaf ids.NodeID) RoundCost {
	s.net.ResetStats()
	s.localFlood, s.localUp = 0, 0
	c := mq.Change{
		Op:     mq.OpMemberJoin,
		Member: ids.MemberInfo{GID: ids.NewGroupID(1), GUID: guid, AP: leaf},
		Origin: leaf,
	}
	s.Submit(c, leaf)
	s.Run()
	st := s.net.Stats()
	return RoundCost{
		FloodHops:  st.DeliveredOf(runtime.KindToken),
		UpHops:     st.DeliveredOf(runtime.KindNotify),
		LocalFlood: s.localFlood,
		LocalUp:    s.localUp,
	}
}
