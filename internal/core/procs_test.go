package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/topology"
	"github.com/rgbproto/rgb/internal/workload"
)

// procs is a deployment of N Systems on one simulator, the way N
// processes would host it: System i is slot i of
// topology.SubtreeOwners(N), built by NewSystemOn on one shared
// simnet.SimRuntime. The Systems share the kernel, the clock, the crash
// map and the transport counters; each owns its entities, its ring
// states and its event and query state. So changes can enter through
// different processes without sockets, bit-reproducibly.
type procs struct {
	rt     *simnet.SimRuntime
	cfg    Config
	owners map[ids.NodeID]int
	sys    []*System
}

// newProcs builds n Systems of cfg on one fresh simulator; cfg.Latency,
// cfg.Seed and cfg.Loss configure it as NewSystem would.
func newProcs(cfg Config, n int) *procs {
	rt := simnet.NewSimRuntime(cfg.Latency, cfg.Seed)
	if cfg.Loss > 0 {
		rt.Net().SetLoss(cfg.Loss)
	}
	p := &procs{rt: rt, cfg: cfg, owners: topology.NewRingHierarchy(cfg.H, cfg.R).SubtreeOwners(n)}
	for slot := 0; slot < n; slot++ {
		p.sys = append(p.sys, p.build(slot))
	}
	return p
}

// build makes slot's System on the shared simulator; it registers the
// slot's entities, replacing whatever endpoints held their ids.
func (p *procs) build(slot int) *System {
	c := p.cfg
	Place(&c, p.owners, slot)
	return NewSystemOn(c, p.rt)
}

// restart replaces slot's System with a freshly built one, the way a
// restarted process comes back with none of its state, and re-admits
// its topmost entities through the NE-Join protocol
// (System.RestoreNE), whose Snapshot hands each the ring's members and
// tombstones. It runs the deployment to quiescence.
func (p *procs) restart(slot int) *System {
	s := p.build(slot)
	p.sys[slot] = s
	for _, id := range s.hier.Level(0)[0].Nodes() {
		if p.owners[id] == slot {
			s.RestoreNE(id)
		}
	}
	p.rt.Run()
	return s
}

// slotOf is the slot hosting an endpoint: a network entity's owner, or
// the block a mobile host's or query app's ordinal lies in.
func (p *procs) slotOf(id ids.NodeID) int {
	if id.Tier() == ids.TierMH {
		return id.Ordinal() / ids.MHBlockSize
	}
	return p.owners[id]
}

// apsOf lists the access proxies slot hosts, in hierarchy order.
func (p *procs) apsOf(slot int) []ids.NodeID {
	var out []ids.NodeID
	for _, ap := range p.sys[0].APs() {
		if p.owners[ap] == slot {
			out = append(out, ap)
		}
	}
	return out
}

// applyTrace schedules tr across the Systems: every op of a member goes
// through the System hosting the access proxy of the member's first
// join, as ApplyTrace on that System. (An op before a member's first
// join goes to System 0, whose Apply skips it as not live.)
func (p *procs) applyTrace(tr workload.Trace) {
	parts := make([]workload.Trace, len(p.sys))
	via := make(map[ids.GUID]int)
	for _, e := range tr {
		if _, ok := via[e.GUID]; !ok && e.Kind == workload.EvJoin {
			via[e.GUID] = p.owners[e.AP]
		}
		slot := via[e.GUID]
		parts[slot] = append(parts[slot], e)
	}
	for slot, part := range parts {
		ApplyTrace(p.sys[slot], part)
	}
}

// cut severs the given slots from the others at the shared transport
// (simnet.Network.Partition with a slot classifier) until
// p.rt.Net().Heal().
func (p *procs) cut(slots ...int) {
	far := make(map[int]bool, len(slots))
	for _, s := range slots {
		far[s] = true
	}
	p.rt.Net().Partition(func(id ids.NodeID) bool { return far[p.slotOf(id)] })
}

// viewsAgree reports whether every System's top-ring view holds the
// same members at the same access proxies.
func (p *procs) viewsAgree() bool {
	var first string
	for i, s := range p.sys {
		var ms []string
		for _, m := range s.GlobalMembership() {
			ms = append(ms, fmt.Sprintf("%d@%s", m.GUID, m.AP))
		}
		sort.Strings(ms)
		if v := strings.Join(ms, " "); i == 0 {
			first = v
		} else if v != first {
			return false
		}
	}
	return true
}
