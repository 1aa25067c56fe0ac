package rgb

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/topology"
)

// Listen starts a networked membership service process: it binds addr
// (UDP), instantiates the hierarchy entities its cluster slot owns,
// and serves the protocol over wire-encoded datagrams.
//
// A single process deployment needs nothing else:
//
//	svc, err := rgb.Listen("127.0.0.1:7000", rgb.WithHierarchy(2, 3))
//
// A multi-process deployment adds WithCluster: every process lists the
// same peer addresses and its own slot, and the hierarchy is
// partitioned deterministically (topmost-ring node i plus its whole
// subtree go to slot i mod processes):
//
//	svc, err := rgb.Listen("127.0.0.1:7001",
//	    rgb.WithHierarchy(2, 3), rgb.WithSeed(1),
//	    rgb.WithCluster(1, "127.0.0.1:7000", "127.0.0.1:7001", "127.0.0.1:7002"))
//
// The identical protocol engine runs underneath — Join, Leave,
// Handoff, Query, Watch and the failure machinery all work, with
// cross-process messages crossing real sockets. See cmd/rgbnode for a
// ready-made daemon.
func Listen(addr string, opts ...Option) (*Service, error) {
	opts = append(opts, func(o *serviceOptions) {
		o.net().Bind = addr
	})
	return Open(opts...)
}

// Dial connects to a networked deployment as a pure client: the
// process owns no hierarchy entities and routes every protocol message
// at addr, which relays it toward the owning process. Join/Leave/
// Handoff/Query work as usual (pass the deployment's hierarchy shape
// so the client derives the same topology); Members is served by the
// topmost ring, which a client does not host — use Query instead.
//
// Dial the deployment's first peer (slot 0). This is load-bearing,
// not a preference: only the slot-0 process is every other process's
// default route, so replies originating at processes that never saw
// the client's traffic can funnel back through it. Dialing another
// slot loses exactly those replies (visible as UnknownPeer drops in
// the non-contacted processes' NetStats).
func Dial(addr string, opts ...Option) (*Service, error) {
	opts = append(opts, func(o *serviceOptions) {
		nc := o.net()
		if nc.Bind == "" {
			// Unspecified host: the kernel picks a source that can
			// reach the contact (loopback and external deployments
			// both work).
			nc.Bind = ":0"
		}
		nc.DefaultRoute = addr
		o.dialClient = true
	})
	return Open(opts...)
}

// buildNetConfig assembles the networked deployment configuration of a
// cluster's net mux: cluster validation, deterministic hierarchy
// partition and address book. It places o.cfg at the process's slot of
// the computed partition.
func buildNetConfig(o *serviceOptions) (runtime.NetConfig, error) {
	nc := *o.netConfig
	if o.advertise != "" {
		nc.Advertise = o.advertise
	}
	if nc.Bind == "" {
		return nc, fmt.Errorf("rgb: networked runtime needs a bind address: %w", ErrBadCluster)
	}
	nprocs := len(nc.Peers)
	if nprocs > 0 && (nc.Index < 0 || nc.Index >= nprocs) {
		return nc, fmt.Errorf("rgb: cluster index %d with %d peers: %w", nc.Index, nprocs, ErrBadCluster)
	}
	if len(nc.Seeds) > 0 && nprocs > 0 {
		return nc, fmt.Errorf("rgb: WithSeeds with WithCluster (a static peer list needs no bootstrap): %w", ErrBadCluster)
	}
	if len(nc.Seeds) == 0 {
		// Statically configured processes know the deployment shape and
		// serve it to bootstrapping joiners via the PeerList reply; a
		// seed-bootstrapping joiner leaves it zero and adopts the seed's
		// answer instead.
		nc.H, nc.R = o.cfg.H, o.cfg.R
		if nc.Slots == 0 {
			nc.Slots = max(nprocs, 1)
		}
	}
	switch {
	case o.dialClient:
		// A client's slot comes from its bound port (newCluster).
	case nprocs > 1:
		if nc.Owners == nil {
			hier := topology.NewRingHierarchy(o.cfg.H, o.cfg.R)
			nc.Owners = hier.SubtreeOwners(nprocs)
		}
		core.Place(&o.cfg, nc.Owners, nc.Index)
		if nc.DefaultRoute == "" && nc.Index != 0 {
			// Frames for endpoints nobody can route statically
			// (external dial clients) funnel through the seed
			// process, which learns client addresses from their
			// ingress traffic and relays.
			nc.DefaultRoute = nc.Peers[0]
		}
	}
	return nc, nil
}

// adoptBootstrap folds what a seed bootstrap learned into the service
// configuration: the joiner derives the same deterministic ownership
// partition every static process computed from its config, installs it
// in the runtime's address book (adopt), and takes on its claimed
// slot's entities — or, slotless, becomes a pure observer at a client
// slot.
func adoptBootstrap(o *serviceOptions, boot runtime.BootstrapInfo, adopt func(map[NodeID]int), port int) {
	hier := topology.NewRingHierarchy(boot.H, boot.R)
	owners := hier.SubtreeOwners(boot.Slots)
	adopt(owners)
	o.cfg.H, o.cfg.R = boot.H, boot.R
	slot := boot.Slot
	if slot < 0 {
		slot = clientSlot(port)
	}
	core.Place(&o.cfg, owners, slot)
}

// clientSlot is the slot of a process that owns no cluster slot (a Dial
// client or slotless observer): past every cluster slot, so no entity
// belongs to it, and derived from the bound port, so its mobile-host
// block (almost always) collides with no other client's. Its transient
// endpoints are reached through return-address learning.
func clientSlot(port int) int { return 1<<6 + port }
