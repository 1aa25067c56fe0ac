// Package rgb is a from-scratch reproduction of "RGB: A Scalable and
// Reliable Group Membership Protocol in Mobile Internet" (Wang, Cao,
// Chan — ICPP 2004): a group membership service for mobile Internet
// built on a Ring-based hierarchy of access proxies, access Gateways
// and Border routers — grown into a multi-group, multi-substrate
// membership engine.
//
// # One group: the Service API
//
// The primary entry point is the transport-agnostic Service API:
//
//	svc, err := rgb.Open(rgb.WithHierarchy(3, 5), rgb.WithSeed(1))
//	if err != nil { ... }
//	defer svc.Close()
//
//	ctx := context.Background()
//	events, _ := svc.Watch(ctx)          // membership change stream
//	svc.JoinAt(ctx, rgb.GUID(1), svc.APs()[0])
//	svc.Settle(ctx)                      // drive to quiescence
//	members, _ := svc.Members(ctx)       // authoritative view
//	res, _ := svc.Query(ctx, svc.APs()[7])
//	fmt.Println(members, res.Members, <-events)
//
// Watch subscribers that fall behind never miss gaps silently: after
// an overflow the subscriber receives a synthetic EventDropped whose
// Count is the exact number of lost events (see Service.Watch).
//
// # Many groups: the Cluster API
//
// A mobile-Internet proxy serves many concurrent groups (conferences,
// sessions). NewCluster hosts N independent groups in one process,
// sharded across engine workers — a consistent hash of the GroupID
// pins each group to one single-goroutine engine shard, so per-group
// determinism is preserved while groups run in parallel:
//
//	c, _ := rgb.NewCluster(rgb.WithHierarchy(3, 5), rgb.WithSeed(1))
//	defer c.Close()
//	conference, _ := c.Open(rgb.NewGroupID(1)) // an ordinary *Service
//	session, _ := c.Open(rgb.NewGroupID(2))    // runs concurrently
//
// rgb.Open (like rgb.Listen) is the one-group special case
// of a cluster. See Example_cluster for a complete program.
//
// # Substrates
//
// The protocol engine talks only to the runtime substrate interfaces
// (Clock, Transport), and every payload it sends is a typed member of
// the wire union with a versioned binary encoding. By default it runs
// on the deterministic discrete-event simulator, inline on the caller
// under rgb.Open. Everything on real time is one host —
// engine shards, a mux over them, one runtime view per group —
// whether it serves one group or many, with or without a socket:
// rgb.WithLiveRuntime runs the identical engine in-process on real
// timers, every hop handed over in memory; rgb.Listen adds real UDP
// sockets, so that multiple processes (see cmd/rgbnode) each host a
// slice of the hierarchy and exchange wire-encoded datagrams, and a
// client of such a deployment is rgb.Listen(":0",
// rgb.WithSeeds(member)), a slotless observer that hosts no entity;
// and rgb.ListenCluster serves many groups over the same kind of socket:
// each datagram envelope carries its group tag, and inbound frames are
// demultiplexed to the engine shard owning that group. Every Service
// builds its substrate itself and closes it with itself.
//
// # Layout
//
// The implementation packages underneath:
//
//   - the runtime substrate and its implementations: the simulator
//     and the real-time host of shards, muxes and group views
//     (internal/runtime, internal/des, internal/simnet);
//   - the ring-based hierarchy and the One-Round Token Passing
//     Membership algorithm with failure detection, local repair, and
//     the TMS/BMS/IMS Membership-Query schemes (internal/core and its
//     substrates);
//   - the group-tagged binary wire codec (internal/wire);
//   - mobility and churn workload generators (internal/mobility,
//     internal/workload).
//
// The paper's evaluation is not part of this package's API. The
// analytic models of Section 5 (internal/analytic), the Monte-Carlo
// fault injector that validates Table II (internal/reliability) and the
// tree-based CONGRESS-style baseline of Table I (internal/tree) are
// reached through "rgbsweep -compare table1" and "-compare table2"
// (cmd/rgbsweep, internal/experiment).
//
// docs/ARCHITECTURE.md is the authoritative walkthrough of the
// layering (wire → runtime → core → service → cluster);
// docs/OPERATIONS.md is the networked-deployment runbook; DESIGN.md
// covers the event-kernel internals; EXPERIMENTS.md reproduces the
// paper's Table I and Table II.
package rgb
