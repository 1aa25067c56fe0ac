package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"time"

	"github.com/rgbproto/rgb"
	"github.com/rgbproto/rgb/internal/des"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// Layer probes: fixed-work micro-measurements of single layers, run
// after the traced workload. Each records a probe.* span and writes
// its figures into the per-layer metric set.

// timed runs fn iters times and returns the mean ns and mallocs per
// call.
func timed(iters int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

func probeMember(i int) ids.MemberInfo {
	ap := ids.MakeNodeID(ids.TierAP, i%27)
	return ids.MemberInfo{GID: ids.NewGroupID(1), GUID: ids.GUID(1000 + i), LUID: ids.LUID{AP: ap, Local: uint32(i)}, AP: ap}
}

// probeToken is a mid-round token of a three-entity ring carrying ops
// membership operations.
func probeToken(ops int) wire.Payload {
	route := []ids.NodeID{ids.MakeNodeID(ids.TierAP, 0), ids.MakeNodeID(ids.TierAP, 1), ids.MakeNodeID(ids.TierAP, 2)}
	batch := make(mq.Batch, ops)
	for i := range batch {
		m := probeMember(i)
		batch[i] = mq.Change{Op: mq.OpMemberJoin, Member: m, Origin: m.AP, Seq: uint64(i), ReplyTo: ids.MakeNodeID(ids.TierMH, i)}
	}
	return wire.TokenMsg{Tok: &token.Token{
		GID: ids.NewGroupID(1), Ring: ring.ID{Tier: ids.TierAP, Index: 1}, Holder: route[0], Round: 42,
		Ops: batch, Dir: token.FromLocal, Route: route, Hops: 1, Contributors: route[:1],
	}}
}

func probeReply(members int) wire.Payload {
	list := make([]ids.MemberInfo, members)
	for i := range list {
		list[i] = probeMember(i)
	}
	return wire.QueryReply{ID: 9, From: ring.ID{Tier: ids.TierBR}, Members: list}
}

var sinkFrame wire.Frame // keeps decoded frames alive past the loop

// probeWire measures AppendFrame and DecodeFrame over the frames the
// workloads send most (a token carrying 1 and 32 operations) and the
// largest one (a query reply with 1000 members).
func probeWire(lane *lane, out map[string]float64) error {
	sp := lane.begin("probe.wire", -1, -1)
	defer lane.end(sp)
	for _, c := range []struct {
		name    string
		payload wire.Payload
		iters   int
	}{
		{"token1", probeToken(1), 200_000},
		{"token32", probeToken(32), 50_000},
		{"reply1000", probeReply(1000), 2_000},
	} {
		frame := wire.Frame{From: ids.MakeNodeID(ids.TierAP, 0), To: ids.MakeNodeID(ids.TierAP, 1), Group: ids.NewGroupID(1), Class: 1, TTL: 8, Payload: c.payload}
		buf := wire.AppendFrame(make([]byte, 0, wire.MaxDatagram), frame)
		if len(buf) > wire.MaxDatagram {
			return fmt.Errorf("probe frame %s is %d bytes, over one datagram", c.name, len(buf))
		}
		enc, _ := timed(c.iters, func() { buf = wire.AppendFrame(buf[:0], frame) })
		var err error
		dec, allocs := timed(c.iters, func() { sinkFrame, err = wire.DecodeFrame(buf) })
		if err != nil {
			return fmt.Errorf("decode %s: %w", c.name, err)
		}
		out["wire.encode_ns_"+c.name] = enc
		out["wire.decode_ns_"+c.name] = dec
		out["wire.decode_allocs_"+c.name] = allocs
		out["wire.bytes_"+c.name] = float64(len(buf))
	}
	return nil
}

// probeUDPFloor is the round trip of a 64-byte datagram between two
// plain UDP sockets on loopback, one goroutine each: the floor under
// every socket crossing of the net3_* workloads.
func probeUDPFloor(lane *lane, out map[string]float64) error {
	sp := lane.begin("probe.udp_floor", -1, -1)
	defer lane.end(sp)
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp", loopback)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := net.ListenUDP("udp", loopback)
	if err != nil {
		return err
	}
	echoed := make(chan struct{})
	go func() { // echo until b is closed
		defer close(echoed)
		buf := make([]byte, 64)
		for {
			n, from, err := b.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if _, err := b.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	defer func() {
		b.Close()
		<-echoed
	}()
	const trips = 20_000
	to := b.LocalAddr().(*net.UDPAddr).AddrPort()
	buf := make([]byte, 64)
	rtts := make([]time.Duration, 0, trips)
	for i := 0; i < trips; i++ {
		start := time.Now()
		if _, err := a.WriteToUDPAddrPort(buf, to); err != nil {
			return err
		}
		if err := a.SetReadDeadline(start.Add(opTimeout)); err != nil {
			return err
		}
		if _, _, err := a.ReadFromUDPAddrPort(buf); err != nil {
			return err
		}
		rtts = append(rtts, time.Since(start))
	}
	out["runtime.udp_floor_rtt_us"] = durationsP50(rtts)
	return nil
}

// doRTT is the median round trip of an empty Service.Inspect: the
// hand-off to the group's engine and the wake-up back.
func doRTT(svc *rgb.Service, calls int) float64 {
	rtts := make([]time.Duration, calls)
	for i := range rtts {
		start := time.Now()
		svc.Inspect(func(*rgb.System) {})
		rtts[i] = time.Since(start)
	}
	return durationsP50(rtts)
}

// probeTelemetry builds the workload's telemetry registry (until now it
// had none: instrumented groups would not compare with the untraced run)
// and scrapes it five times, after the ops, deployment still open.
func probeTelemetry(cl *rgb.Cluster, lane *lane, out map[string]float64) {
	tel := cl.Telemetry()
	var buf bytes.Buffer
	scrapes := make([]time.Duration, 5)
	for i := range scrapes {
		buf.Reset()
		sp := lane.begin(spanScrape, -1, -1)
		start := time.Now()
		// WriteProm fails only when the writer does; a bytes.Buffer does not.
		_ = tel.WriteProm(&buf)
		scrapes[i] = time.Since(start)
		lane.end(sp)
	}
	out["telemetry.scrape_ms"] = durationsP50(scrapes) / 1000
	out["telemetry.scrape_bytes"] = float64(buf.Len())
}

// probeDES schedules a million events on the simulation kernel, a
// thousand pending at a time, and runs them.
func probeDES(lane *lane, out map[string]float64) {
	sp := lane.begin("probe.des", -1, -1)
	defer lane.end(sp)
	const events, pending = 1_000_000, 1_000
	k := des.NewKernel()
	fired := 0
	var fire func(any)
	fire = func(any) {
		fired++
		if fired+pending <= events {
			k.AfterCall(time.Duration(1+fired%7)*time.Millisecond, fire, nil)
		}
	}
	ns, allocs := timed(1, func() {
		for i := 0; i < pending; i++ {
			k.AfterCall(time.Duration(1+i%7)*time.Millisecond, fire, nil)
		}
		k.Run()
	})
	out["des.ns_per_event"] = ns / float64(fired)
	out["des.allocs_per_event"] = allocs / float64(fired)
}

// probeWatchFanout applies the same changes to a simulated service
// with 1 and with 64 Watch subscribers; the extra time per event and
// subscriber is the cost of the fan-out.
func probeWatchFanout(lane *lane, out map[string]float64) error {
	sp := lane.begin("probe.watch_fanout", -1, -1)
	defer lane.end(sp)
	const changes = 1000 // under the default Watch buffer: no subscriber needs draining
	run := func(subs int) (time.Duration, error) {
		svc, err := rgb.Open(rgb.WithHierarchy(2, 3), rgb.WithSeed(1))
		if err != nil {
			return 0, err
		}
		defer svc.Close()
		for i := 0; i < subs; i++ {
			if _, err := svc.Watch(ctx); err != nil {
				return 0, err
			}
		}
		aps := svc.APs()
		start := time.Now()
		for i := 0; i < changes; i++ {
			if err := svc.JoinAt(ctx, rgb.GUID(1+i), aps[i%len(aps)]); err != nil {
				return 0, err
			}
			if err := svc.Settle(ctx); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	one, err := run(1)
	if err != nil {
		return err
	}
	many, err := run(64)
	if err != nil {
		return err
	}
	out["service.watch_fanout_us_per_sub"] = us(many-one) / (63 * changes)
	return nil
}

// probeClusterOpen opens 64 groups on one networked two-shard cluster:
// the time and retained heap a hosted group costs, and how evenly the
// group hash spreads them over the shards.
func probeClusterOpen(lane *lane, out map[string]float64) error {
	sp := lane.begin("probe.cluster_open", -1, -1)
	defer lane.end(sp)
	const groups, shards = 64, 2
	cl, err := rgb.ListenCluster("127.0.0.1:0", rgb.WithHierarchy(2, 3), rgb.WithSeed(1), rgb.WithShards(shards))
	if err != nil {
		return err
	}
	defer cl.Close()
	before := liveHeapMB()
	opens := make([]time.Duration, groups)
	var perShard [shards]int
	for g := range opens {
		gid := rgb.NewGroupID(uint32(g + 1))
		osp := lane.begin(spanOpen, sp, -1)
		start := time.Now()
		_, err := cl.Open(gid)
		opens[g] = time.Since(start)
		lane.end(osp)
		if err != nil {
			return err
		}
		perShard[cl.ShardOf(gid)]++
	}
	out["cluster.open_group_ms"] = durationsP50(opens) / 1000
	out["cluster.heap_kb_per_group"] = (liveHeapMB() - before) * 1024 / groups
	out["cluster.shard_imbalance"] = float64(max(perShard[0], perShard[1])) / (groups / shards)
	return nil
}
