package simnet

import (
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/des"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

func ap(i int) ids.NodeID { return ids.MakeNodeID(ids.TierAP, i) }
func ag(i int) ids.NodeID { return ids.MakeNodeID(ids.TierAG, i) }
func br(i int) ids.NodeID { return ids.MakeNodeID(ids.TierBR, i) }

func newNet(t *testing.T) (*des.Kernel, *Network) {
	t.Helper()
	k := des.NewKernel()
	return k, New(k, runtime.ConstantLatency(time.Millisecond), 1)
}

func TestDeliverBasic(t *testing.T) {
	k, n := newNet(t)
	var got []runtime.Message
	n.Register(ap(1), runtime.EndpointFunc(func(m runtime.Message) { got = append(got, m) }))
	n.SendKind(ap(0), ap(1), runtime.KindToken, wire.Probe{Seq: 99})
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	if got[0].Body.(wire.Probe).Seq != 99 || got[0].From != ap(0) {
		t.Fatalf("message corrupted: %+v", got[0])
	}
	if k.Now() != des.Time(time.Millisecond) {
		t.Fatalf("latency not applied: now=%v", k.Now())
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestNetworkLendsNoPayload: the simulated network delivers after a
// latency, holding each payload past Send, so a sender may never lend
// it one.
func TestNetworkLendsNoPayload(t *testing.T) {
	_, n := newNet(t)
	if _, ok := runtime.Transport(n).(runtime.PayloadCopier); ok {
		t.Fatal("simnet.Network claims runtime.PayloadCopier")
	}
}

func TestDeliveryOrderPreservedForEqualLatency(t *testing.T) {
	k, n := newNet(t)
	var got []int
	n.Register(ap(1), runtime.EndpointFunc(func(m runtime.Message) { got = append(got, int(m.Body.(wire.Probe).Seq)) }))
	for i := 0; i < 10; i++ {
		n.SendKind(ap(0), ap(1), runtime.KindToken, wire.Probe{Seq: uint64(i)})
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered: %v", got)
		}
	}
}

func TestSendToUnregisteredDropped(t *testing.T) {
	k, n := newNet(t)
	n.SendKind(ap(0), ap(9), runtime.KindToken, nil)
	k.Run()
	st := n.Stats()
	if st.Delivered != 0 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendToZeroNodeDropped(t *testing.T) {
	k, n := newNet(t)
	n.SendKind(ap(0), ids.NoNode, runtime.KindNotify, nil)
	k.Run()
	if st := n.Stats(); st.Dropped != 1 || st.Sent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCrashedDestinationDropsAtDelivery(t *testing.T) {
	k, n := newNet(t)
	delivered := false
	n.Register(ap(1), runtime.EndpointFunc(func(runtime.Message) { delivered = true }))
	n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	n.Crash(ap(1)) // crash while in flight
	k.Run()
	if delivered {
		t.Fatal("message delivered to crashed node")
	}
	if st := n.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCrashedSenderCannotSend(t *testing.T) {
	k, n := newNet(t)
	delivered := false
	n.Register(ap(1), runtime.EndpointFunc(func(runtime.Message) { delivered = true }))
	n.Crash(ap(0))
	n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	k.Run()
	if delivered {
		t.Fatal("crashed sender's message was delivered")
	}
}

func TestRestore(t *testing.T) {
	k, n := newNet(t)
	count := 0
	n.Register(ap(1), runtime.EndpointFunc(func(runtime.Message) { count++ }))
	n.Crash(ap(1))
	if !n.Crashed(ap(1)) {
		t.Fatal("Crashed not reported")
	}
	n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	k.Run()
	n.Restore(ap(1))
	n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	k.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

func TestRandomLoss(t *testing.T) {
	k := des.NewKernel()
	n := New(k, runtime.ConstantLatency(time.Microsecond), 7)
	n.SetLoss(0.5)
	n.Register(ap(1), runtime.EndpointFunc(func(runtime.Message) {}))
	const total = 10000
	for i := 0; i < total; i++ {
		n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	}
	k.Run()
	st := n.Stats()
	if st.Delivered+st.Dropped != total {
		t.Fatalf("conservation violated: %+v", st)
	}
	frac := float64(st.Delivered) / total
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("loss rate off: delivered fraction %g", frac)
	}
}

func TestSetLossValidation(t *testing.T) {
	_, n := newNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.SetLoss(1.5)
}

func TestPerKindAccounting(t *testing.T) {
	k, n := newNet(t)
	n.Register(ap(1), runtime.EndpointFunc(func(runtime.Message) {}))
	n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	n.SendKind(ap(0), ap(1), runtime.KindNotify, nil)
	n.SendKind(ap(0), ap(1), runtime.KindAck, nil)
	n.SendKind(ap(0), ap(1), runtime.KindQuery, nil)
	k.Run()
	st := n.Stats()
	if st.DeliveredOf(runtime.KindToken) != 2 || st.DeliveredOf(runtime.KindNotify) != 1 {
		t.Fatalf("kind counts = %+v", st.ByKind)
	}
	if st.PropagationHops() != 3 {
		t.Fatalf("PropagationHops = %d, want 3", st.PropagationHops())
	}
}

func TestResetStats(t *testing.T) {
	k, n := newNet(t)
	n.Register(ap(1), runtime.EndpointFunc(func(runtime.Message) {}))
	n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	k.Run()
	n.ResetStats()
	if st := n.Stats(); st.Sent != 0 || st.Delivered != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestTierLatencyUsesHigherTier(t *testing.T) {
	model := runtime.TierLatency{AP: 1 * time.Millisecond, AG: 10 * time.Millisecond, BR: 100 * time.Millisecond}
	rng := mathx.NewRNG(1)
	cases := []struct {
		from, to ids.NodeID
		want     time.Duration
	}{
		{ap(0), ap(1), time.Millisecond},
		{ap(0), ag(0), 10 * time.Millisecond},
		{ag(0), ap(0), 10 * time.Millisecond},
		{ag(0), br(0), 100 * time.Millisecond},
		{br(0), br(1), 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := model.Latency(c.from, c.to, rng); got != c.want {
			t.Errorf("Latency(%s,%s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestTierLatencyJitterBounded(t *testing.T) {
	model := runtime.DefaultTierLatency()
	rng := mathx.NewRNG(2)
	for i := 0; i < 1000; i++ {
		d := model.Latency(ap(0), ap(1), rng)
		if d < model.AP || d >= model.AP+model.Jitter {
			t.Fatalf("jittered latency %v outside [%v, %v)", d, model.AP, model.AP+model.Jitter)
		}
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	u := runtime.UniformLatency{Min: 2 * time.Millisecond, Max: 5 * time.Millisecond}
	rng := mathx.NewRNG(3)
	for i := 0; i < 1000; i++ {
		d := u.Latency(ap(0), ap(1), rng)
		if d < u.Min || d >= u.Max {
			t.Fatalf("latency %v outside [%v,%v)", d, u.Min, u.Max)
		}
	}
	degenerate := runtime.UniformLatency{Min: time.Millisecond, Max: time.Millisecond}
	if d := degenerate.Latency(ap(0), ap(1), rng); d != time.Millisecond {
		t.Fatalf("degenerate uniform = %v", d)
	}
}

func TestTraceHook(t *testing.T) {
	k, n := newNet(t)
	var outcomes []string
	n.SetTrace(func(_ runtime.Message, outcome string) { outcomes = append(outcomes, outcome) })
	n.Register(ap(1), runtime.EndpointFunc(func(runtime.Message) {}))
	n.SendKind(ap(0), ap(1), runtime.KindToken, nil)
	n.SendKind(ap(0), ids.NoNode, runtime.KindToken, nil)
	k.Run()
	if len(outcomes) != 2 || outcomes[0] != "no-endpoint" || outcomes[1] != "delivered" {
		t.Fatalf("outcomes = %v", outcomes)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, n := newNet(t)
	for name, fn := range map[string]func(){
		"zero id": func() { n.Register(ids.NoNode, runtime.EndpointFunc(func(runtime.Message) {})) },
		"nil ep":  func() { n.Register(ap(1), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestKindString(t *testing.T) {
	if runtime.KindToken.String() != "token" || runtime.KindControl.String() != "control" {
		t.Error("kind names wrong")
	}
	if runtime.Kind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []int {
		k := des.NewKernel()
		n := New(k, runtime.UniformLatency{Min: time.Millisecond, Max: 10 * time.Millisecond}, 42)
		var got []int
		n.Register(ap(1), runtime.EndpointFunc(func(m runtime.Message) { got = append(got, int(m.Body.(wire.Probe).Seq)) }))
		for i := 0; i < 100; i++ {
			n.SendKind(ap(0), ap(1), runtime.KindToken, wire.Probe{Seq: uint64(i)})
		}
		k.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

// TestEndpointsOfEveryTier: an entity's endpoint and crash flag live in
// its tier's ordinal-indexed slots and a mobile host's in a map; on
// either side, registration, crash, restore and unregistration give the
// same outcomes, and an ordinal no slot reaches reads as unregistered
// and live.
func TestEndpointsOfEveryTier(t *testing.T) {
	k, n := newNet(t)
	outcomes := map[ids.NodeID]string{}
	n.SetTrace(func(m runtime.Message, o string) { outcomes[m.To] = o })
	mh := ids.MakeNodeID(ids.TierMH, 3)
	for _, id := range []ids.NodeID{ap(4), ag(2), br(0), mh} {
		outcomes = map[ids.NodeID]string{}
		got := 0
		n.Register(id, runtime.EndpointFunc(func(runtime.Message) { got++ }))
		n.SendKind(ap(0), id, runtime.KindControl, wire.Probe{})
		k.Run()
		n.Crash(id)
		n.SendKind(ap(0), id, runtime.KindControl, wire.Probe{})
		k.Run()
		if got != 1 || outcomes[id] != "crashed-dest" || !n.Crashed(id) {
			t.Fatalf("%s: %d delivered, last %q, crashed %v", id, got, outcomes[id], n.Crashed(id))
		}
		n.Restore(id)
		n.Unregister(id)
		n.SendKind(ap(0), id, runtime.KindControl, wire.Probe{})
		k.Run()
		if got != 1 || outcomes[id] != "no-endpoint" || n.Crashed(id) {
			t.Fatalf("%s after restore and unregister: %d delivered, last %q, crashed %v", id, got, outcomes[id], n.Crashed(id))
		}
	}
	far := ap(1 << 20)
	n.SendKind(ap(0), far, runtime.KindControl, wire.Probe{})
	k.Run()
	if outcomes[far] != "no-endpoint" || n.Crashed(far) || len(n.entities[ids.TierAP-1]) != 5 {
		t.Fatalf("%s past every slot: %q, crashed %v, %d AP slots", far, outcomes[far], n.Crashed(far), len(n.entities[ids.TierAP-1]))
	}
}
