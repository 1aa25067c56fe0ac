package runtime

import (
	"sort"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/wire"
)

// FaultPlan configures the adversarial message-plane faults a
// FaultTransport injects: each field is an independent per-message
// probability. All faults are drawn from a dedicated seeded RNG, so a
// faulted run is as reproducible as a clean one.
//
// Corruption goes through the real wire codec: the frame is encoded,
// one byte is flipped, and the result is decoded again — so a
// corrupted message either turns into a decode error (dropped, counted
// as Undecodable, exactly what a networked receiver would do) or into
// a valid-but-wrong frame that the protocol must survive.
type FaultPlan struct {
	Seed      uint64  // fault RNG seed (0 = derive from the transport seed)
	Corrupt   float64 // probability a frame is bit-flipped through the codec
	Duplicate float64 // probability a frame is delivered twice (replay)
	Misroute  float64 // probability a frame is sent to a random other endpoint
	Reorder   float64 // probability a frame is held and released after the next send
}

// Active reports whether the plan injects any fault at all.
func (p FaultPlan) Active() bool {
	return p.Corrupt > 0 || p.Duplicate > 0 || p.Misroute > 0 || p.Reorder > 0
}

// FaultStats counts the injected faults.
type FaultStats struct {
	Corrupted   uint64 // frames bit-flipped and re-decoded successfully
	Duplicated  uint64 // frames delivered twice
	Misrouted   uint64 // frames redirected to a random endpoint
	Reordered   uint64 // frames held back and released later
	Undecodable uint64 // corrupted frames the codec rejected (dropped)
}

// FaultTransport decorates a Transport with seeded, deterministic
// fault injection (corrupt, duplicate/replay, misroute, reorder). It
// tracks registered endpoints itself so misrouting can pick a random
// real destination, and exposes the substrate through Unwrap so
// capability probes (AsPartitionable) still work.
type FaultTransport struct {
	inner  Transport
	rng    *mathx.RNG
	plan   FaultPlan
	ids    []ids.NodeID // registered endpoints, sorted for determinism
	held   *Message     // one message held back by the reorder fault
	encBuf []byte       // reused codec buffer for the corrupt fault
	fstats FaultStats
}

// NewFaultTransport wraps inner with the given plan. A zero Seed
// falls back to a fixed constant — pass an explicit seed for
// multi-transport determinism.
func NewFaultTransport(inner Transport, plan FaultPlan) *FaultTransport {
	seed := plan.Seed
	if seed == 0 {
		seed = 0xfa17fa17fa17fa17
	}
	return &FaultTransport{
		inner: inner,
		rng:   mathx.NewRNG(seed),
		plan:  plan,
	}
}

var (
	_ Transport = (*FaultTransport)(nil)
	_ Unwrapper = (*FaultTransport)(nil)
)

// Unwrap returns the decorated transport.
func (t *FaultTransport) Unwrap() Transport { return t.inner }

// FaultStats returns a copy of the injection counters.
func (t *FaultTransport) FaultStats() FaultStats { return t.fstats }

// Register implements Transport, tracking the ID for misrouting.
func (t *FaultTransport) Register(id ids.NodeID, ep Endpoint) {
	i := sort.Search(len(t.ids), func(i int) bool { return t.ids[i] >= id })
	if i == len(t.ids) || t.ids[i] != id {
		t.ids = append(t.ids, 0)
		copy(t.ids[i+1:], t.ids[i:])
		t.ids[i] = id
	}
	t.inner.Register(id, ep)
}

// Unregister implements Transport.
func (t *FaultTransport) Unregister(id ids.NodeID) {
	i := sort.Search(len(t.ids), func(i int) bool { return t.ids[i] >= id })
	if i < len(t.ids) && t.ids[i] == id {
		t.ids = append(t.ids[:i], t.ids[i+1:]...)
	}
	t.inner.Unregister(id)
}

// Send implements Transport: the message runs the fault gauntlet
// before (possibly multiple, possibly redirected copies of) it reach
// the substrate. Reordering holds one message back and releases it
// after the next send, swapping their order on the wire.
func (t *FaultTransport) Send(msg Message) {
	released := t.held
	t.held = nil
	if t.plan.Reorder > 0 && t.rng.Bernoulli(t.plan.Reorder) {
		m := msg
		t.held = &m
		t.fstats.Reordered++
	} else {
		t.deliver(msg)
	}
	if released != nil {
		t.deliver(*released)
	}
}

// deliver applies the remaining faults to one message and hands the
// result(s) to the substrate.
func (t *FaultTransport) deliver(msg Message) {
	if t.plan.Corrupt > 0 && t.rng.Bernoulli(t.plan.Corrupt) {
		m, ok := t.corrupt(msg)
		if !ok {
			t.fstats.Undecodable++
			return
		}
		t.fstats.Corrupted++
		msg = m
	}
	if t.plan.Misroute > 0 && len(t.ids) > 0 && t.rng.Bernoulli(t.plan.Misroute) {
		msg.To = t.ids[t.rng.Intn(len(t.ids))]
		t.fstats.Misrouted++
	}
	dup := t.plan.Duplicate > 0 && t.rng.Bernoulli(t.plan.Duplicate)
	t.inner.Send(msg)
	if dup {
		t.fstats.Duplicated++
		msg.Body = replica(msg.Body)
		t.inner.Send(msg)
	}
}

// replica returns a body for a duplicate of a message carrying p. A
// pointer body belongs to the endpoint it is delivered to, which may
// recycle it, so the duplicate gets its own copy; a token's copy
// shares its slices, which no endpoint writes in place. Value payloads
// are copies already.
func replica(p wire.Payload) wire.Payload {
	switch b := p.(type) {
	case wire.TokenMsg:
		if b.Tok != nil {
			return wire.TokenMsg{Tok: copyOf(b.Tok)}
		}
	case *wire.Notify:
		return copyOf(b)
	case *wire.NotifyAck:
		return copyOf(b)
	case *wire.PassAck:
		return copyOf(b)
	case *wire.HolderAck:
		return copyOf(b)
	}
	return p
}

func copyOf[T any](b *T) *T {
	c := *b
	return &c
}

// corrupt round-trips msg through the wire codec with one byte
// flipped. It reports false when the flip broke the encoding — the
// message is then dropped, as a networked receiver would.
func (t *FaultTransport) corrupt(msg Message) (Message, bool) {
	t.encBuf = wire.AppendFrame(t.encBuf[:0], wire.Frame{
		From:    msg.From,
		To:      msg.To,
		Group:   msg.Group,
		Class:   uint8(msg.Kind),
		TTL:     8,
		Payload: msg.Body,
	})
	buf := t.encBuf
	i := t.rng.Intn(len(buf))
	buf[i] ^= byte(1 + t.rng.Intn(255))
	f, err := wire.DecodeFrame(buf)
	if err != nil || f.Class >= uint8(numKinds) {
		return Message{}, false
	}
	return Message{
		From:  f.From,
		To:    f.To,
		Group: f.Group,
		Kind:  Kind(f.Class),
		Body:  f.Payload,
		Sent:  msg.Sent,
	}, true
}

// Crash implements Transport.
func (t *FaultTransport) Crash(id ids.NodeID) { t.inner.Crash(id) }

// Restore implements Transport.
func (t *FaultTransport) Restore(id ids.NodeID) { t.inner.Restore(id) }

// Crashed implements Transport.
func (t *FaultTransport) Crashed(id ids.NodeID) bool { return t.inner.Crashed(id) }

// Stats implements Transport.
func (t *FaultTransport) Stats() Stats { return t.inner.Stats() }

// ResetStats implements Transport, also zeroing the fault counters.
func (t *FaultTransport) ResetStats() {
	t.inner.ResetStats()
	t.fstats = FaultStats{}
}

// faultRuntime decorates a Runtime so Transport() returns the fault
// wrapper while everything else passes through.
type faultRuntime struct {
	Runtime
	tr *FaultTransport
}

func (rt faultRuntime) Transport() Transport { return rt.tr }

// WithFaultInjection wraps rt's transport in a FaultTransport driven
// by plan. An inactive plan returns rt unchanged.
func WithFaultInjection(rt Runtime, plan FaultPlan) Runtime {
	if !plan.Active() {
		return rt
	}
	return faultRuntime{Runtime: rt, tr: NewFaultTransport(rt.Transport(), plan)}
}
