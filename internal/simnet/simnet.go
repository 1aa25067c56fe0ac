// Package simnet simulates the mobile-Internet message plane that the
// RGB protocol runs over. It substitutes for the real network of the
// paper (wireless access networks, autonomous systems, BGP border
// routers): network entities register as endpoints, and messages are
// delivered asynchronously with a configurable latency model, loss
// probability, and node-crash injection.
//
// The substitution preserves the behaviour the protocol depends on:
// asynchronous unicast delivery between network entities, unbounded
// (but finite) latency, message loss, and crash faults. Everything is
// driven by the des kernel, so runs are deterministic for a fixed seed.
//
// The message-plane vocabulary (Message, Kind, Endpoint, Stats, the
// latency models) is internal/runtime's: the Network is one Transport
// implementation of that substrate, the engine-facing twin of the live
// in-process transport.
package simnet

import (
	"time"

	"github.com/rgbproto/rgb/internal/des"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

// Network is the simulated message plane. It implements
// runtime.Transport.
type Network struct {
	kernel  *des.Kernel
	rng     *mathx.RNG
	latency runtime.LatencyModel
	loss    float64               // probability an in-flight message is lost
	cut     func(ids.NodeID) bool // active partition classifier (nil = no cut)
	stats   runtime.Stats
	traceFn func(runtime.Message, string) // optional trace hook: (msg, outcome)

	// entities holds the AP, AG and BR endpoints and crash flags, one
	// slice per tier indexed by ordinal, so a message finds its ends
	// without hashing; only the mobile hosts' endpoints, minted and
	// released as members come and go, are kept in maps.
	entities  [ids.TierBR][]entity
	mhs       map[ids.NodeID]runtime.Endpoint
	mhCrashed map[ids.NodeID]bool

	// pool recycles in-flight message slots so a delivery costs no
	// allocation in steady state (see Send).
	pool []*inflight
}

// entity is the network's slot for one AP, AG or BR: its endpoint
// (nil until registered) and whether it is crashed.
type entity struct {
	ep      runtime.Endpoint
	crashed bool
}

// inflight is one pooled in-flight message slot: the unit handed to
// the kernel's closure-free scheduling path instead of a captured
// Message plus a fresh closure per delivery.
type inflight struct {
	net *Network
	msg runtime.Message
}

// deliverMsg is the shared delivery callback of all networks.
func deliverMsg(a any) {
	fl := a.(*inflight)
	fl.net.deliver(fl)
}

// New creates a network on the given kernel. latency must not be nil.
func New(kernel *des.Kernel, latency runtime.LatencyModel, seed uint64) *Network {
	if latency == nil {
		panic("simnet: nil latency model")
	}
	return &Network{
		kernel:    kernel,
		rng:       mathx.NewRNG(seed),
		latency:   latency,
		mhs:       make(map[ids.NodeID]runtime.Endpoint),
		mhCrashed: make(map[ids.NodeID]bool),
	}
}

// SetLoss sets the independent per-message loss probability.
func (n *Network) SetLoss(p float64) {
	if p < 0 || p > 1 {
		panic("simnet: loss probability out of range")
	}
	n.loss = p
}

// SetTrace installs a hook called for every send with the outcome
// ("delivered", "lost", "cut", "crashed-dest", "crashed-src",
// "no-endpoint"). Pass nil to disable.
func (n *Network) SetTrace(fn func(runtime.Message, string)) { n.traceFn = fn }

// Partition implements runtime.Partitionable: until Heal, every
// message whose endpoints lie on opposite sides of isFar is dropped at
// egress (counted in Stats.Dropped and Stats.Cut, traced as "cut").
// Messages already in flight still deliver — a cut severs links, it
// does not recall packets. A second Partition replaces the classifier.
func (n *Network) Partition(isFar func(ids.NodeID) bool) {
	if isFar == nil {
		panic("simnet: nil partition classifier")
	}
	n.cut = isFar
}

// Heal implements runtime.Partitionable: it removes the active cut.
func (n *Network) Heal() { n.cut = nil }

// Register attaches an endpoint under the given ID, replacing any
// previous registration.
func (n *Network) Register(id ids.NodeID, ep runtime.Endpoint) {
	if id.IsZero() {
		panic("simnet: registering the zero NodeID")
	}
	if ep == nil {
		panic("simnet: registering nil endpoint")
	}
	if e := n.grow(id); e != nil {
		e.ep = ep
		return
	}
	n.mhs[id] = ep
}

// Unregister removes the endpoint, if present.
func (n *Network) Unregister(id ids.NodeID) {
	if e := n.entity(id); e != nil {
		e.ep = nil
		return
	}
	delete(n.mhs, id)
}

// Crash marks a node faulty: it stops sending and receiving. This also
// models link faults, which the paper folds into node faults (§5.2).
func (n *Network) Crash(id ids.NodeID) {
	if e := n.grow(id); e != nil {
		e.crashed = true
		return
	}
	n.mhCrashed[id] = true
}

// Restore clears the faulty state of a node.
func (n *Network) Restore(id ids.NodeID) {
	if e := n.entity(id); e != nil {
		e.crashed = false
		return
	}
	delete(n.mhCrashed, id)
}

// Crashed reports whether the node is currently faulty.
func (n *Network) Crashed(id ids.NodeID) bool {
	if id.Tier() != ids.TierMH {
		e := n.entity(id)
		return e != nil && e.crashed
	}
	return n.mhCrashed[id]
}

// endpoint returns the endpoint registered under id, if any.
func (n *Network) endpoint(id ids.NodeID) (runtime.Endpoint, bool) {
	if id.Tier() != ids.TierMH {
		if e := n.entity(id); e != nil && e.ep != nil {
			return e.ep, true
		}
		return nil, false
	}
	ep, ok := n.mhs[id]
	return ep, ok
}

// entity returns the slot of an AP, AG or BR id, or nil for a mobile
// host's id or an ordinal its tier's slice does not reach (a corrupted
// frame can name ordinal -1).
func (n *Network) entity(id ids.NodeID) *entity {
	if t := id.Tier(); t != ids.TierMH {
		if es, o := n.entities[t-1], id.Ordinal(); o >= 0 && o < len(es) {
			return &es[o]
		}
	}
	return nil
}

// grow is entity, but extends the tier's slice to reach id.
func (n *Network) grow(id ids.NodeID) *entity {
	t := id.Tier()
	if t == ids.TierMH {
		return nil
	}
	if es, o := n.entities[t-1], id.Ordinal(); o >= len(es) {
		n.entities[t-1] = append(es, make([]entity, o+1-len(es))...)
	}
	return n.entity(id)
}

// Stats returns a copy of the counters.
func (n *Network) Stats() runtime.Stats { return n.stats }

// ResetStats zeroes all counters (topology and crash state are kept).
func (n *Network) ResetStats() { n.stats = runtime.Stats{} }

// Send submits a message. Delivery happens asynchronously after the
// latency model's delay, unless the sender or destination is crashed or
// the message is randomly lost. Sends to the zero NodeID are dropped
// silently (callers use that for "no parent"), but counted.
//
// The in-flight message rides in a pooled slot through the kernel's
// closure-free scheduling path, so a delivery allocates nothing once
// the pool is warm.
func (n *Network) Send(msg runtime.Message) {
	msg.Sent = runtime.Time(n.kernel.Now())
	n.stats.Sent++
	if n.Crashed(msg.From) {
		n.stats.Dropped++
		n.trace(msg, "crashed-src")
		return
	}
	if msg.To.IsZero() {
		n.stats.Dropped++
		n.trace(msg, "no-endpoint")
		return
	}
	if n.loss > 0 && n.rng.Bernoulli(n.loss) {
		n.stats.Dropped++
		n.trace(msg, "lost")
		return
	}
	if n.cut != nil && n.cut(msg.From) != n.cut(msg.To) {
		n.stats.Dropped++
		n.stats.Cut++
		n.trace(msg, "cut")
		return
	}
	delay := n.latency.Latency(msg.From, msg.To, n.rng)
	var fl *inflight
	if ln := len(n.pool); ln > 0 {
		fl = n.pool[ln-1]
		n.pool = n.pool[:ln-1]
	} else {
		fl = &inflight{net: n}
	}
	fl.msg = msg
	n.kernel.AfterCall(delay, deliverMsg, fl)
}

// deliver completes one in-flight message: the slot returns to the
// pool first (the handler may send again, reusing it immediately), and
// then the destination-side checks of Send's contract run.
func (n *Network) deliver(fl *inflight) {
	msg := fl.msg
	fl.msg = runtime.Message{} // drop the payload reference while pooled
	n.pool = append(n.pool, fl)
	if n.Crashed(msg.To) {
		n.stats.Dropped++
		n.trace(msg, "crashed-dest")
		return
	}
	ep, ok := n.endpoint(msg.To)
	if !ok {
		n.stats.Dropped++
		n.trace(msg, "no-endpoint")
		return
	}
	n.stats.Delivered++
	n.stats.ByKind[msg.Kind]++
	n.trace(msg, "delivered")
	ep.HandleMessage(msg)
}

// trace invokes the optional trace hook.
func (n *Network) trace(msg runtime.Message, outcome string) {
	if n.traceFn != nil {
		n.traceFn(msg, outcome)
	}
}

// SendKind is a convenience wrapper building the Message inline.
func (n *Network) SendKind(from, to ids.NodeID, kind runtime.Kind, body wire.Payload) {
	n.Send(runtime.Message{From: from, To: to, Kind: kind, Body: body})
}

// --- Simulated runtime ------------------------------------------------

// The simulated pair satisfies the substrate contracts.
var (
	_ runtime.Runtime       = (*SimRuntime)(nil)
	_ runtime.Transport     = (*Network)(nil)
	_ runtime.Partitionable = (*Network)(nil)
	_ runtime.Clock         = simClock{}
)

// SimRuntime binds the deterministic des kernel and the simulated
// network into one runtime.Runtime: the substrate every experiment,
// sweep and golden determinism test drives. Runs with a fixed seed
// are bit-reproducible.
type SimRuntime struct {
	kernel *des.Kernel
	net    *Network
	clock  simClock
}

// NewSimRuntime builds a fresh kernel plus network pair. latency nil
// selects the default 4-tier profile.
func NewSimRuntime(latency runtime.LatencyModel, seed uint64) *SimRuntime {
	if latency == nil {
		latency = runtime.DefaultTierLatency()
	}
	kernel := des.NewKernel()
	rt := &SimRuntime{kernel: kernel, net: New(kernel, latency, seed)}
	rt.clock = simClock{kernel: kernel}
	return rt
}

// Kernel returns the underlying DES kernel (simulator-only callers:
// trace hooks, virtual-time assertions).
func (rt *SimRuntime) Kernel() *des.Kernel { return rt.kernel }

// Net returns the underlying simulated network (simulator-only
// callers: loss/trace configuration).
func (rt *SimRuntime) Net() *Network { return rt.net }

// Clock implements runtime.Runtime.
func (rt *SimRuntime) Clock() runtime.Clock { return rt.clock }

// Transport implements runtime.Runtime.
func (rt *SimRuntime) Transport() runtime.Transport { return rt.net }

// Do implements runtime.Runtime. The simulator is single-threaded by
// construction, so fn runs directly on the caller.
func (rt *SimRuntime) Do(fn func()) { fn() }

// Run implements runtime.Runtime: drain all pending events.
func (rt *SimRuntime) Run() { rt.kernel.Run() }

// RunFor implements runtime.Runtime: advance virtual time by d.
func (rt *SimRuntime) RunFor(d time.Duration) { rt.kernel.RunFor(d) }

// RunUntil implements runtime.Runtime: step events until pred holds
// or the queue drains.
func (rt *SimRuntime) RunUntil(pred func() bool) bool {
	for !pred() && rt.kernel.Step() {
	}
	return pred()
}

// Close implements runtime.Runtime (no resources to release).
func (rt *SimRuntime) Close() error { return nil }

// simClock adapts the kernel to runtime.Clock. It is a value type so
// the adapter itself never allocates.
type simClock struct {
	kernel *des.Kernel
}

func (c simClock) Now() runtime.Time { return runtime.Time(c.kernel.Now()) }

func (c simClock) After(d time.Duration, fn func()) runtime.TimerHandle {
	return runtime.TimerHandle{W: c.kernel.After(d, fn).Word()}
}

func (c simClock) AfterCall(d time.Duration, fn func(any), arg any) runtime.TimerHandle {
	return runtime.TimerHandle{W: c.kernel.AfterCall(d, fn, arg).Word()}
}

func (c simClock) Cancel(h runtime.TimerHandle) bool {
	return c.kernel.Cancel(des.HandleOfWord(h.W))
}

func (c simClock) Every(interval time.Duration, fn func()) runtime.Ticker {
	return c.kernel.Every(interval, fn)
}
