// Package runtime defines the substrate the RGB protocol engine runs
// over: a Clock for time and timers, and a Transport for message
// delivery between network entities. The protocol state machine in
// internal/core talks exclusively to these interfaces, so the same
// engine runs
//
//   - inside the deterministic discrete-event simulator (the
//     des.Kernel + simnet.Network pair, bound by simnet.SimRuntime),
//     which is what every experiment and golden determinism test
//     drives, and
//   - on real time, as a group view of this package's one host (see
//     mux.go): a ShardSet of engine goroutines, a NetMux over it with
//     one UDP socket and the wire codec, and a NetRuntime per group, one
//     group or many.
//
// The split mirrors the paper's own layering: the ring hierarchy and
// one-round token protocol sit above an arbitrary mobile-Internet
// network, so nothing in the protocol may assume it can step a
// simulation kernel.
package runtime

import (
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/wire"
)

// TimerHandle names a timer armed through a Clock. The zero
// TimerHandle refers to no timer, and cancelling it is a no-op. A
// handle stays valid after its timer fires or is cancelled — stale
// handles can never touch a newer timer.
type TimerHandle struct {
	// W is the implementation-defined packed representation (zero
	// marks the zero handle). Callers treat it as opaque.
	W uint64
}

// Ticker is a repeating timer armed through Clock.Every.
type Ticker interface {
	// Stop cancels future firings. Safe to call multiple times and
	// from within the ticker callback.
	Stop()
}

// Clock provides time and timers to the protocol engine. All methods
// must be called from engine context (inside the simulator's event
// loop, or inside Runtime.Do for a live runtime); callbacks are
// always invoked in engine context.
type Clock interface {
	// Now returns the current protocol time. On the simulator that is
	// the virtual time of the running event; on a real-time runtime it
	// is the time the current work item was dequeued, so every read
	// within one callback or Do agrees however long the item runs.
	Now() Time

	// After schedules fn to run d from now.
	After(d time.Duration, fn func()) TimerHandle

	// AfterCall schedules fn(arg) to run d from now. This is the
	// closure-free path: fn is typically a shared per-object function
	// and arg a pointer, so arming the timer allocates nothing once the
	// clock is warm, on every substrate.
	AfterCall(d time.Duration, fn func(any), arg any) TimerHandle

	// Cancel stops the timer so it will not fire, reporting whether it
	// did. Cancelling the zero handle, or a timer that already fired
	// or was cancelled, is a harmless no-op.
	Cancel(h TimerHandle) bool

	// Every schedules fn to run every interval, first firing one
	// interval from now.
	Every(interval time.Duration, fn func()) Ticker
}

// Endpoint is a network entity able to receive messages. Handlers run
// in engine context; they may send messages and set timers but must
// not block.
type Endpoint interface {
	HandleMessage(msg Message)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(Message)

// HandleMessage calls f(msg).
func (f EndpointFunc) HandleMessage(msg Message) { f(msg) }

// Transport is the message plane between network entities:
// asynchronous unicast with unbounded (but finite) latency, message
// loss, and crash faults. All methods must be called from engine
// context.
type Transport interface {
	// Register attaches an endpoint under the given ID, replacing any
	// previous registration.
	Register(id ids.NodeID, ep Endpoint)

	// Unregister removes the endpoint, if present.
	Unregister(id ids.NodeID)

	// Send submits a message for asynchronous delivery. Sends to the
	// zero NodeID are dropped silently (callers use that for "no
	// parent"), but counted.
	Send(msg Message)

	// Crash marks a node faulty: it stops sending and receiving.
	Crash(id ids.NodeID)

	// Restore clears the faulty state of a node.
	Restore(id ids.NodeID)

	// Crashed reports whether the node is currently faulty.
	Crashed(id ids.NodeID) bool

	// Stats returns a copy of the delivery counters.
	Stats() Stats

	// ResetStats zeroes all counters (topology and crash state kept).
	ResetStats()
}

// Partitionable is the optional Transport capability behind network
// partition experiments: Partition installs a cut — every message whose
// endpoints lie on opposite sides of the isFar classifier is dropped at
// egress (counted in Stats.Cut) — and Heal removes it. The simulated
// network implements it; the live and networked planes do not (a real
// network is partitioned from outside the process — see the chaos
// harness). Probe through AsPartitionable, which also looks underneath
// decorating transports.
type Partitionable interface {
	// Partition installs the cut. A second call replaces the previous
	// classifier; messages already in flight still deliver.
	Partition(isFar func(ids.NodeID) bool)

	// Heal removes the active cut, if any.
	Heal()
}

// BodyRecycler is the optional Transport capability that closes the
// ownership loop of the round bodies (wire.Bodies) across processes and
// lets a sender lend a QueryReply's Members instead of giving them
// away. An engine lends the transport its free lists once, at
// construction, and from then on, in engine context, the transport
// hands back every round body Send does not queue for one of its own
// endpoints, above all one it encoded for another process, and delivers
// each round body it decoded in a body taken from the lists, which the
// receiving endpoint then owns. It also keeps no reference to a
// QueryReply's Members once Send returns: a reply for another process
// is encoded, and one for its own endpoints is copied into a buffer it
// reuses, so there a reply is valid only until its handler returns. The
// networked transport implements it; the simulated network delivers
// after a latency. A decorating transport must not pass it through
// (FaultTransport's reorder holds a message past Send), so probe with a
// plain type assertion: a transport never lent the lists hands nothing
// back, delivers each decoded body in a new one, and is sent replies
// that share no list.
type BodyRecycler interface {
	LendBodies(b *wire.Bodies)
}

// Unwrapper is implemented by decorating transports (fault injection)
// so capability probes like AsPartitionable can reach the substrate
// underneath.
type Unwrapper interface {
	// Unwrap returns the decorated transport.
	Unwrap() Transport
}

// AsPartitionable reports whether tr — or any transport it decorates —
// supports partition cuts, returning the implementation if so.
func AsPartitionable(tr Transport) (Partitionable, bool) {
	for tr != nil {
		if p, ok := tr.(Partitionable); ok {
			return p, true
		}
		u, ok := tr.(Unwrapper)
		if !ok {
			return nil, false
		}
		tr = u.Unwrap()
	}
	return nil, false
}

// Runtime bundles a Clock and Transport with the drive operations the
// engine and its callers need. The simulated implementation is
// simnet.SimRuntime; the real-time one is the NetRuntime view a NetMux
// hands out.
type Runtime interface {
	Clock() Clock
	Transport() Transport

	// Do runs fn serialized with the runtime's event processing and
	// returns when fn has completed. The simulator runs fn directly on
	// the caller (it is single-threaded by construction); a live
	// runtime marshals fn onto its engine goroutine. All access to
	// protocol state from outside a handler must go through Do.
	//
	// After Close, fn may be dropped without running: callers that
	// need to distinguish success must observe a side effect of fn
	// itself (e.g. a sentinel cleared by fn).
	Do(fn func())

	// Run drives the runtime until quiescence: no pending timers, no
	// in-flight messages. Do not call with periodic tickers armed —
	// a ticker is always pending, so Run would never return.
	Run()

	// RunFor drives the runtime for d of protocol time (virtual for
	// the simulator, wall-clock for a live runtime).
	RunFor(d time.Duration)

	// RunUntil drives the runtime until pred reports true, giving up
	// at quiescence. It reports pred's final value. pred is evaluated
	// in engine context.
	RunUntil(pred func() bool) bool

	// Close releases the runtime's resources. The simulator's Close is
	// a no-op; a real-time group view ends its group. Using a runtime
	// after Close is undefined.
	Close() error
}
