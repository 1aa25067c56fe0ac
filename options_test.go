package rgb

import (
	"time"

	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/runtime"
)

// Options only tests set. A program sets these values another way:
// the protocol configuration through WithConfig; the Watch buffer and
// the networked runtime's timing knobs not at all.

// withConfigEdit edits the protocol configuration the options so far
// built, so a test can set one field (Loss, Latency, GID,
// Dissemination) beside WithHierarchy and WithSeed.
func withConfigEdit(edit func(cfg *core.Config)) Option {
	return func(o *serviceOptions) { edit(&o.cfg) }
}

// withWatchBuffer sets the per-subscriber event buffer of Watch.
func withWatchBuffer(n int) Option {
	return func(o *serviceOptions) { o.watchBuf = n }
}

// withNetConfig starts the networked runtime's configuration from nc:
// discovery timing and bootstrap timeout that no option sets.
func withNetConfig(nc runtime.NetConfig) Option {
	return func(o *serviceOptions) { o.netConfig = &nc }
}

// withLoopback runs the group in real time as a lone process on a free
// loopback port, with the discovery plane's timers parked, so no gossip
// or probe runs beside what a test measures.
func withLoopback() Option {
	return withNetConfig(runtime.NetConfig{Bind: "127.0.0.1:0", GossipInterval: time.Hour, ProbeInterval: time.Hour})
}
