package discovery

import (
	"sync"
	"time"
)

// TmpMap is a TTL-bucketed set of recently seen keys, the shape of
// dusk-blockchain's dupemap: two generations of plain map, rotated
// when the TTL elapses (or a generation fills), so expiry costs one
// pointer swap instead of per-key timers. A key lives at least ttl and
// at most 2*ttl after its last insertion, and memory is bounded by
// 2*maxEntries no matter how fast a replay flood inserts.
//
// The transport uses it to drop duplicate relayed frames through Add,
// which deliberately does NOT refresh an existing key, so a
// legitimately retransmitted frame is delayed at most one rotation,
// never starved.
type TmpMap struct {
	mu         sync.Mutex
	ttl        time.Duration
	maxEntries int
	cur, prev  map[uint64]struct{}
	lastRotate time.Time

	// now is the map's clock (a test seam; time.Now in production).
	now func() time.Time
}

// NewTmpMap builds a dedup map with the given bucket TTL and per-
// generation capacity bound (minimums are applied to zero values).
func NewTmpMap(ttl time.Duration, maxEntries int) *TmpMap {
	if ttl <= 0 {
		ttl = 200 * time.Millisecond
	}
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	m := &TmpMap{
		ttl:        ttl,
		maxEntries: maxEntries,
		cur:        make(map[uint64]struct{}),
		prev:       map[uint64]struct{}{},
	}
	m.lastRotate = time.Now()
	m.now = time.Now
	return m
}

// rotateLocked ages the generations when the TTL elapsed or the
// current generation hit its capacity bound.
func (m *TmpMap) rotateLocked(now time.Time) {
	elapsed := now.Sub(m.lastRotate)
	if elapsed < m.ttl && len(m.cur) < m.maxEntries {
		return
	}
	if elapsed >= 2*m.ttl {
		// Quiet for two full windows: both generations are stale.
		m.prev = map[uint64]struct{}{}
		m.cur = make(map[uint64]struct{})
	} else {
		m.prev = m.cur
		m.cur = make(map[uint64]struct{}, len(m.prev))
	}
	m.lastRotate = now
}

// Add records the key if it is not already present and reports whether
// it was fresh. A hit does not refresh the key: it still expires on
// schedule, so a steady duplicate stream cannot pin a key forever.
func (m *TmpMap) Add(key uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rotateLocked(m.now())
	if _, ok := m.cur[key]; ok {
		return false
	}
	if _, ok := m.prev[key]; ok {
		return false
	}
	m.cur[key] = struct{}{}
	return true
}

// Len returns the number of live keys across both generations. It is
// exact: Add never records a key the old generation still holds.
func (m *TmpMap) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.prev)
}
