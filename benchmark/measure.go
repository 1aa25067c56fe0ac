package main

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// segments is how many equal-count slices the timed region is cut
// into. Every metric that is a time (latency, rate, CPU) is computed per
// segment and the third best of the ten segments is reported (quiet,
// below): the neighbours of a shared box only ever slow a segment down,
// in phases of seconds, and a figure taken from the quiet segments of a
// run repeats where the median over segments still moves with how many
// of them a phase covered. A change of the code moves every segment, so
// it moves the third best too. The whole-region value is printed beside
// it. Counts (allocation, messages) are taken over the whole region: no
// neighbour moves them, and their own bursts (a list outgrowing its
// capacity on every entity at once) belong in the figure.
const segments = 10

// sample is one completed op: when it completed, measured from the
// start of the timed region, and its latency.
type sample struct{ at, lat time.Duration }

// mark is the process state at a segment boundary.
type mark struct {
	at         time.Duration
	cpu        time.Duration // user+sys of the whole process
	alloc      uint64        // MemStats.TotalAlloc
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	goroutines int
}

func takeMark(t0 time.Time) mark {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		at:         time.Since(t0),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:      ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
		goroutines: runtime.NumGoroutine(),
	}
}

// liveHeapMB is HeapAlloc after two collections (the second frees what
// the first one's finalizers released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// meter counts completed ops across the driver goroutines of one timed
// region of exactly n ops and marks the process state every n/segments
// completions. The driver that completes a boundary op collects garbage
// and takes the mark, so every segment starts from a swept heap: a
// collection slows the ops beside it, and on the simulator workload,
// where one falls into every second segment, the segments would
// otherwise be of two kinds.
type meter struct {
	n, seg int64
	t0     time.Time
	count  atomic.Int64
	marks  [segments + 1]mark
}

// newMeter starts a timed region of n ops; n is a multiple of segments.
func newMeter(n int) *meter {
	runtime.GC()
	m := &meter{n: int64(n), seg: int64(n / segments), t0: time.Now()}
	m.marks[0] = takeMark(m.t0)
	m.marks[0].at = 0
	return m
}

// done records one op that completed just now with latency lat into
// the calling driver's own sample slice. Completions past the n-th (the
// drain of a pipeline) are counted but not recorded.
func (m *meter) done(own *[]sample, lat time.Duration) {
	k := m.count.Add(1)
	if k > m.n {
		return
	}
	*own = append(*own, sample{at: time.Since(m.t0), lat: lat})
	if k%m.seg == 0 {
		runtime.GC()
		m.marks[k/m.seg] = takeMark(m.t0)
	}
}

// finished reports whether the n-th op has completed.
func (m *meter) finished() bool { return m.count.Load() >= m.n }

// regionStats is what one timed region measured. Fields ending in Seg
// are the third best of the segments; the others cover the whole region.
type regionStats struct {
	ops              int
	completed        int // ops, and those that completed while the pipeline drained
	wall             time.Duration
	p50Seg, p99Seg   float64 // µs
	p50, p99         float64 // µs
	opsPerSecSeg     float64
	opsPerSec        float64
	cpuPerOpSeg      float64 // µs
	cpuPerOp         float64 // µs
	allocKBPerOp     float64
	mallocsPerOp     float64
	gcCycles         int
	gcPauseMS        float64
	goroutinesPeak   int
	samples          int
	segP50s, segP99s []float64 // per segment, in order
}

// stats folds the drivers' samples and the boundary marks into the
// region's figures.
func (m *meter) stats(drivers ...[]sample) regionStats {
	var all []sample
	for _, d := range drivers {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	first, last := m.marks[0], m.marks[segments]
	wall := last.at
	rs := regionStats{
		ops:          int(m.n),
		completed:    int(m.count.Load()),
		wall:         wall,
		samples:      len(all),
		opsPerSec:    float64(m.n) / wall.Seconds(),
		cpuPerOp:     us(last.cpu-first.cpu) / float64(m.n),
		allocKBPerOp: float64(last.alloc-first.alloc) / 1024 / float64(m.n),
		mallocsPerOp: float64(last.mallocs-first.mallocs) / float64(m.n),
		gcCycles:     int(last.gcCycles - first.gcCycles),
		gcPauseMS:    float64(last.gcPause-first.gcPause) / float64(time.Millisecond),
	}
	lats := make([]float64, len(all))
	for i, s := range all {
		lats[i] = us(s.lat)
	}
	var p50s, p99s, rates, cpus []float64
	lo := 0
	for i := 1; i <= segments; i++ {
		a, b := m.marks[i-1], m.marks[i]
		hi := lo
		for hi < len(all) && (all[hi].at <= b.at || i == segments) {
			hi++
		}
		if seg := lats[lo:hi]; len(seg) > 0 {
			sort.Float64s(seg)
			p50s = append(p50s, quantile(seg, 0.50))
			rs.segP50s = append(rs.segP50s, p50s[len(p50s)-1])
			p99s = append(p99s, quantile(seg, 0.99))
			rs.segP99s = append(rs.segP99s, p99s[len(p99s)-1])
		}
		lo = hi
		rates = append(rates, float64(m.seg)/(b.at-a.at).Seconds())
		cpus = append(cpus, us(b.cpu-a.cpu)/float64(m.seg))
		rs.goroutinesPeak = max(rs.goroutinesPeak, b.goroutines)
	}
	sort.Float64s(lats)
	rs.p50, rs.p99 = quantile(lats, 0.50), quantile(lats, 0.99)
	rs.p50Seg, rs.p99Seg = quiet(p50s, false), quiet(p99s, false)
	rs.opsPerSecSeg, rs.cpuPerOpSeg = quiet(rates, true), quiet(cpus, false)
	return rs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of an ascending slice by the
// nearest-rank rule; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quiet sorts v in place and returns its third best value, the third
// highest when higher is better and the third lowest otherwise (the
// worst one when there are fewer than three); NaN for an empty slice.
func quiet(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	i := min(2, len(v)-1)
	if higherIsBetter {
		i = len(v) - 1 - i
	}
	return v[i]
}

// median sorts v in place and returns its middle (the mean of the two
// middle values for an even count); NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	if h := len(v) / 2; len(v)%2 == 1 {
		return v[h]
	} else {
		return (v[h-1] + v[h]) / 2
	}
}

// durationsP50 returns the median of d in µs, 0 when there are none.
func durationsP50(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = us(x)
	}
	return median(v)
}
