// Package telemetry is the operability plane's metrics registry: a
// dependency-free, allocation-conscious collection of atomic counters,
// sampled gauges and fixed-bucket latency histograms with a Prometheus
// text exposition (WriteProm).
//
// Design constraints, in order:
//
//   - The update hot path (Counter.Inc, Histogram.Observe)
//     is lock-free and allocation-free: one atomic RMW per update, so
//     the protocol engine can be instrumented without perturbing its
//     pinned allocation budget (see PERF.md).
//   - Registration is explicit and happens at construction time, not
//     per update: a metric handle is looked up once and then written
//     through forever, so there is no per-event name hashing.
//   - Sampled metrics (CounterFunc, GaugeFunc) read their value at
//     scrape time — the bridge for counters that already live
//     elsewhere (the runtime's NetStats atomics, Go memstats) without
//     double accounting. OnScrape hooks run before a scrape so a
//     group of sampled metrics can share one consistent snapshot.
//   - No external dependencies: the exposition format is hand-rolled
//     (the text format is small and stable) and the package imports
//     only the standard library.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram bounds, in seconds:
// half a millisecond to ten seconds in a 1-2.5-5 progression — wide
// enough for a token round on loopback (sub-millisecond) and a
// cross-process view change under churn (tens to hundreds of
// milliseconds).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metric kinds, for TYPE lines and rendering.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one label-set instance of a metric. Exactly one of the
// value forms is active: the atomic count of a Counter, the sampling
// fn, or the histogram state.
type series struct {
	labels string // rendered inner label pairs, `k="v",k2="v2"`; "" for none

	bits atomic.Uint64
	fn   func() float64 // sampled at scrape when non-nil
	hist *histState
}

// histState is the fixed-bucket histogram behind a Histogram handle.
// counts[i] is the number of observations in (bounds[i-1], bounds[i]];
// counts[len(bounds)] is the +Inf overflow. Rendering accumulates.
type histState struct {
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// metric is one named family with its label-set series.
type metric struct {
	name, help string
	kind       metricKind
	buckets    []float64

	mu      sync.Mutex
	series  []*series
	byLabel map[string]*series
}

// Registry holds a process's metrics. The zero value is not usable;
// call New. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	names   []string // sorted lazily at scrape
	sorted  bool
	hooks   []func()

	start time.Time
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{metrics: make(map[string]*metric), start: time.Now()}
}

// Start returns the registry's creation time (the process-uptime
// epoch for registries created at startup).
func (r *Registry) Start() time.Time { return r.start }

// OnScrape registers fn to run before every scrape (WriteProm or
// Gather), under the registry lock — the place to refresh a snapshot
// that a group of CounterFunc/GaugeFunc metrics reads consistently.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// family returns (creating if needed) the named metric family,
// panicking on a kind conflict — registering one name as two kinds is
// always a programming error worth failing loudly on.
func (r *Registry) family(name, help string, kind metricKind, buckets []float64) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as both %s and %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, buckets: buckets, byLabel: make(map[string]*series)}
	r.metrics[name] = m
	r.names = append(r.names, name)
	r.sorted = false
	return m
}

// seriesOf returns (creating if needed) the series for one label set.
func (m *metric) seriesOf(labels []string) *series {
	inner := renderLabels(labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.byLabel[inner]; ok {
		return s
	}
	s := &series{labels: inner}
	if m.kind == histogramKind {
		s.hist = &histState{
			bounds: m.buckets,
			counts: make([]atomic.Uint64, len(m.buckets)+1),
		}
	}
	m.byLabel[inner] = s
	m.series = append(m.series, s)
	sort.Slice(m.series, func(i, j int) bool { return m.series[i].labels < m.series[j].labels })
	return s
}

// renderLabels renders k,v pairs as `k="v",k2="v2"` with label-value
// escaping per the exposition format. Odd trailing keys are dropped.
func renderLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		escapeLabel(&sb, labels[i+1])
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabel(sb *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
}

// Counter is a monotonically increasing integer metric. Inc is
// lock-free and allocation-free.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.bits.Add(1) }

// Counter registers (or returns the existing) counter series. labels
// are key, value pairs rendered into the exposition.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{s: r.family(name, help, counterKind, nil).seriesOf(labels)}
}

// CounterFunc registers a counter whose value is sampled at scrape
// time — the bridge for monotonic counters maintained elsewhere.
// Re-registering the same name and labels replaces the sampler (a
// reopened group rebinds its closures).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.family(name, help, counterKind, nil).seriesOf(labels).fn = fn
}

// GaugeFunc registers a gauge sampled at scrape time. Re-registering
// the same name and labels replaces the sampler.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.family(name, help, gaugeKind, nil).seriesOf(labels).fn = fn
}

// Histogram is a fixed-bucket distribution metric. Observe is
// lock-free and allocation-free: one linear bucket scan (the bucket
// count is small and fixed) plus three atomic updates.
type Histogram struct{ h *histState }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	st := h.h
	i := 0
	for ; i < len(st.bounds); i++ {
		if v <= st.bounds[i] {
			break
		}
	}
	st.counts[i].Add(1)
	st.count.Add(1)
	for {
		old := st.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if st.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records one duration, in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Histogram registers (or returns the existing) histogram series with
// the given upper bucket bounds (ascending; +Inf is implicit). nil
// buckets select DefBuckets. The bounds of the first registration of
// a name win.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &Histogram{h: r.family(name, help, histogramKind, buckets).seriesOf(labels).hist}
}

// snapshot returns the metric families in name order after running
// the scrape hooks. Callers iterate without holding the registry
// lock (families are append-only).
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	hooks := r.hooks
	if !r.sorted {
		sort.Strings(r.names)
		r.sorted = true
	}
	names := r.names
	r.mu.Unlock()

	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	out := make([]*metric, 0, len(names))
	for _, name := range names {
		out = append(out, r.metrics[name])
	}
	r.mu.Unlock()
	return out
}

// WriteProm writes every metric in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE lines per family, one sample
// line per series, histograms as cumulative _bucket/_sum/_count.
// Scrape hooks run first. Families render in name order, series in
// label order, so the output is deterministic given the same values.
func (r *Registry) WriteProm(w io.Writer) error {
	var buf []byte
	for _, m := range r.snapshot() {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, m.name...)
		buf = append(buf, ' ')
		buf = append(buf, m.help...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, m.name...)
		buf = append(buf, ' ')
		buf = append(buf, m.kind.String()...)
		buf = append(buf, '\n')

		m.mu.Lock()
		series := append([]*series(nil), m.series...)
		m.mu.Unlock()
		for _, s := range series {
			switch m.kind {
			case histogramKind:
				buf = s.hist.render(buf, m.name, s.labels)
			default:
				buf = append(buf, m.name...)
				if s.labels != "" {
					buf = append(buf, '{')
					buf = append(buf, s.labels...)
					buf = append(buf, '}')
				}
				buf = append(buf, ' ')
				buf = appendValue(buf, s.value())
				buf = append(buf, '\n')
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// value reads a scalar series: the sampler when present, a Counter's
// count otherwise.
func (s *series) value() float64 {
	if s.fn != nil {
		return s.fn()
	}
	return float64(s.bits.Load())
}

// render appends one histogram series' exposition lines.
func (h *histState) render(buf []byte, name, labels string) []byte {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		buf = append(buf, name...)
		buf = append(buf, "_bucket{"...)
		if labels != "" {
			buf = append(buf, labels...)
			buf = append(buf, ',')
		}
		buf = append(buf, `le="`...)
		buf = strconv.AppendFloat(buf, bound, 'g', -1, 64)
		buf = append(buf, `"} `...)
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	buf = append(buf, name...)
	buf = append(buf, "_bucket{"...)
	if labels != "" {
		buf = append(buf, labels...)
		buf = append(buf, ',')
	}
	buf = append(buf, `le="+Inf"} `...)
	buf = strconv.AppendUint(buf, cum, 10)
	buf = append(buf, '\n')

	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = appendValue(buf, math.Float64frombits(h.sum.Load()))
	buf = append(buf, '\n')

	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, h.count.Load(), 10)
	buf = append(buf, '\n')
	return buf
}

// appendValue renders a float sample value: integers without a
// decimal point, everything else in Go's shortest 'g' form (the
// exposition format accepts both).
func appendValue(buf []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// Sample is one flattened metric reading from Gather. Histograms
// flatten to <name>_sum and <name>_count samples (buckets are an
// exposition concern; readers that need the distribution scrape
// WriteProm).
type Sample struct {
	Name   string
	Labels []string // key, value pairs
	Value  float64
}

// Label returns the sample's value for one label key ("" if absent).
func (s Sample) Label(key string) string {
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if s.Labels[i] == key {
			return s.Labels[i+1]
		}
	}
	return ""
}

// Gather runs the scrape hooks and returns every scalar sample — the
// programmatic twin of WriteProm for in-process readers (the rgbnode
// stats line renders from it, so stdin and /metrics can never
// disagree).
func (r *Registry) Gather() []Sample {
	var out []Sample
	for _, m := range r.snapshot() {
		m.mu.Lock()
		series := append([]*series(nil), m.series...)
		m.mu.Unlock()
		for _, s := range series {
			labels := parseLabels(s.labels)
			switch m.kind {
			case histogramKind:
				out = append(out, Sample{Name: m.name + "_sum", Labels: labels, Value: math.Float64frombits(s.hist.sum.Load())})
				out = append(out, Sample{Name: m.name + "_count", Labels: labels, Value: float64(s.hist.count.Load())})
			default:
				out = append(out, Sample{Name: m.name, Labels: labels, Value: s.value()})
			}
		}
	}
	return out
}

// parseLabels inverts renderLabels for Gather (label values with
// escapes un-escape back).
func parseLabels(inner string) []string {
	if inner == "" {
		return nil
	}
	var out []string
	for len(inner) > 0 {
		eq := strings.IndexByte(inner, '=')
		if eq < 0 || eq+1 >= len(inner) || inner[eq+1] != '"' {
			break
		}
		key := inner[:eq]
		rest := inner[eq+2:]
		var val strings.Builder
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		out = append(out, key, val.String())
		inner = rest[i:]
		inner = strings.TrimPrefix(inner, `"`)
		inner = strings.TrimPrefix(inner, ",")
	}
	return out
}
