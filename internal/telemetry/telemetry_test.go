package telemetry

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// Value returns the counter's count. Production code reads a counter
// only through a scrape.
func (c *Counter) Value() uint64 { return c.s.bits.Load() }

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.h.count.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.h.sum.Load()) }

// TestCounterGaugeBasics: a counter handle updates atomically, and a
// counter and a sampled gauge render with their values.
func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("test_ops_total", "operations")
	for range 42 {
		c.Inc()
	}
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	r.GaugeFunc("test_depth", "queue depth", func() float64 { return 1.5 })

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_ops_total operations",
		"# TYPE test_ops_total counter",
		"test_ops_total 42",
		"# TYPE test_depth gauge",
		"test_depth 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSameSeriesSharedHandle: registering the same name+labels twice
// returns the same underlying series.
func TestSameSeriesSharedHandle(t *testing.T) {
	r := New()
	a := r.Counter("dup_total", "d", "group", "g1")
	b := r.Counter("dup_total", "d", "group", "g1")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Fatalf("handles not shared: a=%d b=%d", a.Value(), b.Value())
	}
	other := r.Counter("dup_total", "d", "group", "g2")
	if other.Value() != 0 {
		t.Fatalf("distinct labels shared a series")
	}
}

// TestHistogramBuckets: observations land in the right cumulative
// buckets and the sum/count lines agree.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.605; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_sum 5.605`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestLabelsRenderAndEscape: label pairs render in registration order
// with exposition-format escaping, and histogram buckets merge the le
// label after the static ones.
func TestLabelsRenderAndEscape(t *testing.T) {
	r := New()
	r.Counter("lbl_total", "l", "group", "224.0.0.1").Inc()
	r.Counter("esc_total", "e", "path", `a"b\c`).Inc()
	h := r.Histogram("lbl_seconds", "l", []float64{1}, "group", "224.0.0.1")
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lbl_total{group="224.0.0.1"} 1`,
		`esc_total{path="a\"b\\c"} 1`,
		`lbl_seconds_bucket{group="224.0.0.1",le="1"} 1`,
		`lbl_seconds_sum{group="224.0.0.1"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// promLine matches every legal non-comment exposition line the
// registry can emit: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|NaN)$`)

// TestExpositionParses: every emitted line is either a HELP/TYPE
// comment or a well-formed sample line — the shape a Prometheus
// scraper accepts.
func TestExpositionParses(t *testing.T) {
	r := New()
	r.Counter("a_total", "a").Inc()
	r.GaugeFunc("b_bytes", "b", func() float64 { return 1.25e6 }, "shard", "3")
	r.Histogram("c_seconds", "c", nil, "group", "g").ObserveDuration(3 * time.Millisecond)
	r.CounterFunc("d_total", "d", func() float64 { return 9 })

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) < 8 {
		t.Fatalf("suspiciously short exposition: %q", sb.String())
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestFuncMetricsAndScrapeHooks: sampled metrics read at scrape time,
// after the OnScrape hooks refresh their snapshot; re-registration
// replaces the sampler.
func TestFuncMetricsAndScrapeHooks(t *testing.T) {
	r := New()
	var snap struct{ v float64 }
	src := 1.0
	r.OnScrape(func() { snap.v = src })
	r.GaugeFunc("sampled", "s", func() float64 { return snap.v })

	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), "sampled 1") {
		t.Fatalf("first scrape: %s", sb.String())
	}
	src = 2
	sb.Reset()
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), "sampled 2") {
		t.Fatalf("hook did not refresh: %s", sb.String())
	}

	r.GaugeFunc("sampled", "s", func() float64 { return 42 })
	sb.Reset()
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), "sampled 42") {
		t.Fatalf("re-registration did not replace sampler: %s", sb.String())
	}
}

// TestGather: flattened samples carry parsed labels and histogram
// sum/count twins, matching what the exposition shows.
func TestGather(t *testing.T) {
	r := New()
	c := r.Counter("g_total", "g", "group", "224.0.0.1")
	for range 3 {
		c.Inc()
	}
	r.Histogram("g_seconds", "g", []float64{1}).Observe(0.25)

	bySample := map[string]Sample{}
	for _, s := range r.Gather() {
		bySample[s.Name+"|"+s.Label("group")] = s
	}
	if s, ok := bySample["g_total|224.0.0.1"]; !ok || s.Value != 3 {
		t.Fatalf("g_total sample = %+v", s)
	}
	if s, ok := bySample["g_seconds_count|"]; !ok || s.Value != 1 {
		t.Fatalf("g_seconds_count sample = %+v", s)
	}
	if s, ok := bySample["g_seconds_sum|"]; !ok || s.Value != 0.25 {
		t.Fatalf("g_seconds_sum sample = %+v", s)
	}
}

// TestConcurrentUpdates: handles race-free under concurrent writers
// and a concurrent scraper (run with -race).
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("conc_total", "c")
	h := r.Histogram("conc_seconds", "c", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.Reset()
		if err := r.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if h.Count() != 4000 {
		t.Fatalf("histogram count = %d, want 4000", h.Count())
	}
}

// TestKindConflictPanics: one name cannot be two metric kinds.
func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("kind_clash", "k")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind conflict")
		}
	}()
	r.GaugeFunc("kind_clash", "k", func() float64 { return 0 })
}

// BenchmarkTelemetryHotPath measures the instrumented update path the
// protocol engine pays per event: a counter increment and a histogram
// observation. The assertion that matters is 0 allocs/op —
// instrumentation must not move the engine's pinned allocation budget
// (PERF.md).
func BenchmarkTelemetryHotPath(b *testing.B) {
	r := New()
	c := r.Counter("bench_ops_total", "ops", "group", "224.0.0.1")
	h := r.Histogram("bench_round_seconds", "round latency", nil, "group", "224.0.0.1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(0.0042)
	}
}

// TestTelemetryHotPathAllocs pins the benchmark's claim as a test:
// the update path performs zero heap allocations.
func TestTelemetryHotPathAllocs(t *testing.T) {
	r := New()
	c := r.Counter("alloc_ops_total", "ops")
	h := r.Histogram("alloc_seconds", "lat", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(0.001)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f per op, want 0", allocs)
	}
}
