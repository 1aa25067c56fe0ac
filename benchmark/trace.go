package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names: one per boundary between the benchmark and a layer.
const (
	spanOp         = "op"
	spanSubmit     = "service.submit"      // JoinAt / Leave / Handoff
	spanCommitWait = "service.commit_wait" // submit return -> Watch delivery
	spanQueryTMS   = "service.query_tms"
	spanQueryBMS   = "service.query_bms"
	spanSettle     = "service.settle"
	spanOpen       = "cluster.open" // Listen / Open / Cluster.Open
	spanPreload    = "setup.preload"
	spanWarm       = "setup.warm"
	spanScrape     = "telemetry.scrape"
	spanDoRTT      = "runtime.do_rtt" // Service.Inspect round trip
)

// span is one recorded interval. Times are nanoseconds since the
// tracer was created; parent is an index into the same lane, -1 for a
// root; op identifies the benchmark op the span belongs to (-1 outside
// the timed region).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
}

// lane is the span buffer of one goroutine: spans are appended without
// synchronisation, so each goroutine that traces owns a lane. A nil
// lane records nothing, which is how tracing is switched off.
type lane struct {
	t0    time.Time
	spans []span
}

// tracer keeps every lane of a traced run in memory until the run ends.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane adds a buffer preallocated for capacity spans; nil on a nil
// tracer.
func (t *tracer) lane(capacity int) *lane {
	if t == nil {
		return nil
	}
	l := &lane{t0: t.t0, spans: make([]span, 0, capacity)}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span and returns its index (-1 when tracing is off).
func (l *lane) begin(name string, parent int32, op int64) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: int64(time.Since(l.t0)), parent: parent, op: op})
	return int32(len(l.spans) - 1)
}

// end closes the span begin returned.
func (l *lane) end(id int32) {
	if l != nil {
		l.spans[id].end = int64(time.Since(l.t0))
	}
}

// spanSummary aggregates one span name over a run.
type spanSummary struct {
	name        string
	count       int
	total, self time.Duration
	p50         float64 // µs
}

// summarize computes per-name totals. A span's self time is its
// duration minus the part of it its direct children cover.
func (t *tracer) summarize() []spanSummary {
	byName := map[string]*spanSummary{}
	durs := map[string][]time.Duration{}
	for _, l := range t.lanes {
		covered := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				covered[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			sum := byName[s.name]
			if sum == nil {
				sum = &spanSummary{name: s.name}
				byName[s.name] = sum
			}
			d := time.Duration(s.end - s.start)
			sum.count++
			sum.total += d
			sum.self += d - time.Duration(covered[i])
			durs[s.name] = append(durs[s.name], d)
		}
	}
	out := make([]spanSummary, 0, len(byName))
	for name, sum := range byName {
		sum.p50 = durationsP50(durs[name])
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// p50 is the median duration in µs of the spans called name, 0 when
// there are none.
func (t *tracer) p50(name string) float64 {
	var d []time.Duration
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.name == name {
				d = append(d, time.Duration(s.end-s.start))
			}
		}
	}
	return durationsP50(d)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for li, l := range t.lanes {
		for i, s := range l.spans {
			fmt.Fprintf(w, `{"lane":%d,"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				li, i, s.parent, s.op, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
