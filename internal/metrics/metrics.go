// Package metrics provides the small measurement and reporting
// toolkit used by the experiment binaries: latency histograms with
// percentiles, named counters, and fixed-width text tables matching
// the layout of the paper's Table I and Table II.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/rgbproto/rgb/internal/mathx"
)

// Histogram collects duration observations and reports percentiles.
type Histogram struct {
	samples []time.Duration
	sum     time.Duration
}

// Add records one observation.
func (h *Histogram) Add(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sum += d
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the average, or zero when empty.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Percentile returns the q-quantile (0..1). It panics when empty.
func (h *Histogram) Percentile(q float64) time.Duration {
	xs := make([]float64, len(h.samples))
	for i, s := range h.samples {
		xs[i] = float64(s)
	}
	return time.Duration(mathx.Quantile(xs, q))
}

// Max returns the largest observation, or zero when empty.
func (h *Histogram) Max() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	max := h.samples[0]
	for _, s := range h.samples[1:] {
		if s > max {
			max = s
		}
	}
	return max
}

// Merge folds every observation of other into h. The receiver then
// summarizes the union of both sample sets; other is unchanged.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	h.samples = append(h.samples, other.samples...)
	h.sum += other.sum
}

// String renders "n=.. mean=.. p50=.. p99=.. max=..".
func (h *Histogram) String() string {
	if len(h.samples) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.N(), h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.Max())
}

// Counters is a named-counter set with deterministic rendering order.
type Counters struct {
	values map[string]int64
}

// NewCounters returns an empty set.
func NewCounters() *Counters { return &Counters{values: map[string]int64{}} }

// Add increments a counter. The zero value is usable.
func (c *Counters) Add(name string, delta int64) {
	if c.values == nil {
		c.values = map[string]int64{}
	}
	c.values[name] += delta
}

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	out := make([]string, 0, len(c.values))
	for k := range c.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a copy of the counter values, suitable for
// aggregation after the Counters' producer has moved on.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.values))
	for k, v := range c.values {
		out[k] = v
	}
	return out
}

// String renders "a=1 b=2" in name order.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, c.values[name])
	}
	return b.String()
}

// Table renders fixed-width text tables.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends one row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns and a separator rule.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
