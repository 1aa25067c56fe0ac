package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.N() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should be zero-valued")
	}
	for i := 1; i <= 10; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.N() != 10 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Mean(); got != 5500*time.Microsecond {
		t.Fatalf("Mean = %v", got)
	}
	if h.Max() != 10*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
	if got := h.Percentile(0.5); got != 5500*time.Microsecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(1); got != 10*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if !strings.Contains(h.String(), "n=10") {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramStringEmpty(t *testing.T) {
	var h Histogram
	if h.String() != "n=0" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("beta", 2)
	c.Add("alpha", 1)
	c.Add("beta", 3)
	if got := c.Snapshot(); len(got) != 2 || got["beta"] != 5 || got["alpha"] != 1 {
		t.Fatal("counter values wrong")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("Names = %v", names)
	}
	if got := c.String(); got != "alpha=1 beta=5" {
		t.Fatalf("String = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("n", "h", "fw")
	tb.AddRow(125, 3, 0.99968)
	tb.AddRow(1000, 3, 0.995)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "n") || !strings.Contains(lines[0], "fw") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[2], "125") || !strings.Contains(lines[2], "1.000") == strings.Contains(lines[2], "0.99968") {
		// float formatting: %.3f
	}
	if !strings.Contains(lines[2], "1.000") {
		t.Fatalf("float not rendered with 3 decimals: %q", lines[2])
	}
	if !strings.Contains(lines[3], "0.995") {
		t.Fatalf("row 2 wrong: %q", lines[3])
	}
	// Columns aligned: both data lines have the same prefix width up
	// to the second column.
	if len(lines[1]) < len("n  h  fw") {
		t.Fatalf("separator too short: %q", lines[1])
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", 1)
	tb.AddRow("longer-name", 22)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// The value column starts at the same offset in both data rows.
	idx2 := strings.Index(lines[2], "1")
	idx3 := strings.Index(lines[3], "22")
	if idx2 != idx3 {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}
