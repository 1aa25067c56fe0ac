package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runStability measures the benchmark against itself: every workload
// runs in two sets of five child processes of this binary, each run
// with another seed, as the gate that compares a change with its parent
// does. Per end-to-end metric it prints each set's median and
// quartiles, how far the second median is on the worse side of the
// first, and the interquartile range of all ten values over their
// median; either beyond the metric's bound is an error. On the
// simulator workload msgs_per_op has to be the same in all ten runs.
func runStability(selected []workload, cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	const perSet = 5
	unstable := 0
	fmt.Printf("%-20s %-16s %38s %38s %8s %8s %6s\n", "workload", "metric",
		"set A median [q1, q3]", "set B median [q1, q3]", "B vs A", "IQR/med", "bound")
	for _, w := range selected {
		values := map[string][]float64{}
		for run := 0; run < 2*perSet; run++ {
			res, err := childRun(self, w.name, cfg.seed+uint64(run), cfg)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, run, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: incorrect (%d of %d ops failed)", w.name, run, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			v := values[d.name]
			a, b := spreadOf(v[:perSet]), spreadOf(v[perSet:])
			all := spreadOf(v)
			worse := (b.median - a.median) / a.median
			if d.better == "higher" {
				worse = -worse
			}
			iqr := (all.q3 - all.q1) / all.median
			verdict := ""
			exact := w.name == "sim_change_settle" && d.name == "msgs_per_op"
			if worse > d.bound || iqr > d.bound || exact && slices.Max(v) != slices.Min(v) {
				verdict = "  UNSTABLE"
				unstable++
			}
			fmt.Printf("%-20s %-16s %38s %38s %+7.2f%% %7.2f%% %5.3g%%%s\n", w.name, d.name, a, b, 100*worse, 100*iqr, 100*d.bound, verdict)
		}
	}
	if unstable > 0 {
		return fmt.Errorf("%d metric x workload pairs beyond their bound", unstable)
	}
	return nil
}

// childRun executes one untraced run in a fresh process and parses the
// result from the last line of its output.
func childRun(self, workload string, seed uint64, cfg config) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(out) // what failed is in the run's own report
		return result{}, err
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

// spread is a median with its quartiles, the way Python's
// statistics.quantiles(values, n=4) computes them.
type spread struct{ q1, median, q3 float64 }

func spreadOf(values []float64) spread {
	v := append([]float64(nil), values...)
	m := median(v)                  // sorts v
	at := func(p float64) float64 { // the exclusive method: position p*(n+1), 1-based
		pos := p * float64(len(v)+1)
		i := min(max(int(pos), 1), len(v)-1)
		return v[i-1] + (pos-float64(i))*(v[i]-v[i-1])
	}
	return spread{q1: at(0.25), median: m, q3: at(0.75)}
}

func (s spread) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3) }
