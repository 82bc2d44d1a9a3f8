package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// An e2eSpec is an end-to-end metric and its bound: the share of the
// baseline's median by which it may worsen before that counts as a
// regression. BENCHMARK.json lists the same table; a test keeps the two
// equal. README "Bounds" says how the numbers were chosen.
type e2eSpec struct {
	name, unit string
	lowerBest  bool
	bound      float64
}

var e2eSpecs = []e2eSpec{
	{"setup_s", "s", true, 0.25},
	{"throughput_ops_s", "1/s", false, 0.25},
	{"live_heap_mb", "MB", true, 0.10},
}

// errorFracBound is the absolute error_frac a run may reach before the
// command exits non-zero.
const errorFracBound = 0.001

// A metric is one reported value. n is the number of samples behind it
// (requests, spans, rounds - whatever the value was computed from).
type metric struct {
	name, unit string
	value      float64
	n          int64
	spread     float64 // (max-min)/median over the values it is the median of; e2e only
	bound      float64 // e2e only
}

// A report is everything one invocation measured for one workload.
type report struct {
	w         *workload
	hash      uint64 // of the seeded inputs
	e2es      []metric
	layers    []metric
	notes     []string
	problems  []string // correctness violations other than failed requests
	attempted int64
	failed    int64
}

func (r *report) e2e(name string, n int64, perRound []float64) {
	for _, s := range e2eSpecs {
		if s.name == name {
			r.e2es = append(r.e2es, metric{name, s.unit, median(perRound), n, spread(perRound), s.bound})
			return
		}
	}
	panic("unknown end-to-end metric " + name)
}

func (r *report) layer(name, unit string, n int64, v float64) {
	r.layers = append(r.layers, metric{name: name, unit: unit, value: v, n: n})
}

// get returns a per-layer metric already measured in this run.
func (r *report) get(name string) metric {
	for _, m := range r.layers {
		if m.name == name {
			return m
		}
	}
	panic("layer metric " + name + " not measured yet")
}

func (r *report) value(name string) float64 { return r.get(name).value }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) errorFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// result is the last line of standard output: the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table, then the result line.
func (r *report) print(out io.Writer) error {
	fmt.Fprintf(out, "workload %s  inputs %016x  C=%d\n", r.w.name, r.hash, conns)
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, m := range r.e2es {
		bound := "ungated"
		if r.w.ungated == "" {
			bound = fmt.Sprintf("%.0f%%", 100*m.bound)
		}
		fmt.Fprintf(out, "  e2e    %-28s %14.4f %-6s n=%-9d spread=%5.1f%%  bound=%s\n",
			m.name, m.value, m.unit, m.n, 100*m.spread, bound)
		res.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	for _, m := range r.layers {
		fmt.Fprintf(out, "  layer  %-28s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		res.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	fmt.Fprintf(out, "  check  %-28s %14.6f %-6s ops_attempted=%d ops_failed=%d bound=+%g\n",
		"error_frac", r.errorFrac(), "ratio", r.attempted, r.failed, errorFracBound)
	if r.w.ungated != "" {
		fmt.Fprintf(out, "  note   ungated: %s\n", r.w.ungated)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  note   %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  WRONG  %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
