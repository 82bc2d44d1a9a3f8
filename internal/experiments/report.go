// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5), and the extensions beyond it. Each section
// is a table literal: a base scenario, the legs that vary it — each
// evaluated on the planes of internal/plane: the analytical plane for
// the Theorem 1 prediction, the simulator plane for the "Experiment"
// measurement (the paper's §4.5 estimators), the live TCP plane for the
// end-to-end check — and the columns that read a leg's results in the
// units the paper reports. One engine, section.run, runs them all.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/plane"
	"memqlat/internal/stats"
)

// Report is one regenerated table or figure: its experiment ID (e.g.
// "table3", "fig7"), what the paper artifact shows, the header cells,
// the pre-formatted data cells, notes carrying paper reference values
// and caveats, and the runner's wall time.
type Report struct {
	ID, Title string
	Columns   []string
	Rows      [][]string
	Notes     []string
	Elapsed   time.Duration
}

// CSV renders the report as RFC-4180 CSV (header + rows), the input a
// plotting tool needs to regenerate the paper's figures graphically.
func (r *Report) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.WriteAll(append([][]string{r.Columns}, r.Rows...)) // a strings.Builder does not fail
	return b.String()
}

// Render formats the report as an aligned text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s (ran in %v)\n", r.ID, r.Title, r.Elapsed.Round(time.Millisecond))
	widths, dashes := make([]int, len(r.Columns)), make([]string, len(r.Columns))
	for _, row := range append([][]string{r.Columns}, r.Rows...) {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	for _, row := range append([][]string{r.Columns, dashes}, r.Rows...) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Budget scales the measurement effort of every runner: the per-point
// fork-join sample size, the per-server key-stream sample size, and
// the seed that roots all randomness.
type Budget struct {
	Requests      int
	KeysPerServer int
	Seed          uint64
}

// Quick is sized for CI (seconds per experiment).
var Quick = Budget{Requests: 4000, KeysPerServer: 120000, Seed: 1}

// Full approaches the paper's 10-minute testbed runs.
var Full = Budget{Requests: 40000, KeysPerServer: 1000000, Seed: 1}

// Experiment couples an ID with its runner. Run with live false skips
// the legs on the live TCP plane, the ones that take wall-clock time and
// do not repeat under a seed.
type Experiment struct {
	ID    string
	Title string
	Run   func(b Budget, live bool) (*Report, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(sections))
	for i, s := range sections {
		out[i] = Experiment{s.id, s.title, s.run}
	}
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	var known []string
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
}

// A section is one REPRO table as data. run evaluates its legs in order
// and renders each leg with cells as one row of cols. What a column
// cannot say — rows that are not one per leg, notes drawn from a run,
// a table no plane computes — goes in more, which sees every run.
type section struct {
	id, title string
	base      plane.Scenario
	legs      []leg
	cols      []col
	notes     []string
	more      func(b Budget, rep *Report, runs []row) error
}

// A leg is one run of the section's base scenario: budgeted, reseeded
// by seed, changed by mut and evaluated on each plane of on, in order.
// cells are its row's fixed cells, which the columns with no cell func
// take in order; a leg on no plane is the fixed row cells. check vets
// the run, given the runs before it.
type leg struct {
	cells []string
	on    []plane.Plane
	seed  uint64
	mut   func(*plane.Scenario) error
	check func(r row, prior []row) error
}

// A col is one column: its header and the cell it reads off a leg's
// run (nil: the leg's next fixed cell).
type col struct {
	head string
	cell func(r row) string
}

// A row is one leg's run: its fixed cells, the scenario it ran and one
// result per plane.
type row struct {
	cells []string
	s     plane.Scenario
	rs    []*plane.Result
}

// on is the result of the named plane (nil when the leg did not run it).
func (r row) on(name string) *plane.Result {
	for _, res := range r.rs {
		if res.Plane == name {
			return res
		}
	}
	return nil
}

// or renders the named plane's result by f, "-" when the leg did not
// run it.
func (r row) or(name string, f func(*plane.Result) string) string {
	if res := r.on(name); res != nil {
		return f(res)
	}
	return "-"
}

// last is the leg's last result: the measured half of a model+measured
// leg.
func (r row) last() *plane.Result { return r.rs[len(r.rs)-1] }

// The plane lists legs run on.
var (
	onModel      = []plane.Plane{plane.ModelPlane{}}
	onSim        = []plane.Plane{plane.SimPlane{}}
	onModelSim   = []plane.Plane{plane.ModelPlane{}, plane.SimPlane{}}
	onIntegrated = []plane.Plane{plane.SimPlane{Mode: plane.SimIntegrated}}
	onLive       = []plane.Plane{plane.LivePlane{}}
)

// run is the engine: it runs the legs in order (those on the live
// plane only when live is set) and builds the report, which it rejects
// when a row is not as wide as the columns.
func (sec *section) run(b Budget, live bool) (*Report, error) {
	start := time.Now()
	rep := &Report{ID: sec.id, Title: sec.title, Notes: slices.Clone(sec.notes)}
	for _, c := range sec.cols {
		rep.Columns = append(rep.Columns, c.head)
	}
	var runs []row
	for _, l := range sec.legs {
		if !live && slices.ContainsFunc(l.on, func(p plane.Plane) bool { return p.Name() == "live" }) {
			continue
		}
		r, err := l.run(sec.base, b)
		if err == nil && l.check != nil {
			err = l.check(r, runs)
		}
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		if len(l.cells) > 0 {
			rep.Rows = append(rep.Rows, sec.cells(l, r))
		}
	}
	if sec.more != nil {
		if err := sec.more(b, rep, runs); err != nil {
			return nil, err
		}
	}
	for i, cells := range rep.Rows {
		if len(cells) != len(rep.Columns) {
			return nil, fmt.Errorf("experiments: %s row %d has %d cells under %d columns",
				sec.id, i, len(cells), len(rep.Columns))
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// cells renders a leg's own row.
func (sec *section) cells(l leg, r row) []string {
	if len(l.on) == 0 {
		return l.cells
	}
	var out []string
	fixed := l.cells
	for _, c := range sec.cols {
		if c.cell != nil {
			out = append(out, c.cell(r))
		} else if len(fixed) > 0 {
			out, fixed = append(out, fixed[0]), fixed[1:]
		}
	}
	return out
}

// run evaluates the leg on each of its planes.
func (l leg) run(base plane.Scenario, b Budget) (row, error) {
	s := base
	s.Requests, s.KeysPerServer, s.Seed = b.Requests, b.KeysPerServer, b.Seed+l.seed
	if l.mut != nil {
		if err := l.mut(&s); err != nil {
			return row{}, err
		}
	}
	r := row{cells: l.cells, s: s}
	for _, p := range l.on {
		ps := s
		if p.Name() == "sim-integrated" {
			ps.Requests = min(ps.Requests, 6000) // the recorded rows were measured at this cap
		}
		res, err := p.Run(context.Background(), ps)
		if err != nil {
			return row{}, fmt.Errorf("%s %v: %w", p.Name(), l.cells, err)
		}
		r.rs = append(r.rs, res)
	}
	return r, nil
}

// reseeded moves the seed by by, so two planes of a leg draw apart.
type reseeded struct {
	plane.Plane
	by uint64
}

func (p reseeded) Run(ctx context.Context, s plane.Scenario) (*plane.Result, error) {
	s.Seed += p.by
	return p.Plane.Run(ctx, s)
}

// sweep is a Theorem-1-vs-Experiment sweep: one model+sim leg per
// value, labelled by cells, set by mut, the sim leg of value i drawing
// at seed0+i.
func sweep[T any](seed0 uint64, vals []T, cells func(T) []string, mut func(*plane.Scenario, T) error) []leg {
	legs := make([]leg, len(vals))
	for i, v := range vals {
		legs[i] = leg{cells: cells(v), on: onModelSim, seed: seed0 + uint64(i),
			mut: func(s *plane.Scenario) error { return mut(s, v) }}
	}
	return legs
}

// lift sets the model half of s to c; the rest of s stays.
func lift(s *plane.Scenario, c *core.Config) error {
	s.Config = *c
	return nil
}

// schedule parses a fault schedule this package spells as a constant.
func schedule(spec string) fault.Schedule {
	s, err := fault.ParseSchedule(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// heads are columns a section's more fills in.
func heads(names ...string) []col {
	cols := make([]col, len(names))
	for i, n := range names {
		cols[i].head = n
	}
	return cols
}

// columns is one column per head, each reading its cell of f: for
// columns that share their arithmetic.
func columns(f func(r row) []string, heads ...string) []col {
	cols := make([]col, len(heads))
	for i, h := range heads {
		cols[i] = col{h, func(r row) string { return f(r)[i] }}
	}
	return cols
}

// The columns the sections share.
var (
	theoryTS   = col{"Theorem 1", func(r row) string { return us(r.on("model").TS.Hi) }}
	measuredTS = col{"Experiment", func(r row) string { return us(r.on("sim").TS.Mid()) }}
	totalCol   = col{"E[T(N)]", func(r row) string { return band(r.last(), r.last().Total) }}
)

// band renders b as the model's "lo ~ hi" band, or as the point a
// measured plane collapses it to.
func band(res *plane.Result, b core.Bounds) string {
	if res.Total.Lo != res.Total.Hi {
		return fmt.Sprintf("%s ~ %s", us(b.Lo), us(b.Hi))
	}
	return us(b.Mid())
}

// quantile renders the p-quantile of a measured sample ("-" without one).
func quantile(h *stats.Histogram, p float64, render func(float64) string) string {
	if h != nil && h.Count() > 0 {
		if v, err := h.Quantile(p); err == nil {
			return render(v)
		}
	}
	return "-"
}

// us renders a seconds quantity in microseconds like the paper's tables.
func us(seconds float64) string { return fmt.Sprintf("%.0fµs", seconds*1e6) }

// ms renders a seconds quantity in milliseconds.
func ms(seconds float64) string { return fmt.Sprintf("%.3fms", seconds*1e3) }

// lat renders a latency adaptively (ns/µs/ms) with three significant
// digits so that sweeps spanning decades stay readable and parseable.
func lat(seconds float64) string {
	switch {
	case seconds == 0:
		return "0µs"
	case seconds < 1e-6:
		return fmt.Sprintf("%.3gns", seconds*1e9)
	case seconds < 1e-3:
		return fmt.Sprintf("%.3gµs", seconds*1e6)
	default:
		return fmt.Sprintf("%.3gms", seconds*1e3)
	}
}

// pct renders a fraction as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }
