package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// tiny keeps CI runtimes low; individual experiments get deeper checks
// in their own tests below.
var tiny = Budget{Requests: 800, KeysPerServer: 40000, Seed: 1}

func TestAllRegistryComplete(t *testing.T) {
	want := []string{"table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "table4", "prop1", "prop2",
		"ext-tails", "ext-arrivals", "ext-eq6", "ext-redundancy",
		"ext-integrated", "ext-elasticity", "ext-resilience", "crossplane",
		"hotkey", "noisy", "proxied", "tiered", "live", "drift"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("entry %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("entry %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig7")
	if err != nil || e.ID != "fig7" {
		t.Fatalf("ByID: %+v %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

// runID runs the experiment id at the tiny budget, live legs included.
func runID(t *testing.T, id string) *Report {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(tiny, true)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReportRender(t *testing.T) {
	r := &Report{
		ID: "x", Title: "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	out := r.Render()
	for _, want := range []string{"== x", "demo", "a note", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	r.Rows = append(r.Rows, []string{"a,b", `say "hi"`})
	if got, want := r.CSV(), "a,bb\n1,2\n333,4\n\"a,b\",\"say \"\"hi\"\"\"\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	// The engine builds every report; a row wider or narrower than the
	// columns is an error there, never a panic or a ragged CSV line.
	for _, cells := range [][]string{{"1", "2", "3"}, {"1"}} {
		sec := &section{id: "x", cols: heads("a", "bb"), more: func(_ Budget, rep *Report, _ []row) error {
			rep.Rows = append(rep.Rows, []string{"1", "2"}, cells)
			return nil
		}}
		rep, err := sec.run(tiny, false)
		want := fmt.Sprintf("experiments: x row 1 has %d cells under 2 columns", len(cells))
		if err == nil || err.Error() != want {
			t.Errorf("%d-cell row: report %v, error %v; want %q", len(cells), rep, err, want)
		}
	}
}

// parseUs reads a "123µs" cell back to seconds.
func parseUs(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell, "µs")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v * 1e-6
}

func parseMs(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell, "ms")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v * 1e-3
}

// parseLat reads adaptive "12.3ns"/"45.6µs"/"7.89ms" cells to seconds.
func parseLat(t *testing.T, cell string) float64 {
	t.Helper()
	unit := 1.0
	s := cell
	switch {
	case strings.HasSuffix(cell, "ns"):
		unit, s = 1e-9, strings.TrimSuffix(cell, "ns")
	case strings.HasSuffix(cell, "µs"):
		unit, s = 1e-6, strings.TrimSuffix(cell, "µs")
	case strings.HasSuffix(cell, "ms"):
		unit, s = 1e-3, strings.TrimSuffix(cell, "ms")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v * unit
}

func TestTable3ReproducesPaper(t *testing.T) {
	r := runID(t, "table3")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// TD theory cell (row 2, col 1) must be ~836µs.
	td := parseUs(t, r.Rows[2][1])
	if td < 800e-6 || td > 880e-6 {
		t.Errorf("TD theory = %v", td)
	}
	// TS experiment within 15% of the 351-366µs band.
	ts := parseUs(t, r.Rows[1][2])
	if ts < 300e-6 || ts > 420e-6 {
		t.Errorf("TS experiment = %v", ts)
	}
}

func TestFig4BoundsHold(t *testing.T) {
	r := runID(t, "fig4")
	for _, row := range r.Rows {
		if row[4] != "yes" {
			t.Errorf("k=%s outside bounds: %v", row[0], row)
		}
	}
}

func TestFig5Monotone(t *testing.T) {
	r := runID(t, "fig5")
	prevTheory, prevExp := 0.0, 0.0
	for _, row := range r.Rows {
		theory, exp := parseUs(t, row[1]), parseUs(t, row[2])
		if theory <= prevTheory {
			t.Errorf("theory not increasing at q=%s", row[0])
		}
		if exp <= prevExp*0.9 { // simulation noise tolerance
			t.Errorf("experiment not increasing at q=%s", row[0])
		}
		// Experiment within 20% of theory.
		if exp < theory*0.8 || exp > theory*1.2 {
			t.Errorf("q=%s: exp %v vs theory %v", row[0], exp, theory)
		}
		prevTheory, prevExp = theory, exp
	}
}

func TestFig7CliffShape(t *testing.T) {
	r := runID(t, "fig7")
	first := parseUs(t, r.Rows[0][2])
	last := parseUs(t, r.Rows[len(r.Rows)-1][2])
	if last < first*5 {
		t.Errorf("no cliff: %v -> %v", first, last)
	}
}

func TestFig8Fig9TheoryOrdering(t *testing.T) {
	r8 := runID(t, "fig8")
	// At every λ, burstier traffic must be slower (when stable).
	for _, row := range r8.Rows {
		if row[1] == "unstable" || row[3] == "unstable" {
			continue
		}
		lo := parseUs(t, row[1])
		hi := parseUs(t, row[3])
		if hi <= lo {
			t.Errorf("λ=%s: ξ=0.8 (%v) not slower than ξ=0 (%v)", row[0], hi, lo)
		}
	}
	r9 := runID(t, "fig9")
	// At every µS where all curves are stable, same ordering.
	for _, row := range r9.Rows {
		if row[1] == "unstable" || row[3] == "unstable" {
			continue
		}
		if parseUs(t, row[3]) <= parseUs(t, row[1]) {
			t.Errorf("µS=%s: burst ordering violated", row[0])
		}
	}
}

func TestFig10ImbalanceCliff(t *testing.T) {
	r := runID(t, "fig10")
	first := parseUs(t, r.Rows[0][3])
	last := parseUs(t, r.Rows[len(r.Rows)-1][3])
	if last < first*3 {
		t.Errorf("imbalance cliff missing: %v -> %v", first, last)
	}
}

func TestFig11Regimes(t *testing.T) {
	r := runID(t, "fig11")
	// For N=1 (cols 1-2), theory at r=1e-2 (row 2) should be ~10x theory
	// at r=1e-3 (row 1) — Θ(r).
	lo := parseLat(t, r.Rows[1][1])
	hi := parseLat(t, r.Rows[2][1])
	if ratio := hi / lo; ratio < 8 || ratio > 12 {
		t.Errorf("small-N ratio = %v, want ~10", ratio)
	}
	// For N=10000 (last column pair), the same decade adds only
	// a log increment.
	nCols := len(r.Columns)
	lo = parseLat(t, r.Rows[1][nCols-2])
	hi = parseLat(t, r.Rows[2][nCols-2])
	if ratio := hi / lo; ratio > 2 {
		t.Errorf("large-N decade ratio = %v, want < 2 (Θ(log r))", ratio)
	}
}

func TestFig12Fig13LogGrowth(t *testing.T) {
	r12 := runID(t, "fig12")
	// Per-decade increments of theory should be roughly constant once N
	// is large (the 1→10 decade legitimately carries a smaller
	// ln(11)−ln(2) increment, so compare from the second decade on).
	var incs []float64
	for i := 1; i < len(r12.Rows); i++ {
		incs = append(incs, parseUs(t, r12.Rows[i][1])-parseUs(t, r12.Rows[i-1][1]))
	}
	for i := 2; i < len(incs); i++ {
		if incs[i] < incs[1]*0.9 || incs[i] > incs[1]*1.1 {
			t.Errorf("TS increments not log-like: %v", incs)
		}
	}
	r13 := runID(t, "fig13")
	lastTheory := parseLat(t, r13.Rows[len(r13.Rows)-1][1])
	lastExp := parseLat(t, r13.Rows[len(r13.Rows)-1][2])
	if lastTheory < 8e-3 || lastTheory > 11e-3 {
		t.Errorf("TD(10^6) theory = %v, paper shows ~9.2ms", lastTheory)
	}
	if lastExp < lastTheory*0.9 || lastExp > lastTheory*1.1 {
		t.Errorf("TD(10^6) exp %v vs theory %v", lastExp, lastTheory)
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	r := runID(t, "table4")
	if len(r.Rows) != 20 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The δ-threshold column should track the paper to within a few
	// points at low ξ.
	parsePct := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		return v / 100
	}
	for _, row := range r.Rows {
		xi, _ := strconv.ParseFloat(row[0], 64)
		got := parsePct(row[1])
		paper := paperTable4[xi]
		tol := 0.08
		if xi >= 0.5 {
			tol = 0.2 // heavy tails: detector definitions diverge more
		}
		if got < paper-tol || got > paper+tol {
			t.Errorf("ξ=%v: δ-threshold %v vs paper %v", xi, got, paper)
		}
	}
}

func TestProp1NoViolations(t *testing.T) {
	r := runID(t, "prop1")
	for _, row := range r.Rows {
		if row[3] != "true" {
			t.Errorf("Prop 1 violated: %v", row)
		}
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "VIOLATIONS") {
			t.Errorf("note: %s", n)
		}
	}
}

func TestProp2SmallErrors(t *testing.T) {
	r := runID(t, "prop2")
	for _, row := range r.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("cell %q: %v", cell, err)
			}
			if v > 1e-3 {
				t.Errorf("scale %s: error %v too large", row[0], v)
			}
		}
	}
}

func TestLiveStack(t *testing.T) {
	if testing.Short() {
		t.Skip("live stack run takes ~2s of wall time")
	}
	r := runID(t, "live")
	if len(r.Rows) < 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Mean live latency should be positive and within 10x of theory.
	var meanLive, meanTheory float64
	for _, row := range r.Rows {
		if row[0] == "mean latency" {
			meanLive = parseMs(t, row[1])
			cell := strings.TrimPrefix(row[2], "GI^X/M/1 mean sojourn ")
			meanTheory = parseMs(t, cell)
		}
	}
	if meanLive <= 0 || meanTheory <= 0 {
		t.Fatalf("missing means: live=%v theory=%v", meanLive, meanTheory)
	}
	if meanLive > meanTheory*10 || meanLive < meanTheory/10 {
		t.Errorf("live mean %v vs theory %v diverge beyond 10x", meanLive, meanTheory)
	}
}

func TestProxiedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("includes two live stack runs")
	}
	r := runID(t, "proxied")
	// 3 load points × 3 routing rows + 2 live rows.
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(r.Columns))
		}
		// Proxied rows carry a positive measured total and hop mean.
		if row[1] == "proxied" && (row[3] == "-" || row[4] == "-" || row[4] == "0µs") {
			t.Errorf("proxied row missing measurements: %v", row)
		}
	}
}

func TestNoisyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("includes a live stack run")
	}
	r := runID(t, "noisy")
	// 3 legs × (2 tenants + the "all" row).
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(r.Columns))
		}
		switch {
		case strings.HasPrefix(row[1], "victim"):
			// The victim never sheds: analytic 0% on the model row, a
			// measured shed count of 0 on the sim and live rows.
			if row[4] != "0%" && row[6] != "0" {
				t.Errorf("victim row shows sheds: %v", row)
			}
		case strings.HasPrefix(row[1], "aggressor"):
			if shed, err := strconv.Atoi(row[6]); row[6] != "-" && (err != nil || shed <= 0) {
				t.Errorf("aggressor row shed nothing: %v", row)
			}
			if row[4] == "0%" {
				t.Errorf("aggressor row shows 0%% shed: %v", row)
			}
		}
	}
}

func TestTieredExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("includes a live stack run")
	}
	r := runID(t, "tiered")
	// 5 sweep rows + 1 live row.
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(r.Columns))
		}
		switch {
		case i == 0:
			// The all-RAM split has no tier: no disk hits, no β.
			if row[6] != "0" || row[8] != "-" {
				t.Errorf("all-RAM row shows tier activity: %v", row)
			}
		default:
			// Every tiered row measured real disk hits at roughly the
			// MRC-predicted fraction.
			hits, err := strconv.Atoi(row[6])
			if err != nil || hits <= 0 {
				t.Errorf("row %d measured no disk hits: %v", i, row)
				continue
			}
			pred, err1 := strconv.ParseFloat(row[2], 64)
			meas, err2 := strconv.ParseFloat(row[8], 64)
			if err1 != nil || err2 != nil {
				t.Errorf("row %d has unparseable β cells: %v", i, row)
				continue
			}
			slack := 0.15
			if strings.HasPrefix(row[0], "live") {
				slack = pred / 2 // live gets the 1.5× band of the cross-plane test
			}
			if meas < pred-slack || meas > pred+slack {
				t.Errorf("row %d: measured β %.2f far from predicted %.2f: %v", i, meas, pred, row)
			}
		}
	}
}

func TestExtTails(t *testing.T) {
	r := runID(t, "ext-tails")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The simulated TS quantile should fall within (or near) the theory
	// band at p50/p90; deeper tails probe the per-key 0.9999+ quantile,
	// which a quick-budget finite sample truncates, so only a loose
	// lower-side check applies there (see the report note).
	prevSim := 0.0
	for i, row := range r.Rows {
		band := row[1]
		band = strings.TrimPrefix(band, "[")
		band = strings.TrimSuffix(band, "]")
		parts := strings.Split(band, ", ")
		if len(parts) != 2 {
			t.Fatalf("band cell %q", row[1])
		}
		lo := parseUs(t, parts[0])
		hi := parseUs(t, parts[1])
		got := parseUs(t, row[2])
		if got <= prevSim {
			t.Errorf("%s: sim TS %v not increasing", row[0], got)
		}
		prevSim = got
		if i < 2 { // p50, p90: strict band
			if got < lo*0.85 || got > hi*1.15 {
				t.Errorf("%s: sim TS %v outside band [%v, %v]", row[0], got, lo, hi)
			}
			continue
		}
		if got < lo*0.5 || got > hi*1.3 { // p99, p99.9: loose envelope
			t.Errorf("%s: sim TS %v far from band [%v, %v]", row[0], got, lo, hi)
		}
	}
	// TD sim must track the exact closed form within 10% at p99.
	tdTheory := parseLat(t, r.Rows[2][3])
	tdSim := parseLat(t, r.Rows[2][4])
	if tdTheory <= 0 || tdSim < tdTheory*0.85 || tdSim > tdTheory*1.15 {
		t.Errorf("p99 TD: sim %v vs theory %v", tdSim, tdTheory)
	}
}

func TestExtArrivalsOrdering(t *testing.T) {
	r := runID(t, "ext-arrivals")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Latency must rank by arrival variability: Erlang < Poisson <
	// GPareto < Hyperexp, in both theory and simulation.
	for col := 2; col <= 3; col++ {
		prev := 0.0
		for _, row := range r.Rows {
			v := parseUs(t, row[col])
			if v <= prev {
				t.Errorf("col %d: %s (%v) not above previous (%v)", col, row[0], v, prev)
			}
			prev = v
		}
	}
}

func TestExtEq6Ablation(t *testing.T) {
	r := runID(t, "ext-eq6")
	table1 := parseUs(t, r.Rows[0][2])
	inline := parseUs(t, r.Rows[1][2])
	simMean := parseUs(t, r.Rows[2][2])
	// The Table 1 form must be the better match to the simulated queue.
	errT1 := math.Abs(table1 - simMean)
	errInline := math.Abs(inline - simMean)
	if errT1 >= errInline {
		t.Errorf("Table 1 form (%v) no better than inline (%v) vs sim %v",
			table1, inline, simMean)
	}
	if table1 < simMean*0.9 || table1 > simMean*1.1 {
		t.Errorf("Table 1 delta mean %v vs sim %v diverge > 10%%", table1, simMean)
	}
}

func TestExtRedundancy(t *testing.T) {
	r := runID(t, "ext-redundancy")
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// At the lowest utilization the hedge must win in theory and sim.
	first := r.Rows[0]
	if parseUs(t, first[2]) >= parseUs(t, first[1]) {
		t.Errorf("low-rho theory hedge not winning: %v", first)
	}
	if parseUs(t, first[4]) >= parseUs(t, first[3])*1.05 {
		t.Errorf("low-rho sim hedge not winning: %v", first)
	}
	// At the highest utilization shown (0.45, doubled to 0.9) it must lose.
	last := r.Rows[len(r.Rows)-1]
	if last[5] != "hedge LOSES" {
		t.Errorf("high-rho verdict = %q", last[5])
	}
	// Sim tracks theory within 20%% on the hedged column everywhere.
	for _, row := range r.Rows {
		thr, sim := parseUs(t, row[2]), parseUs(t, row[4])
		if sim < thr*0.8 || sim > thr*1.2 {
			t.Errorf("rho=%s: hedged sim %v vs theory %v", row[0], sim, thr)
		}
	}
}

func TestExtIntegrated(t *testing.T) {
	r := runID(t, "ext-integrated")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The two simulators should agree within ~35% at every utilization
	// (the assumption is "acceptable", per the paper) and both should
	// increase with load.
	prevComp, prevInteg := 0.0, 0.0
	for _, row := range r.Rows {
		comp := parseUs(t, row[3])
		integ := parseUs(t, row[4])
		if comp <= prevComp || integ <= prevInteg {
			t.Errorf("rho=%s: means not increasing", row[0])
		}
		prevComp, prevInteg = comp, integ
		// The integrated system is slower (self-queueing of a request's
		// own keys), by a bounded factor.
		if integ < comp {
			t.Errorf("rho=%s: integrated %v below composition %v", row[0], integ, comp)
		}
		if integ > comp*2 {
			t.Errorf("rho=%s: simulators diverge beyond 2x (%v vs %v)", row[0], integ, comp)
		}
	}
}

func TestExtElasticity(t *testing.T) {
	r := runID(t, "ext-elasticity")
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Ranked by |elasticity| at the high-load point.
	prev := math.Inf(1)
	for _, row := range r.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("cell %q: %v", row[3], err)
		}
		if math.Abs(v) > prev+1e-9 {
			t.Errorf("ranking violated at factor %s", row[1])
		}
		prev = math.Abs(v)
	}
}

func TestFaultExtResilience(t *testing.T) {
	r := runID(t, "ext-resilience")
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	failed := func(row []string) int {
		n, err := strconv.Atoi(strings.Fields(row[3])[0])
		if err != nil {
			t.Fatalf("failed-keys cell %q: %v", row[3], err)
		}
		return n
	}
	none, retry := r.Rows[0], r.Rows[1]
	if none[0] != "none" || retry[0] != "retry" {
		t.Fatalf("unexpected policy order: %v / %v", none[0], retry[0])
	}
	if failed(none) == 0 {
		t.Fatal("no failures under the drop schedule without resilience")
	}
	if failed(retry) >= failed(none) {
		t.Errorf("retry policy did not reduce failed keys: %d vs %d",
			failed(retry), failed(none))
	}
}

func TestFaultCrossPlaneRows(t *testing.T) {
	r := runID(t, "crossplane")
	labels := []string{"model", "sim", "sim-integrated", "sim-integrated faulted",
		"sim faulted", "sim faulted+resilient"}
	// 6 mean rows plus a predicted-vs-observed quantile block:
	// p50/p95/p99 for every run.
	if want := len(labels) * 4; len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d (means + p50/p95/p99 blocks)", len(r.Rows), want)
	}
	for i, want := range labels {
		if r.Rows[i][0] != want {
			t.Errorf("row %d = %q, want %q", i, r.Rows[i][0], want)
		}
	}
	for qi, q := range []string{"p50", "p95", "p99"} {
		for li, label := range labels {
			row := r.Rows[len(labels)*(qi+1)+li]
			if want := label + " " + q; row[0] != want {
				t.Errorf("quantile row = %q, want %q", row[0], want)
			}
			if len(row) != len(r.Columns) {
				t.Errorf("quantile row %q has %d cells, want %d", row[0], len(row), len(r.Columns))
			}
		}
	}
	// The model's predicted service quantiles must be the exponential
	// shape: p99/p50 = ln(0.01)/ln(0.5) ≈ 6.64.
	svcCol := -1
	for i, c := range r.Columns {
		if c == "service" {
			svcCol = i
		}
	}
	if svcCol < 0 {
		t.Fatalf("no service column in %v", r.Columns)
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "µs"), 64)
		if err != nil {
			t.Fatalf("bad latency cell %q: %v", cell, err)
		}
		return v
	}
	p50 := parse(r.Rows[len(labels)][svcCol])
	p99 := parse(r.Rows[3*len(labels)][svcCol])
	// Exponential shape: p99/p50 = ln(0.01)/ln(0.5) ≈ 6.64 (loose bounds
	// absorb the µs rounding of the rendered cells).
	if ratio := p99 / p50; ratio < 5 || ratio > 9 {
		t.Errorf("model service p99/p50 = %.2f, want ~6.64 (exponential shape)", ratio)
	}
	// The stage columns must include the resilience stages.
	joined := strings.Join(r.Columns, " ")
	for _, col := range []string{"retry", "hedge_wait", "breaker_shed"} {
		if !strings.Contains(joined, col) {
			t.Errorf("columns missing %s: %v", col, r.Columns)
		}
	}
}

func TestDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("drift live leg takes ~6s of wall time")
	}
	// drift enforces its own acceptance bounds (detection within 5
	// windows, miss_penalty attribution, sim determinism, quiet ramp) as
	// leg checks, and errors when any is violated.
	r := runID(t, "drift")
	if len(r.Rows) != 6 {
		t.Fatalf("drift rendered %d rows, want 6 (2 sim + live + 3 ramp)", len(r.Rows))
	}
	if r.Rows[0][2] != r.Rows[1][2] {
		t.Errorf("sim detection windows differ: %s vs %s", r.Rows[0][2], r.Rows[1][2])
	}
	for _, row := range r.Rows[3:] {
		if row[6] != "0/0" {
			t.Errorf("healthy ramp row %s fired alerts: %s", row[0], row[6])
		}
	}
}

func TestHotKeyCoalescing(t *testing.T) {
	e, err := ByID("hotkey")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(tiny, false) // the six model and sim legs
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	// Memorylessness: the model's totals do not move with coalescing.
	if r.Rows[0][1] != r.Rows[1][1] {
		t.Errorf("model totals differ: %s vs %s", r.Rows[0][1], r.Rows[1][1])
	}
	fetches := func(row []string) int {
		n, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatalf("db fetches cell %q: %v", row[5], err)
		}
		return n
	}
	// Coalescing cuts the backend fetches, healthy and faulted, and
	// bounds the stalled database's cost.
	for _, pair := range [][2]int{{2, 3}, {4, 5}} {
		naive, coal := r.Rows[pair[0]], r.Rows[pair[1]]
		if fetches(coal) >= fetches(naive) {
			t.Errorf("%s fetched %d, %s %d", coal[0], fetches(coal), naive[0], fetches(naive))
		}
	}
	if parseUs(t, r.Rows[5][1]) >= parseUs(t, r.Rows[4][1]) {
		t.Errorf("coalesced faulted total %s not below naive %s", r.Rows[5][1], r.Rows[4][1])
	}
}
