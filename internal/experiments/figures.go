package experiments

import (
	"context"
	"fmt"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/plane"
	"memqlat/internal/sim"
	"memqlat/internal/workload"
)

// tsPoint runs one sweep point through two planes: the analytical
// plane's Theorem 1 prediction plus the simulator plane's §4.5
// estimate of E[TS(N)].
func tsPoint(model *core.Config, b Budget, seedOffset uint64) (theory, measured float64, err error) {
	mres, err := modelRun("sweep", model, b)
	if err != nil {
		return 0, 0, err
	}
	sres, err := simRun("sweep", model, b, seedOffset)
	if err != nil {
		return 0, 0, err
	}
	return mres.TS.Hi, sres.TS.Mid(), nil
}

// Fig5 sweeps the concurrent probability q from 0 to 0.5 (paper Fig. 5).
func Fig5(b Budget) (*Report, error) {
	start := time.Now()
	var rows [][]string
	for i, q := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		model := workload.WithQ(q)
		theory, measured, err := tsPoint(model, b, uint64(i))
		if err != nil {
			return nil, fmt.Errorf("q=%v: %w", q, err)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", q), us(theory), us(measured),
		})
	}
	return &Report{
		ID:      "fig5",
		Title:   "E[TS(N)] vs concurrent probability q (λ=62.5K fixed)",
		Columns: []string{"q", "Theorem 1", "Experiment"},
		Rows:    rows,
		Notes: []string{
			"paper Fig. 5: ~350µs at q=0 rising to ~650µs at q=0.5 — E[TS(N)] = Θ(1/(1-q))",
		},
		Elapsed: time.Since(start),
	}, nil
}

// Fig6 sweeps the burst degree ξ from 0 to 0.6 (paper Fig. 6).
func Fig6(b Budget) (*Report, error) {
	start := time.Now()
	var rows [][]string
	for i, xi := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6} {
		model := workload.WithXi(xi)
		theory, measured, err := tsPoint(model, b, 100+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("xi=%v: %w", xi, err)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", xi), us(theory), us(measured),
		})
	}
	return &Report{
		ID:      "fig6",
		Title:   "E[TS(N)] vs burst degree ξ",
		Columns: []string{"ξ", "Theorem 1", "Experiment"},
		Rows:    rows,
		Notes: []string{
			"paper Fig. 6: latency grows from ~300µs (Poisson) past 1.2ms at ξ=0.6",
		},
		Elapsed: time.Since(start),
	}, nil
}

// Fig7 sweeps the per-server arrival rate λ (paper Fig. 7) and reports
// the knee the paper calls the latency cliff.
func Fig7(b Budget) (*Report, error) {
	start := time.Now()
	var rows [][]string
	for i, lam := range []float64{10000, 20000, 30000, 40000, 50000, 55000, 60000, 65000, 70000, 75000} {
		model := workload.WithLambda(lam)
		theory, measured, err := tsPoint(model, b, 200+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("lambda=%v: %w", lam, err)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0fK", lam/1000),
			pct(lam / workload.FacebookMuS),
			us(theory), us(measured),
		})
	}
	cliff, err := core.CliffUtilization(workload.FacebookXi, workload.FacebookQ, core.CliffDeltaThreshold)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "fig7",
		Title:   "E[TS(N)] vs per-server arrival rate λ (µS=80K)",
		Columns: []string{"λ", "ρS", "Theorem 1", "Experiment"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("detected cliff utilization for ξ=0.15: %s (paper: ~75%%, λ≈60K)", pct(cliff)),
			"paper Fig. 7: gentle growth below 50K, sharp past 60K",
		},
		Elapsed: time.Since(start),
	}, nil
}

// theoryCurveByXi renders a theory-only λ or µS sweep for several burst
// degrees (papers Figs. 8 and 9).
func theoryCurveByXi(id, title, varName string, values []float64,
	makeModel func(xi, v float64) *core.Config, paperNote string) (*Report, error) {
	start := time.Now()
	xis := []float64{0, 0.6, 0.8}
	columns := []string{varName}
	for _, xi := range xis {
		columns = append(columns, fmt.Sprintf("ξ=%.1f", xi))
	}
	var rows [][]string
	for _, v := range values {
		row := []string{fmt.Sprintf("%.0fK", v/1000)}
		for _, xi := range xis {
			model := makeModel(xi, v)
			ts, err := model.ExpectedTSPoint()
			if err != nil {
				row = append(row, "unstable")
				continue
			}
			row = append(row, us(ts))
		}
		rows = append(rows, row)
	}
	return &Report{
		ID:      id,
		Title:   title,
		Columns: columns,
		Rows:    rows,
		Notes:   []string{paperNote},
		Elapsed: time.Since(start),
	}, nil
}

// Fig8 is the theory-only λ sweep for ξ ∈ {0, 0.6, 0.8} (paper Fig. 8).
func Fig8(Budget) (*Report, error) {
	return theoryCurveByXi("fig8",
		"Theory: E[TS(N)] vs λ for three burst degrees (µS=80K)", "λ",
		[]float64{10000, 20000, 30000, 40000, 45000, 50000, 55000, 60000, 65000, 70000, 75000},
		func(xi, lam float64) *core.Config {
			m := workload.WithLambda(lam)
			m.Xi = xi
			return m
		},
		"paper Fig. 8: cliffs at λ≈65K (ξ=0), 45K (ξ=0.6), 30K (ξ=0.8) — i.e. ρS 80%/55%/40%")
}

// Fig9 is the theory-only µS sweep for ξ ∈ {0, 0.6, 0.8} (paper Fig. 9).
func Fig9(Budget) (*Report, error) {
	return theoryCurveByXi("fig9",
		"Theory: E[TS(N)] vs µS for three burst degrees (λ=62.5K)", "µS",
		[]float64{65000, 70000, 80000, 90000, 100000, 110000, 120000, 140000, 160000, 180000, 200000},
		func(xi, muS float64) *core.Config {
			m := workload.WithMuS(muS)
			m.Xi = xi
			return m
		},
		"paper Fig. 9: cliffs at µS≈85K (ξ=0), 110K (ξ=0.6), 160K (ξ=0.8) — same ρS as Fig. 8")
}

// Fig10 sweeps the largest load ratio p1 at a fixed aggregate stream
// Λ=80K (paper Fig. 10).
func Fig10(b Budget) (*Report, error) {
	start := time.Now()
	var rows [][]string
	for i, p1 := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9} {
		model, err := workload.WithImbalance(p1, 80000)
		if err != nil {
			return nil, err
		}
		theory, measured, err := tsPoint(model, b, 300+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("p1=%v: %w", p1, err)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p1),
			pct(p1 * 80000 / workload.FacebookMuS),
			us(theory), us(measured),
		})
	}
	return &Report{
		ID:      "fig10",
		Title:   "E[TS(N)] vs largest load ratio p1 (Λ=80K, ξ=0.15, µS=80K)",
		Columns: []string{"p1", "max ρS", "Theorem 1", "Experiment"},
		Rows:    rows,
		Notes: []string{
			"paper Fig. 10: cliff at p1=0.75 (heaviest server 60K keys/s, ρS=75%) — " +
				"load balancing only matters past the cliff",
		},
		Elapsed: time.Since(start),
	}, nil
}

// Fig11 sweeps the cache miss ratio for small and large N (paper
// Fig. 11, both panels).
func Fig11(b Budget) (*Report, error) {
	start := time.Now()
	ns := []int{1, 4, 10, 100, 1000, 10000}
	ratios := []float64{1e-4, 1e-3, 1e-2, 2e-2, 5e-2, 1e-1}
	columns := []string{"r"}
	for _, n := range ns {
		columns = append(columns, fmt.Sprintf("N=%d thr", n), fmt.Sprintf("N=%d exp", n))
	}
	var rows [][]string
	for _, r := range ratios {
		row := []string{fmt.Sprintf("%g", r)}
		for _, n := range ns {
			model := workload.WithMissRatio(r, n)
			td, err := model.ExpectedTD()
			if err != nil {
				return nil, err
			}
			res, err := sim.SimulateMissStage(sim.MissStageConfig{
				N: n, MissRatio: r, MuD: model.MuD,
				Requests: b.Requests * 5, Seed: b.Seed,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, lat(td), lat(res.TDQuantileEstimate(model.MuD)))
		}
		rows = append(rows, row)
	}
	return &Report{
		ID:      "fig11",
		Title:   "E[TD(N)] vs cache miss ratio r (µD=1K)",
		Columns: columns,
		Rows:    rows,
		Notes: []string{
			"paper Fig. 11: Θ(r) growth for small N (left panel), Θ(log r) for large N (right panel)",
		},
		Elapsed: time.Since(start),
	}, nil
}

// Fig12 sweeps keys-per-request N for the server stage (paper Fig. 12).
func Fig12(b Budget) (*Report, error) {
	start := time.Now()
	var rows [][]string
	for i, n := range []int{1, 10, 100, 1000, 10000} {
		model := workload.WithN(n)
		model.MissRatio = 0 // isolate TS
		reqs := b.Requests
		if n >= 1000 {
			reqs = b.Requests / 10
			if reqs < 200 {
				reqs = 200
			}
		}
		mres, err := modelRun("fig12", model, b)
		if err != nil {
			return nil, err
		}
		s := scenarioFor("fig12", model, b, 400+uint64(i))
		s.Requests = reqs
		sres, err := plane.SimPlane{}.Run(context.Background(), s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), us(mres.TS.Hi), us(sres.TS.Mid()),
		})
	}
	return &Report{
		ID:      "fig12",
		Title:   "E[TS(N)] vs keys per request N (Facebook workload, Θ(log N))",
		Columns: []string{"N", "Theorem 1", "Experiment"},
		Rows:    rows,
		Notes:   []string{"paper Fig. 12: ~75µs at N=1 growing logarithmically to ~650µs at N=10⁴"},
		Elapsed: time.Since(start),
	}, nil
}

// Fig13 sweeps keys-per-request N for the database stage (paper
// Fig. 13).
func Fig13(b Budget) (*Report, error) {
	start := time.Now()
	var rows [][]string
	for _, n := range []int{1, 10, 100, 1000, 10000, 100000, 1000000} {
		model := workload.WithN(n)
		td, err := model.ExpectedTD()
		if err != nil {
			return nil, err
		}
		res, err := sim.SimulateMissStage(sim.MissStageConfig{
			N: n, MissRatio: model.MissRatio, MuD: model.MuD,
			Requests: b.Requests * 5, Seed: b.Seed + 500,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), lat(td), lat(res.TDQuantileEstimate(model.MuD)),
		})
	}
	return &Report{
		ID:      "fig13",
		Title:   "E[TD(N)] vs keys per request N (r=1%, µD=1K, Θ(log N))",
		Columns: []string{"N", "Theorem 1", "Experiment"},
		Rows:    rows,
		Notes:   []string{"paper Fig. 13: sub-ms for N≤10², ~2.3ms at 10⁴, ~9.2ms at 10⁶"},
		Elapsed: time.Since(start),
	}, nil
}
