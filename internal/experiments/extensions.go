package experiments

import (
	"fmt"
	"math"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/queueing"
	"memqlat/internal/sim"
	"memqlat/internal/workload"
)

// ExtTails extends the paper beyond expectations: full tail quantiles of
// T_S(N) (bounded via the eq. 3 sandwich) and T_D(N) (exact closed-form
// CDF (1−r·e^{−µD·t})^N), validated against the simulator's per-request
// maxima. Production SLOs are percentile-based, so this is the form a
// deployer actually consumes.
func ExtTails(b Budget) (*Report, error) {
	start := time.Now()
	model := workload.Facebook()
	levels := []float64{0.5, 0.9, 0.99, 0.999}
	reports, err := model.Tails(levels)
	if err != nil {
		return nil, err
	}
	res, err := sim.SimulateRequests(sim.RequestConfig{
		Model:         model,
		Requests:      b.Requests * 4, // tails need more samples
		KeysPerServer: b.KeysPerServer,
		Seed:          b.Seed + 900,
	})
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, k := range levels {
		tsSim, err := res.TS.Quantile(k)
		if err != nil {
			return nil, err
		}
		tdSim, err := res.TD.Quantile(k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("p%g", k*100),
			fmt.Sprintf("[%s, %s]", us(reports[i].TS.Lo), us(reports[i].TS.Hi)),
			us(tsSim),
			lat(reports[i].TD),
			lat(tdSim),
		})
	}
	return &Report{
		ID:      "ext-tails",
		Title:   "EXTENSION: tail quantiles of TS(N) and TD(N), theory vs simulation",
		Columns: []string{"level", "TS theory bounds", "TS sim", "TD theory (exact)", "TD sim"},
		Rows:    rows,
		Notes: []string{
			"not in the paper: the same model pushed from expectations to percentiles",
			"TD theory is the exact closed form (1 − r·e^{−µD·t})^N, no approximation",
			"deep TS tails (p99+) probe the per-key 0.9999+ quantile: the resampling " +
				"simulator truncates them under small key budgets — use -full for tail studies",
		},
		Elapsed: time.Since(start),
	}, nil
}

// arrivalFamily pairs a label with an ArrivalFactory producing a batch
// inter-arrival distribution of the given rate.
type arrivalFamily struct {
	name string
	make core.ArrivalFactory
	scv  string
}

// ExtArrivals swaps the inter-arrival family at fixed utilization: the
// GI in GI^X/M/1 accepts any renewal process, and the δ machinery
// quantifies how much arrival variability costs. Erlang (smoother than
// Poisson), exponential, Generalized Pareto, and a high-variance
// hyperexponential are compared, theory vs simulation.
func ExtArrivals(b Budget) (*Report, error) {
	start := time.Now()
	families := []arrivalFamily{
		{
			name: "Erlang-4 (SCV 0.25)",
			scv:  "0.25",
			make: func(rate float64) (dist.Interarrival, error) {
				return dist.NewErlang(4, 4*rate)
			},
		},
		{
			name: "Poisson (SCV 1)",
			scv:  "1",
			make: func(rate float64) (dist.Interarrival, error) {
				return dist.NewExponential(rate)
			},
		},
		{
			name: "GPareto ξ=0.15 (SCV 1.43)",
			scv:  "1.43",
			make: func(rate float64) (dist.Interarrival, error) {
				return dist.NewGeneralizedPareto(0.15, rate)
			},
		},
		{
			name: "Hyperexp (SCV 4)",
			scv:  "4",
			make: func(rate float64) (dist.Interarrival, error) {
				// Balanced-means H2 with SCV = 4.
				const scv = 4.0
				p := 0.5 * (1 + math.Sqrt((scv-1)/(scv+1)))
				return dist.NewHyperexponential(
					[]float64{p, 1 - p},
					[]float64{2 * p * rate, 2 * (1 - p) * rate},
				)
			},
		},
	}
	var rows [][]string
	for i, fam := range families {
		model := workload.Facebook()
		model.Arrival = fam.make
		theory, measured, err := tsPoint(model, b, 950+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fam.name, err)
		}
		rows = append(rows, []string{fam.name, fam.scv, us(theory), us(measured)})
	}
	return &Report{
		ID:      "ext-arrivals",
		Title:   "EXTENSION: E[TS(N)] under different inter-arrival families (ρS=78% fixed)",
		Columns: []string{"arrival family", "SCV", "Theorem 1", "Experiment"},
		Rows:    rows,
		Notes: []string{
			"not in the paper: the GI slot of GI^X/M/1 exercised beyond Generalized Pareto — " +
				"latency ranks by arrival variability at identical utilization",
		},
		Elapsed: time.Since(start),
	}, nil
}

// ExtEq6Ablation quantifies the (1−q) factor discrepancy between the
// paper's in-line eq. 6 (δ = L_TX((1−δ)µ_S)) and its Table 1 form
// (δ = L_TX((1−δ)(1−q)µ_S)): only the Table 1 form matches the
// simulated queue, which is why the reproduction uses it (DESIGN §4.1).
func ExtEq6Ablation(b Budget) (*Report, error) {
	start := time.Now()
	model := workload.Facebook()
	gp, err := model.ArrivalFor(workload.FacebookLambda)
	if err != nil {
		return nil, err
	}
	// Table 1 form (ours): batch service rate (1-q)µS.
	bqTable1, err := queueing.NewBatchQueue(gp, model.Q, model.MuS)
	if err != nil {
		return nil, err
	}
	deltaT1 := bqTable1.Delta()
	// In-line eq. 6 form, δ = L_TX((1−δ)µS): the same fixed point with
	// µS un-thinned, which is the Table 1 form of a queue with q = 0.
	bqInline, err := queueing.NewBatchQueue(gp, 0, model.MuS)
	if err != nil {
		return nil, err
	}
	deltaEq6 := bqInline.Delta()
	// Ground truth: simulated mean per-key latency.
	simRes, err := sim.SimulateServer(sim.ServerConfig{
		Interarrival: gp, Q: model.Q, MuS: model.MuS,
		Keys: b.KeysPerServer * 2, Seed: b.Seed + 990,
	})
	if err != nil {
		return nil, err
	}
	meanOf := func(delta float64) float64 {
		return 1 / ((1 - delta) * (1 - model.Q) * model.MuS)
	}
	rows := [][]string{
		{"Table 1 form (used here)", fmt.Sprintf("%.4f", deltaT1), us(meanOf(deltaT1))},
		{"in-line eq. 6 form", fmt.Sprintf("%.4f", deltaEq6), us(meanOf(deltaEq6))},
		{"simulated queue", "-", us(simRes.Mean())},
	}
	return &Report{
		ID:      "ext-eq6",
		Title:   "EXTENSION: eq. 6 (1−q) factor ablation — which δ matches the real queue",
		Columns: []string{"variant", "δ", "implied mean per-key latency"},
		Rows:    rows,
		Notes: []string{
			"the Table 1 fixed point reproduces the simulated mean; dropping the (1−q) " +
				"batch-service thinning (as the in-line eq. 6 prints) underestimates δ",
		},
		Elapsed: time.Since(start),
	}, nil
}
