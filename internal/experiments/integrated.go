package experiments

import (
	"context"
	"fmt"
	"time"

	"memqlat/internal/plane"
	"memqlat/internal/workload"
)

// ExtIntegrated probes the model's independence assumption (§3: "the
// assumption of independent key arrivals is acceptable"). The
// composition simulator takes the assumption as given; the integrated
// request-driven simulator does not — its per-server arrival process
// EMERGES from fork-join requests whose keys arrive together after the
// network delay, creating correlated batches. Comparing the two (and
// Theorem 1) measures how much reality the assumption gives away.
func ExtIntegrated(b Budget) (*Report, error) {
	start := time.Now()
	// Scaled N keeps the integrated run short; the assumption stress
	// (keys-per-request vs concurrent requests) is preserved by scaling
	// the request rate up correspondingly.
	const n = 20
	var rows [][]string
	for i, rho := range []float64{0.3, 0.5, 0.7, 0.8} {
		model := workload.WithLambda(rho * workload.FacebookMuS)
		model.N = n
		model.MissRatio = 0 // isolate the cache stage
		theory, err := model.ExpectedTSPoint()
		if err != nil {
			return nil, err
		}
		comp, err := simRun("ext-integrated", model, b, 1400+uint64(i))
		if err != nil {
			return nil, err
		}
		compEst := comp.TS.Mid()
		is := scenarioFor("ext-integrated", model, b, 1500+uint64(i))
		if is.Requests > 6000 {
			is.Requests = 6000 // the recorded rows were measured at this cap
		}
		integ, err := plane.SimPlane{Mode: plane.SimIntegrated}.Run(context.Background(), is)
		if err != nil {
			return nil, err
		}
		integMean := integ.Sim.TS.Mean()
		compMean := comp.Sim.TS.Mean()
		gap := (integMean - compMean) / compMean
		rows = append(rows, []string{
			pct(rho), us(theory), us(compEst), us(compMean), us(integMean),
			fmt.Sprintf("%+.0f%%", gap*100),
		})
	}
	return &Report{
		ID:    "ext-integrated",
		Title: fmt.Sprintf("EXTENSION: independence-assumption ablation (N=%d, miss-free)", n),
		Columns: []string{"ρS", "Theorem 1", "composition (§4.5 est)",
			"composition mean-max", "integrated mean-max", "integrated vs comp"},
		Rows: rows,
		Notes: []string{
			"the integrated simulator derives per-server arrivals FROM the fork-join " +
				"request stream (correlated same-request batches) instead of assuming GI^X — " +
				"the last column is the latency cost of the §3 independence assumption",
			"finding: the RELATIVE error is largest at LOW load — a request's own keys " +
				"colliding on a server add a fixed self-queueing cost (≈ keys-per-server × " +
				"service time) that dominates when cross-traffic queueing is small, and " +
				"washes out toward the cliff",
		},
		Elapsed: time.Since(start),
	}, nil
}
