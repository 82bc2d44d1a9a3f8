// Benchmarks: one sub-benchmark per REPRO section (regenerating the
// artifact end to end, so ns/op measures the cost of a full
// reproduction at bench budget) plus micro-benchmarks of the model-side
// solvers. The live substrate's per-layer costs (cache, protocol,
// histogram, ring pick) are bench/'s layer rows, not repeated here.
package memqlat_test

import (
	"context"
	"testing"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/experiments"
	"memqlat/internal/plane"
	"memqlat/internal/queueing"
	"memqlat/internal/sim"
	"memqlat/internal/workload"
)

// benchBudget keeps each experiment iteration around a second.
var benchBudget = experiments.Budget{Requests: 500, KeysPerServer: 30000, Seed: 1}

// BenchmarkExperiments regenerates every section of experiments.All(),
// live legs included, as BenchmarkExperiments/<id>.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report, err := e.Run(benchBudget, true)
				if err != nil {
					b.Fatal(err)
				}
				if len(report.Rows) == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}

// ---- plane harness benchmarks (make microbench) ----

// BenchmarkSimPlane measures a full simulator-plane evaluation of the
// Facebook workload at bench budget: scenario lowering, the composition
// simulation with telemetry recording, and the §4.5 estimators.
func BenchmarkSimPlane(b *testing.B) {
	s := plane.FromConfig("facebook", workload.Facebook())
	s.Requests = benchBudget.Requests
	s.KeysPerServer = benchBudget.KeysPerServer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = benchBudget.Seed + uint64(i)
		res, err := plane.SimPlane{}.Run(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Breakdown.Empty() {
			b.Fatal("no telemetry recorded")
		}
	}
}

// BenchmarkLivePlane measures a full live-TCP-plane evaluation at
// scaled rates: cluster bring-up, populate, paced load, teardown.
// ns/op is dominated by the paced open-loop run (ops/λ seconds).
func BenchmarkLivePlane(b *testing.B) {
	s := plane.Scenario{
		Name: "bench",
		Config: core.Config{N: 1, LoadRatios: core.BalancedLoad(2), TotalKeyRate: 4000, Q: 0.1,
			Xi: 0.15, MuS: 4000, MissRatio: 0.01, MuD: 1000},
		Ops:     500,
		Workers: 32,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = benchBudget.Seed + uint64(i)
		res, err := plane.LivePlane{}.Run(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Live.Issued == 0 {
			b.Fatal("no operations issued")
		}
	}
}

// ---- micro-benchmarks of the model-side solvers ----

// BenchmarkDelta is one eq. 6 solve at the Facebook workload: building a
// BatchQueue is the only place δ is computed.
func BenchmarkDelta(b *testing.B) {
	gp, err := dist.NewGeneralizedPareto(workload.FacebookXi, 56250)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queueing.NewBatchQueue(gp, 0.1, 80000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem1Estimate(b *testing.B) {
	model := workload.Facebook()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Estimate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCliffTable is Table 4's δ-threshold column: twenty root
// searches over ρ, each step of which is an eq. 6 solve.
func BenchmarkCliffTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.CliffTable(core.PaperTable4Xis(), 0.1, core.CliffDeltaThreshold); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerSimLindley(b *testing.B) {
	gp, err := dist.NewGeneralizedPareto(0.15, 56250)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.SimulateServer(sim.ServerConfig{
			Interarrival: gp, Q: 0.1, MuS: 80000, Keys: 10000, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Mean()
	}
}

func BenchmarkGeneralizedParetoSample(b *testing.B) {
	gp, err := dist.NewGeneralizedPareto(0.15, 62500)
	if err != nil {
		b.Fatal(err)
	}
	rng := dist.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gp.Sample(rng)
	}
}

func BenchmarkLaplaceTransformGP(b *testing.B) {
	gp, err := dist.NewGeneralizedPareto(0.15, 62500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gp.LaplaceTransform(20000)
	}
}
