// Load-balancing study (paper Fig. 10 / §5.2.2): sweep the largest load
// ratio p1 of a fixed 80K keys/s stream over four servers, comparing
// Theorem 1 with the simulator, and show where rebalancing starts to
// pay. Run with:
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"os"

	"memqlat/internal/core"
	"memqlat/internal/sim"
	"memqlat/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadbalance:", err)
		os.Exit(1)
	}
}

func run() error {
	const totalRate = 80000.0
	fmt.Printf("four servers, one %gK keys/s stream, heaviest server takes p1 (ξ=%.2f, µS=%.0fK)\n\n",
		totalRate/1000, workload.FacebookXi, workload.FacebookMuS/1000)
	fmt.Printf("%-6s  %-8s  %-14s  %-12s  %s\n", "p1", "max ρS", "Theorem 1", "simulated", "verdict")

	cliff, err := core.CliffUtilization(workload.FacebookXi, workload.FacebookQ, core.CliffDeltaThreshold)
	if err != nil {
		return err
	}
	baseline := -1.0
	for _, p1 := range []float64{0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85} {
		model, err := workload.WithImbalance(p1, totalRate)
		if err != nil {
			return err
		}
		est, err := model.Estimate()
		if err != nil {
			return err
		}
		res, err := sim.SimulateRequests(sim.RequestConfig{
			Model:         model,
			Requests:      4000,
			KeysPerServer: 150000,
			Seed:          11,
		})
		if err != nil {
			return err
		}
		measured, err := res.TSQuantileEstimate(model)
		if err != nil {
			return err
		}
		if baseline < 0 {
			baseline = measured
		}
		maxRho := p1 * totalRate / model.MuS
		verdict := "balanced enough"
		switch {
		case maxRho > cliff:
			verdict = "PAST THE CLIFF — rebalance now"
		case measured > 2*baseline:
			verdict = "latency doubled — plan rebalancing"
		}
		fmt.Printf("%-6.2f  %-8.0f%%  %6.0fµs       %6.0fµs      %s\n",
			p1, maxRho*100, est.TS.Hi*1e6, measured*1e6, verdict)
	}
	fmt.Printf("\ncliff utilization for this workload: %.0f%% (paper: imbalance only hurts past it)\n",
		cliff*100)
	return nil
}
