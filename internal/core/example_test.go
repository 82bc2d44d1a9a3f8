package core_test

import (
	"fmt"

	"memqlat/internal/core"
)

// The paper's §5.1 Facebook workload, evaluated with Theorem 1.
func ExampleConfig_Estimate() {
	cfg := &core.Config{
		N:              150,                  // keys per end-user request
		LoadRatios:     core.BalancedLoad(4), // four balanced servers
		TotalKeyRate:   4 * 62500,            // λ = 62.5K keys/s each
		Q:              0.1,                  // concurrent probability
		Xi:             0.15,                 // burst degree
		MuS:            80000,                // server service rate
		MissRatio:      0.01,                 // 1% misses
		MuD:            1000,                 // database rate (1 ms mean)
		NetworkLatency: 20e-6,                // constant 20 µs
	}
	est, err := cfg.Estimate()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("TS(N): %.0fµs ~ %.0fµs\n", est.TS.Lo*1e6, est.TS.Hi*1e6)
	fmt.Printf("TD(N): %.0fµs\n", est.TD*1e6)
	fmt.Printf("T(N):  %.0fµs ~ %.0fµs\n", est.Total.Lo*1e6, est.Total.Hi*1e6)
	// Output:
	// TS(N): 352µs ~ 367µs
	// TD(N): 836µs
	// T(N):  836µs ~ 1224µs
}

// Where does latency hit its cliff for the Facebook workload's burst
// degree? (Paper Table 4.)
func ExampleCliffUtilization() {
	rho, err := core.CliffUtilization(0.15, 0.1, core.CliffDeltaThreshold)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("keep servers below %.0f%% utilization\n", rho*100)
	// Output:
	// keep servers below 74% utilization
}

// The Θ(r) vs Θ(log r) regimes of the miss stage (paper eq. 25).
func ExampleClassifyTDRegime() {
	fmt.Println(core.ClassifyTDRegime(4, 0.01))     // few keys: N·r ≪ 1
	fmt.Println(core.ClassifyTDRegime(10000, 0.01)) // many keys: N·r ≫ 1
	// Output:
	// Θ(r)
	// Θ(log r)
}
