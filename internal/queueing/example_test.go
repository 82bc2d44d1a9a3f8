package queueing_test

import (
	"fmt"

	"memqlat/internal/dist"
	"memqlat/internal/queueing"
)

// One Memcached server under the paper's Facebook workload: Generalized
// Pareto batch gaps (ξ=0.15), 10% key concurrency, 80K keys/s service.
func ExampleBatchQueue_Delta() {
	arrival, err := dist.NewGeneralizedPareto(0.15, (1-0.1)*62500)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	bq, err := queueing.NewBatchQueue(arrival, 0.1, 80000)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("utilization %.1f%%, δ = %.4f, mean per-key latency %.0fµs\n",
		bq.Utilization()*100, bq.Delta(), bq.MeanSojourn()*1e6)
	// Output:
	// utilization 78.1%, δ = 0.8104, mean per-key latency 73µs
}

// For Poisson arrivals the GI/M/1 root δ reduces to the M/M/1
// utilization, and the eq. 9 bounds collapse around the familiar
// exponential sojourn quantiles.
func ExampleBatchQueue_KeyLatencyBounds() {
	arrival, err := dist.NewExponential(40000)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	bq, err := queueing.NewBatchQueue(arrival, 0, 80000) // M/M/1, ρ = 0.5
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	lo, hi, err := bq.KeyLatencyBounds(0.9)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("p90 per-key latency in [%.1fµs, %.1fµs]\n", lo*1e6, hi*1e6)
	// Output:
	// p90 per-key latency in [40.2µs, 57.6µs]
}
