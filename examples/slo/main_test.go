package main

import "fmt"

// Example runs the walkthrough in tier 1: its numbers are closed forms
// and seeded simulation, so the output is exact.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// percentile latencies (Facebook workload):
	//   level     T_S(N) cache stage        T_D(N) miss stage
	//   p50       [379µs, 394µs]            0.77ms
	//   p90       [516µs, 532µs]            2.66ms
	//   p99       [688µs, 704µs]            5.01ms
	//   p99.9     [857µs, 873µs]            7.31ms
	//
	// admission limits (aggregate keys/s keeping E[T_S(N)] under budget):
	//   budget 200µs   -> 196K keys/s total (49K per server, ρS=61%)
	//   budget 500µs   -> 268K keys/s total (67K per server, ρS=84%)
	//
	// network check (paper §4.2: constant network latency assumes no queueing):
	//   1 Gbps  : keys 10.0%, values 50.0% -> assumption BREAKS — model the network as a queue
	//   10 Gbps : keys 1.0%, values 5.0% -> assumption HOLDS
}
