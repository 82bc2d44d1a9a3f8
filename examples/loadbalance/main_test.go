package main

import "fmt"

// Example runs the walkthrough in tier 1: its numbers are closed forms
// and seeded simulation, so the output is exact.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// four servers, one 80K keys/s stream, heaviest server takes p1 (ξ=0.15, µS=80K)
	//
	// p1      max ρS    Theorem 1       simulated     verdict
	// 0.25    25      %      97µs           97µs      balanced enough
	// 0.35    35      %     102µs          101µs      balanced enough
	// 0.45    45      %     118µs          119µs      balanced enough
	// 0.55    55      %     151µs          153µs      balanced enough
	// 0.65    65      %     205µs          206µs      latency doubled — plan rebalancing
	// 0.75    75      %     301µs          295µs      PAST THE CLIFF — rebalance now
	// 0.85    85      %     526µs          465µs      PAST THE CLIFF — rebalance now
	//
	// cliff utilization for this workload: 74% (paper: imbalance only hurts past it)
}
