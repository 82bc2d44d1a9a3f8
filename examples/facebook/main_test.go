package main

import "fmt"

// Example runs the walkthrough in tier 1: its numbers are closed forms
// and seeded simulation, so the output is exact.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// Facebook workload (paper §5.1):
	//   4 servers, λ=62.5K keys/s each, ξ=0.15, q=0.1, µS=80K
	//   N=150 keys/request, r=1% misses, µD=1000/s, net=20µs
	//
	// Theorem 1:
	//   δ=0.8104, per-key tail decay rate 13654/s
	//   T_S(N) ∈ [352µs, 367µs]   T_D(N) ≈ 836µs   T(N) ∈ [836µs, 1224µs]
	//
	// simulating 20000 end-user requests (3M keys)...
	// measured (paper §4.5 estimators):
	//   T_S(N) = 374µs   T_D(N) = 832µs   T(N) = 1226µs
	// measured (mean of per-request maxima):
	//   T_S(N) = 418µs   T_D(N) = 1078µs   T(N) = 1515µs
	//   per-request tail: p99 = 5366µs, p99.9 = 7664µs
	//   misses: 29582 of 3000000 keys (0.99%)
	//
	// paper Table 3 reference: TS 351~366µs (exp 368µs), TD 836µs (exp 867µs), T 836~1222µs (exp 1144µs)
}
