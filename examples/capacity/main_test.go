package main

import "fmt"

// Example runs the walkthrough in tier 1: its numbers are closed forms
// and seeded simulation, so the output is exact.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// trace: 400000 accesses over 19799 distinct keys (Zipf s=0.9)
	// compulsory miss floor: 4.95%
	//
	// capacity    miss r      E[TD(N)]        E[T(N)] hi
	// 500         59.54%          4503µs        4891µs  ################################
	// 1000        50.74%          4345µs        4733µs  ###############################
	// 2000        40.68%          4128µs        4515µs  ##############################
	// 5000        25.25%          3660µs        4048µs  ##########################
	// 10000       12.13%          2955µs        3342µs  ######################
	// 20000       4.95%           2131µs        2518µs  ################
	//
	// 1% miss ratio unreachable: mrc: target 0.0100 below compulsory floor 0.0495
	//
	// paper §5.3: past N·r ≈ 1 the payoff of shrinking r is only logarithmic —
	// check E[TD(N)] above: halving r late in the sweep barely moves it.
}
