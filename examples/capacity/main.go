// Capacity planning: close the loop the paper leaves open. The model
// takes the miss ratio r as an input (§5.2.3); here we derive it from a
// workload trace with a miss-ratio curve (Mattson stack distances),
// sweep cache capacity, and feed each capacity's r into Theorem 1 to
// see the end-user latency a deployment would actually get. Run with:
//
//	go run ./examples/capacity
package main

import (
	"fmt"
	"os"
	"strings"

	"memqlat/internal/dist"
	"memqlat/internal/mrc"
	"memqlat/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "capacity:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. A synthetic Zipf trace standing in for a production key log
	//    (the Facebook trace's popularity skew is roughly Zipfian).
	const (
		keyspace = 20000
		accesses = 400000
		zipfSkew = 0.9
	)
	rng := dist.NewRand(7)
	zipf, err := dist.NewZipf(keyspace, zipfSkew)
	if err != nil {
		return err
	}
	analyzer := mrc.NewAnalyzer()
	for i := 0; i < accesses; i++ {
		analyzer.Add(fmt.Sprintf("key-%d", zipf.SampleInt(rng)))
	}
	curve, err := analyzer.Curve()
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d accesses over %d distinct keys (Zipf s=%.1f)\n",
		analyzer.Accesses(), analyzer.UniqueKeys(), zipfSkew)
	fmt.Printf("compulsory miss floor: %.2f%%\n\n", curve.ColdMissRatio()*100)

	// 2. Sweep cache capacity: MRC gives r, Theorem 1 gives latency.
	fmt.Printf("%-10s  %-10s  %-14s  %s\n", "capacity", "miss r", "E[TD(N)]", "E[T(N)] hi")
	for _, capacity := range []int{500, 1000, 2000, 5000, 10000, 20000} {
		r := curve.MissRatio(capacity)
		model := workload.Facebook()
		model.MissRatio = r
		est, err := model.Estimate()
		if err != nil {
			return err
		}
		bar := strings.Repeat("#", int(est.Total.Hi*1e6/150))
		fmt.Printf("%-10d  %-10s  %8.0fµs      %6.0fµs  %s\n",
			capacity, fmt.Sprintf("%.2f%%", r*100), est.TD*1e6, est.Total.Hi*1e6, bar)
	}

	// 3. Inverse question: how much cache buys a 1% miss ratio?
	capFor1pct, err := curve.CapacityForMissRatio(0.01)
	if err != nil {
		fmt.Printf("\n1%% miss ratio unreachable: %v\n", err)
	} else {
		fmt.Printf("\nto reach the paper's r=1%%: cache >= %d items (%.0f%% of keyspace)\n",
			capFor1pct, 100*float64(capFor1pct)/float64(curve.UniqueKeys()))
	}
	fmt.Println("\npaper §5.3: past N·r ≈ 1 the payoff of shrinking r is only logarithmic —")
	fmt.Println("check E[TD(N)] above: halving r late in the sweep barely moves it.")
	return nil
}
