// Command latency-model prints the Theorem 1 latency prediction for a
// Memcached deployment described on the command line, plus the factor
// cheat sheet (paper Table 2) and the utilization cliff for the given
// burst degree.
//
// Example (the paper's Facebook workload):
//
//	latency-model -n 150 -servers 4 -lambda 62500 -xi 0.15 -q 0.1 \
//	              -mus 80000 -r 0.01 -mud 1000 -net 20us
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"memqlat/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "latency-model:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("latency-model", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 150, "Memcached keys per end-user request")
		servers = fs.Int("servers", 4, "number of Memcached servers")
		lambda  = fs.Float64("lambda", 62500, "per-server key arrival rate (keys/s)")
		p1      = fs.Float64("p1", 0, "largest load ratio (0 = balanced)")
		xi      = fs.Float64("xi", 0.15, "burst degree of key arrivals")
		q       = fs.Float64("q", 0.1, "concurrent probability of keys")
		mus     = fs.Float64("mus", 80000, "per-key service rate at Memcached servers")
		r       = fs.Float64("r", 0.01, "cache miss ratio")
		mud     = fs.Float64("mud", 1000, "database service rate (keys/s)")
		netLat  = fs.Duration("net", 20*time.Microsecond, "constant network latency")
		factors = fs.Bool("factors", false, "also print the factor cheat sheet (Table 2)")
		elast   = fs.Bool("elasticity", false, "also rank factors by elasticity at this operating point")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := &core.Config{
		N:              *n,
		LoadRatios:     core.BalancedLoad(*servers),
		TotalKeyRate:   *lambda * float64(*servers),
		Q:              *q,
		Xi:             *xi,
		MuS:            *mus,
		MissRatio:      *r,
		MuD:            *mud,
		NetworkLatency: netLat.Seconds(),
	}
	if *p1 > 0 {
		ratios, err := core.UnbalancedLoad(*servers, *p1)
		if err != nil {
			return err
		}
		cfg.LoadRatios = ratios
	}
	est, err := cfg.Estimate()
	if err != nil {
		return err
	}
	usf := func(s float64) string { return fmt.Sprintf("%.0fµs", s*1e6) }
	fmt.Fprintf(out, "Theorem 1 latency estimate (M=%d, max ρS=%.1f%%)\n",
		cfg.M(), cfg.MaxUtilization()*100)
	fmt.Fprintf(out, "  δ (heaviest server)  %.4f\n", est.Delta)
	fmt.Fprintf(out, "  T_N(N)  network      %s (constant)\n", usf(est.TN))
	fmt.Fprintf(out, "  T_S(N)  cache stage  %s ~ %s\n", usf(est.TS.Lo), usf(est.TS.Hi))
	fmt.Fprintf(out, "  T_D(N)  miss stage   %s\n", usf(est.TD))
	fmt.Fprintf(out, "  T(N)    end-user     %s ~ %s\n", usf(est.Total.Lo), usf(est.Total.Hi))

	cliff, err := core.CliffUtilization(*xi, *q, core.CliffDeltaThreshold)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  cliff utilization ρS(ξ=%.2f) = %.0f%% — keep the busiest server below it\n",
		*xi, cliff*100)
	fmt.Fprintf(out, "  miss-latency regime: %s (N·r = %.2f)\n",
		core.ClassifyTDRegime(*n, *r), float64(*n)**r)

	if *factors {
		fmt.Fprintln(out, "\nLatency factors (paper Table 2):")
		for _, f := range core.Factors() {
			fmt.Fprintf(out, "  %-3s %s\n      %s\n", f.Symbol, f.Name, f.Law)
		}
	}
	if *elast {
		es, err := cfg.Elasticities()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nFactor leverage at this operating point (d ln T / d ln x):")
		for i, e := range es {
			fmt.Fprintf(out, "  %d. %-3s %+0.2f  (%s)\n", i+1, e.Factor, e.Value, e.Description)
		}
	}
	return nil
}
