// SLO planning: the model's extensions answering deployment questions
// the paper stops short of — what are my percentile latencies, how much
// traffic can I admit under a latency budget, and does the
// constant-network assumption hold for my link? (Whether hedged reads
// would help is `repro -run ext-redundancy`.) Run with:
//
//	go run ./examples/slo
package main

import (
	"fmt"
	"os"

	"memqlat/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slo:", err)
		os.Exit(1)
	}
}

func run() error {
	model := workload.Facebook()
	us := func(s float64) string { return fmt.Sprintf("%.0fµs", s*1e6) }
	ms := func(s float64) string { return fmt.Sprintf("%.2fms", s*1e3) }

	// 1. Percentile report (SLOs are written in percentiles, not means).
	fmt.Println("percentile latencies (Facebook workload):")
	fmt.Printf("  %-8s  %-24s  %s\n", "level", "T_S(N) cache stage", "T_D(N) miss stage")
	tails, err := model.Tails([]float64{0.5, 0.9, 0.99, 0.999})
	if err != nil {
		return err
	}
	for _, tr := range tails {
		fmt.Printf("  p%-7g  %-24s  %s\n", tr.Level*100,
			fmt.Sprintf("[%s, %s]", us(tr.TS.Lo), us(tr.TS.Hi)), ms(tr.TD))
	}

	// 2. Admission control: maximum aggregate rate under a TS budget.
	fmt.Println("\nadmission limits (aggregate keys/s keeping E[T_S(N)] under budget):")
	for _, budget := range []float64{200e-6, 500e-6} {
		rate, err := model.MaxTotalKeyRate(budget)
		if err != nil {
			fmt.Printf("  budget %-7s -> %v\n", us(budget), err)
			continue
		}
		perServer := rate / float64(model.M())
		fmt.Printf("  budget %-7s -> %.0fK keys/s total (%.0fK per server, ρS=%.0f%%)\n",
			us(budget), rate/1000, perServer/1000, 100*perServer/model.MuS)
	}

	// 3. Network-negligibility check (paper §4.2's assumption).
	fmt.Println("\nnetwork check (paper §4.2: constant network latency assumes no queueing):")
	for _, link := range []struct {
		name string
		bits float64
	}{{"1 Gbps", 1e9}, {"10 Gbps", 10e9}} {
		check, err := model.CheckNetwork(link.bits, 200, 1000)
		if err != nil {
			return err
		}
		verdict := "assumption HOLDS"
		if !check.Negligible {
			verdict = "assumption BREAKS — model the network as a queue"
		}
		fmt.Printf("  %-8s: keys %.1f%%, values %.1f%% -> %s\n",
			link.name, check.RequestUtilization*100, check.ResponseUtilization*100, verdict)
	}
	return nil
}
