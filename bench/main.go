// Command bench is the repository's end-to-end and per-layer benchmark:
// real server, proxy and client instances in one process on loopback
// TCP, driven closed-loop by C = 2 goroutines over seeded, verified
// request streams. README.md has the rationale; BENCHMARK.json at the
// repository root is the manifest the driver reads.
//
//	bench -workload get_direct -seed 1 -seconds 15 -trace 0   one e2e run (the driver's form)
//	bench -workload get_direct -seed 1 -seconds 15 -trace 1   one layer run + traced run
//	bench -seed 1                                             both, for all five workloads
//	bench -aa -runs 3 -seed 1                                 two interleaved sets of e2e runs, compared against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process; empty runs all five, each in a child process")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 15, "measured seconds of the e2e run (30 rounds of a thirtieth each); the layer run scales with it")
		trace   = flag.Int("trace", 0, "0: e2e run, tracing off; 1: layer run and traced run")
		outDir  = flag.String("out", "out", "directory for <workload>.trace.json")
		aa      = flag.Bool("aa", false, "run the e2e set as two interleaved sets on this build and compare their medians against the bounds")
		runs    = flag.Int("runs", 1, "with -aa: e2e runs per workload and set (the driver uses 10)")
	)
	flag.Parse()
	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds <= 0 || *trace < 0 || *trace > 1 || *runs < 1:
		err = errors.New("need -seconds > 0, -trace 0 or 1 and -runs >= 1")
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1, *outDir)
	case *aa:
		err = runAA(*seed, *seconds, *runs)
	default:
		err = runAll(*seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its report.
func runOne(name string, seed uint64, seconds float64, layers bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	rep := &report{w: w}
	if layers {
		err = runLayers(w, seed, seconds, outDir, rep)
	} else {
		err = runE2E(w, seed, seconds, rep)
	}
	if err != nil {
		return err
	}
	if err := rep.print(os.Stdout); err != nil {
		return err
	}
	if rep.errorFrac() > errorFracBound || !rep.correct() {
		return fmt.Errorf("%s: outputs not correct (error_frac %.6f)", name, rep.errorFrac())
	}
	return nil
}

// child re-executes this binary for one workload, so that heap and GC
// pacing never leak from one workload into the next. Its report streams
// through; the parsed result line is returned.
func child(name string, seed uint64, seconds float64, trace int, outDir string, show io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stdout = io.MultiWriter(&out, show)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): result line: %w", name, trace, err)
	}
	return res, nil
}

func runAll(seed uint64, seconds float64, outDir string) error {
	var errs []error
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(w.name, seed, seconds, trace, outDir, os.Stdout); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// runAA measures every workload as two sets, A and B, of `runs` e2e runs
// each on the same build, alternating A and B so that a drift of the
// machine lands on both, and compares the sets' medians. Any metric that
// differs by more than its bound is a breach: the bound would then
// reject unchanged code.
func runAA(seed uint64, seconds float64, runs int) error {
	fmt.Printf("%-16s %-18s %14s %14s %8s %7s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	breaches := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for r := 0; r < runs; r++ {
			for i := range sets {
				res, err := child(w.name, seed, seconds, 0, "", io.Discard)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					sets[i][name] = append(sets[i][name], v.Value)
				}
			}
		}
		for _, s := range e2eSpecs {
			a, b := median(sets[0][s.name]), median(sets[1][s.name])
			diff := 0.0 // neither set is the baseline, so either direction counts
			if a != 0 {
				diff = (b - a) / a
			}
			mark := ""
			switch {
			case w.ungated != "":
				mark = "  ungated"
			case math.Abs(diff) > s.bound:
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", w.name, s.name, a, b, 100*diff, 100*s.bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d (workload, metric) pairs differ between two sets of runs of the same code by more than their bound", breaches)
	}
	return nil
}
