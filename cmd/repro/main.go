// Command repro regenerates the paper's tables and figures. Every
// experiment evaluates its scenarios on the internal/plane harness;
// `-run crossplane` prints one scenario through every deterministic
// plane side by side.
//
// Usage:
//
//	repro [-run all|table3|fig4|...|crossplane|live] [-full] [-seed N] [-list]
//
// With -full the sample sizes approach the paper's 10-minute testbed
// runs; the default "quick" budget finishes in seconds per experiment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"memqlat/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		runID  = fs.String("run", "all", "experiment id to run, or 'all'")
		full   = fs.Bool("full", false, "use the full (paper-scale) measurement budget")
		seed   = fs.Uint64("seed", 1, "random seed")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		csvDir = fs.String("csv", "", "also write each report as <dir>/<id>.csv for plotting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	budget := experiments.Quick
	if *full {
		budget = experiments.Full
	}
	budget.Seed = *seed

	var toRun []experiments.Experiment
	if *runID == "all" {
		toRun = experiments.All()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			toRun = append(toRun, e)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range toRun {
		report, err := e.Run(budget, true)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out, report.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, report.ID+".csv")
			if err := os.WriteFile(path, []byte(report.CSV()), 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	return nil
}
