// Command mrc computes a miss-ratio curve from a key-access trace and
// (optionally) feeds the resulting miss ratio into the Theorem 1
// latency model.
//
// Input is either the memqlat trace format ("<offset-ns> <key>" per
// line, as written by mcbench -trace) or bare keys one per line; use
// "-" for stdin.
//
// Examples:
//
//	mrc -in trace.txt -capacities 1000,5000,10000
//	mrc -in keys.txt -target-miss 0.01
//	mrc -in trace.txt -latency          # MRC rows + Theorem 1 latency
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memqlat/internal/keylog"
	"memqlat/internal/mrc"
	"memqlat/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mrc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("mrc", flag.ContinueOnError)
	var (
		in         = fs.String("in", "-", "trace file ('-' = stdin)")
		capacities = fs.String("capacities", "", "comma-separated capacities to evaluate (default: auto grid)")
		targetMiss = fs.Float64("target-miss", 0, "report the capacity achieving this miss ratio")
		latency    = fs.Bool("latency", false, "also evaluate Theorem 1 at each capacity's miss ratio (Facebook workload parameters)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var src io.Reader = stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		src = f
	}
	analyzer, err := ingest(src)
	if err != nil {
		return err
	}
	curve, err := analyzer.Curve()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "accesses: %d   distinct keys: %d   compulsory floor: %.3f%%\n\n",
		analyzer.Accesses(), analyzer.UniqueKeys(), curve.ColdMissRatio()*100)

	caps, err := capacityGrid(*capacities, curve.UniqueKeys())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s  %-10s", "capacity", "miss r")
	if *latency {
		fmt.Fprintf(out, "  %-12s", "E[TD(N)]")
	}
	fmt.Fprintln(out)
	for _, c := range caps {
		r := curve.MissRatio(c)
		fmt.Fprintf(out, "%-12d  %-10s", c, fmt.Sprintf("%.3f%%", r*100))
		if *latency {
			model := workload.Facebook()
			model.MissRatio = r
			td, err := model.ExpectedTD()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-12s", fmt.Sprintf("%.0fµs", td*1e6))
		}
		fmt.Fprintln(out)
	}

	if *targetMiss > 0 {
		capNeeded, err := curve.CapacityForMissRatio(*targetMiss)
		if err != nil {
			fmt.Fprintf(out, "\ntarget %.3f%%: %v\n", *targetMiss*100, err)
			return nil
		}
		fmt.Fprintf(out, "\ntarget %.3f%% miss ratio: capacity >= %d items\n",
			*targetMiss*100, capNeeded)
	}
	return nil
}

// ingest accepts the trace format or bare keys, one per line.
func ingest(src io.Reader) (*mrc.Analyzer, error) {
	analyzer := mrc.NewAnalyzer()
	scanner := bufio.NewScanner(src)
	scanner.Buffer(make([]byte, 64<<10), 64<<10)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch len(fields) {
		case 1:
			analyzer.Add(fields[0])
		case 2:
			// trace format: "<offset-ns> <key>"
			if _, err := strconv.ParseInt(fields[0], 10, 64); err != nil {
				return nil, fmt.Errorf("%w: line %d: %q", keylog.ErrSyntax, lineNo, line)
			}
			analyzer.Add(fields[1])
		default:
			return nil, fmt.Errorf("%w: line %d: %q", keylog.ErrSyntax, lineNo, line)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if analyzer.Accesses() == 0 {
		return nil, errors.New("mrc: no accesses in input")
	}
	return analyzer, nil
}

// capacityGrid parses -capacities or builds a geometric default grid.
func capacityGrid(spec string, uniques int) ([]int, error) {
	if spec != "" {
		var out []int
		for _, tok := range strings.Split(spec, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 0 {
				return nil, fmt.Errorf("mrc: bad capacity %q", tok)
			}
			out = append(out, v)
		}
		return out, nil
	}
	var out []int
	for c := 16; c < uniques; c *= 4 {
		out = append(out, c)
	}
	return append(out, uniques), nil
}
