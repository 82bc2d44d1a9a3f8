// Command benchdiff compares `go test -bench` output against a
// checked-in JSON baseline (BENCH_server.json, BENCH_proxy.json) and
// exits non-zero when a benchmark regressed: ns/op above the allowed
// ratio, or any allocations appearing on a path the baseline records as
// zero-alloc. It can also write a fresh baseline from current output.
//
// Typical CI usage:
//
//	go test -run '^$' -bench BenchmarkServerHotPath -benchmem ./internal/server | tee bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_server.json -current bench.txt
//
// Regenerating a baseline:
//
//	go run ./cmd/benchdiff -current bench.txt -write BENCH_server.json -comment "..."
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one entry of a baseline file.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Baseline is the schema shared by the BENCH_*.json files.
type Baseline struct {
	Comment    string      `json:"comment"`
	Goos       string      `json:"goos"`
	Goarch     string      `json:"goarch"`
	CPU        string      `json:"cpu"`
	Date       string      `json:"date"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "", "baseline JSON to compare against")
		currentPath  = fs.String("current", "-", "current `go test -bench` output ('-' = stdin)")
		maxRegress   = fs.Float64("max-regress", 0.20, "allowed fractional ns/op regression before failing")
		writePath    = fs.String("write", "", "write the current results as a new baseline JSON and exit")
		comment      = fs.String("comment", "", "comment to embed when writing a baseline")
		allowMissing = fs.Bool("allow-missing", false, "do not fail when a baseline benchmark is absent from current output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var in io.Reader = stdin
	if *currentPath != "-" {
		f, err := os.Open(*currentPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	raw, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	current, meta := parseBenchOutput(string(raw))
	if len(current) == 0 {
		return fmt.Errorf("no benchmark lines found in current output")
	}

	if *writePath != "" {
		meta.Comment = *comment
		meta.Date = time.Now().UTC().Format("2006-01-02")
		meta.Benchmarks = current
		blob, err := json.MarshalIndent(meta, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*writePath, append(blob, '\n'), 0o644)
	}

	if *baselinePath == "" {
		return fmt.Errorf("either -baseline or -write is required")
	}
	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parse %s: %w", *baselinePath, err)
	}

	failures := compare(base.Benchmarks, current, *maxRegress, *allowMissing, stdout)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(failures), *baselinePath)
	}
	fmt.Fprintf(stdout, "OK: %d benchmark(s) within %.0f%% of %s\n",
		len(current), *maxRegress*100, *baselinePath)
	return nil
}

// benchLine matches one `go test -bench` result line, with or without
// -benchmem columns, wherever they stand: `go test` prints a benchmark's
// own metrics (p99-ns/op, ...) between ns/op and B/op. The trailing -N
// GOMAXPROCS suffix is stripped so baselines recorded on different core
// counts still match by name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:.*?\s(\d+) B/op)?(?:.*?\s(\d+) allocs/op)?`)

// parseBenchOutput extracts benchmark entries and run metadata (goos /
// goarch / cpu lines) from `go test -bench` text output.
func parseBenchOutput(out string) ([]Benchmark, Baseline) {
	var (
		benches []Benchmark
		meta    Baseline
	)
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			meta.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			meta.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			meta.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		benches = append(benches, b)
	}
	return benches, meta
}

// compare reports each baseline benchmark against current results and
// returns the list of violations.
func compare(base, current []Benchmark, maxRegress float64, allowMissing bool, w io.Writer) []string {
	curByName := make(map[string]Benchmark, len(current))
	for _, b := range current {
		curByName[b.Name] = b
	}
	var failures []string
	for _, b := range base {
		cur, ok := curByName[b.Name]
		if !ok {
			if !allowMissing {
				failures = append(failures,
					fmt.Sprintf("%s: present in baseline but missing from current output", b.Name))
			}
			continue
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = cur.NsPerOp/b.NsPerOp - 1
		}
		fmt.Fprintf(w, "%-60s %12.1f ns/op  baseline %12.1f  (%+.1f%%)  %d allocs/op (baseline %d)\n",
			b.Name, cur.NsPerOp, b.NsPerOp, ratio*100, cur.AllocsPerOp, b.AllocsPerOp)
		if ratio > maxRegress {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op regressed %.1f%% (%.1f -> %.1f, allowed %.0f%%)",
				b.Name, ratio*100, b.NsPerOp, cur.NsPerOp, maxRegress*100))
		}
		// A path the baseline certifies as allocation-free must stay
		// allocation-free: any new alloc is a hard failure regardless of
		// its ns/op impact.
		if b.AllocsPerOp == 0 && cur.AllocsPerOp > 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: %d allocs/op appeared on a zero-alloc path", b.Name, cur.AllocsPerOp))
		}
	}
	for _, c := range current {
		found := false
		for _, b := range base {
			if b.Name == c.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(w, "%-60s %12.1f ns/op  (new: not in baseline)\n", c.Name, c.NsPerOp)
		}
	}
	return failures
}
