package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: memqlat/internal/server
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServerHotPath/get/conns=1         	 2933155	       442.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkServerHotPath/get/conns=16-8      	 2934675	       420.8 ns/op	       0 B/op	       0 allocs/op
BenchmarkServerHotPath/set/conns=16        	 1422201	       843.7 ns/op	     213 B/op	       3 allocs/op
BenchmarkSimPlane-4                        	       3	  25478919 ns/op
PASS
ok  	memqlat/internal/server	10.139s
`

func TestParseBenchOutput(t *testing.T) {
	benches, meta := parseBenchOutput(sampleOutput)
	if meta.Goos != "linux" || meta.Goarch != "amd64" || !strings.Contains(meta.CPU, "Xeon") {
		t.Errorf("meta = %+v", meta)
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(benches), benches)
	}
	// The -N GOMAXPROCS suffix must be stripped.
	if benches[1].Name != "BenchmarkServerHotPath/get/conns=16" {
		t.Errorf("name = %q, suffix not stripped", benches[1].Name)
	}
	if benches[1].NsPerOp != 420.8 || benches[1].AllocsPerOp != 0 {
		t.Errorf("entry = %+v", benches[1])
	}
	if benches[2].AllocsPerOp != 3 || benches[2].BytesPerOp != 213 {
		t.Errorf("benchmem columns not parsed: %+v", benches[2])
	}
	// Lines without -benchmem columns still parse.
	if benches[3].Name != "BenchmarkSimPlane" || benches[3].NsPerOp != 25478919 {
		t.Errorf("plain entry = %+v", benches[3])
	}
	// A benchmark's own metrics stand between ns/op and the -benchmem
	// columns.
	benches, _ = parseBenchOutput("BenchmarkConnScaling/eventloop/conns=1000-2 \t 60000\t 2100 ns/op\t 1500 p50-ns/op\t 3000 p95-ns/op\t 5000 p99-ns/op\t 12 B/op\t 1 allocs/op\n")
	if len(benches) != 1 || benches[0].NsPerOp != 2100 || benches[0].BytesPerOp != 12 || benches[0].AllocsPerOp != 1 {
		t.Errorf("entry with custom metrics = %+v", benches)
	}
}

func TestCompareDetectsRegressions(t *testing.T) {
	base := []Benchmark{
		{Name: "a", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "b", NsPerOp: 100, AllocsPerOp: 5},
		{Name: "c", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "gone", NsPerOp: 100},
	}
	current := []Benchmark{
		{Name: "a", NsPerOp: 119, AllocsPerOp: 0}, // within 20%
		{Name: "b", NsPerOp: 130, AllocsPerOp: 5}, // ns/op regression
		{Name: "c", NsPerOp: 90, AllocsPerOp: 1},  // new alloc on zero-alloc path
		{Name: "new", NsPerOp: 1},                 // informational only
	}
	var buf bytes.Buffer
	failures := compare(base, current, 0.20, false, &buf)
	if len(failures) != 3 {
		t.Fatalf("failures = %v, want 3", failures)
	}
	for i, want := range []string{"b: ns/op regressed", "c: 1 allocs/op appeared", "gone: present in baseline"} {
		found := false
		for _, f := range failures {
			if strings.HasPrefix(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing failure %d (%q) in %v", i, want, failures)
		}
	}
	if failures := compare(base[:3], current, 0.20, true, &buf); len(failures) != 2 {
		t.Errorf("allow-missing run = %v, want 2 failures", failures)
	}
	if !strings.Contains(buf.String(), "new: not in baseline") {
		t.Error("new benchmark not reported")
	}
}

func TestRunWriteAndCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(cur, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "BENCH_test.json")
	var out bytes.Buffer
	if err := run([]string{"-current", cur, "-write", basePath, "-comment", "test baseline"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(blob, &base); err != nil {
		t.Fatal(err)
	}
	if base.Comment != "test baseline" || len(base.Benchmarks) != 4 || base.Goos != "linux" {
		t.Errorf("written baseline = %+v", base)
	}
	// Comparing the same output against the freshly written baseline
	// must pass.
	out.Reset()
	if err := run([]string{"-current", cur, "-baseline", basePath}, nil, &out); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "OK: 4 benchmark(s)") {
		t.Errorf("output = %q", out.String())
	}
	// A doctored regression must fail.
	slow := strings.Replace(sampleOutput, "420.8 ns/op", "4208.0 ns/op", 1)
	slowPath := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(slowPath, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-current", slowPath, "-baseline", basePath}, nil, &out); err == nil {
		t.Error("regressed output did not fail")
	}
}
