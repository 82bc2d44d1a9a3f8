package main

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"memqlat/internal/otrace"

	"memqlat/internal/cache"
	"memqlat/internal/keylog"
	"memqlat/internal/server"
)

func startTestServer(t *testing.T) string {
	t.Helper()
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Cache: c, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

func TestRunAgainstLiveServer(t *testing.T) {
	addr := startTestServer(t)
	var out bytes.Buffer
	args := []string{
		"-servers", addr,
		"-keys", "200",
		"-ops", "500",
		"-lambda", "50000",
		"-workers", "8",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"issued", "500 ops", "hits", "latency", "p99"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, " 0 hits") {
		t.Errorf("no hits recorded:\n%s", s)
	}
}

// TestRunWithFillMisses relays misses to the simulated database, naive
// and coalesced, and checks the admin page carries the families the
// miss path owns: memqlat_backend_* whenever there is a database,
// memqlat_coalesce_* only when fetches are single-flighted.
func TestRunWithFillMisses(t *testing.T) {
	addr := startTestServer(t)
	for _, tc := range []struct {
		name    string
		extra   []string
		metrics map[string]bool
	}{
		{"naive", nil, map[string]bool{
			"memqlat_backend_lookups_total": true, "memqlat_coalesce_fetches_total": false}},
		{"coalesced", []string{"-coalesce"}, map[string]bool{
			"memqlat_backend_lookups_total": true, "memqlat_coalesce_fetches_total": true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := &adminProbe{t: t}
			args := append([]string{
				"-servers", addr,
				"-keys", "100",
				"-ops", "300",
				"-lambda", "50000",
				"-miss-ratio", "0.3",
				"-fill-misses",
				"-mud", "100000",
				"-workers", "8",
				"-admin", "127.0.0.1:0",
			}, tc.extra...)
			if err := run(args, probe); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(probe.String(), "misses") {
				t.Errorf("output missing miss accounting:\n%s", probe.String())
			}
			if probe.metrics == "" {
				t.Fatal("admin banner never appeared; /metrics not scraped")
			}
			for name, want := range tc.metrics {
				if got := strings.Contains(probe.metrics, name); got != want {
					t.Errorf("/metrics has %q = %v, want %v", name, got, want)
				}
			}
		})
	}
}

func TestRunSimPlane(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-plane", "sim",
		"-lambda", "250000", "-mus", "80000", "-plane-servers", "4",
		"-n", "150", "-miss-ratio", "0.01", "-ops", "1000",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"sim plane", "E[T(N)]", "breakdown",
		"queue_wait", "service", "miss_penalty", "fork_join", "p99"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunModelPlane(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-plane", "model",
		"-lambda", "250000", "-mus", "80000", "-plane-servers", "4",
		"-n", "150", "-miss-ratio", "0.01",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// The model plane has no sample — only bounds plus the analytic
	// stage decomposition.
	for _, want := range []string{"model plane", "E[T(N)]", "~", "breakdown", "queue_wait"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "p99.9") {
		t.Errorf("model plane printed sample percentiles:\n%s", s)
	}
}

func TestRunLivePlane(t *testing.T) {
	if testing.Short() {
		t.Skip("live plane needs real time")
	}
	var out bytes.Buffer
	args := []string{
		"-plane", "live",
		"-lambda", "2000", "-mus", "2000", "-plane-servers", "2",
		"-ops", "400", "-miss-ratio", "0.01",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"live plane", "issued", "hits", "breakdown", "service"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSimPlaneExtstore(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-plane", "sim",
		"-lambda", "20000", "-mus", "80000", "-plane-servers", "2",
		"-n", "10", "-miss-ratio", "0.37", "-ops", "1000",
		"-keys", "2000", "-hot-zipf", "1",
		"-extstore", "ram=200,total=1200,mud=2000",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"extstore", "disk hits", "β pred", "disk_read"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "0 disk hits") {
		t.Errorf("tiered sim run served no disk hits:\n%s", s)
	}
}

func TestParseExtstoreSpec(t *testing.T) {
	spec, err := parseExtstoreSpec("ram=200, total=1200,mudisk=2000,dist=lognormal,sigma=0.7")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RAMItems != 200 || spec.TotalItems != 1200 || spec.MuDisk != 2000 ||
		spec.DiskDist != "lognormal" || spec.DiskSigma != 0.7 {
		t.Errorf("parsed %+v", spec)
	}
	for _, bad := range []string{"ram", "ram=", "ram=x", "watts=3"} {
		if _, err := parseExtstoreSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if spec, err := parseExtstoreSpec(""); spec != nil || err != nil {
		t.Errorf("empty spec: %+v, %v", spec, err)
	}
}

func TestRunValueDist(t *testing.T) {
	addr := startTestServer(t)
	var out bytes.Buffer
	args := []string{
		"-servers", addr,
		"-keys", "200", "-ops", "300", "-lambda", "50000", "-workers", "8",
		"-value-dist", "lognormal", "-value-sigma", "0.6",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), " 0 hits") {
		t.Errorf("no hits recorded:\n%s", out.String())
	}
	// The external path has no extstore tier, so no summary line.
	if strings.Contains(out.String(), "extstore") {
		t.Errorf("extstore summary on a tierless run:\n%s", out.String())
	}
	if err := run([]string{"-servers", addr, "-value-dist", "pareto", "-ops", "10"}, &out); err == nil {
		t.Error("unknown value dist accepted")
	}
	if err := run([]string{"-servers", addr, "-extstore", "ram=1,total=2,mud=1"}, &out); err == nil {
		t.Error("-extstore without -plane accepted")
	}
}

func TestRunUnknownPlane(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-plane", "quantum"}, &out); err == nil {
		t.Error("unknown plane accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	// Unreachable server: Populate must fail with an error, not hang.
	if err := run([]string{"-servers", "127.0.0.1:1", "-ops", "10", "-keys", "5"}, &out); err == nil {
		t.Error("dead server accepted")
	}
}

func TestRunWithTraceJournal(t *testing.T) {
	addr := startTestServer(t)
	dir := t.TempDir()
	path := dir + "/run.trace"
	var out bytes.Buffer
	args := []string{
		"-servers", addr,
		"-keys", "50",
		"-ops", "200",
		"-lambda", "50000",
		"-workers", "4",
		"-trace", path,
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := keylog.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 200 {
		t.Errorf("journaled %d records, want 200", len(records))
	}
	for i := 1; i < len(records); i++ {
		if records[i].Offset < records[i-1].Offset {
			t.Fatal("trace offsets not monotone")
		}
	}
}

// adminProbe watches run()'s output for the admin-plane banner and
// scrapes /metrics and /healthz the moment it appears — while the run
// is still alive, the way an operator's Prometheus would.
type adminProbe struct {
	bytes.Buffer
	t       *testing.T
	metrics string
	healthz string
}

var adminBanner = regexp.MustCompile(`admin plane on http://([^/\s]+)/metrics`)

func (p *adminProbe) Write(b []byte) (int, error) {
	n, err := p.Buffer.Write(b)
	if p.metrics == "" {
		if m := adminBanner.FindSubmatch(p.Buffer.Bytes()); m != nil {
			base := "http://" + string(m[1])
			p.metrics = p.get(base + "/metrics")
			p.healthz = p.get(base + "/healthz")
		}
	}
	return n, err
}

func (p *adminProbe) get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		p.t.Errorf("GET %s: %v", url, err)
		return "unreachable"
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		p.t.Errorf("GET %s: read: %v", url, err)
		return "unreadable"
	}
	return string(body)
}

// TestObservabilitySmoke is the end-to-end acceptance check: a live
// run with -admin and -trace-out serves a scrapeable metrics page and
// produces a Chrome-loadable trace file.
func TestObservabilitySmoke(t *testing.T) {
	addr := startTestServer(t)
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	probe := &adminProbe{t: t}
	args := []string{
		"-servers", addr,
		"-keys", "100",
		"-ops", "300",
		"-lambda", "50000",
		"-workers", "8",
		"-admin", "127.0.0.1:0",
		"-trace-out", traceFile,
	}
	if err := run(args, probe); err != nil {
		t.Fatal(err)
	}
	out := probe.String()
	if !strings.Contains(out, "spans written to "+traceFile) {
		t.Errorf("output missing trace summary:\n%s", out)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	n, err := otrace.ParseChrome(data)
	if err != nil {
		t.Fatalf("trace file does not parse as Chrome trace JSON: %v", err)
	}
	if n == 0 {
		t.Error("trace file holds no events")
	}
	if probe.metrics == "" {
		t.Fatal("admin banner never appeared; /metrics not scraped")
	}
	for _, want := range []string{
		"memqlat_client_pool_idle",
		"memqlat_stage_latency_seconds",
		"memqlat_trace_spans_kept",
	} {
		if !strings.Contains(probe.metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(probe.healthz, `"status":"ok"`) {
		t.Errorf("/healthz = %q, want status ok", probe.healthz)
	}

	// The in-process form serves the same page plus the servers it
	// started: one admin boot, whichever way the cluster came to be.
	if testing.Short() {
		return
	}
	probe = &adminProbe{t: t}
	args = []string{
		"-plane", "live", "-plane-servers", "2", "-lambda", "2000", "-mus", "2000",
		"-ops", "200", "-admin", "127.0.0.1:0",
	}
	if err := run(args, probe); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memqlat_server_connections_current", "memqlat_client_pool_idle"} {
		if !strings.Contains(probe.metrics, want) {
			t.Errorf("-plane=live /metrics missing %q", want)
		}
	}
}

// TestFlagModes pins the rule that no flag is silently dropped: in each
// mode a flag either takes effect or is refused by name with the mode
// it needs.
func TestFlagModes(t *testing.T) {
	addr := startTestServer(t)
	journal := filepath.Join(t.TempDir(), "keys.trace")
	base := map[string][]string{
		"external": {"-servers", addr, "-keys", "50", "-ops", "50", "-lambda", "50000"},
		"live":     {"-plane", "live", "-lambda", "4000", "-mus", "4000", "-keys", "50", "-ops", "50"},
		"sim":      {"-plane", "sim", "-lambda", "250000", "-mus", "80000", "-plane-servers", "4", "-ops", "200"},
	}
	for _, tc := range []struct {
		flag     []string
		refused  string // modes that must refuse it, naming what it needs
		needs    string
		external string // output the flag's effect leaves on an external run ("" = just runs)
	}{
		{[]string{"-servers", addr}, "live sim", "an external run", ""},
		{[]string{"-mus", "90000"}, "external", "a -plane mode", ""},
		{[]string{"-plane-servers", "5"}, "external", "a -plane mode", ""},
		{[]string{"-n", "5"}, "external live", "the model or sim planes", ""},
		{[]string{"-faults", "slow:srv=0,delay=1us"}, "external", "a -plane mode", ""},
		{[]string{"-slo", "window=50ms"}, "external", "a -plane mode", ""},
		{[]string{"-extstore", "ram=10,total=40,mud=2000"}, "external", "a -plane mode", ""},
		{[]string{"-value-size", "64"}, "sim", "the live stack", ""},
		{[]string{"-closed-loop"}, "sim", "the live stack", ""},
		{[]string{"-trace", journal}, "sim", "the live stack", ""},
		{[]string{"-fill-misses", "-miss-ratio", "0.5"}, "sim", "the live stack", "fills "},
		{[]string{"-workers", "4"}, "sim", "the live stack", ""},
		{[]string{"-zipf", "1"}, "", "", ""},
		{[]string{"-hot-zipf", "1"}, "", "", ""},
	} {
		for mode, args := range base {
			t.Run(tc.flag[0]+"/"+mode, func(t *testing.T) {
				if mode == "live" && testing.Short() {
					t.Skip("live plane needs real time")
				}
				var out bytes.Buffer
				err := run(append(append([]string{}, args...), tc.flag...), &out)
				if strings.Contains(tc.refused, mode) {
					if err == nil || !strings.Contains(err.Error(), tc.flag[0]+" needs "+tc.needs) {
						t.Fatalf("err = %v, want a refusal naming %s and %q", err, tc.flag[0], tc.needs)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if mode == "external" && !strings.Contains(out.String(), tc.external) {
					t.Errorf("output missing %q:\n%s", tc.external, out.String())
				}
			})
		}
	}

	// The scenario flags set a plane run's model, so -slo refuses each
	// model key by name instead of parsing it and dropping it.
	for _, key := range []string{"lambda", "mus", "mud", "q", "xi", "miss", "n"} {
		for _, mode := range []string{"live", "sim"} {
			err := run(append(append([]string{}, base[mode]...), "-slo", key+"=5000,window=1s"), io.Discard)
			if err == nil || !strings.Contains(err.Error(), `"`+key+`": a model key`) {
				t.Errorf("%s run with -slo %s=5000: err = %v, want a refusal naming %q", mode, key, err, key)
			}
		}
	}

	// Effects the output cannot show are read off the journal: -zipf
	// skews the issued key stream on the in-process form exactly as it
	// does attached (the parent ran -plane=live -zipf uniform), and
	// -trace journals there at all.
	if testing.Short() {
		return
	}
	hottest := func(extra ...string) float64 {
		t.Helper()
		var out bytes.Buffer
		args := append([]string{"-plane", "live", "-lambda", "20000", "-mus", "20000",
			"-keys", "100", "-ops", "400", "-trace", journal}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(journal)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		records, err := keylog.NewReader(f).ReadAll()
		if err != nil || len(records) != 400 {
			t.Fatalf("journaled %d records (err %v), want 400", len(records), err)
		}
		counts, top := map[string]int{}, 0
		for _, r := range records {
			counts[r.Key]++
			top = max(top, counts[r.Key])
		}
		return float64(top) / float64(len(records))
	}
	if uniform, skewed := hottest(), hottest("-zipf", "1.2"); skewed < 3*uniform || skewed < 0.1 {
		t.Errorf("hottest-key share %.3f uniform vs %.3f under -zipf 1.2: the flag did not reach the loadgen", uniform, skewed)
	}
}
