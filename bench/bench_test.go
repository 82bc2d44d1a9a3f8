package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"memqlat/internal/otrace"
)

// small returns a copy of a workload with a short request stream, so a
// test pays for the real keyspace and topology but not for a 1 M-entry
// stream.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.streamLen = 1 << 12
	return &c
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"get_direct", "multiget_fanout", "set_mixed"} {
		w := small(t, name)
		a, b, c := newStream(w, 1), newStream(w, 1), newStream(w, 2)
		if a.hash != b.hash {
			t.Errorf("%s: seed 1 hashed to %x and %x", name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 1 and 2 both hashed to %x", name, a.hash)
		}
	}
	// The three single-GET workloads replay byte-identical inputs.
	d, p, e := newStream(small(t, "get_direct"), 7), newStream(small(t, "get_proxied"), 7), newStream(small(t, "get_eventloop"), 7)
	if d.hash != p.hash || d.hash != e.hash {
		t.Errorf("get_direct/get_proxied/get_eventloop inputs differ: %x %x %x", d.hash, p.hash, e.hash)
	}
}

func TestStreamShape(t *testing.T) {
	st := newStream(small(t, "multiget_fanout"), 3)
	for i := 0; i < st.n(); i++ {
		keys, set := st.op(i)
		if set || len(keys) != 32 {
			t.Fatalf("request %d: set=%v with %d keys", i, set, len(keys))
		}
		seen := map[uint32]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("request %d names key %d twice", i, k)
			}
			seen[k] = true
		}
	}
	st = newStream(small(t, "set_mixed"), 3)
	sets := 0
	for i := 0; i < st.n(); i++ {
		if _, set := st.op(i); set {
			sets++
		}
	}
	if frac := float64(sets) / float64(st.n()); frac < 0.45 || frac > 0.55 {
		t.Errorf("set_mixed: %.2f of requests are SETs, want about half", frac)
	}
	if string(st.value(1)) == string(st.value(2)) {
		t.Error("two keys share a value; a reply carrying another key's value would verify")
	}
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {1000000, 99.999}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := spread([]float64{90, 100, 120}); got != 0.3 {
		t.Errorf("spread = %g, want 0.3", got)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("median/spread of nothing must be 0")
	}
}

func TestQuantilesAreExact(t *testing.T) {
	a, b := newRecorder(), newRecorder()
	for i := 1; i <= 100; i++ { // 1..100 us across two workers, plus two slow samples
		r := a
		if i%2 == 0 {
			r = b
		}
		r.add(int64(i) * 1000)
	}
	a.add(3 * exactBelow)
	b.add(2 * exactBelow)
	got := quantiles([]*recorder{a, b}, []float64{0.5, 0.98, 0.99, 1})
	want := []float64{51000, 100000, 2 * exactBelow, 3 * exactBelow}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("quantile %d = %g, want %g", i, got[i], want[i])
		}
	}
	l := summarize([]*recorder{a, b})
	if l.n != 102 || l.max != 3*exactBelow || l.topPct != 90 {
		t.Errorf("summarize: n=%d max=%g topPct=%g", l.n, l.max, l.topPct)
	}
	a.reset()
	if a.n != 0 || len(a.over) != 0 || a.counts[1000] != 0 {
		t.Error("reset left samples behind")
	}
}

// span builds a synthetic span; times in microseconds.
func span(trace, id, parent uint64, comp, name string, server int, start, end float64) otrace.Span {
	return otrace.Span{Trace: trace, ID: id, Parent: parent, Comp: comp, Name: name, Server: server,
		Start: start * 1e-6, Dur: (end - start) * 1e-6}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestSelfTime(t *testing.T) {
	spans := []otrace.Span{
		// Trace 1: a proxied get. The hop span closes before the server
		// span it parents starts.
		span(100, 101, 0, "bench", "op", 0, 0, 21),
		span(1, 2, 0, "client", "get", 0, 1, 20),
		span(1, 3, 2, "client", "rpc", 0, 2, 19),
		span(1, 4, 3, "proxy", "hop", -1, 4, 6),
		span(1, 5, 4, "server", "handle", 0, 9, 13),
		span(1, 6, 5, "server", "service", 0, 10, 12),
		// Trace 2: a two-leg multiget whose legs overlap in time.
		span(200, 201, 0, "bench", "op", 1, 30, 52),
		span(2, 10, 0, "client", "multiget", -1, 31, 51),
		span(2, 11, 10, "client", "leg", 0, 32, 45),
		span(2, 12, 10, "client", "leg", 1, 34, 50),
		span(2, 13, 11, "client", "rpc", 0, 33, 44),
		span(2, 14, 12, "client", "rpc", 1, 35, 49),
		span(2, 15, 13, "server", "handle", 0, 36, 40),
		span(2, 16, 15, "server", "service", 0, 36, 40),
		span(2, 17, 14, "server", "handle", 1, 38, 46),
		span(2, 18, 17, "server", "service", 1, 39, 45),
		// Trace 3: the server span fell out of the ring.
		span(300, 301, 0, "bench", "op", 0, 60, 70),
		span(3, 20, 0, "client", "get", 0, 61, 69),
		span(3, 21, 20, "client", "rpc", 0, 62, 68),
		// Trace 4: the root fell out of the ring.
		span(4, 31, 30, "client", "rpc", 0, 82, 88),
		span(4, 32, 31, "server", "handle", 0, 83, 85),
		span(4, 33, 32, "server", "service", 0, 83, 85),
		// A SET: the harness span is all there is.
		span(500, 501, 0, "bench", "op", 1, 90, 99),
	}
	st := analyze(spans)
	if st.traces != 4 || st.complete != 2 {
		t.Fatalf("%d traces, %d complete; want 4 and 2", st.traces, st.complete)
	}
	// Trace 1: bench 21-19=2; client 19-17=2; wire 17-(2+4)=11; proxy 2; server 4.
	// Trace 2: bench 22-20=2; client root 20-18=2, legs (13-11)+(16-14)=4;
	// wire (11-4)+(14-8)=13; server 4+8=12.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"bench", st.bench, (2 + 2) / 2.0},
		{"client", st.client, (2 + 6) / 2.0},
		{"wire", st.wire, (11 + 13) / 2.0},
		{"proxy", st.proxy, (2 + 0) / 2.0},
		{"server", st.server, (4 + 12) / 2.0},
	} {
		if !near(c.got, c.want*1e-6) {
			t.Errorf("%s self = %.3f us, want %.3f", c.name, c.got*1e6, c.want)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTheProgram(t *testing.T) {
	m := readManifest(t)
	var gated []workload
	for _, w := range workloads {
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(m.Workloads) != len(gated) {
		t.Fatalf("manifest lists %d workloads, the program gates %d", len(m.Workloads), len(gated))
	}
	for i, w := range gated {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q / program %q (or their why differs)", i, m.Workloads[i].Name, w.name)
		}
	}
	if len(m.EndToEnd) != len(e2eSpecs) {
		t.Fatalf("manifest lists %d end-to-end metrics, the program has %d", len(m.EndToEnd), len(e2eSpecs))
	}
	for i, s := range e2eSpecs {
		better := "higher"
		if s.lowerBest {
			better = "lower"
		}
		if g := m.EndToEnd[i]; g.Name != s.name || g.Unit != s.unit || g.Better != better || g.Bound != s.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, g, s)
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before it\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEveryWorkloadBootsVerifiesAndTearsDown(t *testing.T) {
	recs := []*recorder{newRecorder(), newRecorder()}
	for _, full := range workloads {
		w := small(t, full.name)
		base := runtime.NumGoroutine()
		e, _, err := setup(w, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := e.measure(recs, 0, 200*time.Millisecond, 1, false)
		rep := &report{w: w}
		r.check(e, rep)
		if rep.attempted == 0 || !rep.correct() {
			t.Errorf("%s: attempted %d, failed %d, problems %v", w.name, rep.attempted, rep.failed, rep.problems)
		}
		listeners := append(append([]string(nil), e.addrs...), e.front)
		e.close()
		for _, addr := range listeners {
			if addr == "" {
				continue
			}
			if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				_ = c.Close()
				t.Errorf("%s: %s still accepts connections after close", w.name, addr)
			}
		}
		waitGoroutines(t, base, w.name)
	}
}

// TestLayerRun drives one whole layer run + traced run at a twentieth of
// the real length and checks the contract of its output: every
// per-layer metric of the manifest is reported, once, and the trace
// file is Chrome JSON that otrace.ParseChrome accepts.
func TestLayerRun(t *testing.T) {
	base := runtime.NumGoroutine()
	w := small(t, "get_proxied")
	rep := &report{w: w}
	dir := t.TempDir()
	if err := runLayers(w, 1, 0.75, dir, rep); err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Errorf("failed %d of %d, problems %v", rep.failed, rep.attempted, rep.problems)
	}
	var got, want []string
	for _, m := range rep.layers {
		got = append(got, m.name+" "+m.unit)
	}
	for _, m := range readManifest(t).PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("the run reported %d per-layer metrics, the manifest lists %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("per-layer metrics diverge at %q (run) vs %q (manifest)", got[i], want[i])
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := otrace.ParseChrome(data); err != nil || n == 0 {
		t.Errorf("ParseChrome: %d events, %v", n, err)
	}
	if rep.value("trace.coverage_frac") <= 0 || rep.value("trace.proxy_self_us") <= 0 {
		t.Errorf("traced run found no complete proxied tree: coverage %g, proxy self %g",
			rep.value("trace.coverage_frac"), rep.value("trace.proxy_self_us"))
	}
	waitGoroutines(t, base, "layer run")
}
