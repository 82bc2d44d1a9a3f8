// Smoke tests of the real binaries: each boots cmd/memcached-server
// (and cmd/mcproxy, cmd/mcbench) as child processes on loopback ports
// they pick and report, through internal/testkit, and asserts on their typed
// output — the admin pages decoded, the report lines scanned into
// numbers — then reaps the children and checks this process against its
// goroutine and descriptor baseline.
package memqlat_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"memqlat/internal/slo"
	"memqlat/internal/testkit"
)

func TestMain(m *testing.M) {
	defer testkit.RemoveBuilt()
	m.Run()
}

// bin builds cmd/<name> (once per test process); -short skips the test.
func bin(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("boots the real binaries under paced load")
	}
	return testkit.Build(t, "cmd/"+name)
}

// Every child binds 127.0.0.1:0 and logs what it bound: these are the
// markers of its data-plane and admin-plane lines.
const (
	listeningOn = "listening on "
	adminOn     = "admin plane on http://"
)

// stopClean sends SIGTERM and wants the drained exit status 0.
func stopClean(t *testing.T, what string, p *testkit.Proc) {
	t.Helper()
	if err := p.Stop(syscall.SIGTERM); err != nil {
		t.Errorf("%s after SIGTERM: %v, want exit 0", what, err)
	}
}

// scanLine finds the report line starting with head in an mcbench
// report and scans the numbers after it by format.
func scanLine(t *testing.T, out, head, format string, into ...any) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, head); ok {
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), format, into...); err != nil {
				t.Fatalf("report line %q does not scan as %q: %v", line, format, err)
			}
			return
		}
	}
	t.Fatalf("no %q line in the report:\n%s", head, out)
}

// wantFamilies checks that a /metrics page declares every family.
func wantFamilies(t *testing.T, m testkit.Metrics, families ...string) {
	t.Helper()
	for _, f := range families {
		if _, ok := m.Families[f]; !ok {
			t.Errorf("/metrics declares no family %s", f)
		}
	}
}

// TestObsSmoke boots memcached-server with the admin plane and checks
// that /healthz, /metrics and /trace answer with the expected content.
func TestObsSmoke(t *testing.T) {
	server := bin(t, "memcached-server")
	settled := testkit.Settles(t)
	srv := testkit.Start(t, server, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-trace-ring", "1024")
	admin := testkit.Addr(t, srv.Stderr, adminOn)

	var health struct{ Status string }
	testkit.GetJSON(t, "http://"+admin+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("/healthz status = %q, want ok", health.Status)
	}
	wantFamilies(t, testkit.Scrape(t, "http://"+admin+"/metrics"),
		"memqlat_server_connections_current", "memqlat_cache_shard_items",
		"memqlat_stage_latency_seconds", "memqlat_trace_spans_kept")
	var trace map[string]json.RawMessage
	testkit.GetJSON(t, "http://"+admin+"/trace", &trace)
	if _, ok := trace["traceEvents"]; !ok {
		t.Errorf("/trace has no traceEvents: %v", trace)
	}

	stopClean(t, "memcached-server", srv)
	settled("obs smoke")
}

// TestSignalAfterAdminSmoke sends SIGTERM to memcached-server and to
// mcproxy the moment each logs its admin plane, 20 times each, and wants
// the drained exit status 0 every time: the signal handler is installed
// before anything serves, so no signal can find the default action.
func TestSignalAfterAdminSmoke(t *testing.T) {
	server, mcproxy := bin(t, "memcached-server"), bin(t, "mcproxy")
	settled := testkit.Settles(t)
	upstream := testkit.Start(t, server, "-addr", "127.0.0.1:0")
	addr := testkit.Addr(t, upstream.Stderr, listeningOn)
	for _, c := range []struct {
		bin  string
		args []string
	}{
		{server, []string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0"}},
		{mcproxy, []string{"-listen", "127.0.0.1:0", "-servers", addr, "-admin", "127.0.0.1:0"}},
	} {
		name := filepath.Base(c.bin)
		for i := range 20 {
			p := testkit.Start(t, c.bin, c.args...)
			// Poll tighter than testkit.Addr, so the signal lands as close
			// behind the admin line as a reader can put it.
			for deadline := time.Now().Add(10 * time.Second); !strings.Contains(p.Stderr(), adminOn); {
				if time.Now().After(deadline) {
					t.Fatalf("%s run %d: no admin line after 10s:\n%s", name, i, p.Stderr())
				}
				time.Sleep(50 * time.Microsecond)
			}
			stopClean(t, fmt.Sprintf("%s run %d", name, i), p)
		}
	}
	stopClean(t, "upstream memcached-server", upstream)
	settled("signal smoke")
}

// TestCoalesceSmoke drives a hot-key steady-miss workload at a live
// server with single-flight coalescing and wants the backend fetch count
// far below the miss count: thundering-herd protection end to end.
func TestCoalesceSmoke(t *testing.T) {
	server, mcbench := bin(t, "memcached-server"), bin(t, "mcbench")
	settled := testkit.Settles(t)
	srv := testkit.Start(t, server, "-addr", "127.0.0.1:0")
	addr := testkit.Addr(t, srv.Stderr, listeningOn)

	// Every get forced to miss on a tiny Zipf keyspace, fills held in
	// flight ~10ms each (mud=100), negative fill TTL so write-backs never
	// mask later misses. 32 workers pile onto the same key, so with
	// -coalesce most misses must fan in to an existing fetch.
	out := testkit.Run(t, mcbench, "-servers", addr, "-keys", "8", "-zipf", "4", "-ops", "3000", "-lambda", "1500",
		"-miss-ratio", "1", "-fill-misses", "-mud", "100", "-fill-ttl", "-1s", "-coalesce", "-workers", "32")
	var misses, fetches, fanIns, sheds, peak int
	scanLine(t, out, "fills", "%d misses, %d db fetches, %d fan-ins, %d sheds, queue peak %d",
		&misses, &fetches, &fanIns, &sheds, &peak)
	if misses < 1000 {
		t.Errorf("%d misses, want a steady miss stream of at least 1000", misses)
	}
	if fetches*5 > misses {
		t.Errorf("%d db fetches for %d misses: coalescing saved less than 5x", fetches, misses)
	}
	if fetches+fanIns != misses {
		t.Errorf("fetches(%d) + fan-ins(%d) != misses(%d)", fetches, fanIns, misses)
	}

	stopClean(t, "memcached-server", srv)
	settled("coalesce smoke")
}

// tenantRow is one `name: issued=… shed=… p99us=…` row of an mcbench
// report.
type tenantRow struct{ issued, shed, p99us int }

func scanTenant(t *testing.T, out, name string) (r tenantRow) {
	t.Helper()
	head := name + ": issued="
	i := strings.Index(out, head)
	if i < 0 {
		t.Fatalf("mcbench reported no %s tenant row:\n%s", name, out)
	}
	if _, err := fmt.Sscanf(out[i:], head+"%d shed=%d p99us=%d", &r.issued, &r.shed, &r.p99us); err != nil {
		t.Fatalf("%s tenant row does not scan: %v\n%s", name, err, out)
	}
	return r
}

// TestQoSSmoke puts a standalone mcproxy enforcing tenant quotas in
// front of a live server and overloads one tenant: the aggressor sheds,
// the victim does not, the victim's p99 stays bounded, and the proxy's
// /metrics ledger agrees.
func TestQoSSmoke(t *testing.T) {
	server, mcproxy, mcbench := bin(t, "memcached-server"), bin(t, "mcproxy"), bin(t, "mcbench")
	settled := testkit.Settles(t)
	srv := testkit.Start(t, server, "-addr", "127.0.0.1:0")
	addr := testkit.Addr(t, srv.Stderr, listeningOn)
	// The proxy enforces the quotas: the victim is unlimited, the
	// aggressor's 150 ops/s is far under the ~800/s mcbench offers it. The
	// 80-op burst absorbs the populate sets so only the run sheds.
	prx := testkit.Start(t, mcproxy, "-listen", "127.0.0.1:0", "-servers", addr, "-admin", "127.0.0.1:0",
		"-tenants", "victim;aggressor:rate=150,burst=80")
	paddr, admin := testkit.Addr(t, prx.Stderr, listeningOn), testkit.Addr(t, prx.Stderr, adminOn)

	// mcbench's own specs carry no rates: they only shape the offered mix
	// (50/50 prefixed key streams through its pass-through proxy). The
	// standalone mcproxy is the enforcement point under test.
	out := testkit.Run(t, mcbench, "-servers", paddr, "-proxy", "-tenants", "victim:share=0.5;aggressor:share=0.5",
		"-keys", "64", "-ops", "8000", "-lambda", "1600", "-workers", "32", "-timeout", "60s")
	victim, aggressor := scanTenant(t, out, "victim"), scanTenant(t, out, "aggressor")
	if victim.shed != 0 {
		t.Errorf("victim shed %d ops, want 0", victim.shed)
	}
	if aggressor.shed <= 0 {
		t.Error("aggressor shed nothing at 5x quota")
	}
	// Generous fixed bound: an unshaped server answers in microseconds;
	// triple-digit ms means admitted traffic queued behind the aggressor.
	if victim.p99us >= 100000 {
		t.Errorf("victim p99 %dµs, want under 100ms", victim.p99us)
	}

	m := testkit.Scrape(t, "http://"+admin+"/metrics")
	if s, ok := m.Series[`memqlat_tenant_shed_total{tenant="aggressor"}`]; !ok || s.Value <= 0 {
		t.Errorf("proxy /metrics aggressor sheds = %v (present %v), want > 0", s.Value, ok)
	}
	if s, ok := m.Series[`memqlat_tenant_shed_total{tenant="victim"}`]; !ok || s.Value != 0 {
		t.Errorf("proxy /metrics victim sheds = %v (present %v), want 0", s.Value, ok)
	}

	stopClean(t, "mcproxy", prx)
	stopClean(t, "memcached-server", srv)
	settled("qos smoke")
}

// TestExtstoreSmoke boots memcached-server with a 1 MiB RAM cache and an
// extstore tier, drives a lognormal-value workload whose keyspace
// overflows RAM (so eviction victims spill into segment files), and
// wants (a) the disk tier to serve reads and (b) a SIGKILLed server to
// recover its disk index from the segment log and keep serving disk
// hits. A failing run keeps the segment directory and says where.
func TestExtstoreSmoke(t *testing.T) {
	server, mcbench := bin(t, "memcached-server"), bin(t, "mcbench")
	settled := testkit.Settles(t)
	dir := t.TempDir()
	t.Cleanup(func() { // runs before TempDir's own removal
		if !t.Failed() {
			return
		}
		kept, err := os.MkdirTemp("", "memqlat-extstore-smoke-")
		if err == nil {
			err = os.Rename(dir, filepath.Join(kept, "segments"))
		}
		t.Logf("segment directory kept in %s (%v)", kept, err)
	})
	start := func() (*testkit.Proc, string) {
		// One shard and a small item cap: the per-shard budget floor is
		// MaxItemSize, so many shards would silently inflate the 1 MiB
		// budget past the keyspace and nothing would ever spill.
		p := testkit.Start(t, server, "-addr", "127.0.0.1:0", "-memory-mb", "1", "-shards", "1", "-max-item-kb", "64",
			"-extstore-dir", dir, "-extstore-segment-kb", "64")
		return p, testkit.Addr(t, p.Stderr, listeningOn)
	}
	// ~12k keys of lognormal values (mean 100 B) cost ~2 MiB against a
	// 1 MiB RAM cache: populate evicts the early (Zipf-hot) keys to disk,
	// so the measured gets must come back through the extstore tier.
	diskHits := func(addr string, ops int) (hits int) {
		out := testkit.Run(t, mcbench, "-servers", addr, "-keys", "12000", "-value-dist", "lognormal", "-zipf", "1",
			"-ops", strconv.Itoa(ops), "-lambda", "30000", "-workers", "32")
		var promotions, segmentBytes, compactions int
		scanLine(t, out, "extstore", "%d disk hits, %d promotions, %d segment bytes, %d compactions",
			&hits, &promotions, &segmentBytes, &compactions)
		return hits
	}

	srv, addr := start()
	if hits := diskHits(addr, 6000); hits <= 0 {
		t.Errorf("the disk tier served %d reads before the crash", hits)
	}
	// Crash: no shutdown path runs, the active segment keeps its torn
	// tail. Recovery must rebuild the index from the durable prefix.
	_ = srv.Stop(syscall.SIGKILL) // "signal: killed" is the point
	srv, addr = start()
	if m := regexp.MustCompile(`(\d+) keys recovered`).FindStringSubmatch(srv.Stderr()); m == nil || m[1] == "0" {
		t.Errorf("restart recovered no keys from the segment log (%v):\n%s", m, srv.Stderr())
	}
	// The reopened tier must still serve reads (the restart emptied RAM,
	// so the re-populated keyspace spills and reads back again).
	if hits := diskHits(addr, 3000); hits <= 0 {
		t.Errorf("%d disk hits after crash recovery", hits)
	}

	stopClean(t, "memcached-server", srv)
	settled("extstore smoke")
}

// TestSLOSmoke is the end-to-end check of the model-anchored watchdog.
func TestSLOSmoke(t *testing.T) {
	server, mcbench := bin(t, "memcached-server"), bin(t, "mcbench")
	settled := testkit.Settles(t)
	alert := regexp.MustCompile(`slo alert kind=drift window=\d+ stage=(\w+)`)
	drifted := func(output, stage string) bool {
		for _, m := range alert.FindAllStringSubmatch(output, -1) {
			if m[1] == stage {
				return true
			}
		}
		return false
	}

	// A server anchored at λ=100/s takes 4x that load: queue_wait must
	// leave its Theorem-1 band, the alert line must land on the server's
	// stderr and /debug/watch must blame queue_wait; -exemplars plus a
	// tracing client (-slow arms it, so commands carry in-band trace IDs)
	// puts a trace_id exemplar on the stage histograms.
	t.Run("server overload", func(t *testing.T) {
		srv := testkit.Start(t, server, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-service-rate", "500", "-trace-ring", "1024",
			"-exemplars", "-slo", "lambda=100,mus=500,q=0.1,xi=0.15,window=0.5s,k=2,band=3")
		addr, admin := testkit.Addr(t, srv.Stderr, listeningOn), testkit.Addr(t, srv.Stderr, adminOn)
		testkit.Run(t, mcbench, "-servers", addr, "-keys", "200", "-value-size", "64", "-lambda", "400", "-ops", "1200",
			"-workers", "32", "-seed", "7", "-trace-ring", "1024", "-slow", "10s")

		var watch slo.Status
		testkit.GetJSON(t, "http://"+admin+"/debug/watch", &watch)
		if watch.TopDrift != "queue_wait" {
			t.Errorf("/debug/watch top_drift = %q after %d windows and %d drift alerts, want queue_wait",
				watch.TopDrift, watch.WindowsClosed, watch.DriftAlerts)
		}
		if !drifted(srv.Stderr(), "queue_wait") {
			t.Errorf("no queue_wait drift alert line on server stderr:\n%s", srv.Stderr())
		}
		m := testkit.Scrape(t, "http://"+admin+"/metrics")
		wantFamilies(t, m, "memqlat_slo_armed", "memqlat_slo_windows_closed_total", "memqlat_slo_stage_drifting",
			"memqlat_slo_drift_alerts_total", "memqlat_server_command_latency_seconds")
		if s := m.Series[`memqlat_slo_stage_drifting{stage="queue_wait"}`]; s.Value != 1 {
			t.Errorf("/metrics slo_stage_drifting{queue_wait} = %v, want 1", s.Value)
		}
		exemplars := 0
		for series, s := range m.Series {
			if strings.HasPrefix(series, "memqlat_stage_latency_seconds_bucket{") && s.TraceID != "" {
				exemplars++
			}
		}
		if exemplars == 0 {
			t.Error("no stage bucket carries a trace_id exemplar despite -exemplars and traced load")
		}
		stopClean(t, "memcached-server", srv)
	})

	// The live plane with a mid-run db slowdown: the watchdog rides the
	// run and must name miss_penalty.
	t.Run("live plane db fault", func(t *testing.T) {
		out := testkit.Run(t, mcbench, "-plane=live", "-plane-servers", "2", "-lambda", "300", "-mus", "500",
			"-ops", "900", "-workers", "32", "-miss-ratio", "0.2", "-mud", "500", "-seed", "7",
			"-faults", "slow:srv=db,from=1s,delay=50ms", "-slo", "window=0.5s,k=2,band=3")
		if !alert.MatchString(out) {
			t.Errorf("mcbench live run fired no drift alert:\n%s", out)
		}
		if m := regexp.MustCompile(`top drift (\w+)`).FindStringSubmatch(out); m == nil || m[1] != "miss_penalty" {
			t.Errorf("mcbench live run blamed %v, want miss_penalty:\n%s", m, out)
		}
	})
	settled("slo smoke")
}

// TestExamplesSmoke runs the two walkthroughs that open sockets (the
// model-only ones are Example functions beside their mains) and wants
// exit 0 and the headline each ends on.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs two binaries")
	}
	settled := testkit.Settles(t)
	out := testkit.Run(t, testkit.Build(t, "examples/quickstart"))
	var gets, hits, items int
	scanLine(t, out, "stats", "-> %d gets, %d hits, %d items", &gets, &hits, &items)
	if gets != 9 || hits != 8 || items != 7 {
		t.Errorf("quickstart ended on %d gets, %d hits, %d items, want 9, 8, 7:\n%s", gets, hits, items, out)
	}

	out = testkit.Run(t, testkit.Build(t, "examples/replay"))
	var accesses, distinct int
	scanLine(t, out, "trace MRC:", "%d accesses / %d distinct keys", &accesses, &distinct)
	if accesses != 8000 || distinct == 0 {
		t.Errorf("replay journalled %d accesses over %d keys, want 8000 over some:\n%s", accesses, distinct, out)
	}
	var observed float64
	scanLine(t, out, "replayed against a ~500-item cache:", "%f%% observed miss ratio", &observed)
	if observed <= 0 || observed >= 100 {
		t.Errorf("replay observed a %.1f%% miss ratio against the small cache:\n%s", observed, out)
	}
	settled("examples smoke")
}
