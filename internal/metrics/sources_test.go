package metrics

import (
	"context"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/coalesce"
	"memqlat/internal/otrace"
	"memqlat/internal/proxy"
	"memqlat/internal/server"
	"memqlat/internal/tenant"
)

// startStack brings up one server, a proxy in front of it, and a client
// pointed at the server directly.
func startStack(t *testing.T) (*server.Server, *proxy.Proxy, *client.Client) {
	t.Helper()
	ch, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Cache: ch, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	px, err := proxy.New(proxy.Options{Upstreams: []string{l.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = px.Serve(pl) }()
	t.Cleanup(func() { _ = px.Close() })

	cl, err := client.New(client.Options{Servers: []string{l.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return srv, px, cl
}

func TestRegisterStackSources(t *testing.T) {
	srv, px, cl := startStack(t)
	if err := cl.Set("mk", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("mk"); err != nil {
		t.Fatal(err)
	}
	tr := otrace.New(otrace.Options{})
	tr.End(tr.Begin(otrace.Ctx{}, "client", "get", 0))

	reg := NewRegistry()
	RegisterServers(reg, []*server.Server{srv})
	RegisterProxy(reg, px)
	RegisterClient(reg, cl)
	RegisterTracer(reg, tr)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`memqlat_server_commands_total{server="0",op="get"} 1`,
		`memqlat_server_commands_total{server="0",op="set"} 1`,
		// Every command is timed: the histogram counts both commands sent.
		`memqlat_server_command_latency_seconds_count{server="0"} 2`,
		`memqlat_cache_operations_total{server="0",result="hit"} 1`,
		`memqlat_cache_shard_items{`,
		"memqlat_cache_lock_waits_total",
		"memqlat_proxy_commands_total 0",
		`memqlat_proxy_upstream_queue_depth{upstream="0"} 0`,
		`memqlat_proxy_breaker_state{upstream="0"} -1`,
		`memqlat_client_pool_dials_total{server="0"} 1`,
		`memqlat_client_breaker_state{server="0"} -1`,
		"memqlat_trace_spans_kept 1",
		"memqlat_trace_spans_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Cache shard occupancy sums to the item count.
	items := srv.Cache().Stats().Items
	var sum float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "memqlat_cache_shard_items{") {
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			sum += v
		}
	}
	if int64(sum) != items {
		t.Errorf("shard items sum = %v, cache reports %d", sum, items)
	}
}

// TestRegisterCoalesceBackend drives a coalesced miss through a group
// backed by a single-queue backend and checks both ledgers surface on
// the exposition: fetches vs fan-ins on the group, lookups and queue
// gauges on the database.
func TestRegisterCoalesceBackend(t *testing.T) {
	g := coalesce.New(nil)
	db, err := backend.New(backend.Options{
		MuD: 50000, Seed: 1, QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	fetch := func(ctx context.Context) ([]byte, error) { return db.Get(ctx, "hot") }
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Do(context.Background(), "hot", fetch); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	g.Invalidate("idle") // not in flight: must NOT count

	reg := NewRegistry()
	RegisterCoalesce(reg, g)
	RegisterBackend(reg, db)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	st := g.Stats()
	if st.Fetches+st.FanIns != 4 || st.Fetches == 0 {
		t.Fatalf("fetches=%d fanins=%d, want 4 outcomes with >=1 fetch", st.Fetches, st.FanIns)
	}
	for _, want := range []string{
		"memqlat_coalesce_inflight_keys 0",
		"memqlat_coalesce_waiters 0",
		"memqlat_coalesce_fetches_total " + strconv.FormatInt(st.Fetches, 10),
		"memqlat_coalesce_fanins_total " + strconv.FormatInt(st.FanIns, 10),
		"memqlat_coalesce_sheds_total 0",
		"memqlat_coalesce_invalidations_total 0",
		"memqlat_backend_lookups_total " + strconv.FormatInt(st.Fetches, 10),
		"memqlat_backend_dropped_total 0",
		"memqlat_backend_queue_depth 0",
		"memqlat_backend_queue_peak",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// A nil/non-coalescing group registers no families at all.
	empty := NewRegistry()
	RegisterCoalesce(empty, nil)
	RegisterBackend(empty, nil)
	sb.Reset()
	if err := empty.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "memqlat_coalesce") || strings.Contains(sb.String(), "memqlat_backend") {
		t.Error("nil sources should register nothing")
	}
}

// TestRegisterTenants drives a limiter directly (one admitted tenant,
// one over quota, plus catch-all traffic) and checks the per-tenant
// ledger surfaces on the exposition with the implicit "*" row.
func TestRegisterTenants(t *testing.T) {
	lim, err := tenant.New([]tenant.Spec{
		{Name: "acme"},
		{Name: "evil", Rate: 100, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lim.FromKey([]byte("acme:k")).Admit(0, 1, 10)
	lim.FromKey([]byte("acme:k")).Observe(0.002)
	ev := lim.FromKey([]byte("evil:k"))
	ev.Admit(0, 1, 0)                                // drains the 1-token burst
	ev.Admit(0, 1, 5)                                // shed
	lim.FromKey([]byte("unprefixed")).Admit(0, 1, 0) // catch-all

	reg := NewRegistry()
	RegisterTenants(reg, lim)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`memqlat_tenant_admitted_total{tenant="acme"} 1`,
		`memqlat_tenant_shed_total{tenant="acme"} 0`,
		`memqlat_tenant_admitted_total{tenant="evil"} 1`,
		`memqlat_tenant_shed_total{tenant="evil"} 1`,
		`memqlat_tenant_admitted_bytes_total{tenant="acme"} 10`,
		`memqlat_tenant_shed_bytes_total{tenant="evil"} 5`,
		`memqlat_tenant_tokens{tenant="evil"} 0`,
		`memqlat_tenant_admitted_total{tenant="*"} 1`,
		`memqlat_tenant_latency_quantile_seconds{tenant="acme",q="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// A nil limiter registers nothing.
	empty := NewRegistry()
	RegisterTenants(empty, nil)
	sb.Reset()
	if err := empty.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "memqlat_tenant") {
		t.Error("nil limiter should register nothing")
	}
}

func TestBreakerStateValue(t *testing.T) {
	for state, want := range map[string]float64{
		"closed": 0, "half-open": 1, "open": 2, "disabled": -1, "???": -1,
	} {
		if got := breakerStateValue(state); got != want {
			t.Errorf("breakerStateValue(%q) = %v, want %v", state, got, want)
		}
	}
}
