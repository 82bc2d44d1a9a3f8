package proxy

import (
	"fmt"
	"math"
	"testing"

	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

func qosLimiter(t testing.TB, specs ...tenant.Spec) *tenant.Limiter {
	t.Helper()
	l, err := tenant.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestProxyTenantShedding drives an over-limit silver tenant and an
// unlimited victim through one proxy: the aggressor sheds with the
// tenant SERVER_ERROR once its bucket drains, the victim never sheds,
// and counters/telemetry agree with the wire.
func TestProxyTenantShedding(t *testing.T) {
	addrs := startBackends(t, 1)
	lim := qosLimiter(t,
		tenant.Spec{Name: "evil", Rate: 1000, Burst: 2},
		tenant.Spec{Name: "acme"},
	)
	clock := 0.0
	col := telemetry.NewCollector()
	p, addr := startProxy(t, Options{
		Upstreams:   addrs,
		Tenants:     lim,
		TenantClock: func() float64 { return clock }, // frozen: no refill
		Recorder:    col,
	})
	c := dialConn(t, addr)
	c.set("acme:1", "victimvalue")
	c.set("evil:1", "aggressorvalue") // 1 of 2 burst tokens

	// Burst is 2 ops and the clock is frozen: one more op admits,
	// everything after sheds.
	c.send("get evil:1\r\n")
	if got := c.retrieval(); got["evil:1"] != "aggressorvalue" {
		t.Fatalf("admitted read lost: %v", got)
	}
	for i := 0; i < 3; i++ {
		c.send("get evil:1\r\n")
		c.expect(tenant.ShedMsg)
	}
	// The victim is untouched by the aggressor's empty bucket.
	for i := 0; i < 5; i++ {
		c.send("get acme:1\r\n")
		if got := c.retrieval(); got["acme:1"] != "victimvalue" {
			t.Fatalf("victim read lost: %v", got)
		}
	}
	// Refill: one second at 1000/s refills to the burst cap.
	clock = 1.0
	c.send("get evil:1\r\n")
	if got := c.retrieval(); got["evil:1"] != "aggressorvalue" {
		t.Fatalf("refilled read lost: %v", got)
	}

	st := p.Stats()
	if st.TenantSheds != 3 {
		t.Fatalf("TenantSheds = %d, want 3", st.TenantSheds)
	}
	evil := lim.FromKey([]byte("evil:")).Snapshot()
	acme := lim.FromKey([]byte("acme:")).Snapshot()
	if evil.Shed != 3 {
		t.Fatalf("evil shed = %d, want 3", evil.Shed)
	}
	if acme.Shed != 0 {
		t.Fatalf("acme shed = %d, want 0", acme.Shed)
	}
	if acme.Admitted != 6 { // 1 set + 5 gets
		t.Fatalf("acme admitted = %d, want 6", acme.Admitted)
	}
	if bd := col.Breakdown(); bd[telemetry.StageTenantShed].Count != 3 {
		t.Fatalf("tenant_shed stage count = %d, want 3", bd[telemetry.StageTenantShed].Count)
	}
	if lim.FromKey([]byte("acme:")).Latency().Count() == 0 {
		t.Fatal("admitted commands must feed the per-tenant latency histogram")
	}

	// The stats command reports the per-tenant rows.
	c.send("stats\r\n")
	rows := map[string]string{}
	for {
		line := c.line()
		if line == "END" {
			break
		}
		var k, v string
		if _, err := fmt.Sscanf(line, "STAT %s %s", &k, &v); err != nil {
			t.Fatalf("bad stats line %q", line)
		}
		rows[k] = v
	}
	if rows["tenant_sheds"] != "3" || rows["tenant_evil_shed"] != "3" || rows["tenant_acme_shed"] != "0" {
		t.Fatalf("stats rows = %v", rows)
	}
}

// TestProxyTenantByteQuota sheds storage traffic on bytes while reads
// (zero stored bytes) keep flowing.
func TestProxyTenantByteQuota(t *testing.T) {
	addrs := startBackends(t, 1)
	lim := qosLimiter(t, tenant.Spec{Name: "blob", ByteRate: 100, ByteBurst: 150})
	_, addr := startProxy(t, Options{
		Upstreams:   addrs,
		Tenants:     lim,
		TenantClock: func() float64 { return 0 },
	})
	c := dialConn(t, addr)
	c.set("blob:1", string(make([]byte, 120))) // 150 -> 30 byte tokens
	c.send(fmt.Sprintf("set blob:2 0 0 %d\r\n%s\r\n", 120, string(make([]byte, 120))))
	c.expect(tenant.ShedMsg)
	c.send("get blob:1\r\n")
	if got := c.retrieval(); len(got["blob:1"]) != 120 {
		t.Fatalf("read after byte shed: %v", got)
	}
	s := lim.FromKey([]byte("blob:")).Snapshot()
	if s.ShedBytes != 120 || s.AdmBytes != 120 {
		t.Fatalf("byte accounting: adm=%d shed=%d", s.AdmBytes, s.ShedBytes)
	}
}

// TestProxyTenantNoreplyShedDropped: a shed noreply write is dropped
// silently — no reply line that would desynchronize the pipeline.
func TestProxyTenantNoreplyShedDropped(t *testing.T) {
	addrs := startBackends(t, 1)
	lim := qosLimiter(t, tenant.Spec{Name: "q", Rate: 10, Burst: 1})
	p, addr := startProxy(t, Options{
		Upstreams:   addrs,
		Tenants:     lim,
		TenantClock: func() float64 { return 0 },
	})
	c := dialConn(t, addr)
	c.send("set q:1 0 0 1 noreply\r\na\r\n") // admitted (burst 1)
	c.send("set q:2 0 0 1 noreply\r\nb\r\n") // shed, no reply
	c.send("version\r\n")                    // control plane: exempt
	c.expect("VERSION memqlat-proxy")
	if s := lim.FromKey([]byte("q:")).Snapshot(); s.Shed != 1 || s.Admitted != 1 {
		t.Fatalf("noreply accounting: %+v", s)
	}
	if st := p.Stats(); st.TenantSheds != 1 {
		t.Fatalf("TenantSheds = %d", st.TenantSheds)
	}
}

// TestProxyTenantMultigetCharge: an n-key get charges n op tokens to
// the first key's tenant (matching the sim's per-key charging).
func TestProxyTenantMultigetCharge(t *testing.T) {
	addrs := startBackends(t, 1)
	lim := qosLimiter(t, tenant.Spec{Name: "mg", Rate: 10, Burst: 4})
	_, addr := startProxy(t, Options{
		Upstreams:   addrs,
		Tenants:     lim,
		TenantClock: func() float64 { return 0 },
	})
	c := dialConn(t, addr)
	c.send("get mg:1 mg:2 mg:3\r\n") // 3 tokens of 4
	c.retrieval()
	c.send("get mg:1 mg:2\r\n") // needs 2, only 1 left
	c.expect(tenant.ShedMsg)
	if s := lim.FromKey([]byte("mg:")).Snapshot(); s.Admitted != 3 || s.Shed != 2 {
		t.Fatalf("multiget accounting: %+v", s)
	}
}

// TestProxyTenantGoldNeverShed: gold tenants blast past their nominal
// rate without a single shed.
func TestProxyTenantGoldNeverShed(t *testing.T) {
	addrs := startBackends(t, 1)
	lim := qosLimiter(t, tenant.Spec{Name: "vip", Class: tenant.ClassGold, Rate: 1, Burst: 1})
	_, addr := startProxy(t, Options{
		Upstreams:   addrs,
		Tenants:     lim,
		TenantClock: func() float64 { return 0 },
	})
	c := dialConn(t, addr)
	c.set("vip:1", "x")
	for i := 0; i < 20; i++ {
		c.send("get vip:1\r\n")
		if got := c.retrieval(); got["vip:1"] != "x" {
			t.Fatalf("gold read %d lost: %v", i, got)
		}
	}
	if s := lim.FromKey([]byte("vip:")).Snapshot(); s.Shed != 0 || s.Admitted != 21 {
		t.Fatalf("gold accounting: %+v", s)
	}
}

// TestProxyTenantDefaultClockThrottles: without an explicit
// TenantClock the proxy meters on wall seconds since creation, so a
// tight bucket still sheds under a burst.
func TestProxyTenantDefaultClockThrottles(t *testing.T) {
	addrs := startBackends(t, 1)
	lim := qosLimiter(t, tenant.Spec{Name: "w", Rate: 1, Burst: 2})
	_, addr := startProxy(t, Options{Upstreams: addrs, Tenants: lim})
	c := dialConn(t, addr)
	c.set("w:1", "x")
	sheds := 0
	for i := 0; i < 10; i++ {
		c.send("get w:1\r\n")
		if line := c.line(); line == tenant.ShedMsg {
			sheds++
			continue
		}
		// consume the rest of the retrieval reply
		if _, err := c.r.ReadString('\n'); err != nil { // value line
			t.Fatal(err)
		}
		c.expect("END")
	}
	if sheds == 0 {
		t.Fatal("tight bucket on the wall clock never shed")
	}
	if s := lim.FromKey([]byte("w:")).Snapshot(); s.Shed != int64(sheds) {
		t.Fatalf("limiter shed %d, wire saw %d", s.Shed, sheds)
	}
}

// TestProxyTenantPreStartClockAdmitsAll: a -Inf clock (fault.Clock
// before Start) admits everything — the populate phase runs
// unthrottled.
func TestProxyTenantPreStartClockAdmitsAll(t *testing.T) {
	addrs := startBackends(t, 1)
	lim := qosLimiter(t, tenant.Spec{Name: "p", Rate: 1, Burst: 1})
	_, addr := startProxy(t, Options{
		Upstreams:   addrs,
		Tenants:     lim,
		TenantClock: func() float64 { return math.Inf(-1) },
	})
	c := dialConn(t, addr)
	for i := 0; i < 20; i++ {
		c.set(fmt.Sprintf("p:%d", i), "x")
	}
	if s := lim.FromKey([]byte("p:")).Snapshot(); s.Shed != 0 || s.Admitted != 20 {
		t.Fatalf("pre-start accounting: %+v", s)
	}
}
