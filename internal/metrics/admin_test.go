package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memqlat/internal/otrace"
	"memqlat/internal/slo"
	"memqlat/internal/telemetry"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("memqlat_up", "x", func() float64 { return 1 })
	a := NewAdmin(reg)
	tr := otrace.New(otrace.Options{})
	sp := tr.Begin(otrace.Ctx{}, "client", "get", 0)
	tr.End(sp)
	a.AttachTracer(tr)
	srv := httptest.NewServer(a)
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "memqlat_up 1") {
		t.Errorf("/metrics = %d, %q", code, body)
	}
	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var health struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_s"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz not JSON: %v in %q", err, body)
	}
	if health.Status != "ok" || health.Uptime < 0 {
		t.Errorf("healthz payload %+v", health)
	}
	code, body = get(t, srv, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	if n, err := otrace.ParseChrome([]byte(body)); err != nil || n != 1 {
		t.Errorf("/trace parse = %d, %v", n, err)
	}
	code, body = get(t, srv, "/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestAdminStartClose(t *testing.T) {
	a := NewAdmin(nil)
	addr, err := a.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over real listener = %d", resp.StatusCode)
	}
	// /metrics with a nil registry renders an empty 200.
	resp, err = http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Errorf("nil-registry /metrics = %d, %q", resp.StatusCode, body)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing an admin that never started is a no-op.
	if err := NewAdmin(nil).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeAdmin boots the plane the way every binary's -admin flag
// does: the tracer and watchdog families join the caller's registry,
// /trace and /debug/watch mount only for what is armed, and a listener
// that cannot bind is an error, not a half-started plane.
func TestServeAdmin(t *testing.T) {
	fetch := func(a *Admin, path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + a.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	wd, err := slo.NewWatchdog(slo.Config{
		Window:    0.1,
		Predicted: telemetry.Breakdown{telemetry.StageService: {Count: 1, Mean: 1e-3, P50: 1e-3, P95: 3e-3, P99: 4.6e-3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Counter("memqlat_up", "x", func() float64 { return 1 })
	armed, err := ServeAdmin("127.0.0.1:0", reg, otrace.New(otrace.Options{}), wd)
	if err != nil {
		t.Fatal(err)
	}
	defer armed.Close()
	_, page := fetch(armed, "/metrics")
	for _, want := range []string{"memqlat_up 1", "memqlat_trace_spans_kept", "memqlat_slo_armed"} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, path := range []string{"/trace", "/debug/watch"} {
		if code, _ := fetch(armed, path); code != http.StatusOK {
			t.Errorf("armed %s = %d", path, code)
		}
	}

	bare, err := ServeAdmin("127.0.0.1:0", NewRegistry(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	for _, path := range []string{"/trace", "/debug/watch"} {
		if code, _ := fetch(bare, path); code != http.StatusNotFound {
			t.Errorf("unarmed %s = %d, want 404", path, code)
		}
	}
	if _, err := ServeAdmin(armed.Addr().String(), NewRegistry(), nil, nil); err == nil {
		t.Error("ServeAdmin bound an address already in use")
	}
}
