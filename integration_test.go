// Integration and failure-injection tests across package boundaries:
// the live TCP stack end to end, cross-validation of the two simulator
// modes, and behaviour under injected faults (killed servers, garbage
// bytes, overloaded backend, memory pressure).
package memqlat_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/core"
	"memqlat/internal/loadgen"
	"memqlat/internal/server"
	"memqlat/internal/sim"
)

// startServer brings up one cache server on loopback.
func startServer(t *testing.T, opts server.Options) (*server.Server, string) {
	t.Helper()
	if opts.Cache == nil {
		c, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = c
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

// TestFullStackEndToEnd drives the complete read path: loadgen →
// client → TCP → server → cache, with misses relayed to the backend —
// the system of the paper's Fig. 1 in one process.
func TestFullStackEndToEnd(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		_, addr := startServer(t, server.Options{})
		addrs = append(addrs, addr)
	}
	db, err := backend.New(backend.Options{MuD: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	cl, err := client.New(client.Options{Servers: addrs, Filler: db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	gaps, err := (&core.Config{Q: 0.1, Xi: 0.15}).ArrivalFor(100000)
	if err != nil {
		t.Fatal(err)
	}
	opts := loadgen.Options{
		Client: cl, Keys: 500, Ops: 2000, Gaps: gaps,
		Q: 0.1, MissRatio: 0.02, Workers: 16,
		UseGetThrough: true, Seed: 42,
	}
	if err := loadgen.Populate(opts); err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.Issued != 2000 {
		t.Errorf("issued = %d", res.Issued)
	}
	if res.Misses == 0 {
		t.Error("forced misses never reached the backend")
	}
	if db.Stats().Lookups == 0 {
		t.Error("backend saw no lookups")
	}
	// Both servers participated.
	for i := range addrs {
		st, err := cl.ServerStats(i)
		if err != nil {
			t.Fatal(err)
		}
		if st["cmd_get"] == "0" {
			t.Errorf("server %d served no gets", i)
		}
	}
}

// TestSimulatorModesAgree cross-validates the composition simulator
// against the independent request-driven simulator on a configuration
// where the model's assumptions hold well (Poisson, single keys).
func TestSimulatorModesAgree(t *testing.T) {
	model := &core.Config{
		N:              1,
		LoadRatios:     core.BalancedLoad(4),
		TotalKeyRate:   4 * 40000,
		Q:              0,
		Xi:             0,
		MuS:            80000,
		MissRatio:      0,
		MuD:            1000,
		NetworkLatency: 0,
	}
	comp, err := sim.SimulateRequests(sim.RequestConfig{
		Model: model, Requests: 30000, KeysPerServer: 150000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	integ, err := sim.SimulateRequests(sim.RequestConfig{
		Model: model, Requests: 30000, Seed: 2, Integrated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := comp.TS.Mean(), integ.TS.Mean()
	if a < b*0.93 || a > b*1.07 {
		t.Errorf("composition %v vs integrated %v diverge > 7%%", a, b)
	}
	// Both match the M/M/1 closed form 1/(µ−λ) = 25µs.
	want := 1.0 / 40000
	for name, got := range map[string]float64{"composition": a, "integrated": b} {
		if got < want*0.93 || got > want*1.07 {
			t.Errorf("%s mean %v vs M/M/1 %v", name, got, want)
		}
	}
}

// TestServerKilledMidRun injects a server crash: in-flight and
// subsequent operations must fail fast with errors, not hang.
func TestServerKilledMidRun(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	cl, err := client.New(client.Options{
		Servers:     []string{addr},
		OpTimeout:   500 * time.Millisecond,
		DialTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	if err := cl.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cl.Get("k")
	if err == nil {
		t.Fatal("get succeeded against a dead server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("failure took %v, should fail fast", elapsed)
	}
}

// TestGarbageBytesOnWire injects protocol garbage followed by a valid
// command: the server must answer CLIENT_ERROR and keep serving.
func TestGarbageBytesOnWire(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write([]byte("\x00\x01garbage\x7f\xff\r\nversion\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	if !strings.Contains(got, "CLIENT_ERROR") {
		t.Errorf("no CLIENT_ERROR in %q", got)
	}
	// Read more if the VERSION reply hasn't arrived yet.
	if !strings.Contains(got, "VERSION") {
		n2, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("connection died after garbage: %v", err)
		}
		got += string(buf[:n2])
	}
	if !strings.Contains(got, "VERSION") {
		t.Errorf("server did not recover: %q", got)
	}
}

// TestBackendOverloadSurfaces injects backend saturation: GetThrough
// must surface the overload error rather than hang or panic.
func TestBackendOverloadSurfaces(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	db, err := backend.New(backend.Options{
		MuD: 0.5, QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	cl, err := client.New(client.Options{Servers: []string{addr}, Filler: db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_, _, err := cl.GetThrough(ctx, fmt.Sprintf("missing-%d", i))
			errCh <- err
		}()
	}
	sawOverload := false
	for i := 0; i < 8; i++ {
		err := <-errCh
		if err == nil {
			t.Error("overloaded backend returned success")
		}
		if errors.Is(err, backend.ErrOverloaded) {
			sawOverload = true
		}
	}
	if !sawOverload {
		t.Error("no ErrOverloaded surfaced from the saturated backend")
	}
}

// TestMemoryPressureEndToEnd injects cache pressure over the wire: a
// tiny cache must evict rather than fail, and stay protocol-correct.
func TestMemoryPressureEndToEnd(t *testing.T) {
	small, err := cache.New(cache.Options{MaxBytes: 8 << 10, Shards: 1, MaxItemSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, server.Options{Cache: small})
	cl, err := client.New(client.Options{Servers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	value := []byte(strings.Repeat("x", 512))
	for i := 0; i < 200; i++ {
		if err := cl.Set(fmt.Sprintf("pressure-%d", i), value, 0, 0); err != nil {
			t.Fatalf("set %d under pressure: %v", i, err)
		}
	}
	// Oversized value is rejected cleanly.
	err = cl.Set("big", []byte(strings.Repeat("x", 2048)), 0, 0)
	if err == nil {
		t.Error("oversized value accepted")
	}
	// The newest keys survive; the connection still works.
	if _, err := cl.Get("pressure-199"); err != nil {
		t.Errorf("most recent key evicted or conn broken: %v", err)
	}
	st, err := cl.ServerStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st["evictions"] == "0" {
		t.Error("no evictions under pressure")
	}
}

// TestTheoryMatchesLiveShapedServer is the tightest live check: one
// shaped server, one connection, sequential closed-loop gets — the
// response time should approach the M/M/1-like service mean without
// queueing (closed loop, one outstanding request).
func TestTheoryMatchesLiveShapedServer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive live test")
	}
	const mu = 200.0 // 5ms mean service: well above timer granularity
	_, addr := startServer(t, server.Options{ServiceRate: mu, Seed: 3})
	cl, err := client.New(client.Options{Servers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	if err := cl.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	const ops = 60
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := cl.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	mean := time.Since(start).Seconds() / ops
	want := 1 / mu
	if mean < want*0.8 || mean > want*2.0 {
		t.Errorf("closed-loop mean %vs vs shaped service mean %vs", mean, want)
	}
}
