package loadgen

import (
	"context"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/dist"
	"memqlat/internal/server"
)

// startStack brings up servers + client (+ optional backend filler).
func startStack(t *testing.T, n int, withFiller bool) *client.Client {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
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
		addrs[i] = l.Addr().String()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(l)
		}()
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
		})
	}
	opts := client.Options{Servers: addrs}
	if withFiller {
		db, err := backend.New(backend.Options{MuD: 1e5})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(db.Close)
		opts.Filler = db
	}
	cl, err := client.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// poisson is the exponential gap law that paces an open loop with
// Q = 0 at rate keys per second.
func poisson(t *testing.T, rate float64) dist.Interarrival {
	t.Helper()
	e, err := dist.NewExponential(rate)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Error("nil client accepted")
	}
	cl := startStack(t, 1, false)
	g := poisson(t, 1000)
	bad := []Options{
		{Client: cl, Gaps: g, Keys: -1},
		{Client: cl, Gaps: g, ValueSize: -1},
		{Client: cl, Gaps: g, ZipfS: -1},
		{Client: cl, Gaps: g, Lambda: -5},
		{Client: cl}, // an open loop without a gap law
		{Client: cl, Gaps: g, Q: -0.1},
		{Client: cl, Gaps: g, MissRatio: 2},
		{Client: cl, Gaps: g, Ops: -1},
		{Client: cl, Gaps: g, Workers: -1},
		{Client: cl, Gaps: g, ValueDist: "pareto"},
		{Client: cl, Gaps: g, ValueDist: ValueDistLogNormal, ValueSigma: -1},
	}
	for i, o := range bad {
		if _, err := Run(context.Background(), o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPopulateValueDist(t *testing.T) {
	cl := startStack(t, 1, false)
	opts := Options{
		Client: cl, Keys: 300, ValueSize: 100, Seed: 3,
		ValueDist: ValueDistLogNormal,
	}
	if err := Populate(opts); err != nil {
		t.Fatal(err)
	}
	minLen, maxLen, sum := 1<<30, 0, 0
	for i := 0; i < opts.Keys; i++ {
		v, err := cl.Get(KeyPrefix + strconv.Itoa(i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		n := len(v.Value)
		if n < 1 || n > 8*opts.ValueSize {
			t.Fatalf("key %d has size %d outside [1, %d]", i, n, 8*opts.ValueSize)
		}
		sum += n
		minLen = min(minLen, n)
		maxLen = max(maxLen, n)
	}
	if minLen == maxLen {
		t.Errorf("lognormal sizes did not vary (all %d bytes)", minLen)
	}
	if mean := float64(sum) / float64(opts.Keys); mean < 70 || mean > 130 {
		t.Errorf("mean size %.1f far from the configured mean 100", mean)
	}
	// The size law is a pure function of (Seed, key index).
	o, err := opts.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := valueSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := valueSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("size draw %d not deterministic: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPopulateAndRunAllHits(t *testing.T) {
	cl := startStack(t, 2, false)
	opts := Options{
		Client: cl, Keys: 200, Ops: 1000, Gaps: poisson(t, 50000), Workers: 8, Seed: 1,
	}
	if err := Populate(opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 1000 {
		t.Errorf("issued = %d", res.Issued)
	}
	if res.Misses != 0 || res.Errors != 0 {
		t.Errorf("misses=%d errors=%d", res.Misses, res.Errors)
	}
	if res.Hits != 1000 {
		t.Errorf("hits = %d", res.Hits)
	}
	if res.Latency.Count() != 1000 {
		t.Errorf("latency samples = %d", res.Latency.Count())
	}
	if res.Latency.Mean() <= 0 {
		t.Error("zero latency recorded")
	}
	if res.AchievedRate() <= 0 {
		t.Error("zero achieved rate")
	}
}

func TestRunForcedMisses(t *testing.T) {
	cl := startStack(t, 1, false)
	opts := Options{
		Client: cl, Keys: 100, Ops: 500, Gaps: poisson(t, 50000), Workers: 8,
		MissRatio: 0.5, Seed: 2,
	}
	if err := Populate(opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Misses) / float64(res.Issued)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("miss fraction = %v, want ~0.5", frac)
	}
}

func TestRunGetThroughFillsBackend(t *testing.T) {
	cl := startStack(t, 1, true)
	opts := Options{
		Client: cl, Keys: 50, Ops: 300, Gaps: poisson(t, 20000), Workers: 4,
		MissRatio: 0.3, UseGetThrough: true, Seed: 3,
	}
	if err := Populate(opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	// With GetThrough the forced-miss keys get filled, so a miss shows
	// up once and later reads of the same key hit.
	if res.Misses == 0 {
		t.Error("no misses despite MissRatio")
	}
	if res.Hits == 0 {
		t.Error("no hits")
	}
}

func TestRunContextCancel(t *testing.T) {
	cl := startStack(t, 1, false)
	opts := Options{Client: cl, Keys: 10, Ops: 1000000, Gaps: poisson(t, 10), Workers: 2, Seed: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued >= 1000000 {
		t.Error("cancel did not stop the run")
	}
}

func TestRunZipfSkew(t *testing.T) {
	cl := startStack(t, 4, false)
	opts := Options{
		Client: cl, Keys: 1000, Ops: 2000, Gaps: poisson(t, 100000), Workers: 8,
		ZipfS: 1.2, Seed: 5,
	}
	if err := Populate(opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != int64(opts.Ops) {
		t.Errorf("hits = %d / %d (errors %d, misses %d)",
			res.Hits, opts.Ops, res.Errors, res.Misses)
	}
	// Skewed popularity concentrates load: the hottest server should
	// have served noticeably more gets than the coldest.
	var maxGets, minGets int64 = -1, 1 << 60
	for i := 0; i < 4; i++ {
		st, err := cl.ServerStats(i)
		if err != nil {
			t.Fatal(err)
		}
		gets, err := strconv.ParseInt(st["cmd_get"], 10, 64)
		if err != nil {
			t.Fatalf("cmd_get = %q", st["cmd_get"])
		}
		if gets > maxGets {
			maxGets = gets
		}
		if gets < minGets {
			minGets = gets
		}
	}
	if maxGets <= minGets {
		t.Errorf("no skew: max=%d min=%d", maxGets, minGets)
	}
}

func TestClosedLoopMode(t *testing.T) {
	cl := startStack(t, 2, false)
	opts := Options{
		Client: cl, Keys: 100, Ops: 400, Lambda: 100000, Workers: 8,
		ClosedLoop: true, Seed: 9,
	}
	if err := Populate(opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 400 {
		t.Errorf("issued = %d", res.Issued)
	}
	if res.Hits != 400 || res.Errors != 0 {
		t.Errorf("hits=%d errors=%d", res.Hits, res.Errors)
	}
	if res.Latency.Count() != 400 {
		t.Errorf("latency samples = %d", res.Latency.Count())
	}
}

func TestClosedLoopContextCancel(t *testing.T) {
	cl := startStack(t, 1, false)
	opts := Options{
		Client: cl, Keys: 10, Ops: 1000000, Lambda: 5, Workers: 2,
		ClosedLoop: true, Seed: 10,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued >= 1000000 {
		t.Error("cancel ignored")
	}
}

func TestClosedLoopObserver(t *testing.T) {
	cl := startStack(t, 1, false)
	var mu sync.Mutex
	var observed []string
	opts := Options{
		Client: cl, Keys: 20, Ops: 100, Lambda: 100000, Workers: 4,
		ClosedLoop: true, Seed: 11,
		Observer: func(_ time.Duration, key string) {
			// Called under the run's mutex; safe to append directly, but
			// the local mutex guards against doc drift.
			mu.Lock()
			observed = append(observed, key)
			mu.Unlock()
		},
	}
	if err := Populate(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 100 {
		t.Errorf("observed %d keys", len(observed))
	}
}
