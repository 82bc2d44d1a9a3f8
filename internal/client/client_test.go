package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/protocol"
	"memqlat/internal/server"
)

// startCluster launches n memcached servers on loopback and returns
// their addresses.
func startCluster(t testing.TB, n int) []string {
	t.Helper()
	addrs, _ := startServers(t, n)
	return addrs
}

// startServers is startCluster for a test that looks inside the servers.
func startServers(t testing.TB, n int) ([]string, []*server.Server) {
	t.Helper()
	addrs, srvs := make([]string, n), make([]*server.Server, n)
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
		addrs[i], srvs[i] = l.Addr().String(), srv
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
	return addrs, srvs
}

func newClient(t *testing.T, addrs []string, mutate func(*Options)) *Client {
	t.Helper()
	opts := Options{Servers: addrs}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("no servers accepted")
	}
	if _, err := New(Options{Servers: []string{"a"}, PoolSize: -1}); err == nil {
		t.Error("negative pool accepted")
	}
}

func TestSetGet(t *testing.T) {
	addrs := startCluster(t, 2)
	c := newClient(t, addrs, nil)
	if err := c.Set("k", []byte("v"), 7, 0); err != nil {
		t.Fatal(err)
	}
	it, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v" || it.Flags != 7 {
		t.Errorf("item = %+v", it)
	}
	if _, err := c.Get("absent"); !errors.Is(err, ErrCacheMiss) {
		t.Errorf("err = %v", err)
	}
}

func TestCASFlow(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs, nil)
	_ = c.Set("k", []byte("v1"), 0, 0)
	it, err := c.Gets("k")
	if err != nil {
		t.Fatal(err)
	}
	if it.CAS == 0 {
		t.Fatal("zero cas")
	}
	if err := c.CompareAndSwap("k", []byte("v2"), 0, 0, it.CAS); err != nil {
		t.Fatal(err)
	}
	if err := c.CompareAndSwap("k", []byte("v3"), 0, 0, it.CAS); !errors.Is(err, ErrCASConflict) {
		t.Errorf("stale cas err = %v", err)
	}
}

func TestIncr(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs, nil)
	_ = c.Set("n", []byte("41"), 0, 0)
	n, err := c.Incr("n", 1)
	if err != nil || n != 42 {
		t.Fatalf("incr: %v %v", n, err)
	}
	if _, err := c.Incr("missing", 1); !errors.Is(err, ErrCacheMiss) {
		t.Errorf("incr missing: %v", err)
	}
}

func TestMultiGetForkJoin(t *testing.T) {
	addrs := startCluster(t, 4)
	c := newClient(t, addrs, nil)
	var keys []string
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i)
		keys = append(keys, k)
		if err := c.Set(k, []byte(fmt.Sprintf("val-%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	keys = append(keys, "absent-1", "absent-2")
	out, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("got %d items", len(out))
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i)
		if string(out[k].Value) != fmt.Sprintf("val-%d", i) {
			t.Errorf("%s = %q", k, out[k].Value)
		}
	}
	if _, ok := out["absent-1"]; ok {
		t.Error("absent key present")
	}
	// The 50 keys must actually spread over all 4 servers.
	seen := make(map[int]bool)
	for _, k := range keys {
		seen[c.pickServer(k)] = true
	}
	if len(seen) != 4 {
		t.Errorf("keys hit only %d servers", len(seen))
	}
}

func TestGetThroughFillsOnMiss(t *testing.T) {
	addrs := startCluster(t, 2)
	db, err := backend.New(backend.Options{MuD: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	c := newClient(t, addrs, func(o *Options) { o.Filler = db })

	it, hit, err := c.GetThrough(context.Background(), "warm-me")
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first read reported a hit")
	}
	if !bytes.Equal(it.Value, db.ValueFor("warm-me")) {
		t.Error("filled value mismatch")
	}
	// Second read hits the cache.
	it2, hit2, err := c.GetThrough(context.Background(), "warm-me")
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Error("second read missed")
	}
	if !bytes.Equal(it2.Value, it.Value) {
		t.Error("cached value differs from filled value")
	}
}

func TestGetThroughWithoutFiller(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs, nil)
	if _, _, err := c.GetThrough(context.Background(), "nope"); !errors.Is(err, ErrCacheMiss) {
		t.Errorf("err = %v", err)
	}
}

func TestServerStats(t *testing.T) {
	addrs := startCluster(t, 2)
	c := newClient(t, addrs, nil)
	_ = c.Set("a", []byte("1"), 0, 0)
	_ = c.Set("b", []byte("2"), 0, 0)
	st, err := c.ServerStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st["version"] == "" {
		t.Error("missing version stat")
	}
	if _, err := c.ServerStats(5); err == nil {
		t.Error("bad index accepted")
	}
}

func TestClientClosed(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs, nil)
	_ = c.Close()
	_ = c.Close() // idempotent
	if err := c.Set("k", []byte("v"), 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
}

// TestCloseRacesCheckin closes clients under concurrent reads: a
// connection checked in while Close runs must be closed by one of the
// two, not parked in a pool Close has already drained — the server would
// see it stay open.
func TestCloseRacesCheckin(t *testing.T) {
	addrs, srvs := startServers(t, 1)
	for round := 0; round < 100; round++ {
		c, err := New(Options{Servers: addrs, PoolSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := c.Get("k"); errors.Is(err, ErrClosed) {
						return
					}
				}
			}()
		}
		if _, err := c.Get("k"); !errors.Is(err, ErrCacheMiss) { // the readers are under way
			t.Fatal(err)
		}
		_ = c.Close()
		wg.Wait()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srvs[0].Counters().CurrConns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after every client closed", srvs[0].Counters().CurrConns)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeadServerSurfacesError(t *testing.T) {
	c := newClient(t, []string{"127.0.0.1:1"}, func(o *Options) {
		o.DialTimeout = 200 * time.Millisecond
	})
	if _, err := c.Get("k"); err == nil {
		t.Error("dead server did not error")
	}
}

func TestConnectionReuse(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs, func(o *Options) { o.PoolSize = 1 })
	for i := 0; i < 20; i++ {
		if err := c.Set("k", []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	// All 40 ops over one pooled connection: the server should report
	// few total connections.
	st, err := c.ServerStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st["total_connections"] > "3" { // string compare fine for single digit
		t.Errorf("total_connections = %s", st["total_connections"])
	}
}

// TestSteadyRequestsArmNoTimer: back-to-back requests on a pooled
// connection leave the deadline its socket carries where the first one
// put it, so 1000 gets within T/8 of that one touch no socket timer. A
// run that outlasts T/8 (the test measures it) may move it.
func TestSteadyRequestsArmNoTimer(t *testing.T) {
	const T = 8 * time.Second
	c := newClient(t, startCluster(t, 1), func(o *Options) { o.PoolSize, o.OpTimeout = 1, T })
	armed := func() (*conn, protocol.Deadline) {
		cn := <-c.pools[0]
		defer func() { c.pools[0] <- cn }()
		return cn, cn.dl
	}
	began := time.Now()
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	first, before := armed()
	for range 1000 {
		if _, err := c.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(began)
	cn, after := armed()
	if cn != first {
		t.Fatal("the gets did not reuse the pooled connection")
	}
	if after != before {
		if took < T/8 {
			t.Errorf("1000 gets within %v moved the socket's deadline", took)
		} else {
			t.Logf("the gets took %v, past T/8, and moved the deadline", took)
		}
	}
}

func TestGetAndTouch(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs, nil)
	if err := c.Set("k", []byte("v"), 3, time.Second); err != nil {
		t.Fatal(err)
	}
	it, err := c.GetAndTouch("k", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v" || it.Flags != 3 {
		t.Errorf("item = %+v", it)
	}
	if _, err := c.GetAndTouch("missing", time.Hour); !errors.Is(err, ErrCacheMiss) {
		t.Errorf("gat missing: %v", err)
	}
}

func TestMissDoesNotPoisonConnection(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs, func(o *Options) { o.PoolSize = 1 })
	// Interleave misses and hits on the single pooled connection: a miss
	// must not discard the connection.
	_ = c.Set("k", []byte("v"), 0, 0)
	for i := 0; i < 10; i++ {
		if _, err := c.Get("missing"); !errors.Is(err, ErrCacheMiss) {
			t.Fatalf("miss %d: %v", i, err)
		}
		if _, err := c.Get("k"); err != nil {
			t.Fatalf("hit %d: %v", i, err)
		}
	}
	st, err := c.ServerStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st["total_connections"] > "3" {
		t.Errorf("misses churned connections: total_connections = %s", st["total_connections"])
	}
}

// slowFiller is a store of record whose fetches take delay and are
// counted, so a test can hold one in flight.
type slowFiller struct {
	value   []byte
	delay   time.Duration
	fetches atomic.Int64
}

func (f *slowFiller) Get(ctx context.Context, key string) ([]byte, error) {
	f.fetches.Add(1)
	select {
	case <-time.After(f.delay):
		return f.value, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestGetThroughCoalescedHerd drives a hot-key miss storm through the
// one miss path the binaries run: with FillTTL negative every fill is
// stored already expired, so every read re-misses, and single-flight
// coalescing must keep the backend fetch count far below the read count.
func TestGetThroughCoalescedHerd(t *testing.T) {
	filler := &slowFiller{value: []byte("v"), delay: 2 * time.Millisecond}
	c := newClient(t, startCluster(t, 1), func(o *Options) {
		o.Filler = filler
		o.FillTTL = -time.Second
		o.Coalesce = true
		o.PoolSize = 16
	})
	const workers, reads = 16, 10
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				it, hit, err := c.GetThrough(context.Background(), "hot")
				if err != nil || hit || string(it.Value) != "v" {
					t.Errorf("GetThrough = %q, hit %v, %v", it.Value, hit, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	total := int64(workers * reads)
	fetched := filler.fetches.Load()
	if fetched >= total/2 {
		t.Fatalf("fetches = %d of %d reads; coalescing is not collapsing the herd", fetched, total)
	}
	st := c.Coalescer().Stats()
	if st.Fetches != fetched {
		t.Errorf("coalescer fetches = %d, filler saw %d", st.Fetches, fetched)
	}
	if st.Fetches+st.FanIns != total {
		t.Errorf("fetches(%d) + fanins(%d) != reads(%d)", st.Fetches, st.FanIns, total)
	}
}

// TestGetThroughCoalescedInvalidation: a set racing the in-flight fill,
// coalesced or not, must win: the fetched value may be served to the
// waiting read, but it must not be written back over the set.
func TestGetThroughCoalescedInvalidation(t *testing.T) {
	for _, coalesce := range []bool{true, false} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			filler := &slowFiller{value: []byte("old"), delay: 20 * time.Millisecond}
			c := newClient(t, startCluster(t, 1), func(o *Options) {
				o.Filler = filler
				o.Coalesce = coalesce
			})
			readDone := make(chan error, 1)
			go func() {
				_, _, err := c.GetThrough(context.Background(), "k")
				readDone <- err
			}()
			// Let the fetch start, then set the key mid-fetch.
			for filler.fetches.Load() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			if err := c.Set("k", []byte("new"), 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := <-readDone; err != nil {
				t.Fatal(err)
			}
			it, err := c.Get("k")
			if err != nil || string(it.Value) != "new" {
				t.Fatalf("post-race value = %q, %v; want %q (stale write-back resurrected the fetched value?)", it.Value, err, "new")
			}
			if got, want := c.Coalescer().Stats().Invalidations, map[bool]int64{true: 1}[coalesce]; got != want {
				t.Fatalf("invalidations = %d, want %d", got, want)
			}
		})
	}
}

// TestSetAllocs pins a Set's cost against a live in-process server: the
// client matches STORED without building a string, and the server's
// overwrite of the key allocates only its value copy, so the whole
// process makes one allocation per Set.
func TestSetAllocs(t *testing.T) {
	c := newClient(t, startCluster(t, 1), nil)
	value := make([]byte, 100)
	set := func() {
		if err := c.Set("set-allocs", value, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	set() // dial, size the scratch, store the key
	if allocs := testing.AllocsPerRun(500, set); allocs > 1 {
		t.Errorf("Set: %.1f allocs per call, want at most 1 (the server's value copy)", allocs)
	}
}
