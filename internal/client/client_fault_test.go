package client

import (
	"bufio"
	"errors"
	"io"
	"log"
	"math"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/fault"
	"memqlat/internal/server"
	"memqlat/internal/telemetry"
)

// scriptedServer is a minimal fake memcached endpoint whose per-request
// behavior the test controls: handle receives each request line and
// writes whatever reply (or misbehavior) the scenario calls for.
// Returning false closes the connection.
func scriptedServer(t *testing.T, handle func(w net.Conn, line string) bool) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				r := bufio.NewReader(nc)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if !handle(nc, strings.TrimRight(line, "\r\n")) {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// startStoppableServer runs one real server whose lifecycle the test
// drives: the returned stop closes it, and restart brings a fresh
// server up on the same address.
func startStoppableServer(t *testing.T) (addr string, stop func(), restart func()) {
	t.Helper()
	boot := func(a string) func() {
		c, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Options{Cache: c, Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", a)
		if err != nil {
			t.Fatal(err)
		}
		if addr == "" {
			addr = l.Addr().String()
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(l)
		}()
		return func() {
			_ = srv.Close()
			<-done
		}
	}
	stopCur := boot("127.0.0.1:0")
	stop = func() { stopCur() }
	restart = func() { stopCur = boot(addr) }
	t.Cleanup(func() { stopCur() })
	return addr, stop, restart
}

// TestFaultPoisoningSemantics is the table-driven connection-recycling
// contract: protocol-level outcomes (miss, NOT_STORED, EXISTS cas
// conflict, SERVER_ERROR lines) leave the stream at a command boundary
// and the connection MUST be recycled; transport and parse failures
// MUST discard it. Verified through the pool introspection counters.
func TestFaultPoisoningSemantics(t *testing.T) {
	realAddr := startCluster(t, 1)[0]

	cases := []struct {
		name string
		addr func(t *testing.T) string
		op   func(t *testing.T, c *Client) error
		// wantErr matches the expected error; nil means success.
		wantErr func(err error) bool
		recycle bool
	}{
		{
			name:    "miss recycles",
			addr:    func(*testing.T) string { return realAddr },
			op:      func(_ *testing.T, c *Client) error { _, err := c.Get("absent"); return err },
			wantErr: func(err error) bool { return errors.Is(err, ErrCacheMiss) },
			recycle: true,
		},
		{
			name: "not-stored recycles",
			addr: func(t *testing.T) string {
				return scriptedServer(t, func(w net.Conn, line string) bool {
					if !strings.HasPrefix(line, "set ") { // the data block ends the command
						_, _ = w.Write([]byte("NOT_STORED\r\n"))
					}
					return true
				})
			},
			op:      func(_ *testing.T, c *Client) error { return c.Set("ns", []byte("w"), 0, 0) },
			wantErr: func(err error) bool { return errors.Is(err, ErrNotStored) },
			recycle: true,
		},
		{
			name: "cas conflict recycles",
			addr: func(*testing.T) string { return realAddr },
			op: func(t *testing.T, c *Client) error {
				if err := c.Set("cc", []byte("v"), 0, 0); err != nil {
					t.Fatal(err)
				}
				it, err := c.Gets("cc")
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Set("cc", []byte("w"), 0, 0); err != nil {
					t.Fatal(err)
				}
				return c.CompareAndSwap("cc", []byte("x"), 0, 0, it.CAS)
			},
			wantErr: func(err error) bool { return errors.Is(err, ErrCASConflict) },
			recycle: true,
		},
		{
			name: "server error recycles",
			addr: func(t *testing.T) string {
				return scriptedServer(t, func(w net.Conn, _ string) bool {
					_, _ = w.Write([]byte("SERVER_ERROR out of memory\r\n"))
					return true
				})
			},
			op: func(_ *testing.T, c *Client) error { _, err := c.Get("k"); return err },
			wantErr: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "SERVER_ERROR")
			},
			recycle: true,
		},
		{
			name: "parse garbage discards",
			addr: func(t *testing.T) string {
				return scriptedServer(t, func(w net.Conn, _ string) bool {
					_, _ = w.Write([]byte("WAT 0 banana\r\n"))
					return true
				})
			},
			op:      func(_ *testing.T, c *Client) error { _, err := c.Get("k"); return err },
			wantErr: func(err error) bool { return err != nil },
			recycle: false,
		},
		{
			name: "mid-reply close discards",
			addr: func(t *testing.T) string {
				return scriptedServer(t, func(w net.Conn, _ string) bool {
					_, _ = w.Write([]byte("VALUE k 0 5\r\nab"))
					return false // hang up inside the data block
				})
			},
			op:      func(_ *testing.T, c *Client) error { _, err := c.Get("k"); return err },
			wantErr: func(err error) bool { return err != nil },
			recycle: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClient(t, []string{tc.addr(t)}, func(o *Options) {
				o.PoolSize = 2
				o.OpTimeout = 2 * time.Second
			})
			err := tc.op(t, c)
			if !tc.wantErr(err) {
				t.Fatalf("op error = %v", err)
			}
			ps, perr := c.PoolStats(0)
			if perr != nil {
				t.Fatal(perr)
			}
			if tc.recycle {
				if ps.Idle == 0 || ps.Discards != 0 {
					t.Errorf("want recycled conn: stats %+v", ps)
				}
			} else {
				if ps.Discards == 0 {
					t.Errorf("want discarded conn: stats %+v", ps)
				}
				if ps.Idle != 0 {
					t.Errorf("poisoned conn returned to pool: stats %+v", ps)
				}
			}
		})
	}
}

// TestFaultStaleConnectionScreen kills and restarts a server underneath
// a pooled connection: the acquire-time liveness probe must detect the
// dead connection and redial instead of failing the first request after
// the restart.
func TestFaultStaleConnectionScreen(t *testing.T) {
	addr, stop, restart := startStoppableServer(t)
	c := newClient(t, []string{addr}, func(o *Options) { o.PoolSize = 1 })
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	stop()
	restart()
	// Let the FIN from the dying server reach the pooled connection and
	// the idle age pass the probe threshold.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Get("k"); !errors.Is(err, ErrCacheMiss) {
		// The restarted server is empty, so a clean redial sees a miss;
		// any transport error means the stale connection leaked through.
		t.Fatalf("Get after restart = %v, want cache miss over fresh conn", err)
	}
	ps, err := c.PoolStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.StaleDrops == 0 {
		t.Errorf("liveness screen never fired: stats %+v", ps)
	}
	if ps.Dials < 2 {
		t.Errorf("expected a redial after restart: stats %+v", ps)
	}
}

// TestFaultScreenSparesHealthyIdle parks a healthy connection for longer
// than OpTimeout: the deadline of its last exchange has passed by the
// time the screen probes it, and that must not make it look dead.
func TestFaultScreenSparesHealthyIdle(t *testing.T) {
	c := newClient(t, startCluster(t, 1), func(o *Options) { o.OpTimeout = 40 * time.Millisecond })
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if ps, _ := c.PoolStats(0); ps.StaleDrops != 0 || ps.Dials != 1 {
		t.Errorf("healthy idle connection was not reused: stats %+v", ps)
	}
}

// TestFaultMaxConnIdle ages a pooled connection past MaxConnIdle and
// checks the acquire path drops it by age alone.
func TestFaultMaxConnIdle(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs, func(o *Options) {
		o.PoolSize = 1
		o.MaxConnIdle = 20 * time.Millisecond
	})
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	ps, err := c.PoolStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.StaleDrops != 1 || ps.Dials != 2 {
		t.Errorf("idle-age cutoff did not recycle: stats %+v", ps)
	}
}

// TestFaultExptimeLongTTL pins the >30-day exptime fix: long TTLs must
// be sent as absolute unix timestamps (the protocol reinterprets large
// relative values), and a long-TTL item must survive a round trip.
func TestFaultExptimeLongTTL(t *testing.T) {
	if got := exptimeFromTTL(0); got != 0 {
		t.Errorf("exptime(0) = %d", got)
	}
	if got := exptimeFromTTL(500 * time.Millisecond); got != 1 {
		t.Errorf("exptime(500ms) = %d, want 1", got)
	}
	if got := exptimeFromTTL(time.Hour); got != 3600 {
		t.Errorf("exptime(1h) = %d, want 3600", got)
	}
	if got := exptimeFromTTL(30 * 24 * time.Hour); got != thirtyDays {
		t.Errorf("exptime(30d) = %d, want %d (still relative at the boundary)", got, thirtyDays)
	}
	ttl := 40 * 24 * time.Hour
	want := time.Now().Add(ttl).Unix()
	got := exptimeFromTTL(ttl)
	if got < want-2 || got > want+2 {
		t.Errorf("exptime(40d) = %d, want absolute ~%d", got, want)
	}

	addrs := startCluster(t, 1)
	c := newClient(t, addrs, nil)
	if err := c.Set("longttl", []byte("v"), 0, ttl); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("longttl"); err != nil {
		t.Fatalf("40-day-TTL item unreadable: %v (exptime sent as relative?)", err)
	}
}

// TestFaultRetryRecoversTransient points a retry-enabled client at a
// server that kills the first two get attempts: the read must succeed
// on the third attempt and record the backoff waits under StageRetry.
func TestFaultRetryRecoversTransient(t *testing.T) {
	var gets atomic.Int64
	addr := scriptedServer(t, func(w net.Conn, line string) bool {
		if !strings.HasPrefix(line, "get ") {
			return false
		}
		if gets.Add(1) <= 2 {
			return false // hang up without replying: transport error
		}
		_, _ = w.Write([]byte("VALUE k 0 1\r\nv\r\nEND\r\n"))
		return true
	})
	col := telemetry.NewCollector()
	c := newClient(t, []string{addr}, func(o *Options) {
		o.Resilience = fault.Resilience{Retries: 2, RetryBackoff: 1e-3}
		o.Recorder = col
	})
	it, err := c.Get("k")
	if err != nil {
		t.Fatalf("retried Get = %v", err)
	}
	if string(it.Value) != "v" {
		t.Fatalf("value = %q", it.Value)
	}
	if n := gets.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3", n)
	}
	if got := col.Breakdown()[telemetry.StageRetry].Count; got != 2 {
		t.Errorf("StageRetry count = %d, want 2", got)
	}
}

// TestFaultRetryNotOnProtocolOutcome: a miss is an answer, not a
// failure — the retry path must not re-ask.
func TestFaultRetryNotOnProtocolOutcome(t *testing.T) {
	var gets atomic.Int64
	addr := scriptedServer(t, func(w net.Conn, line string) bool {
		if strings.HasPrefix(line, "get ") {
			gets.Add(1)
			_, _ = w.Write([]byte("END\r\n"))
		}
		return true
	})
	c := newClient(t, []string{addr}, func(o *Options) {
		o.Resilience = fault.Resilience{Retries: 2, RetryBackoff: 1e-3}
	})
	if _, err := c.Get("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("Get = %v, want miss", err)
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("miss was retried: %d attempts", n)
	}
}

// TestFaultBreakerOpensAndRecovers drives the full breaker state
// machine over a real outage: closed → open while the server is down
// (ops shed with ErrBreakerOpen), then half-open → closed once the
// server returns after the cooldown.
func TestFaultBreakerOpensAndRecovers(t *testing.T) {
	// Reserve an address, then close the listener so dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()

	col := telemetry.NewCollector()
	c := newClient(t, []string{addr}, func(o *Options) {
		o.DialTimeout = 200 * time.Millisecond
		o.Resilience = fault.Resilience{BreakerThreshold: 0.5, BreakerWindow: 4, BreakerCooldown: 0.06}
		o.Recorder = col
	})
	for i := 0; i < 2; i++ {
		if _, err := c.Get("k"); err == nil {
			t.Fatal("Get against dead server succeeded")
		}
	}
	if st := c.BreakerState(0); st != "open" {
		t.Fatalf("breaker state after failures = %q, want open", st)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("shed Get = %v, want ErrBreakerOpen", err)
	}
	if got := col.Breakdown()[telemetry.StageBreakerShed].Count; got == 0 {
		t.Error("shed not observed under StageBreakerShed")
	}

	// Bring a real server up on the reserved address and let the
	// cooldown elapse: the next op is the half-open probe.
	ca, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Cache: ca, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l2) }()
	t.Cleanup(func() { _ = srv.Close(); <-done })

	time.Sleep(80 * time.Millisecond)
	if _, err := c.Get("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("probe Get = %v, want miss from recovered server", err)
	}
	if st := c.BreakerState(0); st != "closed" {
		t.Errorf("breaker state after recovery = %q, want closed", st)
	}
}

// TestFaultHedgedGetCutsTail stalls the primary read far past the hedge
// trigger: the hedge leg must answer well before the stall resolves.
func TestFaultHedgedGetCutsTail(t *testing.T) {
	var gets atomic.Int64
	addr := scriptedServer(t, func(w net.Conn, line string) bool {
		if !strings.HasPrefix(line, "get ") {
			return false
		}
		if gets.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond) // the stalled primary
		}
		_, _ = w.Write([]byte("VALUE k 0 1\r\nv\r\nEND\r\n"))
		return true
	})
	col := telemetry.NewCollector()
	c := newClient(t, []string{addr}, func(o *Options) {
		o.Resilience = fault.Resilience{HedgeDelay: 5e-3}
		o.Recorder = col
	})
	began := time.Now()
	it, err := c.Get("k")
	if err != nil {
		t.Fatalf("hedged Get = %v", err)
	}
	if string(it.Value) != "v" {
		t.Fatalf("value = %q", it.Value)
	}
	if d := time.Since(began); d > 200*time.Millisecond {
		t.Errorf("hedged read took %v despite fast second leg", d)
	}
	if got := col.Breakdown()[telemetry.StageHedgeWait].Count; got != 1 {
		t.Errorf("StageHedgeWait count = %d, want 1", got)
	}
}

// TestFaultHedgePercentileTrigger: with HedgePercentile and no fixed
// delay, once hedgeMinSamples reads have succeeded a stalled read hedges
// at the observed p90 of those reads — not at their median, the
// minHedgeDelay floor. Warm-up read i waits
// 0.2 ms on the server, or 2 ms when i mod 10 is 8 or 9, so every read
// lasts at least its server delay and at most its client-side wall
// time: the p90 of each bounds the trigger, widened by the histogram's
// 1 % bucket error. The p90 of the delays (2 ms) sits well above the
// median wall (about 1.1 ms, a timer's granularity) and the floor.
// Warm-up reads are never hedged, however long a busy machine makes
// them.
func TestFaultHedgePercentileTrigger(t *testing.T) {
	var stalls atomic.Int64
	delays := make([]time.Duration, hedgeMinSamples)
	for i := range delays {
		delays[i] = 200 * time.Microsecond
		if i%10 >= 8 {
			delays[i] = 2 * time.Millisecond
		}
	}
	var next atomic.Int64
	addr := scriptedServer(t, func(w net.Conn, line string) bool {
		if !strings.HasPrefix(line, "get ") {
			return false
		}
		if line == "get stall" {
			if stalls.Add(1) == 1 {
				time.Sleep(400 * time.Millisecond) // the stalled primary
			}
		} else {
			time.Sleep(delays[(next.Add(1)-1)%hedgeMinSamples])
		}
		_, _ = w.Write([]byte("VALUE " + strings.TrimPrefix(line, "get ") + " 0 1\r\nv\r\nEND\r\n"))
		return true
	})
	col := telemetry.NewCollector()
	c := newClient(t, []string{addr}, func(o *Options) {
		o.Resilience = fault.Resilience{HedgePercentile: 0.9}
		o.Recorder = col
	})
	walls := make([]time.Duration, hedgeMinSamples)
	for i := range walls {
		began := time.Now()
		if _, err := c.Get("k"); err != nil {
			t.Fatalf("warm-up Get %d = %v", i, err)
		}
		walls[i] = time.Since(began)
	}
	if got := col.Breakdown()[telemetry.StageHedgeWait].Count; got != 0 {
		t.Fatalf("%d warm-up reads hedged before the digest held %d reads", got, hedgeMinSamples)
	}
	p90 := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[int(math.Ceil(0.9*float64(len(d))))-1]
	}
	lo, hi := p90(slices.Clone(delays)), p90(walls)
	lo, hi = lo-lo/50, hi+hi/50

	if _, err := c.Get("stall"); err != nil {
		t.Fatalf("hedged Get = %v", err)
	}
	hw := col.Breakdown()[telemetry.StageHedgeWait]
	if hw.Count != 1 {
		t.Fatalf("StageHedgeWait count = %d, want 1", hw.Count)
	}
	if trigger := time.Duration(hw.Mean * float64(time.Second)); trigger < lo || trigger > hi {
		t.Errorf("hedge fired after %v, want the warm-up p90 in [%v, %v] (floor %v)",
			trigger, lo, hi, minHedgeDelay)
	}
}

// TestFaultHedgeWaitsForMeasuredTrigger: with HedgePercentile and no
// fixed delay, a read issued before the digest holds hedgeMinSamples
// reads goes out once, however long it stalls: there is no measured
// delay to hedge at, so the server sees one get and no hedge is
// recorded.
func TestFaultHedgeWaitsForMeasuredTrigger(t *testing.T) {
	var gets atomic.Int64
	addr := scriptedServer(t, func(w net.Conn, line string) bool {
		if !strings.HasPrefix(line, "get ") {
			return false
		}
		gets.Add(1)
		time.Sleep(30 * time.Millisecond)
		_, _ = w.Write([]byte("VALUE k 0 1\r\nv\r\nEND\r\n"))
		return true
	})
	col := telemetry.NewCollector()
	c := newClient(t, []string{addr}, func(o *Options) {
		o.Resilience = fault.Resilience{HedgePercentile: 0.9}
		o.Recorder = col
	})
	for i := range 3 {
		if _, err := c.Get("k"); err != nil {
			t.Fatalf("Get %d = %v", i, err)
		}
	}
	if got := gets.Load(); got != 3 {
		t.Errorf("server saw %d gets for 3 unhedged reads", got)
	}
	if got := col.Breakdown()[telemetry.StageHedgeWait].Count; got != 0 {
		t.Errorf("StageHedgeWait count = %d before the digest warmed up, want 0", got)
	}
}

// TestFaultMultiGetPartialUnderServerKill is the degraded fork-join
// acceptance test: with one of two servers killed mid-run, MultiGet
// must surface the surviving server's items alongside the error, and
// MultiGetDegraded must attribute failures key by key.
func TestFaultMultiGetPartialUnderServerKill(t *testing.T) {
	deadAddr, stopDead, _ := startStoppableServer(t)
	liveAddr := startCluster(t, 1)[0]
	c := newClient(t, []string{deadAddr, liveAddr}, nil)

	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var onDead, onLive []string
	for _, k := range keys {
		if err := c.Set(k, []byte("v-"+k), 0, 0); err != nil {
			t.Fatal(err)
		}
		if c.pickServer(k) == 0 {
			onDead = append(onDead, k)
		} else {
			onLive = append(onLive, k)
		}
	}
	if len(onDead) == 0 || len(onLive) == 0 {
		t.Fatalf("degenerate key split: dead=%v live=%v", onDead, onLive)
	}

	stopDead()
	time.Sleep(20 * time.Millisecond)

	out, err := c.MultiGet(keys)
	if err == nil {
		t.Fatal("MultiGet with a dead server reported no error")
	}
	if len(out) != len(onLive) {
		t.Fatalf("partial results lost: got %d items, want %d (%v)", len(out), len(onLive), out)
	}
	for _, k := range onLive {
		if it, ok := out[k]; !ok || string(it.Value) != "v-"+k {
			t.Errorf("surviving key %q missing or wrong: %+v", k, it)
		}
	}

	got, keyErrs := c.MultiGetDegraded(keys)
	if len(got) != len(onLive) {
		t.Errorf("degraded read lost items: %d, want %d", len(got), len(onLive))
	}
	if len(keyErrs) != len(onDead) {
		t.Fatalf("per-key errors = %v, want one per dead-server key %v", keyErrs, onDead)
	}
	for _, k := range onDead {
		if keyErrs[k] == nil {
			t.Errorf("dead-server key %q has no error", k)
		}
	}
	for _, k := range onLive {
		if keyErrs[k] != nil {
			t.Errorf("healthy key %q marked failed: %v", k, keyErrs[k])
		}
	}
}

// TestFaultMultiGetHealthyUnchanged: with every server up, the partial
// -result change must be invisible.
func TestFaultMultiGetHealthyUnchanged(t *testing.T) {
	addrs := startCluster(t, 2)
	c := newClient(t, addrs, nil)
	keys := []string{"x1", "x2", "x3", "x4"}
	for _, k := range keys {
		if err := c.Set(k, []byte(k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(keys) {
		t.Fatalf("healthy MultiGet returned %d/%d items", len(out), len(keys))
	}
	got, keyErrs := c.MultiGetDegraded(keys)
	if len(keyErrs) != 0 || len(got) != len(keys) {
		t.Fatalf("healthy degraded read: items=%d errs=%v", len(got), keyErrs)
	}
}
