package proxy

import (
	"strings"
	"testing"
	"time"

	"memqlat/internal/protocol"
)

// shortenUpstreamTimeout sets upstreamTimeout to d for the proxies the
// test builds.
func shortenUpstreamTimeout(t *testing.T, d time.Duration) {
	saved := upstreamTimeout
	upstreamTimeout = d
	t.Cleanup(func() { upstreamTimeout = saved })
}

// armedUpstream reads the deadlines an upstream connection's socket
// carries, under the locks that guard them.
func armedUpstream(c *uconn) (read, write protocol.Deadline) {
	c.u.mu.Lock()
	write = c.wdl
	c.u.mu.Unlock()
	c.qmu.Lock()
	read = c.rdl
	c.qmu.Unlock()
	return read, write
}

// TestProxyIdleUpstreamDeadlineIsStale: an upstream connection that goes
// idle keeps the read deadline its last reply left, and when it fires
// with nothing owed the connection stays. After an idle spell past it the
// next 100 gets are all answered, and so is a get sent at each of eight
// gaps spread across the moment the deadline fires, where a send races
// the read loop; the connection is never replaced.
func TestProxyIdleUpstreamDeadlineIsStale(t *testing.T) {
	const T = 200 * time.Millisecond
	shortenUpstreamTimeout(t, T)
	p, addr := startProxy(t, Options{Upstreams: startBackends(t, 1), UpstreamConns: 1})
	c := dialConn(t, addr)
	c.set("k", "v")
	get := func(when string) {
		t.Helper()
		c.send("get k\r\n")
		if got := c.retrieval(); got["k"] != "v" {
			t.Fatalf("get %s = %v", when, got)
		}
	}
	get("before the idle spell")
	uc := p.ups[0][0].cur.Load()
	time.Sleep(T + T/2)
	for i := 0; i < 100; i++ {
		get("after the idle spell")
	}
	for i := 0; i < 8; i++ {
		time.Sleep(T + time.Duration(i)*T/32)
		get("across the idle deadline")
	}
	if p.ups[0][0].cur.Load() != uc {
		t.Error("an idle deadline retired the upstream connection")
	}
}

// TestProxyMuteUpstreamFailsWithinWindow: a get to a server that never
// answers fails no earlier than upstreamTimeout T after it was sent and
// no later than 9T/8 plus a scheduling slack the test measures itself:
// how late the latest of eight reference timers of 9T/8 started beside
// the get fires, plus the slowest of 20 round trips to the proxy measured
// just before, twice over, since the failure crosses a timer's wake, a
// connection's close and a relay where the reference crosses one wake.
func TestProxyMuteUpstreamFailsWithinWindow(t *testing.T) {
	const T = 400 * time.Millisecond
	shortenUpstreamTimeout(t, T)
	_, addr := startProxy(t, Options{Upstreams: addrsOf(startScripted(t, nil)), UpstreamConns: 1})
	c := dialConn(t, addr)
	var rtt time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		c.send("version\r\n")
		c.line()
		rtt = max(rtt, time.Since(start))
	}
	sent := time.Now()
	const refs = 8
	ref := make(chan time.Duration, refs)
	for i := 0; i < refs; i++ {
		go func() {
			time.Sleep(T + T/8)
			ref <- time.Since(sent) - (T + T/8)
		}()
	}
	c.send("get k\r\n")
	if got := c.line(); !strings.HasPrefix(got, "SERVER_ERROR") {
		t.Fatalf("get from a server that never answers = %q, want SERVER_ERROR", got)
	}
	took := time.Since(sent)
	var late time.Duration
	for i := 0; i < refs; i++ {
		late = max(late, <-ref)
	}
	t.Logf("failed after %v (reference timer %v late, round trip %v)", took, late, rtt)
	if took < T {
		t.Errorf("failed after %v, before upstreamTimeout %v", took, T)
	}
	if limit := T + T/8 + 2*(late+rtt); took > limit {
		t.Errorf("failed after %v, want <= 9T/8 + slack = %v", took, limit)
	}
}

// TestProxySteadyGetsArmNoTimer: 1000 back-to-back gets through the
// proxy leave the deadlines the upstream connection's socket carries
// where the first get put them, so they touch no socket timer. A run
// that outlasts T/8 (the test measures it) may move them.
func TestProxySteadyGetsArmNoTimer(t *testing.T) {
	const T = 5 * time.Second // flushTimeout's and upstreamTimeout's default
	p, addr := startProxy(t, Options{Upstreams: startBackends(t, 1), UpstreamConns: 1})
	c := dialConn(t, addr)
	began := time.Now()
	c.set("k", "v")
	uc := p.ups[0][0].cur.Load()
	read0, write0 := armedUpstream(uc)
	for i := 0; i < 1000; i++ {
		c.send("get k\r\n")
		if got := c.retrieval(); got["k"] != "v" {
			t.Fatalf("get %d = %v", i, got)
		}
	}
	took := time.Since(began)
	if p.ups[0][0].cur.Load() != uc {
		t.Fatal("the gets did not reuse the upstream connection")
	}
	if read, write := armedUpstream(uc); read != read0 || write != write0 {
		if took < T/8 {
			t.Errorf("1000 gets within %v moved the read deadline (%v) or the write deadline (%v)",
				took, read != read0, write != write0)
		} else {
			t.Logf("the gets took %v, past T/8, and moved a deadline", took)
		}
	}
}
