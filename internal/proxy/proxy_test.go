package proxy

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/protocol"
	"memqlat/internal/route"
	"memqlat/internal/server"
	"memqlat/internal/testkit"
)

// startBackends brings up n real memqlat servers on loopback listeners.
func startBackends(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = startBackend(t)
	}
	return addrs
}

func startBackend(t testing.TB) string {
	t.Helper()
	_, addr := serveBackend(t, "127.0.0.1:0", server.Options{})
	return addr
}

// serveBackend serves a memqlat server configured by opts on addr until
// the test ends, and returns it with the address it bound.
func serveBackend(t testing.TB, addr string, opts server.Options) (*server.Server, string) {
	t.Helper()
	c, err := cache.New(cache.Options{MaxBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache, opts.Logger = c, log.New(io.Discard, "", 0)
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

// startProxy brings the proxy up on a loopback listener.
func startProxy(t testing.TB, opts Options) (*Proxy, string) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(l) }()
	t.Cleanup(func() { _ = p.Close() })
	return p, l.Addr().String()
}

// testConn is a raw text-protocol client for asserting exact framing.
type testConn struct {
	t  testing.TB
	nc net.Conn
	r  *bufio.Reader
}

func dialConn(t testing.TB, addr string) *testConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	return &testConn{t: t, nc: nc, r: bufio.NewReader(nc)}
}

func (c *testConn) send(s string) {
	c.t.Helper()
	if _, err := c.nc.Write([]byte(s)); err != nil {
		c.t.Fatal(err)
	}
}

func (c *testConn) line() string {
	c.t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read line: %v (got %q)", err, line)
	}
	return strings.TrimRight(line, "\r\n")
}

func (c *testConn) expect(want string) {
	c.t.Helper()
	if got := c.line(); got != want {
		c.t.Fatalf("reply %q, want %q", got, want)
	}
}

// retrieval reads one full retrieval reply (VALUE blocks through END)
// and returns key -> value.
func (c *testConn) retrieval() map[string]string {
	c.t.Helper()
	out := map[string]string{}
	for {
		line := c.line()
		if line == "END" {
			return out
		}
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "VALUE" {
			c.t.Fatalf("unexpected retrieval line %q", line)
		}
		var n int
		if _, err := fmt.Sscanf(f[3], "%d", &n); err != nil {
			c.t.Fatalf("bad VALUE bytes in %q", line)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			c.t.Fatal(err)
		}
		out[f[1]] = string(buf[:n])
	}
}

func (c *testConn) set(key, value string) {
	c.t.Helper()
	c.send(fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(value), value))
	c.expect("STORED")
}

func TestProxyPassthroughBasic(t *testing.T) {
	addrs := startBackends(t, 2)
	p, paddr := startProxy(t, Options{Upstreams: addrs})
	c := dialConn(t, paddr)

	c.set("alpha", "one")
	c.set("beta", "two-two")

	c.send("get alpha\r\n")
	if got := c.retrieval(); got["alpha"] != "one" {
		t.Fatalf("get alpha = %v", got)
	}
	c.send("gets beta\r\n")
	if got := c.retrieval(); got["beta"] != "two-two" {
		t.Fatalf("gets beta = %v", got)
	}
	c.send("incr alpha 1\r\n")
	if line := c.line(); !strings.HasPrefix(line, "CLIENT_ERROR") {
		t.Fatalf("incr on non-numeric = %q, want CLIENT_ERROR", line)
	}
	c.send("delete alpha\r\n")
	c.expect("DELETED")
	c.send("get alpha\r\n")
	if got := c.retrieval(); len(got) != 0 {
		t.Fatalf("deleted key still present: %v", got)
	}
	c.send("version\r\n")
	c.expect("VERSION memqlat-proxy")
	c.send("verbosity 1\r\n")
	c.expect("OK")
	c.send("touch beta 100\r\n")
	c.expect("TOUCHED")
	c.send("flush_all\r\n")
	c.expect("OK")
	c.send("get beta\r\n")
	if got := c.retrieval(); len(got) != 0 {
		t.Fatalf("flushed key still present: %v", got)
	}
	if s := p.Stats(); s.Commands == 0 || s.Forwarded == 0 {
		t.Fatalf("stats not counting: %+v", s)
	}
}

func TestProxyLocalStats(t *testing.T) {
	addrs := startBackends(t, 1)
	_, paddr := startProxy(t, Options{Upstreams: addrs})
	c := dialConn(t, paddr)
	c.set("k", "v")
	c.send("stats\r\n")
	sawProxy := false
	for {
		line := c.line()
		if line == "END" {
			break
		}
		if line == "STAT proxy memqlat" {
			sawProxy = true
		}
		if !strings.HasPrefix(line, "STAT ") {
			t.Fatalf("unexpected stats line %q", line)
		}
	}
	if !sawProxy {
		t.Fatal("stats reply missing proxy marker")
	}
}

// TestProxyPipelinedNoreplyOrdering is the satellite ordering test: a
// single write carrying noreply storage ops interleaved with reads of
// the same keys must observe the writes, and replies must come back in
// command order.
func TestProxyPipelinedNoreplyOrdering(t *testing.T) {
	addrs := startBackends(t, 1)
	_, paddr := startProxy(t, Options{Upstreams: addrs})
	c := dialConn(t, paddr)

	c.send("set o1 0 0 2 noreply\r\nv1\r\n" +
		"set o2 0 0 2 noreply\r\nv2\r\n" +
		"get o1\r\n" +
		"get o2\r\n" +
		"delete o1 noreply\r\n" +
		"get o1\r\n" +
		"set o1 0 0 2 noreply\r\nv3\r\n" +
		"get o1\r\n")
	if got := c.retrieval(); got["o1"] != "v1" {
		t.Fatalf("reply 1: got %v, want o1=v1", got)
	}
	if got := c.retrieval(); got["o2"] != "v2" {
		t.Fatalf("reply 2: got %v, want o2=v2", got)
	}
	if got := c.retrieval(); len(got) != 0 {
		t.Fatalf("reply 3: noreply delete not ordered before read: %v", got)
	}
	if got := c.retrieval(); got["o1"] != "v3" {
		t.Fatalf("reply 4: noreply re-set not ordered before read: %v", got)
	}
}

// TestProxyInterleavedMultiGetFraming is the satellite framing test:
// pipelined multi-gets whose keys interleave across three upstream
// servers must come back as well-formed retrieval replies in command
// order, each carrying exactly its own keys.
func TestProxyInterleavedMultiGetFraming(t *testing.T) {
	addrs := startBackends(t, 3)
	_, paddr := startProxy(t, Options{Upstreams: addrs})
	c := dialConn(t, paddr)

	const nkeys = 12
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk%02d", i)
		c.set(keys[i], fmt.Sprintf("value-%02d", i))
	}

	// Three pipelined multi-gets with interleaved, overlapping key sets,
	// a missing key in the middle, and a trailing single-line command.
	var sb strings.Builder
	sb.WriteString("get " + strings.Join(keys[0:6], " ") + "\r\n")
	sb.WriteString("get mk06 missing-key mk07\r\n")
	sb.WriteString("get " + strings.Join(keys[6:12], " ") + " mk00\r\n")
	sb.WriteString("version\r\n")
	c.send(sb.String())

	r1 := c.retrieval()
	if len(r1) != 6 {
		t.Fatalf("reply 1 has %d keys: %v", len(r1), r1)
	}
	for i := 0; i < 6; i++ {
		if r1[keys[i]] != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("reply 1 wrong value for %s: %v", keys[i], r1)
		}
	}
	r2 := c.retrieval()
	if len(r2) != 2 || r2["mk06"] == "" || r2["mk07"] == "" {
		t.Fatalf("reply 2 = %v, want exactly mk06+mk07", r2)
	}
	r3 := c.retrieval()
	if len(r3) != 7 {
		t.Fatalf("reply 3 has %d keys: %v", len(r3), r3)
	}
	for i := 6; i < 12; i++ {
		if r3[keys[i]] != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("reply 3 wrong value for %s: %v", keys[i], r3)
		}
	}
	if r3["mk00"] != "value-00" {
		t.Fatalf("reply 3 missing cross-group key mk00: %v", r3)
	}
	c.expect("VERSION memqlat-proxy")
}

func TestProxyFailover(t *testing.T) {
	live := startBackend(t)
	// A listener that is immediately closed: connecting fails fast.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()

	// A key the ring gives to the dead upstream.
	sel, err := route.NewRingSelector(2, 0) // the proxy's ring
	if err != nil {
		t.Fatal(err)
	}
	key := "failkey"
	for i := 0; sel.Pick(key) != 1; i++ {
		key = fmt.Sprintf("failkey-%d", i)
	}

	p, paddr := startProxy(t, Options{
		Upstreams: []string{live, deadAddr},
		Policy:    PolicyFailover,
	})
	c := dialConn(t, paddr)

	// The first attempts hit the dead owner and fail; once the breaker
	// trips (half its 20-outcome window failing), traffic fails over to
	// the live server (a clean miss).
	recovered := false
	for i := 0; i < 20; i++ {
		c.send("get " + key + "\r\n")
		line := c.line()
		if line == "END" {
			recovered = true
			break
		}
		if !strings.HasPrefix(line, "SERVER_ERROR") {
			t.Fatalf("unexpected reply %q", line)
		}
	}
	if !recovered {
		t.Fatalf("failover never engaged; breaker state %q", p.BreakerState(1))
	}
	if p.BreakerState(1) != "open" {
		t.Fatalf("dead upstream breaker %q, want open", p.BreakerState(1))
	}
	if p.Stats().Failovers == 0 {
		t.Fatal("failover counter never incremented")
	}
	// Writes fail over too, and land on the live server.
	c.send("set " + key + " 0 0 2\r\nok\r\n")
	c.expect("STORED")
	c.send("get " + key + "\r\n")
	if got := c.retrieval(); got[key] != "ok" {
		t.Fatalf("failed-over write not readable: %v", got)
	}
}

func TestProxyReplicatedWriteAndRead(t *testing.T) {
	addrs := startBackends(t, 3)
	_, paddr := startProxy(t, Options{
		Upstreams: addrs,
		Policy:    PolicyReplicate,
		Replicas:  2,
	})
	c := dialConn(t, paddr)

	c.set("rkey", "replicated")

	// Exactly Replicas backends hold the key.
	holders := 0
	for _, addr := range addrs {
		bc := dialConn(t, addr)
		bc.send("get rkey\r\n")
		if got := bc.retrieval(); got["rkey"] == "replicated" {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("key on %d backends, want 2", holders)
	}

	// Replicated read races the replicas and returns the value.
	c.send("get rkey\r\n")
	if got := c.retrieval(); got["rkey"] != "replicated" {
		t.Fatalf("replicated read = %v", got)
	}

	// A replicated delete removes every copy; the joined line reply is
	// still a single DELETED.
	c.send("delete rkey\r\n")
	c.expect("DELETED")
	for _, addr := range addrs {
		bc := dialConn(t, addr)
		bc.send("get rkey\r\n")
		if got := bc.retrieval(); len(got) != 0 {
			t.Fatalf("replica at %s kept deleted key: %v", addr, got)
		}
	}
}

// TestProxyReplicatedReadSurvivesReplicaLoss kills one backend and
// checks the racing read still answers from the surviving replica.
func TestProxyReplicatedReadSurvivesReplicaLoss(t *testing.T) {
	// Backends kept by handle so one can be torn down mid-test.
	addrs := make([]string, 3)
	srvs := make([]*server.Server, 3)
	for i := range addrs {
		srvs[i], addrs[i] = serveBackend(t, "127.0.0.1:0", server.Options{})
	}
	sel, err := route.NewRingSelector(3, 0) // the proxy's ring
	if err != nil {
		t.Fatal(err)
	}
	_, paddr := startProxy(t, Options{
		Upstreams: addrs,
		Policy:    PolicyReplicate,
		Replicas:  2,
	})
	c := dialConn(t, paddr)
	c.set("lost", "still-here")

	// Kill the key's owner; its replica (ring successor) survives.
	owner := sel.Pick("lost")
	_ = srvs[owner].Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		c2 := dialConn(t, paddr)
		c2.send("get lost\r\n")
		line := c2.line()
		if strings.HasPrefix(line, "VALUE lost") {
			buf := make([]byte, len("still-here")+2)
			if _, err := io.ReadFull(c2.r, buf); err != nil {
				t.Fatal(err)
			}
			if string(buf[:len(buf)-2]) != "still-here" {
				t.Fatalf("wrong surviving value %q", buf)
			}
			c2.expect("END")
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicated read never recovered; last reply %q", line)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestProxyClosedUpstreamCostsNoRequest: a server that closes an idle
// upstream connection costs no request, because the connection's read
// loop sees the close while idle and retires it, so the next request
// redials: (a) the server is closed and restarted on the same address
// between two sets; (b) the server's idle timeout closes the upstream
// connection between gets 200 ms apart.
func TestProxyClosedUpstreamCostsNoRequest(t *testing.T) {
	t.Run("restarted", func(t *testing.T) {
		srv, addr := serveBackend(t, "127.0.0.1:0", server.Options{})
		p, paddr := startProxy(t, Options{Upstreams: []string{addr}, UpstreamConns: 1})
		c := dialConn(t, paddr)
		c.set("k", "before")
		_ = srv.Close()
		// A restart takes longer than the close takes to reach the idle
		// read loop; wait for that here rather than race it.
		testkit.WaitReady(t, "retiring the upstream connection its server closed", func() error {
			c := p.ups[0][0].cur.Load()
			if c == nil {
				return nil
			}
			c.qmu.Lock()
			defer c.qmu.Unlock()
			if !c.broken {
				return errors.New("still live")
			}
			return nil
		})
		serveBackend(t, addr, server.Options{})
		c.set("k", "after")
	})
	t.Run("idle timeout", func(t *testing.T) {
		_, addr := serveBackend(t, "127.0.0.1:0", server.Options{IdleTimeout: 50 * time.Millisecond})
		_, paddr := startProxy(t, Options{Upstreams: []string{addr}, UpstreamConns: 1})
		c := dialConn(t, paddr)
		for i := 0; i < 3; i++ {
			c.send("get k\r\n")
			if got := c.retrieval(); len(got) != 0 {
				t.Fatalf("get %d = %v, want a miss", i, got)
			}
			time.Sleep(200 * time.Millisecond)
		}
	})
}

// TestProxyServeSurvivesAcceptError: a failed accept (EMFILE, as at a
// connection peak) is retried after a backoff; the proxy goes on serving
// the next connection and shuts down clean.
func TestProxyServeSurvivesAcceptError(t *testing.T) {
	settled := testkit.Settles(t)
	p, err := New(Options{Upstreams: []string{"127.0.0.1:1"}, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(testkit.FailFirstAccept(l)) }()
	nc, err := net.DialTimeout("tcp", l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(nc).ReadString('\n'); !strings.HasPrefix(line, "VERSION ") {
		t.Errorf("after a failed accept the proxy answered %q, %v; want a VERSION line", line, err)
	}
	_ = nc.Close()
	if err := p.Close(); err != nil {
		t.Error(err)
	}
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	settled("proxy after a failed accept and Close")
}

func TestProxyOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("no upstreams accepted")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	for _, name := range []string{"", "direct", "failover", "replicate"} {
		if _, err := ParsePolicy(name); err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
	}
	if PolicyReplicate.String() != "replicate" {
		t.Error("policy stringer broken")
	}
}

func TestProxyClientError(t *testing.T) {
	addrs := startBackends(t, 1)
	_, paddr := startProxy(t, Options{Upstreams: addrs})
	c := dialConn(t, paddr)
	c.send("bogus-command\r\n")
	if line := c.line(); !strings.HasPrefix(line, "CLIENT_ERROR") {
		t.Fatalf("reply %q, want CLIENT_ERROR", line)
	}
	// The connection survives a client error.
	c.set("after", "ok")
}

// TestProxyLineLimit: the proxy's downstream side enforces the same
// command-line limit as the servers — a line one byte over
// protocol.ConnBufferBytes is refused, and the command pipelined behind
// it is still served.
func TestProxyLineLimit(t *testing.T) {
	_, addr := startProxy(t, Options{Upstreams: startBackends(t, 2)})
	c := dialConn(t, addr)
	c.set("a", "hi")
	line := func(total int) string {
		return "get a " + strings.Repeat("k", total-len("get a \r\n")) + "\r\n"
	}
	c.send(line(protocol.ConnBufferBytes) + line(protocol.ConnBufferBytes+1) + "get a\r\n")
	if got := c.retrieval(); got["a"] != "hi" {
		t.Fatalf("line at the limit: %v", got)
	}
	c.expect("CLIENT_ERROR line too long")
	if got := c.retrieval(); got["a"] != "hi" {
		t.Fatalf("command behind the refused line: %v", got)
	}
}

// TestProxySplitShareOverLineLimit: a downstream multi-get may be twice
// as long as a line a client is allowed to send upstream
// (protocol.MaxLineBytes). When one upstream connection's share of the
// split outgrows that, it goes out as pipelined lines and every key
// still comes back in the one joined reply.
func TestProxySplitShareOverLineLimit(t *testing.T) {
	addrs := startBackends(t, 2)
	_, addr := startProxy(t, Options{Upstreams: addrs, UpstreamConns: 1})
	sel, err := route.NewRingSelector(2, 0) // the proxy's default selector
	if err != nil {
		t.Fatal(err)
	}
	// 60 keys of 200 bytes owned by server 0 (12 KiB: two lines' worth)
	// and one owned by server 1, so the command has to split.
	var keys []string
	other := ""
	for i := 0; len(keys) < 60 || other == ""; i++ {
		k := fmt.Sprintf("%0200d", i)
		if sel.Pick(k) != 0 {
			other = k
		} else if len(keys) < 60 {
			keys = append(keys, k)
		}
	}
	keys = append(keys, other)
	c := dialConn(t, addr)
	for _, k := range keys {
		c.set(k, "v"+k[190:])
	}
	c.send("get " + strings.Join(keys, " ") + "\r\n")
	got := c.retrieval()
	for _, k := range keys {
		if got[k] != "v"+k[190:] {
			t.Fatalf("key …%s = %q in a joined reply of %d keys", k[190:], got[k], len(got))
		}
	}
	s0 := dialConn(t, addrs[0])
	s0.send("stats commands\r\n")
	lines := ""
	for line := s0.line(); line != "END"; line = s0.line() {
		if n, ok := strings.CutPrefix(line, "STAT cmd_get "); ok {
			lines = n
		}
	}
	if lines != "2" {
		t.Errorf("server 0 saw %q get lines for its 12 KiB share, want 2", lines)
	}
}

// TestErrorReplyClassification: the client's reply reader and the
// proxy's relay must agree, row by row, on which lines are error
// replies — protocol.txt's rule: exactly ERROR, or CLIENT_ERROR /
// SERVER_ERROR followed by a space or the end of the line.
func TestErrorReplyClassification(t *testing.T) {
	for line, want := range map[string]bool{
		"ERROR":             true,
		"ERRORX":            false,
		"SERVER_ERROR":      true,
		"SERVER_ERROR x":    true,
		"SERVER_ERRORx":     false,
		"CLIENT_ERROR":      true,
		"CLIENT_ERROR x":    true,
		"END":               false,
		"VALUE k 0 1":       false,
		"VALUE k 0 9999999": false,
		"STORED":            false,
	} {
		wire := []byte(line + "\r\n")
		var se *protocol.ServerError
		_, err := protocol.ReadLineReply(bufio.NewReader(bytes.NewReader(wire)))
		if client := errors.As(err, &se); client != want || (err != nil && !client) {
			t.Errorf("%q: client reader error-reply=%v (err %v), want %v", line, client, err, want)
		}
		up := &uconn{r: bufio.NewReader(bytes.NewReader(wire))}
		relayed, relay, err := up.appendReply(nil, kindLine, false)
		if err != nil || relay != want || !bytes.Equal(relayed, wire) {
			t.Errorf("%q: proxy relay error-reply=%v (err %v, relayed %q), want %v", line, relay, err, relayed, want)
		}
		if got := protocol.IsErrorReply(wire); got != want {
			t.Errorf("%q: IsErrorReply=%v, want %v", line, got, want)
		}
	}
}
