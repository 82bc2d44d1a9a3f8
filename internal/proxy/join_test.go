package proxy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memqlat/internal/route"
	"memqlat/internal/testkit"
)

// answerFunc scripts an upstream: the reply to one request line and how
// long to wait before sending it.
type answerFunc func(req string) (time.Duration, string)

// scripted is a fake upstream server. It records every request line it
// reads with its arrival time and answers each, in order per connection,
// as answer says; a storage command's data block is read and dropped. A
// nil answer never replies. A connection lasts until the proxy hangs up;
// closed counts the connections the proxy has hung up.
type scripted struct {
	l      net.Listener
	answer answerFunc
	closed atomic.Int32

	mu   sync.Mutex
	reqs []arrival
}

type arrival struct {
	req string
	at  time.Time
}

func startScripted(t testing.TB, answer answerFunc) *scripted {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scripted{l: l, answer: answer}
	go s.serve()
	t.Cleanup(func() { _ = l.Close() })
	return s
}

func (s *scripted) addr() string { return s.l.Addr().String() }

func (s *scripted) serve() {
	for {
		nc, err := s.l.Accept()
		if err != nil {
			return
		}
		go s.handle(nc)
	}
}

func (s *scripted) handle(nc net.Conn) {
	defer s.closed.Add(1)
	defer nc.Close()
	r := bufio.NewReader(nc)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		req := strings.TrimRight(line, "\r\n")
		s.mu.Lock()
		s.reqs = append(s.reqs, arrival{req, time.Now()})
		s.mu.Unlock()
		f := strings.Fields(req)
		switch f[0] {
		case "set", "add", "replace", "append", "prepend", "cas":
			n, _ := strconv.Atoi(f[4])
			if _, err := io.ReadFull(r, make([]byte, n+2)); err != nil {
				return
			}
		}
		if s.answer == nil {
			continue
		}
		delay, reply := s.answer(req)
		time.Sleep(delay)
		if _, err := nc.Write([]byte(reply)); err != nil {
			return
		}
	}
}

// arrived returns when req first reached the upstream at or after since.
func (s *scripted) arrived(req string, since time.Time) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.reqs {
		if a.req == req && !a.at.Before(since) {
			return a.at, true
		}
	}
	return time.Time{}, false
}

func (s *scripted) requests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reqs)
}

// answer replies reply after delay to every request.
func answer(delay time.Duration, reply string) answerFunc {
	return func(string) (time.Duration, string) { return delay, reply }
}

// hits answers a retrieval with the value "ok" for every key it names.
func hits(delay time.Duration) answerFunc {
	return func(req string) (time.Duration, string) {
		var sb strings.Builder
		for _, k := range strings.Fields(req)[1:] {
			sb.WriteString("VALUE " + k + " 0 2\r\nok\r\n")
		}
		return delay, sb.String() + "END\r\n"
	}
}

func addrsOf(ups ...*scripted) []string {
	out := make([]string, len(ups))
	for i, u := range ups {
		out[i] = u.addr()
	}
	return out
}

// ownedBy returns a key the proxy's ring over n servers gives to srv;
// tag keeps keys drawn for different roles apart.
func ownedBy(t testing.TB, n, srv int, tag string) string {
	t.Helper()
	sel, err := route.NewRingSelector(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if k := tag + strconv.Itoa(i); sel.Pick(k) == srv {
			return k
		}
	}
}

// TestProxyJoinRules pins the three ways a fan-out's legs fold into the
// one reply the client sees: a split multi-get drops a failed part's
// keys, a replicated read takes the first healthy reply (an error only
// when every replica errs) and a replicated write relays the worst line.
func TestProxyJoinRules(t *testing.T) {
	a, b := ownedBy(t, 2, 0, "a"), ownedBy(t, 2, 1, "b")
	for _, tc := range []struct {
		name    string
		policy  Policy
		answers [2]answerFunc
		cmd     string
		want    string
	}{
		{"split, one part erring", PolicyDirect,
			[2]answerFunc{hits(0), answer(0, "SERVER_ERROR busy\r\n")},
			"get " + a + " " + b, "VALUE " + a + " 0 2\r\nok\r\nEND\r\n"},
		{"race, error then value", PolicyReplicate,
			[2]answerFunc{answer(0, "SERVER_ERROR busy\r\n"), hits(100 * time.Millisecond)},
			"get " + a, "VALUE " + a + " 0 2\r\nok\r\nEND\r\n"},
		{"race, both erring", PolicyReplicate,
			[2]answerFunc{answer(0, "SERVER_ERROR first\r\n"), answer(100*time.Millisecond, "SERVER_ERROR second\r\n")},
			"get " + a, "SERVER_ERROR first\r\n"},
		{"replicated set, one replica erring", PolicyReplicate,
			[2]answerFunc{answer(0, "STORED\r\n"), answer(0, "SERVER_ERROR out of memory\r\n")},
			"set " + a + " 0 0 2\r\nok", "SERVER_ERROR out of memory\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ups := []*scripted{startScripted(t, tc.answers[0]), startScripted(t, tc.answers[1])}
			_, paddr := startProxy(t, Options{Upstreams: addrsOf(ups...), Policy: tc.policy, Replicas: 2})
			c := dialConn(t, paddr)
			c.send(tc.cmd + "\r\nversion\r\n")
			got := make([]byte, len(tc.want))
			if _, err := io.ReadFull(c.r, got); err != nil {
				t.Fatalf("read %q: %v", got, err)
			}
			if string(got) != tc.want {
				t.Fatalf("reply %q, want %q", got, tc.want)
			}
			c.expect("VERSION memqlat-proxy") // nothing more came before it
		})
	}
}

// TestProxyFailoverRoutesEachKeyOnce: a split multi-get routes each key
// once, so a failed-over key counts one failover, and the half-open
// probe the routing admits is the request that goes out — its success
// closes the breaker.
func TestProxyFailoverRoutesEachKeyOnce(t *testing.T) {
	k0, k1 := ownedBy(t, 3, 0, "a"), ownedBy(t, 3, 1, "b")
	var healed atomic.Bool
	flaky := func(req string) (time.Duration, string) {
		if healed.Load() {
			return 0, "END\r\n"
		}
		return 0, "SERVER_ERROR busy\r\n"
	}
	ups := []*scripted{startScripted(t, hits(0)), startScripted(t, flaky), startScripted(t, hits(0))}
	p, paddr := startProxy(t, Options{Upstreams: addrsOf(ups...), Policy: PolicyFailover})
	c := dialConn(t, paddr)
	for i := 0; p.BreakerState(1) != "open"; i++ {
		if i == 100 {
			t.Fatalf("breaker of upstream 1 is %q after %d errors", p.BreakerState(1), i)
		}
		c.send("get " + k1 + "\r\n")
		c.line() // SERVER_ERROR until the breaker opens
	}

	before := p.Stats().Failovers
	c.send("get " + k0 + " " + k1 + "\r\n")
	if got := c.retrieval(); len(got) != 2 {
		t.Fatalf("split over a failed-over key = %v, want both keys", got)
	}
	if n := p.Stats().Failovers - before; n != 1 {
		t.Errorf("one failed-over key counted %d failovers", n)
	}

	healed.Store(true)
	time.Sleep(1100 * time.Millisecond) // the breaker's cooldown
	probe := time.Now()
	c.send("get " + k0 + " " + k1 + "\r\n")
	c.retrieval()
	for deadline := time.Now().Add(3 * time.Second); p.BreakerState(1) != "closed"; {
		if time.Now().After(deadline) {
			_, reached := ups[1].arrived("get "+k1, probe)
			t.Fatalf("breaker of upstream 1 still %q 3s after the probe (a get reached it: %v)",
				p.BreakerState(1), reached)
		}
		time.Sleep(50 * time.Millisecond)
		c.send("get " + k1 + "\r\n")
		c.retrieval()
	}
}

// TestProxySlowUpstreamDoesNotStallDownstream: while one upstream sits on
// a reply, the same downstream's next command still goes out at once —
// after a passthrough and after a split multi-get alike.
func TestProxySlowUpstreamDoesNotStallDownstream(t *testing.T) {
	k0, k1, k2 := ownedBy(t, 2, 0, "a"), ownedBy(t, 2, 1, "b"), ownedBy(t, 2, 1, "c")
	for _, tc := range []struct{ name, first, next string }{
		{"passthrough", "get " + k0, "get " + k1},
		{"split", "get " + k0 + " " + k1, "get " + k2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slow, fast := startScripted(t, hits(500*time.Millisecond)), startScripted(t, hits(0))
			_, paddr := startProxy(t, Options{Upstreams: addrsOf(slow, fast), UpstreamConns: 1})
			c := dialConn(t, paddr)
			c.send(tc.first + "\r\n")
			time.Sleep(50 * time.Millisecond)
			sent := time.Now()
			c.send(tc.next + "\r\n")
			for {
				if at, ok := fast.arrived(tc.next, sent); ok {
					if lag := at.Sub(sent); lag > 150*time.Millisecond {
						t.Errorf("%q reached its upstream %v after it was sent", tc.next, lag)
					}
					break
				}
				if time.Since(sent) > 350*time.Millisecond {
					t.Fatalf("%q has not reached its upstream 350ms after it was sent", tc.next)
				}
				time.Sleep(5 * time.Millisecond)
			}
			c.retrieval()
			c.retrieval()
		})
	}
}

// TestProxyBatchFlushesEveryUpstream: one client write whose gets route
// to two servers reaches both at once — the batch flushes every upstream
// connection it wrote to, not only the last — so both replies arrive
// within 1 s.
func TestProxyBatchFlushesEveryUpstream(t *testing.T) {
	a, b := ownedBy(t, 2, 0, "a"), ownedBy(t, 2, 1, "b")
	_, paddr := startProxy(t, Options{Upstreams: addrsOf(startScripted(t, hits(0)), startScripted(t, hits(0)))})
	c := dialConn(t, paddr)
	_ = c.nc.SetReadDeadline(time.Now().Add(time.Second))
	c.send("get " + a + "\r\nget " + b + "\r\n")
	if got := c.retrieval(); got[a] != "ok" {
		t.Fatalf("get %s = %v", a, got)
	}
	if got := c.retrieval(); got[b] != "ok" {
		t.Fatalf("get %s = %v", b, got)
	}
}

// TestProxyBatchEndingMidCommandFlushes: a client write that stops
// midway through a command still sends the commands before it, since the
// handler flushes before it blocks for the rest: a's reply arrives within
// 1 s while the end of "get b" is still unwritten.
func TestProxyBatchEndingMidCommandFlushes(t *testing.T) {
	_, paddr := startProxy(t, Options{Upstreams: addrsOf(startScripted(t, hits(0)))})
	c := dialConn(t, paddr)
	_ = c.nc.SetReadDeadline(time.Now().Add(time.Second))
	c.send("get a\r\nget b")
	if got := c.retrieval(); got["a"] != "ok" {
		t.Fatalf("get a = %v, want a=ok before the batch's last command is whole", got)
	}
	c.send("\r\n")
	if got := c.retrieval(); got["b"] != "ok" {
		t.Fatalf("get b = %v", got)
	}
}

// TestProxyUnsolicitedReplyRetiresConnection: bytes an upstream sends
// with no request pending mean its pipeline lost framing, so the proxy
// retires the connection at once — not when a request next times out —
// fails no client request, and answers the next one on a redialed
// connection.
func TestProxyUnsolicitedReplyRetiresConnection(t *testing.T) {
	up := startScripted(t, func(req string) (time.Duration, string) {
		if req == "get a" {
			return 0, "END\r\nEND\r\n" // the reply owed, then one nobody asked for
		}
		return hits(0)(req)
	})
	_, paddr := startProxy(t, Options{Upstreams: []string{up.addr()}, UpstreamConns: 1})
	c := dialConn(t, paddr)
	c.send("get a\r\n")
	c.expect("END")
	for deadline := time.Now().Add(time.Second); up.closed.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the upstream connection that sent an unsolicited reply is still open after 1s")
		}
	}
	c.send("get b\r\n")
	if got := c.retrieval(); got["b"] != "ok" {
		t.Fatalf("get b after the desync = %v, want b=ok", got)
	}
	if n := up.requests(); n != 2 {
		t.Errorf("upstream saw %d requests, want 2", n)
	}
}

// TestProxyRepliesIsolatedAcrossClients: an upstream that stalls in the
// middle of one client's reply holds up no other client's reply from
// another upstream. Client X pipelines a get to server A and one to
// server B; A sends half a VALUE block and stalls for 500 ms; client Y's
// get on B's same connection, queued behind X's, is still answered at
// once.
func TestProxyRepliesIsolatedAcrossClients(t *testing.T) {
	a, b, c := ownedBy(t, 2, 0, "a"), ownedBy(t, 2, 1, "b"), ownedBy(t, 2, 1, "c")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	halfSent := make(chan struct{})
	go func() { // server A
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := bufio.NewReader(nc).ReadString('\n'); err != nil {
			return
		}
		_, _ = nc.Write([]byte("VALUE " + a + " 0 4\r\nok"))
		close(halfSent)
		time.Sleep(500 * time.Millisecond)
		_, _ = nc.Write([]byte("ok\r\nEND\r\n"))
		_, _ = io.Copy(io.Discard, nc) // until the proxy hangs up
	}()
	// B answers X 20 ms late, once A is midway through X's first reply.
	fast := startScripted(t, func(req string) (time.Duration, string) {
		d, reply := hits(0)(req)
		if req == "get "+b {
			d = 20 * time.Millisecond
		}
		return d, reply
	})
	_, paddr := startProxy(t, Options{Upstreams: []string{l.Addr().String(), fast.addr()}, UpstreamConns: 1})
	x, y := dialConn(t, paddr), dialConn(t, paddr)
	x.send("get " + a + "\r\nget " + b + "\r\n")
	select {
	case <-halfSent:
	case <-time.After(5 * time.Second):
		t.Fatal("server A got no request")
	}
	testkit.WaitReady(t, "X's get on B", func() error { // Y's must queue behind it
		if _, ok := fast.arrived("get "+b, time.Time{}); !ok {
			return errors.New("not arrived")
		}
		return nil
	})
	sent := time.Now()
	y.send("get " + c + "\r\n")
	if got := y.retrieval(); got[c] != "ok" {
		t.Fatalf("Y's get = %v", got)
	}
	if lag := time.Since(sent); lag > 100*time.Millisecond {
		t.Errorf("Y's reply from idle server B took %v while A stalled X's reply", lag)
	}
	if got := x.retrieval(); got[a] != "okok" {
		t.Fatalf("X's get from A = %v", got)
	}
	if got := x.retrieval(); got[b] != "ok" {
		t.Fatalf("X's get from B = %v", got)
	}
}

// TestProxyUndrainedClientIsDisconnected: a client that stops reading
// wedges no upstream connection. X pipelines 600 gets of a 64 KiB value
// and reads nothing; once the sockets between fill, the proxy's write to
// X passes flushTimeout, X is disconnected, and Y's get on the same
// upstream connection is answered within flushTimeout plus 1 s.
func TestProxyUndrainedClientIsDisconnected(t *testing.T) {
	settled := testkit.Settles(t)
	saved := flushTimeout
	flushTimeout = 500 * time.Millisecond
	t.Cleanup(func() { flushTimeout = saved })
	big := "VALUE big 0 65536\r\n" + strings.Repeat("v", 65536) + "\r\nEND\r\n"
	up := startScripted(t, func(req string) (time.Duration, string) {
		if req == "get big" {
			return 0, big
		}
		return 0, "VALUE small 0 2\r\nok\r\nEND\r\n"
	})
	p, err := New(Options{Upstreams: []string{up.addr()}, UpstreamConns: 1, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = p.Serve(l)
	}()
	x, y := dialConn(t, l.Addr().String()), dialConn(t, l.Addr().String())
	x.send(strings.Repeat("get big\r\n", 600))
	testkit.WaitReady(t, "X's gets forwarded", func() error { // Y's must queue behind them
		if n := p.Stats().Forwarded; n < 600 {
			return fmt.Errorf("%d forwarded", n)
		}
		return nil
	})
	sent := time.Now()
	y.send("get small\r\n")
	_ = y.nc.SetReadDeadline(sent.Add(8 * time.Second))
	if got := y.retrieval(); got["small"] != "ok" {
		t.Fatalf("Y's get = %v", got)
	}
	if lag := time.Since(sent); lag > flushTimeout+time.Second {
		t.Errorf("Y's reply took %v behind a client that reads nothing, want <= %v", lag, flushTimeout+time.Second)
	}
	_ = x.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, x.nc); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Error("X, which read nothing, is still connected")
	}
	_ = x.nc.Close()
	_ = y.nc.Close()
	_ = p.Close()
	<-served
	_ = up.l.Close()
	settled("proxy closed after disconnecting an undrained client")
}

// TestProxyCloseReleasesParkedLegs: closing a proxy whose split, race
// and broadcast legs wait on upstreams that never answer leaves no
// goroutine or descriptor behind. The upstreams keep their connections
// open until the proxy hangs up, so nothing but Close unparks the legs.
func TestProxyCloseReleasesParkedLegs(t *testing.T) {
	settled := testkit.Settles(t)
	mute := []*scripted{startScripted(t, nil), startScripted(t, nil)}
	p, err := New(Options{
		Upstreams: addrsOf(mute...),
		Policy:    PolicyReplicate,
		Logger:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = p.Serve(l)
	}()
	a, b := ownedBy(t, 2, 0, "a"), ownedBy(t, 2, 1, "b")
	// A split, a race and a broadcast, each from its own client: three
	// legs parked on each upstream.
	var clients []net.Conn
	for _, cmd := range []string{"get " + a + " " + b, "get " + a, "set " + a + " 0 0 2\r\nok"} {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, nc)
		if _, err := nc.Write([]byte(cmd + "\r\n")); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); mute[0].requests() < 3 || mute[1].requests() < 3; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("legs parked: %d and %d, want 3 on each upstream", mute[0].requests(), mute[1].requests())
		}
	}
	_ = p.Close()
	<-served
	for _, nc := range clients {
		_ = nc.Close()
	}
	for _, u := range mute {
		_ = u.l.Close()
	}
	settled("proxy closed with parked legs")
}

// TestProxyUnreadUpstreamIsBounded: an upstream that stops reading
// wedges no lock. X pipelines 64 KiB sets at a server that never reads;
// once the sockets between fill, the proxy's write to it passes
// flushTimeout and the connection is retired, so Y's get on the same
// upstream slot is answered within flushTimeout plus 1 s, and Close
// returns within 1 s.
func TestProxyUnreadUpstreamIsBounded(t *testing.T) {
	settled := testkit.Settles(t)
	saved := flushTimeout
	flushTimeout = 500 * time.Millisecond
	t.Cleanup(func() { flushTimeout = saved })
	// The server listens and never accepts: the kernel completes the
	// proxy's connections and buffers what they send until the window
	// fills, and nothing reads it.
	deaf, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, addr := startProxy(t, Options{Upstreams: []string{deaf.Addr().String()}, UpstreamConns: 1})
	t.Cleanup(func() { _ = deaf.Close() }) // before the proxy's Close, so a write left blocked cannot hang it
	x, y := dialConn(t, addr), dialConn(t, addr)
	go func() { _, _ = io.Copy(io.Discard, x.nc) }() // X drains its SERVER_ERRORs
	set := []byte("set big 0 0 65536\r\n" + strings.Repeat("v", 65536) + "\r\n")
	go func() { // until the proxy hangs up
		for {
			if _, err := x.nc.Write(set); err != nil {
				return
			}
		}
	}()
	// A send blocked on the full socket holds the upstream's lock, and
	// the forwarded count stops moving.
	last := int64(-1)
	testkit.WaitReady(t, "X's sets wedging the upstream", func() error {
		n := p.Stats().Forwarded
		if n == 0 || n != last {
			last = n
			time.Sleep(100 * time.Millisecond)
			return fmt.Errorf("%d forwarded", n)
		}
		return nil
	})
	sent := time.Now()
	y.send("get k\r\n")
	_ = y.nc.SetReadDeadline(sent.Add(flushTimeout + 2*time.Second))
	if got := y.line(); !strings.HasPrefix(got, "SERVER_ERROR") {
		t.Errorf("Y's get from a server that reads nothing = %q, want SERVER_ERROR", got)
	}
	lag := time.Since(sent)
	t.Logf("Y answered after %v", lag)
	if lag > flushTimeout+time.Second {
		t.Errorf("Y's reply took %v behind an upstream that reads nothing, want <= %v", lag, flushTimeout+time.Second)
	}
	closed := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		_ = p.Close()
		closed <- time.Since(start)
	}()
	select {
	case took := <-closed:
		if took > time.Second {
			t.Errorf("Close took %v, want <= 1s", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked after 5s on an upstream that reads nothing")
	}
	_ = x.nc.Close()
	_ = y.nc.Close()
	_ = deaf.Close()
	settled("proxy closed with an upstream that reads nothing")
}

// TestProxyReadLoopNeverWaitsOnAWriter: an upstream's read loop takes
// only its connection's queue lock, never the lock a writer holds while
// its socket is full. On one upstream connection, X pipelines batches of
// 64 KiB sets while Y pipelines batches of gets of a 64 KiB value. A
// read loop that waited on X's blocked write would stop draining Y's
// values, the server would stop reading, and X's write would stall until
// flushTimeout retired the connection with SERVER_ERRORs. Every batch
// must finish well inside flushTimeout.
func TestProxyReadLoopNeverWaitsOnAWriter(t *testing.T) {
	saved := flushTimeout
	flushTimeout = 2 * time.Second
	t.Cleanup(func() { flushTimeout = saved })
	_, addr := startProxy(t, Options{Upstreams: startBackends(t, 1), UpstreamConns: 1})
	value := strings.Repeat("v", 64<<10)
	set := "set big 0 0 65536\r\n" + value + "\r\n"
	dialConn(t, addr).set("big", value)
	const batches, perBatch = 10, 128
	sets, gets := strings.Repeat(set, perBatch), strings.Repeat("get big\r\n", perBatch)
	// run sends batches of one command and reads each batch's replies,
	// returning the slowest batch; read consumes one reply.
	run := func(batch string, read func(r *bufio.Reader) error) (time.Duration, error) {
		nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return 0, err
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(batches * 2 * flushTimeout))
		r := bufio.NewReader(nc)
		var slowest time.Duration
		for b := 0; b < batches; b++ {
			start := time.Now()
			if _, err := io.WriteString(nc, batch); err != nil {
				return slowest, err
			}
			for i := 0; i < perBatch; i++ {
				if err := read(r); err != nil {
					return slowest, fmt.Errorf("batch %d reply %d: %w", b, i, err)
				}
			}
			slowest = max(slowest, time.Since(start))
		}
		return slowest, nil
	}
	expect := func(r *bufio.Reader, want string) error {
		line, err := r.ReadString('\n')
		if err == nil && line != want+"\r\n" {
			err = fmt.Errorf("got %q, want %q", strings.TrimSpace(line), want)
		}
		return err
	}
	var wg sync.WaitGroup
	var slowest [2]time.Duration
	var errs [2]error
	wg.Add(2)
	go func() {
		defer wg.Done()
		slowest[0], errs[0] = run(sets, func(r *bufio.Reader) error { return expect(r, "STORED") })
	}()
	go func() {
		defer wg.Done()
		slowest[1], errs[1] = run(gets, func(r *bufio.Reader) error {
			if err := expect(r, "VALUE big 0 65536"); err != nil {
				return err
			}
			if _, err := r.Discard(len(value) + 2); err != nil {
				return err
			}
			return expect(r, "END")
		})
	}()
	wg.Wait()
	for i, name := range []string{"X (sets)", "Y (gets)"} {
		t.Logf("%s: slowest batch %v", name, slowest[i])
		if errs[i] != nil {
			t.Errorf("%s: %v", name, errs[i])
		} else if slowest[i] >= flushTimeout {
			t.Errorf("%s: a batch took %v, want < flushTimeout %v", name, slowest[i], flushTimeout)
		}
	}
}
