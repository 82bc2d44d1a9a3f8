package server

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/telemetry"
	"memqlat/internal/testkit"
)

// startServer launches a server on a loopback listener and returns its
// address plus a cleanup-registered shutdown.
func startServer(t *testing.T, opts Options) (*Server, string) {
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
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

// dial opens a raw protocol session.
func dial(t *testing.T, addr string) (*bufio.Reader, *bufio.Writer, net.Conn) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return bufio.NewReader(conn), bufio.NewWriter(conn), conn
}

func send(t *testing.T, w *bufio.Writer, s string) {
	t.Helper()
	if _, err := w.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("nil cache accepted")
	}
	c, _ := cache.New(cache.Options{})
	if _, err := New(Options{Cache: c, MaxConns: -1}); err == nil {
		t.Error("negative MaxConns accepted")
	}
	if _, err := New(Options{Cache: c, ServiceRate: -1}); err == nil {
		t.Error("negative ServiceRate accepted")
	}
}

func TestSetGetEndToEnd(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set hello 42 0 5\r\nworld\r\n")
	if got := readLine(t, r); got != "STORED" {
		t.Fatalf("set reply = %q", got)
	}
	send(t, w, "get hello\r\n")
	if got := readLine(t, r); got != "VALUE hello 42 5" {
		t.Fatalf("value header = %q", got)
	}
	if got := readLine(t, r); got != "world" {
		t.Fatalf("value body = %q", got)
	}
	if got := readLine(t, r); got != "END" {
		t.Fatalf("end = %q", got)
	}
}

func TestGetMissOmitted(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "get nope\r\n")
	if got := readLine(t, r); got != "END" {
		t.Fatalf("reply = %q", got)
	}
}

func TestMultiGetPartial(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set a 0 0 1\r\nx\r\n")
	readLine(t, r)
	send(t, w, "set b 0 0 1\r\ny\r\n")
	readLine(t, r)
	send(t, w, "get a missing b\r\n")
	var lines []string
	for {
		line := readLine(t, r)
		lines = append(lines, line)
		if line == "END" {
			break
		}
	}
	joined := strings.Join(lines, "|")
	if !strings.Contains(joined, "VALUE a 0 1|x") || !strings.Contains(joined, "VALUE b 0 1|y") {
		t.Errorf("multiget = %q", joined)
	}
	if strings.Contains(joined, "missing") {
		t.Errorf("missing key leaked: %q", joined)
	}
}

func TestGetsReturnsCAS(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set k 0 0 1\r\nv\r\n")
	readLine(t, r)
	send(t, w, "gets k\r\n")
	header := readLine(t, r)
	var key string
	var flags, length int
	var cas uint64
	if _, err := fmt.Sscanf(header, "VALUE %s %d %d %d", &key, &flags, &length, &cas); err != nil {
		t.Fatalf("header %q: %v", header, err)
	}
	if cas == 0 {
		t.Error("zero cas token")
	}
	readLine(t, r) // body
	readLine(t, r) // END

	// cas with the right token succeeds, with a stale token returns EXISTS.
	send(t, w, fmt.Sprintf("cas k 0 0 2 %d\r\nv2\r\n", cas))
	if got := readLine(t, r); got != "STORED" {
		t.Fatalf("cas reply = %q", got)
	}
	send(t, w, fmt.Sprintf("cas k 0 0 2 %d\r\nv3\r\n", cas))
	if got := readLine(t, r); got != "EXISTS" {
		t.Fatalf("stale cas reply = %q", got)
	}
}

func TestStorageCommandFamily(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	steps := []struct{ give, want string }{
		{"replace k 0 0 1\r\nx\r\n", "NOT_STORED"},
		{"add k 0 0 1\r\nx\r\n", "STORED"},
		{"add k 0 0 1\r\ny\r\n", "NOT_STORED"},
		{"append k 0 0 2\r\nyz\r\n", "STORED"},
		{"prepend k 0 0 2\r\nwv\r\n", "STORED"},
		{"delete k\r\n", "DELETED"},
		{"delete k\r\n", "NOT_FOUND"},
		{"cas k 0 0 1 5\r\nx\r\n", "NOT_FOUND"},
	}
	for _, s := range steps {
		send(t, w, s.give)
		if got := readLine(t, r); got != s.want {
			t.Errorf("%q -> %q, want %q", s.give, got, s.want)
		}
	}
}

func TestIncrDecrEndToEnd(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set n 0 0 2\r\n10\r\n")
	readLine(t, r)
	send(t, w, "incr n 5\r\n")
	if got := readLine(t, r); got != "15" {
		t.Errorf("incr = %q", got)
	}
	send(t, w, "decr n 100\r\n")
	if got := readLine(t, r); got != "0" {
		t.Errorf("decr = %q", got)
	}
	send(t, w, "incr missing 1\r\n")
	if got := readLine(t, r); got != "NOT_FOUND" {
		t.Errorf("incr missing = %q", got)
	}
	send(t, w, "set s 0 0 3\r\nabc\r\n")
	readLine(t, r)
	send(t, w, "incr s 1\r\n")
	if got := readLine(t, r); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("incr non-numeric = %q", got)
	}
}

func TestTouchAndExpiry(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set k 0 0 1\r\nv\r\n")
	readLine(t, r)
	send(t, w, "touch k 100\r\n")
	if got := readLine(t, r); got != "TOUCHED" {
		t.Errorf("touch = %q", got)
	}
	send(t, w, "touch missing 100\r\n")
	if got := readLine(t, r); got != "NOT_FOUND" {
		t.Errorf("touch missing = %q", got)
	}
	// Negative exptime stores an immediately-expired item.
	send(t, w, "set dead 0 -1 1\r\nv\r\n")
	readLine(t, r)
	send(t, w, "get dead\r\n")
	if got := readLine(t, r); got != "END" {
		t.Errorf("expired item served: %q", got)
	}
}

func TestNoreplySuppressesResponses(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set k 0 0 1 noreply\r\nv\r\nget k\r\n")
	// First reply must be the get's VALUE, not STORED.
	if got := readLine(t, r); got != "VALUE k 0 1" {
		t.Fatalf("first reply = %q", got)
	}
}

func TestStatsVersionFlush(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "version\r\n")
	if got := readLine(t, r); !strings.HasPrefix(got, "VERSION ") {
		t.Errorf("version = %q", got)
	}
	send(t, w, "set k 0 0 1\r\nv\r\n")
	readLine(t, r)
	send(t, w, "stats\r\n")
	stats := make(map[string]string)
	for {
		line := readLine(t, r)
		if line == "END" {
			break
		}
		var k, v string
		if _, err := fmt.Sscanf(line, "STAT %s %s", &k, &v); err != nil {
			t.Fatalf("stat line %q: %v", line, err)
		}
		stats[k] = v
	}
	if stats["cmd_set"] != "1" || stats["curr_items"] != "1" {
		t.Errorf("stats = %v", stats)
	}
	send(t, w, "flush_all\r\n")
	if got := readLine(t, r); got != "OK" {
		t.Errorf("flush = %q", got)
	}
	send(t, w, "get k\r\n")
	if got := readLine(t, r); got != "END" {
		t.Errorf("item survived flush: %q", got)
	}
	send(t, w, "verbosity 1\r\n")
	if got := readLine(t, r); got != "OK" {
		t.Errorf("verbosity = %q", got)
	}
}

func TestMalformedCommandKeepsConnection(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "bogus\r\n")
	if got := readLine(t, r); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("reply = %q", got)
	}
	// Connection still works.
	send(t, w, "version\r\n")
	if got := readLine(t, r); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("post-error reply = %q", got)
	}
}

func TestQuitClosesConnection(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, conn := dial(t, addr)
	send(t, w, "quit\r\n")
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := r.ReadByte(); err != io.EOF {
		t.Errorf("expected EOF after quit, got %v", err)
	}
}

func TestMaxConnsRejectsExcess(t *testing.T) {
	srv, addr := startServer(t, Options{MaxConns: 1})
	r1, w1, _ := dial(t, addr)
	send(t, w1, "version\r\n")
	readLine(t, r1) // first connection is live

	// Second connection gets closed immediately.
	conn2, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	_ = conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn2.Read(buf); err == nil {
		t.Error("excess connection not closed")
	}
	if srv.rejectedConn.Load() == 0 {
		t.Error("rejection not counted")
	}
}

func TestServiceRateShaping(t *testing.T) {
	// ServiceRate 200/s -> mean 5ms per op; 20 ops should take >= ~50ms.
	_, addr := startServer(t, Options{ServiceRate: 200, Seed: 1})
	r, w, _ := dial(t, addr)
	start := time.Now()
	for i := 0; i < 20; i++ {
		send(t, w, "version\r\n")
		readLine(t, r)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("20 shaped ops took only %v", elapsed)
	}
}

// TestShapedServiceIsFIFO: a command that arrives while another is in
// shaped service is served next, even against a connection with more
// pipelined commands ready. Connection A pipelines five incr; B sends
// one 5 ms later, inside A's first service (seed 4 draws 36 ms for it at
// µ = 50/s), so B must be served second. Each incr reply is the
// counter after it, so the replies carry the service order; A's replies
// leave in one flush once its pipeline drains, so their arrival order
// could not tell.
func TestShapedServiceIsFIFO(t *testing.T) {
	_, addr := startServer(t, Options{ServiceRate: 50, Seed: 4})
	ra, wa, _ := dial(t, addr)
	send(t, wa, "set ctr 0 0 1\r\n0\r\n")
	if got := readLine(t, ra); got != "STORED" {
		t.Fatalf("set = %q", got)
	}
	rb, wb, _ := dial(t, addr)
	send(t, wa, strings.Repeat("incr ctr 1\r\n", 5))
	time.Sleep(5 * time.Millisecond)
	send(t, wb, "incr ctr 1\r\n")
	if got := readLine(t, rb); got != "2" {
		t.Errorf("B's incr = %s, want 2: B was not served right after A's first command", got)
	}
	var order []string
	for i := 0; i < 5; i++ {
		order = append(order, readLine(t, ra))
	}
	if got := strings.Join(order, " "); got != "1 3 4 5 6" {
		t.Errorf("A's incr replies = %s, want 1 3 4 5 6", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			w := bufio.NewWriter(conn)
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k-%d-%d", g, i)
				fmt.Fprintf(w, "set %s 0 0 1\r\nv\r\n", key)
				_ = w.Flush()
				line, err := r.ReadString('\n')
				if err != nil || !strings.HasPrefix(line, "STORED") {
					t.Errorf("set %s: %q %v", key, line, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTTLFromExptime(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	tests := []struct {
		give int64
		want time.Duration
	}{
		{0, 0},
		{-5, -time.Second},
		{60, time.Minute},
		{thirtyDays, time.Duration(thirtyDays) * time.Second},
		{now.Unix() + 3600, time.Hour},
		{now.Unix() - 100, -time.Second}, // absolute timestamp in the past
	}
	for _, tt := range tests {
		if got := ttlFromExptime(tt.give, clock); got != tt.want {
			t.Errorf("ttlFromExptime(%d) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestGatEndToEnd(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set k 5 0 3\r\nabc\r\n")
	readLine(t, r)
	send(t, w, "gat 3600 k missing\r\n")
	if got := readLine(t, r); got != "VALUE k 5 3" {
		t.Fatalf("gat header = %q", got)
	}
	if got := readLine(t, r); got != "abc" {
		t.Fatalf("gat body = %q", got)
	}
	if got := readLine(t, r); got != "END" {
		t.Fatalf("gat end = %q", got)
	}
	// gats returns a CAS token.
	send(t, w, "gats 3600 k\r\n")
	header := readLine(t, r)
	var key string
	var flags, length int
	var cas uint64
	if _, err := fmt.Sscanf(header, "VALUE %s %d %d %d", &key, &flags, &length, &cas); err != nil {
		t.Fatalf("gats header %q: %v", header, err)
	}
	if cas == 0 {
		t.Error("gats returned zero cas")
	}
	readLine(t, r)
	readLine(t, r)
}

func TestStatsSections(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set k 0 0 5\r\nhello\r\n")
	readLine(t, r)
	send(t, w, "get k\r\n")
	readLine(t, r)
	readLine(t, r)
	readLine(t, r)

	send(t, w, "stats items\r\n")
	sawChunk := false
	for {
		line := readLine(t, r)
		if line == "END" {
			break
		}
		if strings.Contains(line, "chunk_size") {
			sawChunk = true
		}
	}
	if !sawChunk {
		t.Error("stats items missing chunk_size rows")
	}

	send(t, w, "stats latency\r\n")
	sawCount := false
	for {
		line := readLine(t, r)
		if line == "END" {
			break
		}
		if strings.HasPrefix(line, "STAT latency:count") {
			sawCount = true
		}
	}
	if !sawCount {
		t.Error("stats latency missing count")
	}

	send(t, w, "stats bogus\r\n")
	if got := readLine(t, r); got != `CLIENT_ERROR unknown stats section "bogus"` {
		t.Errorf("unknown section reply = %q", got)
	}
}

func TestStatsCommandsSection(t *testing.T) {
	_, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "set k 0 0 5\r\nhello\r\n")
	readLine(t, r)
	for i := 0; i < 3; i++ {
		send(t, w, "get k\r\n")
		readLine(t, r)
		readLine(t, r)
		readLine(t, r)
	}
	send(t, w, "incr k 1\r\n") // fails on non-numeric value, still dispatched
	readLine(t, r)

	send(t, w, "stats commands\r\n")
	counts := make(map[string]string)
	for {
		line := readLine(t, r)
		if line == "END" {
			break
		}
		parts := strings.Fields(line) // STAT cmd_<op> <n>
		if len(parts) == 3 && parts[0] == "STAT" {
			counts[parts[1]] = parts[2]
		}
	}
	if counts["cmd_get"] != "3" {
		t.Errorf("cmd_get = %q, want 3 (all: %v)", counts["cmd_get"], counts)
	}
	if counts["cmd_set"] != "1" {
		t.Errorf("cmd_set = %q, want 1", counts["cmd_set"])
	}
	if counts["cmd_incr"] != "1" {
		t.Errorf("cmd_incr = %q, want 1", counts["cmd_incr"])
	}
	if counts["cmd_delete"] != "0" {
		t.Errorf("cmd_delete = %q, want 0", counts["cmd_delete"])
	}
}

func TestStatsTelemetrySection(t *testing.T) {
	// A shaped server records both the queue-wait and service stages.
	_, addr := startServer(t, Options{ServiceRate: 50000})
	r, w, _ := dial(t, addr)
	for i := 0; i < 5; i++ {
		send(t, w, "get k\r\n")
		readLine(t, r)
	}
	send(t, w, "stats telemetry\r\n")
	vals := make(map[string]string)
	for {
		line := readLine(t, r)
		if line == "END" {
			break
		}
		parts := strings.Fields(line)
		if len(parts) == 3 && parts[0] == "STAT" {
			vals[parts[1]] = parts[2]
		}
	}
	// 5 gets + the stats command itself have gone through service by
	// the time the stats reply is assembled; at minimum the 5 gets.
	for _, key := range []string{"queue_wait:count", "service:count"} {
		n, err := strconv.Atoi(vals[key])
		if err != nil || n < 5 {
			t.Errorf("%s = %q, want >= 5 (all: %v)", key, vals[key], vals)
		}
	}
	for _, key := range []string{"service:mean_us", "service:p50_us", "service:p99_us"} {
		f, err := strconv.ParseFloat(vals[key], 64)
		if err != nil || f <= 0 {
			t.Errorf("%s = %q, want > 0", key, vals[key])
		}
	}
	// The miss-penalty and fork-join stages belong to the backend and
	// the load generator; a server must report them as empty.
	if vals["miss_penalty:count"] != "0" || vals["fork_join:count"] != "0" {
		t.Errorf("server-side stages not empty: %v", vals)
	}
}

// TestRecorderTee checks an external recorder (the live plane's
// harness-wide collector) sees the same observations as the server's
// own "stats telemetry" collector.
func TestRecorderTee(t *testing.T) {
	ext := telemetry.NewCollector()
	_, addr := startServer(t, Options{ServiceRate: 50000, Recorder: ext})
	r, w, _ := dial(t, addr)
	for i := 0; i < 4; i++ {
		send(t, w, "get k\r\n")
		readLine(t, r)
	}
	b := ext.Breakdown()
	if b[telemetry.StageService].Count < 4 {
		t.Errorf("external recorder saw %d service observations, want >= 4",
			b[telemetry.StageService].Count)
	}
	if b[telemetry.StageQueueWait].Count < 4 {
		t.Errorf("external recorder saw %d queue-wait observations, want >= 4",
			b[telemetry.StageQueueWait].Count)
	}
}

// TestIdleTimeoutClosesConnection runs a goroutine-core connection
// through its whole life — accept, serve, idle close, server Close —
// and requires that it leaves no goroutine or descriptor behind.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	settled := testkit.Settles(t)
	t.Cleanup(func() { settled("server after an idle close and Close") }) // runs after startServer's Close
	_, addr := startServer(t, Options{IdleTimeout: 50 * time.Millisecond})
	r, w, conn := dial(t, addr)
	send(t, w, "version\r\n")
	readLine(t, r)
	// Go silent: the server should close the connection.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("idle connection not closed")
	}
}

// TestServeSurvivesAcceptError: a failed accept (EMFILE, as at a
// connection peak) is counted as a rejected connection and retried after
// a backoff; the server goes on serving the next connection and shuts
// down clean.
func TestServeSurvivesAcceptError(t *testing.T) {
	settled := testkit.Settles(t)
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Cache: c, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(testkit.FailFirstAccept(l)) }()
	nc, err := net.DialTimeout("tcp", l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(nc).ReadString('\n'); !strings.HasPrefix(line, "VERSION ") {
		t.Errorf("after a failed accept the server answered %q, %v; want a VERSION line", line, err)
	}
	if got := srv.Counters().RejectedConns; got != 1 {
		t.Errorf("rejected connections = %d, want the 1 failed accept", got)
	}
	_ = nc.Close()
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	settled("server after a failed accept and Close")
}

func TestTraceHeaderScopesNextCommand(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	_, addr := startServer(t, Options{Tracer: tr, ID: 3})
	r, w, _ := dial(t, addr)
	// The header elicits no reply; the following get is traced, the one
	// after it is not.
	send(t, w, "mq_trace 77 5\r\nget k\r\nget k\r\n")
	if got := readLine(t, r); got != "END" {
		t.Fatalf("traced get reply = %q", got)
	}
	if got := readLine(t, r); got != "END" {
		t.Fatalf("untraced get reply = %q", got)
	}
	spans := tr.Snapshot()
	var handle, service int
	for _, sp := range spans {
		if sp.Trace != 77 || sp.Server != 3 {
			t.Errorf("span %+v: want Trace=77 Server=3", sp)
		}
		switch {
		case sp.Comp == "server" && sp.Name == "handle":
			handle++
			if sp.Parent != 5 {
				t.Errorf("handle span parent = %d, want 5", sp.Parent)
			}
		case sp.Comp == "server" && sp.Name == "service":
			service++
		}
	}
	if handle != 1 || service != 1 {
		t.Errorf("spans = %d handle, %d service (want 1, 1); all: %+v",
			handle, service, spans)
	}
}

func TestTraceHeaderWithoutTracerIsIgnored(t *testing.T) {
	srv, addr := startServer(t, Options{})
	r, w, _ := dial(t, addr)
	send(t, w, "mq_trace 9 0\r\nversion\r\n")
	if got := readLine(t, r); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("version after untraced header = %q", got)
	}
	if n := srv.OpCount(protocol.OpTrace); n != 1 {
		t.Errorf("OpCount(OpTrace) = %d, want 1", n)
	}
}

// TestEveryCommandTimed: an unshaped, untraced server times every
// command it dispatches, so the latency sketch, the service stage and
// "stats latency" all count every command served.
func TestEveryCommandTimed(t *testing.T) {
	for _, core := range testCores(t) {
		t.Run(core, func(t *testing.T) {
			srv, addr := startServer(t, Options{ConnCore: core})
			r, w, _ := dial(t, addr)
			const n = 20
			for i := 0; i < n; i++ {
				send(t, w, "get k\r\n")
				readLine(t, r)
			}
			if got := srv.LatencyHistogram().Count(); got != n {
				t.Errorf("latency sketch recorded %d of %d commands", got, n)
			}
			if got := srv.Telemetry().Breakdown()[telemetry.StageService].Count; got != n {
				t.Errorf("service stage count = %d, want %d", got, n)
			}
			// The stats command is timed after its reply is rendered, so
			// the row counts the gets alone.
			send(t, w, "stats latency\r\n")
			want := fmt.Sprintf("STAT latency:count %d", n)
			var saw bool
			for line := readLine(t, r); line != "END"; line = readLine(t, r) {
				saw = saw || line == want
			}
			if !saw {
				t.Errorf("stats latency has no %q row", want)
			}
		})
	}
}
