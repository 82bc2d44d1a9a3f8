package server

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/fault"
	"memqlat/internal/protocol"
)

// testCores lists the connection cores runnable on this platform.
func testCores(tb testing.TB) []string {
	tb.Helper()
	if runtime.GOOS != "linux" {
		return []string{CoreGoroutines}
	}
	return []string{CoreGoroutines, CoreEventLoop}
}

// coreScript is a deterministic single-connection workload touching
// every command family: storage ops (with noreply), retrievals,
// multigets with misses, arithmetic, touch/delete, trace headers, a
// malformed command, stats and an orderly quit. Identical server state
// before the script ⇒ identical reply bytes, on any core.
var coreScript = strings.Join([]string{
	"set a 1 0 3\r\nfoo\r\n",
	"set b 2 0 3\r\nbar\r\n",
	"get a\r\n",
	"get a b missing\r\n",
	"gets a b\r\n",
	"add a 0 0 1\r\nx\r\n",
	"add c 0 0 1\r\nx\r\n",
	"replace c 0 0 2\r\nxy\r\n",
	"append c 0 0 1\r\nz\r\n",
	"prepend c 0 0 1\r\nw\r\n",
	"cas a 0 0 1 1\r\nX\r\n",
	"set nr 0 0 2 noreply\r\nok\r\n",
	"get nr\r\n",
	"incr missing 1\r\n",
	"set n 0 0 1\r\n5\r\n",
	"incr n 10\r\n",
	"decr n 3\r\n",
	"touch a 100\r\n",
	"touch missing 100\r\n",
	"delete b\r\n",
	"delete b\r\n",
	"mq_trace 1 2\r\n",
	"get a\r\n",
	"bogus nonsense\r\n",
	"version\r\n",
	"verbosity 1\r\n",
	"stats commands\r\n",
	"quit\r\n",
}, "")

// runScript plays a wire script against a fresh server on the given
// core, in chunkSize-byte writes, and returns everything the server
// replied (the connection must end with quit so reads hit EOF).
func runScript(t *testing.T, opts Options, script string, chunkSize int) (*Server, string) {
	t.Helper()
	srv, addr := startServer(t, opts)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < len(script); i += chunkSize {
		end := i + chunkSize
		if end > len(script) {
			end = len(script)
		}
		if _, err := conn.Write([]byte(script[i:end])); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read replies: %v", err)
	}
	return srv, string(reply)
}

// TestConnCoreEquivalence drives both cores through the same scripted
// workload — once in large writes, once split into 3-byte chunks so
// every frame crosses a read boundary — and requires byte-identical
// responses and identical telemetry stage sets. ServiceRate is set so
// the shaped path (queue wait + service channel) runs too.
func TestConnCoreEquivalence(t *testing.T) {
	type result struct {
		reply  string
		stages []string
	}
	for _, chunk := range []int{1 << 20, 3} {
		results := map[string]result{}
		for _, core := range testCores(t) {
			srv, reply := runScript(t, Options{
				ConnCore:    core,
				ServiceRate: 1e6, // ~1µs shaped service: exercises queue_wait without slowing the test
			}, coreScript, chunk)
			results[core] = result{reply: reply, stages: srv.Telemetry().Breakdown().StageSet()}
			if !strings.Contains(reply, "VALUE a 1 3\r\nfoo") {
				t.Fatalf("core %s: script replies look wrong:\n%q", core, reply)
			}
		}
		want, ok := results[CoreGoroutines]
		if !ok {
			t.Fatal("goroutine core missing")
		}
		for core, got := range results {
			if got.reply != want.reply {
				t.Errorf("chunk=%d: core %s replies diverge from %s:\n%q\nvs\n%q",
					chunk, core, CoreGoroutines, got.reply, want.reply)
			}
			if !reflect.DeepEqual(got.stages, want.stages) {
				t.Errorf("chunk=%d: core %s stage set %v, want %v", chunk, core, got.stages, want.stages)
			}
		}
	}
}

// TestConnCoreLineLimit pins the one command-line limit both cores
// share: a line of exactly protocol.ConnBufferBytes (newline included)
// is served, one byte more is refused with "line too long", and the
// command pipelined behind the refused line is still served — whether
// the bytes arrive in one write or in 1000-byte pieces.
func TestConnCoreLineLimit(t *testing.T) {
	line := func(total int) string { // "get a kkk…k\r\n", total bytes long
		return "get a " + strings.Repeat("k", total-len("get a \r\n")) + "\r\n"
	}
	script := "set a 0 0 2\r\nhi\r\n" +
		line(protocol.ConnBufferBytes) +
		line(protocol.ConnBufferBytes+1) +
		"get a\r\nquit\r\n"
	hit := "VALUE a 0 2\r\nhi\r\nEND\r\n"
	for _, core := range testCores(t) {
		for _, chunk := range []int{len(script), 1000} {
			_, reply := runScript(t, Options{ConnCore: core}, script, chunk)
			rest, ok := strings.CutPrefix(reply, "STORED\r\n"+hit)
			refusal, rest, _ := strings.Cut(rest, "\r\n")
			if !ok || !strings.HasPrefix(refusal, "CLIENT_ERROR ") ||
				!strings.HasSuffix(refusal, "line too long") || rest != hit {
				t.Errorf("core %s, chunk %d: replies %q", core, chunk, reply)
			}
		}
	}
}

// TestConnCoreFaultReset checks that a reset fault tears the connection
// down before any reply on both cores.
func TestConnCoreFaultReset(t *testing.T) {
	sched, err := fault.ParseSchedule("reset:srv=all")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	var clock fault.Clock
	clock.Start()
	for _, core := range testCores(t) {
		t.Run(core, func(t *testing.T) {
			_, addr := startServer(t, Options{
				ConnCore: core,
				Fault:    &fault.Point{Inj: inj, Server: 0, Now: clock.Now},
			})
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write([]byte("get a\r\n")); err != nil {
				t.Fatal(err)
			}
			reply, _ := io.ReadAll(conn)
			if len(reply) != 0 {
				t.Fatalf("reset fault still produced a reply: %q", reply)
			}
		})
	}
}

// TestConnCoreStress hammers each core with concurrent pipelined
// clients (run under -race in CI): every client owns its keys, mixes
// noreply storage with verified gets and multigets, and checks each
// reply exactly.
func TestConnCoreStress(t *testing.T) {
	const clients = 8
	ops := 200
	if testing.Short() {
		ops = 40
	}
	for _, core := range testCores(t) {
		t.Run(core, func(t *testing.T) {
			srv, addr := startServer(t, Options{ConnCore: core, MaxConns: clients + 4})
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					errs <- stressClient(addr, g, ops)
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			if got := srv.Counters().Commands; got == 0 {
				t.Error("no commands counted")
			}
		})
	}
}

func stressClient(addr string, g, ops int) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	r := strings.Builder{}
	var expect []string
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("k%d-%d", g, i%7)
		v := fmt.Sprintf("v%d-%d", g, i)
		switch i % 4 {
		case 0:
			fmt.Fprintf(&r, "set %s 0 0 %d\r\n%s\r\n", k, len(v), v)
			expect = append(expect, "STORED\r\n")
		case 1:
			fmt.Fprintf(&r, "set %s 0 0 %d noreply\r\n%s\r\n", k, len(v), v)
		case 2:
			// The previous iteration (noreply set) stored v(i-1) under
			// k(i-1): read it back and verify.
			pk := fmt.Sprintf("k%d-%d", g, (i-1)%7)
			pv := fmt.Sprintf("v%d-%d", g, i-1)
			fmt.Fprintf(&r, "get %s\r\n", pk)
			expect = append(expect, fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\nEND\r\n", pk, len(pv), pv))
		case 3:
			// Keys cycle mod 7 and ops mod 4 (coprime), so k{i%7} was
			// last written by the reply set at iteration i-7 — a miss
			// on the first lap.
			fmt.Fprintf(&r, "get %s no-such-%d\r\n", k, g)
			if i >= 7 {
				pv := fmt.Sprintf("v%d-%d", g, i-7)
				expect = append(expect, fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\nEND\r\n", k, len(pv), pv))
			} else {
				expect = append(expect, "END\r\n")
			}
		}
	}
	r.WriteString("quit\r\n")
	if _, err := conn.Write([]byte(r.String())); err != nil {
		return fmt.Errorf("client %d: write: %w", g, err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		return fmt.Errorf("client %d: read: %w", g, err)
	}
	want := strings.Join(expect, "")
	if string(got) != want {
		return fmt.Errorf("client %d: replies diverge:\ngot  %q\nwant %q", g, got, want)
	}
	return nil
}

// TestEventLoopIdleTimeout checks the loop core reaps connections that
// go quiet, while an active one survives (mirrors the goroutine-core
// idle test).
func TestEventLoopIdleTimeout(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("event loop requires linux")
	}
	_, addr := startServer(t, Options{ConnCore: CoreEventLoop, IdleTimeout: 300 * time.Millisecond})
	r, w, conn := dial(t, addr)
	send(t, w, "set k 0 0 1\r\nx\r\n")
	if got := readLine(t, r); got != "STORED" {
		t.Fatalf("set reply = %q", got)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection read = %v, want EOF", err)
	}
}

// TestEventLoopBackpressure forces the coalesced-flush slow path: the
// client pipelines far more reply bytes than the socket buffer holds
// without reading, so the loop must park the overflow and drain it via
// writability events — then everything must still arrive intact,
// including the quit-after-drain close.
func TestEventLoopBackpressure(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("event loop requires linux")
	}
	_, addr := startServer(t, Options{ConnCore: CoreEventLoop})
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))

	val := strings.Repeat("x", 256<<10)
	if _, err := conn.Write([]byte(fmt.Sprintf("set big 0 0 %d\r\n%s\r\n", len(val), val))); err != nil {
		t.Fatal(err)
	}
	const gets = 32
	req := strings.Repeat("get big\r\n", gets) + "quit\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	// Let the server hit EAGAIN with nobody reading.
	time.Sleep(200 * time.Millisecond)
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read replies: %v", err)
	}
	wantOne := fmt.Sprintf("VALUE big 0 %d\r\n%s\r\nEND\r\n", len(val), val)
	want := "STORED\r\n" + strings.Repeat(wantOne, gets)
	if string(reply) != want {
		t.Fatalf("backpressure replies corrupted: got %d bytes, want %d (first divergence at %d)",
			len(reply), len(want), firstDiff(string(reply), want))
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestConnCoreValidation covers Options.ConnCore input checking and the
// stats row naming the active core.
func TestConnCoreValidation(t *testing.T) {
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Cache: c, ConnCore: "fibers"}); err == nil {
		t.Error("unknown ConnCore accepted")
	}
	srv, addr := startServer(t, Options{})
	if stats := srv.LoopStats(); stats != nil {
		t.Errorf("goroutine core LoopStats = %v, want nil", stats)
	}
	r, w, _ := dial(t, addr)
	send(t, w, "stats\r\n")
	found := false
	for {
		line := readLine(t, r)
		if line == "END" {
			break
		}
		if line == "STAT conn_core goroutines" {
			found = true
		}
	}
	if !found {
		t.Error("stats missing conn_core row")
	}
}

// TestEventLoopLoopStats checks the loop gauges move.
func TestEventLoopLoopStats(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("event loop requires linux")
	}
	srv, addr := startServer(t, Options{ConnCore: CoreEventLoop})
	r, w, _ := dial(t, addr)
	send(t, w, "set k 0 0 1\r\nx\r\nget k\r\n")
	if got := readLine(t, r); got != "STORED" {
		t.Fatalf("set reply = %q", got)
	}
	for _, want := range []string{"VALUE k 0 1", "x", "END"} {
		if got := readLine(t, r); got != want {
			t.Fatalf("get reply = %q, want %q", got, want)
		}
	}
	stats := srv.LoopStats()
	if want := runtime.GOMAXPROCS(0); len(stats) != want {
		t.Fatalf("LoopStats len = %d, want GOMAXPROCS = %d", len(stats), want)
	}
	var conns, cmds int64
	for _, ls := range stats {
		conns += ls.Conns
		cmds += ls.Commands
	}
	if conns != 1 {
		t.Errorf("total loop conns = %d, want 1", conns)
	}
	if cmds < 2 {
		t.Errorf("total loop commands = %d, want >= 2", cmds)
	}
}
