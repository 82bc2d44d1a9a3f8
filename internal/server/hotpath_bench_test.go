package server

// Hot-path driver for the live server: pipelined get/set/multiget over
// real TCP connections. The client side is deliberately allocation-free
// (prebuilt request batches, fixed-size expected responses read with
// io.ReadFull), so every allocation counted while it runs is the
// server-side cost of parsing, cache access and response formatting.
// Two consumers: TestHotPathAllocs gates that count in tier 1 (it is the
// same on every machine), BenchmarkServerHotPath prints ns/op and gates
// nothing (speed is gated by bench/, on paired same-machine runs).

import (
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"memqlat/internal/cache"
	"memqlat/internal/testkit"
)

const (
	hotKeys     = 256 // distinct keys, fixed-width names → fixed-size replies
	hotValueLen = 100
)

func hotKey(i int) string { return fmt.Sprintf("k%04d", i%hotKeys) }

// startHotServer brings up an unshaped server on a loopback listener
// with hotKeys pre-populated fixed-size values and returns it and its
// address. maxConns 0 keeps the server's default cap.
func startHotServer(tb testing.TB, core string, maxConns int) (*Server, string) {
	tb.Helper()
	c, err := cache.New(cache.Options{MaxBytes: 256 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	value := []byte(strings.Repeat("v", hotValueLen))
	for i := 0; i < hotKeys; i++ {
		if err := c.SetBytes([]byte(hotKey(i)), value, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	srv, err := New(Options{Cache: c, ConnCore: core, MaxConns: maxConns, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		tb.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	tb.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

// hotBatch builds one pipelined request batch plus the exact byte count
// of the server's reply, so workers can io.ReadFull without parsing.
//
//	get:      pipeline of single-key gets (op = one get)
//	gat:      pipeline of single-key gats (op = one gat)
//	set:      pipeline of sets             (op = one set)
//	multiget: pipeline of 8-key gets       (op = one 8-key command)
func hotBatch(op string, offset int) (batch []byte, ops int, respLen int) {
	var sb strings.Builder
	value := strings.Repeat("v", hotValueLen)
	// One VALUE block: "VALUE k0000 0 100\r\n" + value + "\r\n"
	valueBlock := len("VALUE k0000 0 100\r\n") + hotValueLen + 2
	switch op {
	case "get":
		ops = 64
		for i := 0; i < ops; i++ {
			fmt.Fprintf(&sb, "get %s\r\n", hotKey(offset+i))
		}
		respLen = ops * (valueBlock + len("END\r\n"))
	case "gat":
		ops = 64
		for i := 0; i < ops; i++ {
			fmt.Fprintf(&sb, "gat 0 %s\r\n", hotKey(offset+i))
		}
		respLen = ops * (valueBlock + len("END\r\n"))
	case "set":
		ops = 64
		for i := 0; i < ops; i++ {
			fmt.Fprintf(&sb, "set %s 0 0 %d\r\n%s\r\n", hotKey(offset+i), hotValueLen, value)
		}
		respLen = ops * len("STORED\r\n")
	case "multiget":
		ops = 16
		for i := 0; i < ops; i++ {
			sb.WriteString("get")
			for j := 0; j < 8; j++ {
				fmt.Fprintf(&sb, " %s", hotKey(offset+i*8+j))
			}
			sb.WriteString("\r\n")
		}
		respLen = ops * (8*valueBlock + len("END\r\n"))
	default:
		panic("unknown op " + op)
	}
	return []byte(sb.String()), ops, respLen
}

// hotConn is one pipelined client: a connection, its prebuilt batch and
// a reply buffer of exactly the reply's size.
type hotConn struct {
	nc    net.Conn
	batch []byte
	resp  []byte
	ops   int64
}

// dialHot connects to addr and pumps the batch a few times to warm the
// connection's parser and write buffers, so what follows is steady state.
func dialHot(tb testing.TB, addr, op string, offset int) *hotConn {
	tb.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = nc.Close() })
	batch, ops, respLen := hotBatch(op, offset)
	c := &hotConn{nc: nc, batch: batch, resp: make([]byte, respLen), ops: int64(ops)}
	for i := 0; i < 4; i++ {
		if err := c.roundTrip(); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// roundTrip writes the batch and reads the whole reply.
func (c *hotConn) roundTrip() error {
	if _, err := c.nc.Write(c.batch); err != nil {
		return err
	}
	_, err := io.ReadFull(c.nc, c.resp)
	return err
}

// TestHotPathAllocs is the allocation gate of the server hot path, on
// both connection cores: a pipelined batch of gets, gats or multigets
// costs the whole process zero heap allocations, a set at most one (the
// stored value: the batch overwrites keys the warm-up stored, so their
// slots and key strings are kept). AllocsPerRun counts every goroutine's mallocs, so the
// server side is what it sees. The parked cases repeat the get with 1000
// connections parked on the same core: fan-in must not add a malloc.
func TestHotPathAllocs(t *testing.T) {
	for _, core := range testCores(t) {
		for _, op := range []string{"get", "gat", "set", "multiget"} {
			t.Run(core+"/"+op, func(t *testing.T) {
				_, addr := startHotServer(t, core, 0)
				checkHotAllocs(t, addr, op)
			})
		}
	}
	for _, core := range testCores(t) {
		t.Run(core+"/get/parked=1000", func(t *testing.T) {
			const parked = 1000
			if limit, need := testkit.RaiseNoFile(), fdsFor(parked); limit < need {
				t.Skipf("RLIMIT_NOFILE=%d < %d needed for %d in-process connections", limit, need, parked)
			}
			srv, addr := startScalingServer(t, core, parked)
			parkFleet(t, srv, addr, parked)
			checkHotAllocs(t, addr, "get")
		})
	}
}

// checkHotAllocs fails unless a steady-state batch of op against addr
// allocates nothing (get, gat, multiget) or at most 1 per command (set).
func checkHotAllocs(t *testing.T, addr, op string) {
	t.Helper()
	c := dialHot(t, addr, op, 0)
	var err error
	allocs := testing.AllocsPerRun(500, func() {
		if e := c.roundTrip(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var limit int64
	if op == "set" {
		limit = c.ops
	}
	if allocs > float64(limit) {
		t.Errorf("%s batch of %d: %.0f allocs, want <= %d", op, c.ops, allocs, limit)
	}
}

// BenchmarkServerHotPath drives the server end to end: conns workers
// each own one TCP connection and pump pipelined batches until b.N ops
// are done. ns/op is per command, printed for the reader (make
// microbench); nothing compares it against a recorded number.
func BenchmarkServerHotPath(b *testing.B) {
	for _, core := range testCores(b) {
		prefix := ""
		if core != CoreGoroutines {
			prefix = "core=" + core + "/"
		}
		for _, op := range []string{"get", "set", "multiget"} {
			for _, conns := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s%s/conns=%d", prefix, op, conns), func(b *testing.B) {
					benchHotPath(b, core, op, conns)
				})
			}
		}
	}
}

func benchHotPath(b *testing.B, core, op string, conns int) {
	_, addr := startHotServer(b, core, 0)
	workers := make([]*hotConn, conns)
	for i := range workers {
		workers[i] = dialHot(b, addr, op, i*16)
	}
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	b.ReportAllocs()
	b.ResetTimer()
	for _, w := range workers {
		wg.Add(1)
		go func(w *hotConn) {
			defer wg.Done()
			for remaining.Add(-w.ops) > -w.ops {
				if err := w.roundTrip(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
}
