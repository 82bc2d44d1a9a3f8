package server

// Connection-count scaling benchmark: the C100K story. A mostly-idle
// fleet of N connections parks on a server of each connection core
// while a small hot subset pumps pipelined gets; ns/op and the reported
// latency quantiles measure whether fan-in itself degrades the hot
// path, and heap-B/conn and stack-B/conn what each parked connection
// costs (both ends are in this process, so the client's end is in the
// heap figure). On the goroutine core a parked connection costs a
// goroutine stack and the few bytes its parser has read; on the event
// loop an epoll entry and a small struct.
//
// Scales that would overrun RLIMIT_NOFILE (each in-process connection
// burns two fds, client and server end) are skipped: the common 20k fd
// limit runs the 1k and 5k tiers. Client source addresses rotate
// through 127.0.0.0/8 so ephemeral ports never run out. The numbers are
// printed, not gated; the gates are TestConnScalingP99 (a same-run
// ratio), TestParkedConnFootprint (heap per connection) and
// TestHotPathAllocs' parked cases.

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memqlat/internal/testkit"
)

const scalingHotConns = 16

// dialFleet opens n connections to addr and leaves them idle. Source
// IPs rotate across 127.0.0.2..127.0.0.201 so each source gets its own
// ephemeral port range. Dials run on a few goroutines; failures abort.
func dialFleet(tb testing.TB, addr string, n int) []net.Conn {
	tb.Helper()
	conns := make([]net.Conn, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				d := net.Dialer{
					Timeout:   10 * time.Second,
					KeepAlive: -1,
					LocalAddr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, byte(2+i%200))},
				}
				c, err := d.Dial("tcp", addr)
				if err != nil {
					select {
					case errc <- fmt.Errorf("dial %d/%d: %w", i, n, err):
					default:
					}
					return
				}
				conns[i] = c
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
		tb.Fatal(err)
	default:
	}
	tb.Cleanup(func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
	})
	return conns
}

// startScalingServer builds a server on core sized for n connections
// with the hot keyset loaded.
func startScalingServer(tb testing.TB, core string, n int) (*Server, string) {
	tb.Helper()
	return startHotServer(tb, core, n+scalingHotConns+16)
}

// parkFleet opens n idle connections to srv (at addr) and returns once
// the server holds every one parked: registered with a loop on the event
// loop, a handler goroutine blocked in its read on the goroutine core.
func parkFleet(tb testing.TB, srv *Server, addr string, n int) []net.Conn {
	tb.Helper()
	ioBase := testkit.IOWaiting()
	conns := dialFleet(tb, addr, n)
	waitParked(tb, srv, ioBase, n)
	return conns
}

// waitParked waits until srv holds n connections parked beyond the
// ioBase goroutines that were blocked on network I/O before they came.
func waitParked(tb testing.TB, srv *Server, ioBase, n int) {
	tb.Helper()
	testkit.WaitReady(tb, fmt.Sprintf("%d parked connections", n), func() error {
		got := testkit.IOWaiting() - ioBase
		if srv.opts.ConnCore == CoreEventLoop {
			got = 0
			for _, l := range srv.LoopStats() {
				got += int(l.Conns)
			}
		}
		if got < n {
			return fmt.Errorf("%d parked", got)
		}
		return nil
	})
}

// scalingQuantiles are batch-latency quantiles in seconds.
type scalingQuantiles struct{ p50, p95, p99 float64 }

// runScalingLoad pumps totalOps pipelined gets through the hot subset
// against a server holding idleConns parked connections, returning
// per-op latency quantiles (batch RTT divided by batch size).
func runScalingLoad(tb testing.TB, addr string, totalOps int64) scalingQuantiles {
	tb.Helper()
	type worker struct {
		*hotConn
		samples []float64
	}
	workers := make([]*worker, scalingHotConns)
	for i := range workers {
		workers[i] = &worker{hotConn: dialHot(tb, addr, "get", i*16)}
	}
	var remaining atomic.Int64
	remaining.Store(totalOps)
	var wg sync.WaitGroup
	errs := make(chan error, len(workers))
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for remaining.Add(-w.ops) > -w.ops {
				start := time.Now()
				if err := w.roundTrip(); err != nil {
					errs <- err
					return
				}
				w.samples = append(w.samples, time.Since(start).Seconds()/float64(w.ops))
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		tb.Fatal(err)
	default:
	}
	var all []float64
	for _, w := range workers {
		all = append(all, w.samples...)
	}
	sort.Float64s(all)
	q := func(level float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(level * float64(len(all)-1))
		return all[i]
	}
	return scalingQuantiles{p50: q(0.50), p95: q(0.95), p99: q(0.99)}
}

// scalingScales is the 1k → 100k connection ladder.
var scalingScales = []int{1000, 5000, 10000, 50000, 100000}

// fdsFor estimates the fds one in-process scale needs: two per parked
// connection plus hot subset, listener, epoll/pipe fds and slack.
func fdsFor(conns int) uint64 { return uint64(2*(conns+scalingHotConns) + 256) }

// BenchmarkConnScaling reports, per connection core and connection
// count, the heap and stack bytes each parked connection costs and the
// hot path's per-op cost and latency quantiles. Run with a fixed
// -benchtime Nx (see make microbench) so the expensive fleet setup
// happens once per scale instead of once per b.N probe.
func BenchmarkConnScaling(b *testing.B) {
	limit := testkit.RaiseNoFile()
	for _, core := range testCores(b) {
		for _, conns := range scalingScales {
			b.Run(fmt.Sprintf("core=%s/conns=%d", core, conns), func(b *testing.B) {
				if need := fdsFor(conns); limit < need {
					b.Skipf("RLIMIT_NOFILE=%d < %d needed for %d in-process connections", limit, need, conns)
				}
				srv, addr := startScalingServer(b, core, conns)
				base := testkit.ReadFootprint()
				parkFleet(b, srv, addr, conns-scalingHotConns)
				heap, stack := testkit.ReadFootprint().PerConn(base, conns-scalingHotConns)
				b.ReportAllocs()
				b.ResetTimer()
				q := runScalingLoad(b, addr, int64(b.N))
				b.StopTimer()
				b.ReportMetric(heap, "heap-B/conn")
				b.ReportMetric(stack, "stack-B/conn")
				b.ReportMetric(q.p50*1e9, "p50-ns/op")
				b.ReportMetric(q.p95*1e9, "p95-ns/op")
				b.ReportMetric(q.p99*1e9, "p99-ns/op")
			})
		}
	}
}

// TestParkedConnFootprint gates what a parked goroutine-core connection
// costs: 500 connections add at most 4 KiB of live heap apiece (both
// ends, after a forced GC), idle and again after one get each. A
// connection holds only the bytes it has read or owes, not a pair of
// ConnBufferBytes buffers from accept on.
func TestParkedConnFootprint(t *testing.T) {
	const parked, budget = 500, 4 << 10
	if limit, need := testkit.RaiseNoFile(), fdsFor(parked); limit < need {
		t.Skipf("RLIMIT_NOFILE=%d < %d needed for %d in-process connections", limit, need, parked)
	}
	srv, addr := startHotServer(t, CoreGoroutines, 0)
	base := testkit.ReadFootprint()
	ioBase := testkit.IOWaiting()
	conns := dialFleet(t, addr, parked)
	check := func(state string) {
		t.Helper()
		waitParked(t, srv, ioBase, parked)
		heap, stack := testkit.ReadFootprint().PerConn(base, parked)
		t.Logf("%s: %.0f B heap, %.0f B stack per connection", state, heap, stack)
		if heap > budget {
			t.Errorf("%s: %.0f B of heap per parked connection, want <= %d", state, heap, budget)
		}
	}
	check("idle")
	reply := make([]byte, len("VALUE k0000 0 100\r\n")+hotValueLen+len("\r\nEND\r\n"))
	for _, c := range conns {
		if _, err := c.Write([]byte("get k0000\r\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, reply); err != nil {
			t.Fatal(err)
		}
	}
	check("after one get")
}

// TestConnScalingP99 is the acceptance gate behind the benchmark: with
// ≥50k connections parked on the event loop, hot-path p99 must stay
// within 2x of the 1k-connection p99 (with a 1ms floor so sub-ms jitter
// on loaded CI machines cannot flake the ratio). Skipped where the fd
// limit cannot hold 50k in-process connections; the CI verify job
// raises the limit first and runs it there.
func TestConnScalingP99(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.GOOS != "linux" {
		t.Skip("event loop requires linux")
	}
	limit := testkit.RaiseNoFile()
	const bigScale = 50000
	if need := fdsFor(bigScale); limit < need {
		t.Skipf("RLIMIT_NOFILE=%d < %d needed for %d in-process connections", limit, need, bigScale)
	}
	const ops = 200000
	measure := func(conns int) scalingQuantiles {
		srv, addr := startScalingServer(t, CoreEventLoop, conns)
		parkFleet(t, srv, addr, conns-scalingHotConns)
		return runScalingLoad(t, addr, ops)
	}
	base := measure(1000)
	big := measure(bigScale)
	t.Logf("p99: 1k=%.1fµs %dk=%.1fµs", base.p99*1e6, bigScale/1000, big.p99*1e6)
	bound := 2 * base.p99
	if floor := 1e-3; bound < floor {
		bound = floor
	}
	if big.p99 > bound {
		t.Errorf("p99 at %d conns = %.1fµs, exceeds 2x the 1k-connection p99 (%.1fµs)",
			bigScale, big.p99*1e6, base.p99*1e6)
	}
}
