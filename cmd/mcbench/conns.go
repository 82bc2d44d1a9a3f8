package main

// Connection-scaling mode (-conns / -conn-ramp): the CLI face of the
// event-loop core's C100K story. mcbench parks a fleet of mostly-idle
// connections on one server while a small hot subset issues sequential
// gets, and reports latency quantiles per connection count. With
// -conn-ramp the idle fleet grows through each tier without redialing,
// so one run produces the p99-vs-conns curve the README table shows.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memqlat/internal/protocol"
)

// raiseNoFile lifts the soft fd limit to the hard limit (best effort)
// and returns the resulting limit — high connection tiers need it.
func raiseNoFile() uint64 {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 1024
	}
	if rl.Cur < rl.Max {
		rl.Cur = rl.Max
		_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
		_ = syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
	return uint64(rl.Cur)
}

// parseConnRamp merges -conns and -conn-ramp into an ascending tier
// list of total connection counts.
func parseConnRamp(conns int, ramp string) ([]int, error) {
	var tiers []int
	if conns > 0 {
		tiers = append(tiers, conns)
	}
	if ramp != "" {
		for _, f := range strings.Split(ramp, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("-conn-ramp: bad tier %q", f)
			}
			tiers = append(tiers, n)
		}
	}
	sort.Ints(tiers)
	return tiers, nil
}

// connsBench holds the rampable state: the hot connections that issue
// traffic and the idle fleet parked on the server.
type connsBench struct {
	addr      string
	hot       []net.Conn
	idle      []net.Conn
	valueSize int
	timeout   time.Duration
	rotate    bool // loopback target: rotate source IPs for port space
}

func (cb *connsBench) close() {
	for _, c := range cb.hot {
		_ = c.Close()
	}
	for _, c := range cb.idle {
		_ = c.Close()
	}
}

// dial opens one connection, rotating loopback source addresses so the
// ephemeral port space never runs out at high tiers.
func (cb *connsBench) dial(i int) (net.Conn, error) {
	d := net.Dialer{Timeout: cb.timeout, KeepAlive: -1}
	if cb.rotate {
		d.LocalAddr = &net.TCPAddr{IP: net.IPv4(127, 0, 0, byte(2+i%200))}
	}
	return d.Dial("tcp", cb.addr)
}

// grow parks additional idle connections until the total (hot + idle)
// reaches target. Dials run on a few goroutines; failures abort.
func (cb *connsBench) grow(target int) error {
	need := target - len(cb.hot) - len(cb.idle)
	if need <= 0 {
		return nil
	}
	conns := make([]net.Conn, need)
	base := len(cb.idle)
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= need {
					return
				}
				c, err := cb.dial(base + i)
				if err != nil {
					select {
					case errc <- fmt.Errorf("dial idle conn %d/%d: %w", base+i, target, err):
					default:
					}
					return
				}
				conns[i] = c
			}
		}()
	}
	wg.Wait()
	for _, c := range conns {
		if c != nil {
			cb.idle = append(cb.idle, c)
		}
	}
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// connsKey is the fixed per-hot-connection key.
func connsKey(i int) string { return fmt.Sprintf("mcbench:conns:%d", i) }

// prime sets each hot connection's key so the measured gets are hits.
func (cb *connsBench) prime() error {
	value := bytes.Repeat([]byte("v"), cb.valueSize)
	for i, c := range cb.hot {
		key := connsKey(i)
		_ = c.SetDeadline(time.Now().Add(cb.timeout))
		if _, err := c.Write(protocol.AppendStorage(nil, protocol.OpSet, key, 0, 0, value, 0)); err != nil {
			return fmt.Errorf("prime %s: %w", key, err)
		}
		// The reader dies with this call, which is safe: STORED is the
		// only reply in flight, so it buffers nothing else.
		got, err := protocol.ReadLineReply(bufio.NewReader(c))
		if err != nil {
			return fmt.Errorf("prime %s: %w", key, err)
		}
		if got != protocol.RespStored {
			return fmt.Errorf("prime %s: unexpected reply %q", key, got)
		}
		_ = c.SetDeadline(time.Time{})
	}
	return nil
}

// readHit consumes one single-key retrieval reply, which must be one
// VALUE block of size bytes closed by END, without copying the value.
func readHit(r *bufio.Reader, size int) error {
	for values := 0; ; values++ {
		rep, err := protocol.ScanReply(r)
		switch {
		case err != nil:
			return err
		case rep.Kind == protocol.ReplyEnd && values == 1:
			return nil
		case rep.Kind != protocol.ReplyValue || rep.Bytes != size || values > 0:
			return fmt.Errorf("response desynced (line %q)", rep.Line)
		}
		if _, err := r.Discard(rep.Bytes + 2); err != nil { // data block + CRLF
			return err
		}
	}
}

// connsQuantiles summarizes per-op RTTs in seconds.
type connsQuantiles struct {
	p50, p95, p99 float64
	ops           int
	elapsed       time.Duration
}

// run issues totalOps sequential gets split across the hot connections
// and returns the RTT quantiles.
func (cb *connsBench) run(totalOps int) (connsQuantiles, error) {
	var remaining atomic.Int64
	remaining.Store(int64(totalOps))
	var wg sync.WaitGroup
	errs := make(chan error, len(cb.hot))
	samples := make([][]float64, len(cb.hot))
	start := time.Now()
	deadline := start.Add(cb.timeout)
	for i, c := range cb.hot {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			req, _ := protocol.AppendRetrieval(nil, protocol.OpGet, 0, []string{connsKey(i)})
			r := bufio.NewReader(c)
			_ = c.SetDeadline(deadline)
			for remaining.Add(-1) >= 0 {
				t0 := time.Now()
				if _, err := c.Write(req); err != nil {
					errs <- fmt.Errorf("hot conn %d: %w", i, err)
					return
				}
				if err := readHit(r, cb.valueSize); err != nil {
					errs <- fmt.Errorf("hot conn %d: %w", i, err)
					return
				}
				samples[i] = append(samples[i], time.Since(t0).Seconds())
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return connsQuantiles{}, err
	default:
	}
	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Float64s(all)
	q := func(level float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return all[int(level*float64(len(all)-1))]
	}
	return connsQuantiles{p50: q(0.50), p95: q(0.95), p99: q(0.99), ops: len(all), elapsed: elapsed}, nil
}

// runConns is the -conns/-conn-ramp entry point: ramp the idle fleet
// through each tier, measure the hot subset, print one row per tier.
func runConns(out io.Writer, addr string, tiers []int, hot, ops, valueSize int, timeout time.Duration) error {
	if hot <= 0 {
		return fmt.Errorf("-conn-hot must be positive")
	}
	if last := tiers[len(tiers)-1]; last < hot {
		return fmt.Errorf("-conns %d below the hot subset (-conn-hot %d)", last, hot)
	}
	limit := raiseNoFile()
	if need := uint64(tiers[len(tiers)-1] + 64); limit < need {
		return fmt.Errorf("RLIMIT_NOFILE=%d cannot hold %d connections (need ~%d)", limit, tiers[len(tiers)-1], need)
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-servers %q: %w", addr, err)
	}
	ip := net.ParseIP(host)
	cb := &connsBench{
		addr:      addr,
		valueSize: valueSize,
		timeout:   timeout,
		rotate:    ip != nil && ip.IsLoopback(),
	}
	defer cb.close()
	for i := 0; i < hot; i++ {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return fmt.Errorf("dial hot conn %d: %w", i, err)
		}
		cb.hot = append(cb.hot, c)
	}
	if err := cb.prime(); err != nil {
		return err
	}
	fmt.Fprintf(out, "connection scaling against %s: %d hot connections, %d ops per tier\n", addr, hot, ops)
	us := func(s float64) float64 { return s * 1e6 }
	for _, tier := range tiers {
		if err := cb.grow(tier); err != nil {
			return err
		}
		q, err := cb.run(ops)
		if err != nil {
			return err
		}
		rate := float64(q.ops) / q.elapsed.Seconds()
		fmt.Fprintf(out, "conns=%-7d p50=%8.1fµs  p95=%8.1fµs  p99=%8.1fµs  (%d ops, %.0f ops/s)\n",
			tier, us(q.p50), us(q.p95), us(q.p99), q.ops, rate)
	}
	return nil
}
