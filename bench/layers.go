package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/loadgen"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/route"
	"memqlat/internal/sketch"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// layerKeys caps the layer passes at the first 200 k keys of the stream
// (200 k single-key requests, 6250 32-key multigets).
const layerKeys = 200_000

// A cmd is one wire command exactly as the client frames it, with the
// server that owns its keys and the length of the all-hits reply.
type cmd struct {
	srv   int
	set   bool
	keys  []uint32
	req   []byte
	reply int
}

// frame turns the first layerKeys keys of the stream into wire commands:
// cmds[i] is request i, one command per server leg.
func (e *env) frame() ([][]cmd, error) {
	sel, err := route.NewRingSelector(e.w.servers, 0) // the client's and the proxy's default
	if err != nil {
		return nil, err
	}
	n := min(layerKeys/e.w.multi, e.st.n())
	out := make([][]cmd, n)
	for i := range out {
		keys, set := e.st.op(i)
		if set {
			k := keys[0] &^ setBit
			req := fmt.Appendf(nil, "set %s 0 0 %d\r\n", e.st.keys[k], e.w.valueSize)
			req = append(append(req, e.st.value(k)...), "\r\n"...)
			out[i] = []cmd{{srv: sel.Pick(e.st.keys[k]), set: true, keys: []uint32{k}, req: req, reply: len("STORED\r\n")}}
			continue
		}
		legs := make([]cmd, 0, e.w.servers)
		for _, k := range keys {
			srv := sel.Pick(e.st.keys[k])
			j := 0
			for j < len(legs) && legs[j].srv != srv {
				j++
			}
			if j == len(legs) {
				legs = append(legs, cmd{srv: srv, req: []byte("get"), reply: len("END\r\n")})
			}
			l := &legs[j]
			l.keys = append(l.keys, k)
			l.req = append(append(l.req, ' '), e.st.keys[k]...)
			l.reply += len(fmt.Sprintf("VALUE %s 0 %d\r\n", e.st.keys[k], e.w.valueSize)) + e.w.valueSize + 2
		}
		for j := range legs {
			legs[j].req = append(legs[j].req, "\r\n"...)
		}
		out[i] = legs
	}
	return out, nil
}

// A rawConn is a bare TCP connection plus a read buffer: no client
// package between the benchmark and the wire.
type rawConn struct {
	nc net.Conn
	r  *bufio.Reader
}

func dialRaw(addr string) (*rawConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawConn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10)}, nil
}

var endLine = []byte("END\r\n")

// readReply consumes one reply to c and checks its framing. A bare END
// where values were expected is a miss, valid only where mayMiss.
func (rc *rawConn) readReply(c *cmd, mayMiss bool) bool {
	if !c.set && mayMiss {
		if b, err := rc.r.Peek(len(endLine)); err != nil {
			return false
		} else if bytes.Equal(b, endLine) {
			_, _ = rc.r.Discard(len(endLine)) // cannot fail after Peek
			return true
		}
	}
	b, err := rc.r.Peek(c.reply)
	if err != nil {
		return false
	}
	ok := bytes.HasSuffix(b, []byte("\r\n")) && (c.set && b[0] == 'S' || !c.set && b[0] == 'V' && bytes.HasSuffix(b, endLine))
	_, _ = rc.r.Discard(c.reply) // cannot fail after Peek
	return ok
}

// A rawDriver replays framed commands over bare connections: conns[w][t]
// is worker w's connection to target t. With echo set the targets are
// echoServers and each command is replaced by a same-sized message.
type rawDriver struct {
	cmds    [][]cmd
	conns   [conns][]*rawConn
	mayMiss bool
	echo    bool
	scratch [conns][]byte
}

// newRawDriver dials every target once per worker. A command goes to
// target srv mod len(targets): its owning server when the targets are
// the servers, the one proxy when a proxy fronts them.
func newRawDriver(cmds [][]cmd, targets []string, mayMiss, echo bool) (*rawDriver, error) {
	d := &rawDriver{cmds: cmds, mayMiss: mayMiss, echo: echo}
	for w := range d.conns {
		for _, t := range targets {
			rc, err := dialRaw(t)
			if err != nil {
				d.close()
				return nil, err
			}
			d.conns[w] = append(d.conns[w], rc)
		}
		d.scratch[w] = make([]byte, 64<<10)
	}
	return d, nil
}

func (d *rawDriver) close() {
	for _, cs := range d.conns {
		for _, rc := range cs {
			_ = rc.nc.Close()
		}
	}
}

func (d *rawDriver) target(w int, c *cmd) *rawConn {
	return d.conns[w][c.srv%len(d.conns[w])]
}

// do sends every leg of request i, then reads every reply: the raw
// equivalent of one client call, fork-join included.
func (d *rawDriver) do(w, i int) bool {
	legs := d.cmds[i]
	for j := range legs {
		c := &legs[j]
		req := c.req
		if d.echo {
			req = d.scratch[w][:len(c.req)]
			binary.LittleEndian.PutUint32(req[0:], uint32(len(c.req)))
			binary.LittleEndian.PutUint32(req[4:], uint32(c.reply))
		}
		if _, err := d.target(w, c).nc.Write(req); err != nil {
			return false
		}
	}
	ok := true
	for j := range legs {
		c := &legs[j]
		rc := d.target(w, c)
		if d.echo {
			if n, err := rc.r.Discard(c.reply); err != nil || n != c.reply {
				ok = false
			}
		} else if !rc.readReply(c, d.mayMiss) {
			ok = false
		}
	}
	return ok
}

// pipelined sends depth-command batches to server srv on one connection
// and reads the batch's replies: the per-command cost with the syscalls
// and wakeups amortised away. It returns ns per command.
func (d *rawDriver) pipelined(srv, depth int, dur time.Duration) (float64, int64, error) {
	var batch []*cmd
	for i := range d.cmds {
		for j := range d.cmds[i] {
			if c := &d.cmds[i][j]; c.srv == srv && len(batch) < 4096 {
				batch = append(batch, c)
			}
		}
	}
	if len(batch) < depth {
		return 0, 0, fmt.Errorf("pipelined: only %d commands for server %d", len(batch), srv)
	}
	rc := d.conns[0][srv%len(d.conns[0])]
	var buf []byte
	var n int64
	start := time.Now()
	for at := 0; time.Since(start) < dur; at += depth {
		if at+depth > len(batch) {
			at = 0
		}
		buf = buf[:0]
		for _, c := range batch[at : at+depth] {
			buf = append(buf, c.req...)
		}
		if _, err := rc.nc.Write(buf); err != nil {
			return 0, 0, err
		}
		for _, c := range batch[at : at+depth] {
			if !rc.readReply(c, d.mayMiss) {
				return 0, 0, errors.New("pipelined: bad reply")
			}
		}
		n += int64(depth)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), n, nil
}

// An echoServer answers each message with the number of bytes its
// header asks for and does nothing else: the kernel + netpoll floor
// under every tier. Message: u32 total length, u32 reply length, padding.
type echoServer struct {
	l  net.Listener
	wg sync.WaitGroup
	mu sync.Mutex
	cs []net.Conn
}

func startEcho() (*echoServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &echoServer{l: l}
	s.wg.Add(1)
	go func() { // returns when close closes l
		defer s.wg.Done()
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.cs = append(s.cs, nc)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() { // returns when the peer or close closes nc
				defer s.wg.Done()
				s.serve(nc)
			}()
		}
	}()
	return s, nil
}

func (s *echoServer) serve(nc net.Conn) {
	r := bufio.NewReaderSize(nc, 64<<10)
	out := make([]byte, 64<<10)
	for {
		h, err := r.Peek(8)
		if err != nil {
			return
		}
		total, reply := binary.LittleEndian.Uint32(h), binary.LittleEndian.Uint32(h[4:])
		if _, err := r.Discard(int(total)); err != nil || int(reply) > len(out) {
			return
		}
		if _, err := nc.Write(out[:reply]); err != nil {
			return
		}
	}
}

func (s *echoServer) close() {
	_ = s.l.Close()
	s.mu.Lock()
	for _, nc := range s.cs {
		_ = nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// sink receives the results of timed calls so that the compiler cannot
// drop them.
var sink int

// perOp times fn once over n items and returns ns per item.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// memLayers times the in-memory layers over the framed commands, each
// through the same public calls the tiers make. Per command, except
// route.pick_ns and cache.get_ns which are per key.
func (e *env) memLayers(cmds [][]cmd, rep *report) error {
	var flat []*cmd
	var reqs []byte
	nkeys := 0
	for i := range cmds {
		for j := range cmds[i] {
			c := &cmds[i][j]
			flat = append(flat, c)
			reqs = append(reqs, c.req...)
			nkeys += len(c.keys)
		}
	}
	n := len(flat)
	var fail error

	sel, err := route.NewRingSelector(e.w.servers, 0)
	if err != nil {
		return err
	}
	rep.layer("route.pick_ns", "ns", int64(nkeys), perOp(nkeys, func() {
		for _, c := range flat {
			for _, k := range c.keys {
				sink += sel.Pick(e.st.keys[k])
			}
		}
	}))

	parse := func(capture bool) func() {
		return func() {
			p := protocol.NewParser(bufio.NewReaderSize(bytes.NewReader(reqs), 16<<10))
			p.CaptureFrames(capture)
			for range flat {
				if _, err := p.Next(); err != nil {
					fail = fmt.Errorf("protocol.Parser: %w", err)
					return
				}
				if capture {
					sink += len(p.Frame())
				}
			}
		}
	}
	rep.layer("protocol.parse_ns", "ns", int64(n), perOp(n, parse(false)))
	rep.layer("protocol.frame_capture_ns", "ns", int64(n), perOp(n, parse(true)))
	rep.layer("protocol.stream_parse_ns", "ns", int64(n), perOp(n, func() {
		sp := protocol.NewStreamParser(protocol.MaxLineBytes)
		for _, c := range flat { // one readiness event per command, as a closed loop delivers them
			sp.Feed(c.req)
			if _, err := sp.Next(); err != nil {
				fail = fmt.Errorf("protocol.StreamParser: %w", err)
				return
			}
		}
	}))

	keyb := make([][]byte, len(e.st.keys))
	for i, k := range e.st.keys {
		keyb[i] = []byte(k)
	}
	writeReplies := func(dst io.Writer) func() {
		return func() {
			w := protocol.NewWriter(bufio.NewWriterSize(dst, 16<<10))
			for _, c := range flat {
				var err error
				if c.set {
					err = w.Line("STORED")
				} else {
					for _, k := range c.keys {
						if err = w.ValueBytes(keyb[k], 0, 0, e.st.value(k), false); err != nil {
							break
						}
					}
					if err == nil {
						err = w.End()
					}
				}
				if err == nil {
					err = w.Flush()
				}
				if err != nil {
					fail = fmt.Errorf("protocol.Writer: %w", err)
					return
				}
			}
		}
	}
	var replies bytes.Buffer
	writeReplies(&replies)()
	rep.layer("protocol.reply_write_ns", "ns", int64(n), perOp(n, writeReplies(io.Discard)))
	rep.layer("protocol.reply_read_ns", "ns", int64(n), perOp(n, func() {
		r := bufio.NewReaderSize(bytes.NewReader(replies.Bytes()), 16<<10)
		for _, c := range flat {
			var err error
			if c.set {
				_, err = protocol.ReadLineReply(r)
			} else {
				var items []protocol.ValueItem
				if items, err = protocol.ReadRetrieval(r); err == nil && len(items) != len(c.keys) {
					err = fmt.Errorf("%d items for %d keys", len(items), len(c.keys))
				}
			}
			if err != nil {
				fail = fmt.Errorf("protocol reply read: %w", err)
				return
			}
		}
	}))

	// The workload's own caches, as populated and churned by the run.
	caches := make([]*cache.Cache, len(e.servers))
	for i, s := range e.servers {
		caches[i] = s.Cache()
	}
	dst := make([]byte, 0, e.w.valueSize)
	gets, sets := 0, 0
	for _, c := range flat {
		if c.set {
			sets++
		} else {
			gets += len(c.keys)
		}
	}
	rep.layer("cache.get_ns", "ns", int64(gets), perOp(gets, func() {
		for _, c := range flat {
			if c.set {
				continue
			}
			for _, k := range c.keys {
				v, _, _, err := caches[c.srv].GetInto(keyb[k], dst[:0])
				if err != nil && !(e.w.mayMiss() && errors.Is(err, cache.ErrNotFound)) {
					fail = fmt.Errorf("cache.GetInto %s: %w", keyb[k], err)
					return
				}
				sink += len(v)
			}
		}
	}))
	setNs := 0.0
	if sets > 0 {
		setNs = perOp(sets, func() {
			for _, c := range flat {
				if !c.set {
					continue
				}
				if err := caches[c.srv].SetBytes(keyb[c.keys[0]], e.st.value(c.keys[0]), 0, 0); err != nil {
					fail = fmt.Errorf("cache.SetBytes: %w", err)
					return
				}
			}
		})
	}
	rep.layer("cache.set_ns", "ns", int64(sets), setNs)

	// One Record/Observe on a warmed structure, fed latencies of 5-50 us.
	const m = 1 << 20
	lat := func(i int) float64 { return float64(5000+i*7919%45000) * 1e-9 }
	timeRecord := func(name string, record func(float64)) {
		for i := 0; i < m; i++ {
			record(lat(i))
		}
		rep.layer(name, "ns", m, perOp(m, func() {
			for i := 0; i < m; i++ {
				record(lat(i))
			}
		}))
	}
	timeRecord("stats.hist_record_ns", stats.NewHistogram().Record)
	sk, err := sketch.New(sketch.Options{})
	if err != nil {
		return err
	}
	timeRecord("sketch.record_ns", sk.Record)
	col := telemetry.NewCollector()
	timeRecord("telemetry.observe_ns", func(v float64) { col.Observe(telemetry.StageService, v) })
	tr := otrace.New(otrace.Options{RingSize: traceRing})
	rep.layer("otrace.span_ns", "ns", m, perOp(m, func() {
		for i := 0; i < m; i++ {
			tr.End(tr.Begin(otrace.Ctx{}, "bench", "op", 0))
		}
	}))
	return fail
}

// netLayers runs the raw-socket passes: the same bytes with no client
// package, to the servers, through the proxy, and to an echo goroutine.
func (e *env) netLayers(cmds [][]cmd, recs []*recorder, unit time.Duration, rep *report) error {
	p50 := func(r round) float64 { return r.lat.p50 / 1e3 }
	pass := func(d *rawDriver, c int) (round, error) {
		cursor := make([]int, c)
		for i := range cursor {
			cursor[i] = i * len(cmds) / c
		}
		r := closedLoop(c, unit, recs, cursor, len(cmds), d.do)
		if r.failed > 0 {
			return r, fmt.Errorf("raw pass: %d of %d replies failed verification", r.failed, r.attempted)
		}
		return r, nil
	}
	rttAndRate := func(d *rawDriver) (r1, r2 round, err error) {
		if r1, err = pass(d, 1); err == nil {
			r2, err = pass(d, conns)
		}
		return
	}

	srv, err := newRawDriver(cmds, e.addrs, e.w.mayMiss(), false)
	if err != nil {
		return err
	}
	defer srv.close()
	s1, s2, err := rttAndRate(srv)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	rep.layer("server.raw_rtt_us", "us", s1.lat.n, p50(s1))
	rep.layer("server.raw_ops_s", "1/s", s2.lat.n, s2.rate)
	pipeNs, pipeN, err := srv.pipelined(0, 32, unit/2)
	if err != nil {
		return err
	}
	rep.layer("server.pipelined_ns_op", "ns", pipeN, pipeNs)

	echoes := make([]string, len(e.addrs))
	for i := range echoes {
		es, err := startEcho()
		if err != nil {
			return err
		}
		defer es.close()
		echoes[i] = es.l.Addr().String()
	}
	echo, err := newRawDriver(cmds, echoes, false, true)
	if err != nil {
		return err
	}
	defer echo.close()
	e1, err := pass(echo, 1)
	if err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	rep.layer("loopback.echo_rtt_us", "us", e1.lat.n, p50(e1))

	rawRTT := p50(s1) // the raw round trip on the client's own path
	var p1, p2 round
	if e.proxy != nil {
		px, err := newRawDriver(cmds, []string{e.front}, e.w.mayMiss(), false)
		if err != nil {
			return err
		}
		defer px.close()
		if p1, p2, err = rttAndRate(px); err != nil {
			return fmt.Errorf("proxy: %w", err)
		}
		rawRTT = p50(p1)
		rep.layer("proxy.raw_rtt_us", "us", p1.lat.n, p50(p1))
		rep.layer("proxy.raw_ops_s", "1/s", p2.lat.n, p2.rate)
		rep.layer("proxy.hop_us", "us", p1.lat.n, p50(p1)-p50(s1))
	} else {
		rep.layer("proxy.raw_rtt_us", "us", 0, 0)
		rep.layer("proxy.raw_ops_s", "1/s", 0, 0)
		rep.layer("proxy.hop_us", "us", 0, 0)
	}

	// The client's own share: its C = 1 round trip over the raw one.
	bufs := make([]string, e.w.multi)
	c1 := closedLoop(1, 2*unit, recs, []int{0}, len(cmds), func(_, i int) bool { return e.do(i, bufs) })
	if c1.failed > 0 {
		return fmt.Errorf("client C=1 pass: %d of %d requests failed verification", c1.failed, c1.attempted)
	}
	rep.layer("client.rtt_c1_us", "us", c1.lat.n, p50(c1))
	rep.layer("client.overhead_us", "us", c1.lat.n, p50(c1)-rawRTT)
	return nil
}

// loadgenRate runs the repo's own generator closed-loop on this
// topology; its gap to throughput_ops_s is the generator's overhead.
func (e *env) loadgenRate(seed uint64, dur time.Duration) (float64, int64, error) {
	opts := loadgen.Options{
		Client: e.cl, Keys: 10000, ValueSize: 100, ZipfS: 0.99,
		Lambda:     1e9, // think time ~ 0: the loop is paced by completions alone
		Ops:        1 << 40,
		Workers:    conns,
		ClosedLoop: true,
		Seed:       seed,
	}
	if err := loadgen.Populate(opts); err != nil {
		return 0, 0, fmt.Errorf("loadgen.Populate: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	res, err := loadgen.Run(ctx, opts)
	if err != nil {
		return 0, 0, fmt.Errorf("loadgen.Run: %w", err)
	}
	if res.Errors > 0 || res.Misses > 0 {
		return 0, 0, fmt.Errorf("loadgen.Run: %d errors, %d misses", res.Errors, res.Misses)
	}
	return float64(res.Hits) / res.Elapsed.Seconds(), res.Hits, nil
}
