package proxy

import (
	"bufio"
	"errors"
	"net"
	"strconv"
	"sync"
	"time"

	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/route"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// replyKind is the wire framing of one upstream reply.
type replyKind uint8

const (
	// kindLine is a single terminal line (STORED, DELETED, a number, …).
	kindLine replyKind = iota
	// kindRetrieval is zero or more VALUE blocks closed by END (or an
	// error line).
	kindRetrieval
)

// role distinguishes how a pending participates in reply assembly.
type role uint8

const (
	// roleDirect is both the upstream leg and the downstream reply slot:
	// the unsplit passthrough hot path.
	roleDirect role = iota
	// roleSlot is a downstream reply slot fed by separate legs (split
	// multi-get join, replicated-read race, or a local reply).
	roleSlot
	// rolePart is one upstream leg of a split multi-get; its VALUE
	// blocks append to the slot, its END is swallowed.
	rolePart
	// roleRaceLeg is one upstream leg of a replicated read; the first
	// to produce bytes claims the slot, the rest drain.
	roleRaceLeg
	// roleJoinLine is one upstream leg of a line-reply broadcast
	// (replicated write, flush_all); lines fold into the slot with
	// error lines preferred.
	roleJoinLine
)

// pending is one entry of the in-order reply machinery: downstream
// slots queue in command order, upstream legs feed them. Instances are
// freelist-recycled per downstream, so the steady-state data plane
// allocates nothing.
type pending struct {
	d    *downstream
	slot *pending // legs: the slot they feed
	next *pending
	kind replyKind
	role role
	srv  int // origin upstream (breaker bookkeeping)

	done      bool   // slot: reply bytes complete
	popped    bool   // slot: left the queue (awaiting straggler legs)
	claimed   bool   // race slot: a winner is delivering
	remaining int    // slot: outstanding legs
	frames    int    // part leg: request lines sent, one reply owed for each
	buf       []byte // buffered reply bytes (reused)
}

// downstream is one client connection's state: the parser side runs in
// the handler goroutine; the reply queue is shared with the upstream
// readers under mu.
type downstream struct {
	p   *Proxy
	nc  net.Conn
	w   *bufio.Writer
	rec telemetry.Recorder

	mu     sync.Mutex
	cond   *sync.Cond
	head   *pending
	tail   *pending
	free   *pending
	err    error // poisoned output stream
	groups []splitGroup

	// trace is the pending mq_trace header from the client: it scopes
	// the next command. hdr is the regenerated upstream header for the
	// in-flight dispatch (reused buffer; empty when untraced).
	trace otrace.Ctx
	hdr   []byte
}

// splitGroup accumulates one (server, connection) share of a split
// multi-get; the slices are reused across commands.
type splitGroup struct {
	srv, conn int
	keys      [][]byte // alias the downstream command: valid during dispatch
	frame     []byte
}

func (p *Proxy) handleConn(nc net.Conn, hint uint64) {
	defer func() { _ = nc.Close() }()
	d := &downstream{
		p:   p,
		nc:  nc,
		w:   bufio.NewWriterSize(nc, protocol.ConnBufferBytes),
		rec: telemetry.Shard(p.rec, hint),
	}
	d.cond = sync.NewCond(&d.mu)
	parser := protocol.NewParser(bufio.NewReaderSize(nc, protocol.ConnBufferBytes))
	parser.CaptureFrames(true)
	for {
		cmd, err := parser.Next()
		if err != nil {
			var ce *protocol.ClientError
			if errors.As(err, &ce) {
				d.localLine("CLIENT_ERROR " + ce.Msg + crlf)
				continue
			}
			// quit, EOF or a broken connection: deliver what is owed,
			// then hang up.
			d.drain()
			return
		}
		if cmd.Op == protocol.OpTrace {
			// Trace header: scope the next command. No reply, no
			// forwarding — the proxy re-propagates it per upstream leg.
			d.trace = otrace.Ctx{Trace: cmd.CAS, Span: cmd.Delta}
			continue
		}
		start := time.Now()
		tn := p.dispatch(d, cmd, parser.Frame(), parser.Buffered() == 0)
		hop := time.Since(start).Seconds()
		d.rec.Observe(telemetry.StageProxyHop, hop)
		if tn != nil {
			tn.Observe(hop)
		}
		if d.poisoned() {
			return
		}
	}
}

// dispatch routes one parsed command. frame is the exact wire bytes
// (Parser.Frame), valid only for the duration of the call — sends copy
// it into upstream write buffers synchronously. It returns the tenant
// the command was admitted for (nil when QoS is off, the command is
// control-plane, or it was shed) so the caller can charge the hop
// latency to the right tenant.
func (p *Proxy) dispatch(d *downstream, cmd *protocol.Command, frame []byte, flush bool) *tenant.Tenant {
	p.cmds.Add(1)
	var tn *tenant.Tenant
	if p.tenants != nil {
		var admitted bool
		tn, admitted = p.admit(cmd)
		if !admitted {
			p.tenantSheds.Add(1)
			d.rec.Observe(telemetry.StageTenantShed, 0)
			d.trace = otrace.Ctx{} // a shed command consumes its trace scope
			if !cmd.Noreply {
				d.localLine(tenantShedLine)
			}
			return nil
		}
	}
	// A traced command gets a hop span covering the forward path (the
	// same window StageProxyHop measures) and a regenerated header that
	// parents every upstream leg under the hop.
	var hop otrace.Span
	d.hdr = d.hdr[:0]
	if tc := d.trace; tc.Valid() {
		d.trace = otrace.Ctx{}
		if tr := p.tracer; tr.Enabled() {
			hop = tr.Begin(tc, "proxy", "hop", -1)
			d.hdr = protocol.AppendTrace(d.hdr, hop.Trace, hop.ID)
		}
	}
	defer p.tracer.End(hop)
	switch cmd.Op {
	case protocol.OpGet, protocol.OpGets, protocol.OpGat, protocol.OpGats:
		p.dispatchRead(d, cmd, frame, flush)
	case protocol.OpStats:
		d.localStats()
	case protocol.OpVersion:
		d.localLine(versionLine)
	case protocol.OpVerbosity:
		// Accepted and ignored, like memcached.
		if !cmd.Noreply {
			d.localLine(okLine)
		}
	case protocol.OpFlushAll:
		p.broadcast(d, frame, cmd.Noreply, flush, -1, 0)
	default:
		// Keyed single-reply ops: storage, delete, incr/decr, touch.
		if p.opts.Policy == PolicyReplicate {
			h := route.Hash64B(cmd.KeyB)
			p.broadcast(d, frame, cmd.Noreply, flush, p.sel.PickB(cmd.KeyB), h)
		} else {
			h := route.Hash64B(cmd.KeyB)
			p.forward(d, frame, kindLine, p.routeKey(cmd.KeyB), p.connFor(h), flush, cmd.Noreply)
		}
	}
	return tn
}

// admit runs the tenant QoS check for one command: keyed commands are
// charged to the tenant their (first) key's prefix names — one op
// token per key, plus stored bytes for the storage family — and
// control-plane commands (stats, version, verbosity, flush_all) pass
// free. Zero-alloc: prefix lookup and bucket math only.
func (p *Proxy) admit(cmd *protocol.Command) (*tenant.Tenant, bool) {
	var key []byte
	ops, nbytes := 1, 0
	switch cmd.Op {
	case protocol.OpGet, protocol.OpGets, protocol.OpGat, protocol.OpGats:
		if len(cmd.KeyList) == 0 {
			return nil, true
		}
		key, ops = cmd.KeyList[0], len(cmd.KeyList)
	case protocol.OpStats, protocol.OpVersion, protocol.OpVerbosity, protocol.OpFlushAll:
		return nil, true
	default:
		key, nbytes = cmd.KeyB, len(cmd.Value)
	}
	tn := p.tenants.FromKey(key)
	if !tn.Admit(p.tenantNow(), ops, nbytes) {
		return tn, false
	}
	return tn, true
}

// dispatchRead handles the retrieval family: direct passthrough when
// every key lands on one upstream connection, fork-join split
// otherwise, first-reply-wins racing for single-key reads under
// PolicyReplicate.
func (p *Proxy) dispatchRead(d *downstream, cmd *protocol.Command, frame []byte, flush bool) {
	keys := cmd.KeyList
	if p.opts.Policy == PolicyReplicate && len(keys) == 1 {
		p.raceRead(d, keys[0], frame, flush)
		return
	}
	srv0, conn0, single := 0, 0, true
	for i, k := range keys {
		h := route.Hash64B(k)
		srv, conn := p.routeKey(k), p.connFor(h)
		if i == 0 {
			srv0, conn0 = srv, conn
		} else if srv != srv0 || conn != conn0 {
			single = false
			break
		}
	}
	if single {
		p.forward(d, frame, kindRetrieval, srv0, conn0, flush, false)
		return
	}
	p.splitRead(d, cmd, flush)
}

// forward sends frame to one upstream as a direct passthrough: the
// pending is both leg and slot, replies relay in command order.
func (p *Proxy) forward(d *downstream, frame []byte, kind replyKind, srv, conn int, flush, noreply bool) {
	u := p.ups[srv][conn]
	if noreply {
		if err := u.send(d.hdr, frame, nil, flush); err != nil {
			p.recordOutcome(srv, true)
			return
		}
		p.forwarded.Add(1)
		return
	}
	d.mu.Lock()
	pd := d.allocLocked()
	pd.role, pd.kind, pd.srv = roleDirect, kind, srv
	d.pushLocked(pd)
	d.mu.Unlock()
	if err := u.send(d.hdr, frame, pd, flush); err != nil {
		p.recordOutcome(srv, true)
		d.failSlot(pd)
		return
	}
	p.forwarded.Add(1)
}

// splitRead forks a multi-key retrieval across its owning upstream
// connections and rejoins the parts in a single slot. A failed part
// degrades its keys to misses (absent from the reply), matching
// memcached's partial-result semantics.
func (p *Proxy) splitRead(d *downstream, cmd *protocol.Command, flush bool) {
	active := 0
	for _, k := range cmd.KeyList {
		h := route.Hash64B(k)
		srv, conn := p.routeKey(k), p.connFor(h)
		var g *splitGroup
		for i := 0; i < active; i++ {
			if d.groups[i].srv == srv && d.groups[i].conn == conn {
				g = &d.groups[i]
				break
			}
		}
		if g == nil {
			if active == len(d.groups) {
				d.groups = append(d.groups, splitGroup{})
			}
			g = &d.groups[active]
			active++
			g.srv, g.conn, g.keys = srv, conn, g.keys[:0]
		}
		g.keys = append(g.keys, k)
	}
	d.mu.Lock()
	slot := d.allocLocked()
	slot.role, slot.kind = roleSlot, kindRetrieval
	slot.remaining = active
	d.pushLocked(slot)
	d.mu.Unlock()
	for i := 0; i < active; i++ {
		g := &d.groups[i]
		d.mu.Lock()
		leg := d.allocLocked()
		leg.role, leg.slot, leg.srv = rolePart, slot, g.srv
		d.mu.Unlock()
		// A share too long for one line goes out as pipelined lines on the
		// same connection; the leg then reads one reply per line.
		g.frame = g.frame[:0]
		for keys := g.keys; len(keys) > 0; leg.frames++ {
			var n int
			g.frame, n = protocol.AppendRetrieval(g.frame, cmd.Op, cmd.Exptime, keys)
			keys = keys[n:]
		}
		if err := p.ups[g.srv][g.conn].send(d.hdr, g.frame, leg, flush); err != nil {
			p.recordOutcome(g.srv, true)
			d.legDone(leg, true)
			continue
		}
		p.forwarded.Add(1)
	}
}

// raceRead fans a single-key read out to the replica set; the first
// upstream to produce reply bytes claims the slot.
func (p *Proxy) raceRead(d *downstream, key []byte, frame []byte, flush bool) {
	h := route.Hash64B(key)
	owner := p.sel.PickB(key)
	n := p.sel.N()
	r := p.opts.Replicas
	d.mu.Lock()
	slot := d.allocLocked()
	slot.role, slot.kind = roleSlot, kindRetrieval
	slot.remaining = r
	d.pushLocked(slot)
	d.mu.Unlock()
	conn := p.connFor(h)
	for i := 0; i < r; i++ {
		srv := owner + i
		if srv >= n {
			srv -= n
		}
		d.mu.Lock()
		leg := d.allocLocked()
		leg.role, leg.slot, leg.srv = roleRaceLeg, slot, srv
		d.mu.Unlock()
		if err := p.ups[srv][conn].send(d.hdr, frame, leg, flush); err != nil {
			p.recordOutcome(srv, true)
			d.legDone(leg, true)
			continue
		}
		p.forwarded.Add(1)
	}
}

// broadcast sends frame to a set of upstreams and folds the line
// replies into one: every server for flush_all (owner < 0), the
// replica set of owner otherwise. Error lines win the fold, so the
// client sees the worst outcome of the set.
func (p *Proxy) broadcast(d *downstream, frame []byte, noreply, flush bool, owner int, h uint64) {
	n := p.sel.N()
	count, conn := n, 0
	if owner >= 0 {
		count, conn = p.opts.Replicas, p.connFor(h)
	}
	var slot *pending
	if !noreply {
		d.mu.Lock()
		slot = d.allocLocked()
		slot.role, slot.kind = roleSlot, kindLine
		slot.remaining = count
		d.pushLocked(slot)
		d.mu.Unlock()
	}
	for i := 0; i < count; i++ {
		srv := i
		if owner >= 0 {
			srv = owner + i
			if srv >= n {
				srv -= n
			}
		}
		var leg *pending
		if slot != nil {
			d.mu.Lock()
			leg = d.allocLocked()
			leg.role, leg.slot, leg.srv = roleJoinLine, slot, srv
			d.mu.Unlock()
		}
		if err := p.ups[srv][conn].send(d.hdr, frame, leg, flush); err != nil {
			p.recordOutcome(srv, true)
			if leg != nil {
				d.legFold(leg, serverErrorBytes, true)
			}
			continue
		}
		p.forwarded.Add(1)
	}
}

// Local reply lines: the only wire text the proxy writes itself;
// everything else it relays or has internal/protocol encode.
const (
	crlf            = "\r\n"
	endLine         = protocol.RespEnd + crlf
	okLine          = protocol.RespOK + crlf
	versionLine     = "VERSION memqlat-proxy" + crlf
	serverErrorLine = "SERVER_ERROR proxy: upstream unavailable" + crlf
	// tenantShedLine is the reply of a QoS-shed command; tenant.ShedMsg so
	// clients and loadgen classify sheds without importing the proxy.
	tenantShedLine = tenant.ShedMsg + crlf
)

var serverErrorBytes = []byte(serverErrorLine)

// --- queue machinery -------------------------------------------------

// allocLocked pops a recycled pending (caller holds mu).
func (d *downstream) allocLocked() *pending {
	pd := d.free
	if pd == nil {
		pd = &pending{d: d}
	} else {
		d.free = pd.next
		buf := pd.buf[:0]
		*pd = pending{d: d, buf: buf}
	}
	return pd
}

// pushLocked appends a slot to the reply queue (caller holds mu).
func (d *downstream) pushLocked(pd *pending) {
	pd.next = nil
	if d.tail == nil {
		d.head, d.tail = pd, pd
	} else {
		d.tail.next = pd
		d.tail = pd
	}
}

// recycleLocked returns a pending to the freelist (caller holds mu).
func (d *downstream) recycleLocked(pd *pending) {
	buf := pd.buf[:0]
	*pd = pending{buf: buf}
	pd.next = d.free
	d.free = pd
}

// advanceLocked relays every finished reply at the head of the queue,
// streams the finished prefix of a blocked multi-get join, and flushes
// (caller holds mu).
func (d *downstream) advanceLocked() {
	wrote := false
	for d.head != nil && d.head.done {
		pd := d.head
		if d.err == nil && len(pd.buf) > 0 {
			if _, err := d.w.Write(pd.buf); err != nil {
				d.poisonLocked(err)
			}
		}
		wrote = true
		d.head = pd.next
		if d.head == nil {
			d.tail = nil
		}
		pd.popped = true
		if pd.remaining == 0 {
			d.recycleLocked(pd)
		}
	}
	if h := d.head; h != nil && !h.done && h.role == roleSlot &&
		h.kind == kindRetrieval && len(h.buf) > 0 && d.err == nil {
		// A multi-get join blocked on slower parts: its completed VALUE
		// blocks are whole, stream them now.
		if _, err := d.w.Write(h.buf); err != nil {
			d.poisonLocked(err)
		}
		h.buf = h.buf[:0]
		wrote = true
	}
	if wrote && d.err == nil {
		if err := d.w.Flush(); err != nil {
			d.poisonLocked(err)
		}
	}
	if d.head == nil {
		d.cond.Broadcast()
	}
}

// poisonLocked marks the downstream's output stream broken; the handler
// exits on its next loop and pending writes are discarded (caller
// holds mu).
func (d *downstream) poisonLocked(err error) {
	if d.err == nil {
		d.err = err
		_ = d.nc.Close()
	}
	d.cond.Broadcast()
}

func (d *downstream) poisoned() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err != nil
}

// drain blocks until every queued reply has been relayed (quit/EOF
// teardown), then flushes.
func (d *downstream) drain() {
	d.mu.Lock()
	for d.head != nil && d.err == nil {
		d.cond.Wait()
	}
	if d.err == nil {
		_ = d.w.Flush()
	}
	d.mu.Unlock()
}

// failSlot resolves a roleDirect pending whose send failed with a
// SERVER_ERROR reply.
func (d *downstream) failSlot(pd *pending) {
	d.mu.Lock()
	pd.buf = append(pd.buf[:0], serverErrorLine...)
	pd.done = true
	d.advanceLocked()
	d.mu.Unlock()
}

// legDone resolves one part/race leg that produced no bytes (send
// failure or drained pipeline): the join degrades those keys to
// misses; a race slot fails only when every leg is gone.
func (d *downstream) legDone(leg *pending, failed bool) {
	d.mu.Lock()
	slot := leg.slot
	slot.remaining--
	switch leg.role {
	case rolePart:
		if slot.remaining == 0 {
			slot.buf = append(slot.buf, endLine...)
			slot.done = true
		}
	case roleRaceLeg:
		if failed && !slot.claimed && slot.remaining == 0 {
			slot.buf = append(slot.buf[:0], serverErrorLine...)
			slot.done = true
		}
	}
	d.finishLegLocked(leg, slot)
	d.mu.Unlock()
}

// legFold resolves one broadcast leg by folding its reply line into
// the slot (error lines win).
func (d *downstream) legFold(leg *pending, line []byte, failure bool) {
	d.mu.Lock()
	slot := leg.slot
	if len(slot.buf) == 0 || (failure && !protocol.IsErrorReply(slot.buf)) {
		slot.buf = append(slot.buf[:0], line...)
	}
	slot.remaining--
	if slot.remaining == 0 {
		slot.done = true
	}
	d.finishLegLocked(leg, slot)
	d.mu.Unlock()
}

// finishLegLocked recycles a completed leg, recycles its slot if the
// slot already left the queue and this was the last straggler, and
// advances (caller holds mu).
func (d *downstream) finishLegLocked(leg, slot *pending) {
	d.recycleLocked(leg)
	if slot.popped && slot.remaining == 0 {
		d.recycleLocked(slot)
	} else {
		d.advanceLocked()
	}
}

// localLine enqueues a proxy-generated single-line reply.
func (d *downstream) localLine(line string) {
	d.mu.Lock()
	pd := d.allocLocked()
	pd.role, pd.kind = roleSlot, kindLine
	pd.buf = append(pd.buf[:0], line...)
	pd.done = true
	d.pushLocked(pd)
	d.advanceLocked()
	d.mu.Unlock()
}

// localStats answers "stats" with the proxy's own counters; per-server
// statistics live on the upstreams themselves.
func (d *downstream) localStats() {
	st := d.p.Stats()
	buf := make([]byte, 0, 192)
	buf = appendStat(buf, "proxy", "memqlat")
	buf = appendStat(buf, "policy", st.Policy.String())
	buf = appendStatInt(buf, "upstream_servers", int64(st.Upstreams))
	buf = appendStatInt(buf, "upstream_conns", int64(d.p.opts.UpstreamConns))
	buf = appendStatInt(buf, "cmd_total", st.Commands)
	buf = appendStatInt(buf, "forwarded", st.Forwarded)
	buf = appendStatInt(buf, "failovers", st.Failovers)
	if tl := d.p.tenants; tl != nil {
		buf = appendStatInt(buf, "tenant_sheds", st.TenantSheds)
		for _, s := range tl.Snapshots() {
			buf = appendStatInt(buf, "tenant_"+s.Name+"_admitted", s.Admitted)
			buf = appendStatInt(buf, "tenant_"+s.Name+"_shed", s.Shed)
		}
	}
	buf = append(buf, endLine...)
	d.mu.Lock()
	pd := d.allocLocked()
	pd.role, pd.kind = roleSlot, kindRetrieval
	pd.buf = append(pd.buf[:0], buf...)
	pd.done = true
	d.pushLocked(pd)
	d.advanceLocked()
	d.mu.Unlock()
}

func appendStat(b []byte, k, v string) []byte {
	b = append(b, "STAT "...)
	b = append(b, k...)
	b = append(b, ' ')
	b = append(b, v...)
	return append(b, crlf...)
}

func appendStatInt(b []byte, k string, v int64) []byte {
	b = append(b, "STAT "...)
	b = append(b, k...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, v, 10)
	return append(b, crlf...)
}
