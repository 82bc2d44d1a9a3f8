package proxy

import (
	"errors"
	"net"
	"slices"
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

// join is how a slot folds its legs' replies (see fold).
type join uint8

const (
	// joinLines: every leg is awaited; the first error line beats any
	// success. A one-leg lines slot is a passthrough: its reply relays
	// verbatim.
	joinLines join = iota
	// joinSplit: a split multi-get concatenates its parts' VALUE blocks.
	joinSplit
	// joinRace: a replicated read takes the first healthy reply.
	joinRace
)

// pending is one entry of the in-order reply machinery, either a slot
// or a leg: downstream slots queue in command order, upstream legs
// (slot set) feed them. Instances are freelist-recycled per downstream,
// so the steady-state data plane allocates nothing.
type pending struct {
	d      *downstream
	slot   *pending // leg: the slot it feeds
	next   *pending
	upNext *pending  // leg: next in its upstream's queue
	kind   replyKind // slot: its command's reply framing
	join   join      // slot: how its legs fold
	srv    int       // leg: origin upstream (breaker bookkeeping)

	done      bool   // slot: reply bytes complete
	popped    bool   // slot: left the queue (awaiting straggler legs)
	remaining int    // slot: outstanding legs
	frames    int    // leg: request lines sent, one reply owed for each
	buf       []byte // buffered reply bytes (reused up to ConnBufferBytes)
}

// downstream is one client connection's state: the parser side runs in
// the handler goroutine; the reply queue is shared with the upstream
// readers under mu.
type downstream struct {
	p   *Proxy
	nc  net.Conn
	w   *protocol.Writer
	rec telemetry.Recorder

	mu     sync.Mutex
	cond   *sync.Cond
	head   *pending
	tail   *pending
	free   *pending
	err    error     // poisoned output stream
	rearm  time.Time // when the write deadline is next pushed out
	groups []splitGroup
	ups    []*uconn // handler only: upstream connections its batch wrote to

	// trace is the pending mq_trace header from the client: it scopes
	// the next command. hdr is the regenerated upstream header for the
	// in-flight dispatch (reused buffer; empty when untraced), and hop
	// its span until ended (zero when untraced).
	trace otrace.Ctx
	hdr   []byte
	hop   otrace.Span
}

// splitGroup accumulates the keys of a read that route to one (server,
// connection), and the frame of a split's share; the slices are reused
// across commands.
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
		w:   protocol.NewWriter(nc),
		rec: telemetry.Shard(p.rec, hint),
	}
	d.cond = sync.NewCond(&d.mu)
	parser := protocol.NewParser(d) // reads nc, flushing first (see Read)
	parser.CaptureFrames(true)
	for !d.poisoned() {
		cmd, err := parser.Next()
		if err != nil {
			var ce *protocol.ClientError
			if errors.As(err, &ce) {
				d.localReply("CLIENT_ERROR " + ce.Msg + crlf)
				continue
			}
			break // quit, EOF or a broken connection
		}
		if cmd.Op == protocol.OpTrace {
			// Trace header: scope the next command. No reply, no
			// forwarding — the proxy re-propagates it per upstream leg.
			d.trace = otrace.Ctx{Trace: cmd.CAS, Span: cmd.Delta}
			continue
		}
		start := time.Now()
		tn := p.dispatch(d, cmd, parser.Frame())
		hop := time.Since(start).Seconds()
		d.rec.Observe(telemetry.StageProxyHop, hop)
		if tn != nil {
			tn.Observe(hop)
		}
	}
	// Send what the batch wrote, deliver what is owed, then hang up.
	d.flushUps()
	d.drain()
}

// Read reads the client socket for the parser, which calls it only when
// it needs more bytes: whether the batch ended or stopped mid-command,
// what it wrote upstream goes out before the handler blocks on nc.
func (d *downstream) Read(b []byte) (int, error) {
	d.flushUps()
	return d.nc.Read(b)
}

// flushUps flushes each upstream connection the batch wrote to, once.
func (d *downstream) flushUps() {
	for _, c := range d.ups {
		c.flush()
	}
	d.ups = d.ups[:0]
}

// dispatch routes one parsed command. frame is the exact wire bytes
// (Parser.Frame), valid only for the duration of the call — sends copy
// it into upstream write buffers synchronously. It returns the tenant
// the command was admitted for (nil when QoS is off, the command is
// control-plane, or it was shed) so the caller can charge the hop
// latency to the right tenant.
func (p *Proxy) dispatch(d *downstream, cmd *protocol.Command, frame []byte) *tenant.Tenant {
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
				d.localReply(tenantShedLine)
			}
			return nil
		}
	}
	// A traced command gets a hop span covering the forward path up to
	// its first upstream send (see send) and a regenerated header that
	// parents every upstream leg under the hop.
	d.hdr = d.hdr[:0]
	if tc := d.trace; tc.Valid() {
		d.trace = otrace.Ctx{}
		if tr := p.tracer; tr.Enabled() {
			d.hop = tr.Begin(tc, "proxy", "hop", -1)
			d.hdr = protocol.AppendTrace(d.hdr, d.hop.Trace, d.hop.ID)
			defer p.endHop(d) // a command answered locally sends nothing
		}
	}
	switch cmd.Op {
	case protocol.OpGet, protocol.OpGets, protocol.OpGat, protocol.OpGats:
		p.dispatchRead(d, cmd, frame)
	case protocol.OpStats:
		d.localStats()
	case protocol.OpVersion:
		d.localReply(versionLine)
	case protocol.OpVerbosity:
		// Accepted and ignored, like memcached.
		if !cmd.Noreply {
			d.localReply(okLine)
		}
	case protocol.OpFlushAll:
		p.fanOut(d, frame, joinLines, kindLine, cmd.Noreply, 0, p.sel.N(), 0)
	default:
		// Keyed single-reply ops (storage, delete, incr/decr, touch) go to
		// the key's owner, and to its replicas under PolicyReplicate.
		count := 1
		if p.opts.Policy == PolicyReplicate {
			count = p.opts.Replicas
		}
		conn := p.connFor(route.Hash64B(cmd.KeyB))
		p.fanOut(d, frame, joinLines, kindLine, cmd.Noreply, p.routeKey(cmd.KeyB), count, conn)
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

// dispatchRead handles the retrieval family: a single-key read races
// the replica set under PolicyReplicate; otherwise every key is routed
// once and grouped by (server, connection) — one group is a passthrough
// of frame, more split into a fork-join.
func (p *Proxy) dispatchRead(d *downstream, cmd *protocol.Command, frame []byte) {
	keys := cmd.KeyList
	if p.opts.Policy == PolicyReplicate && len(keys) == 1 {
		conn := p.connFor(route.Hash64B(keys[0]))
		p.fanOut(d, frame, joinRace, kindRetrieval, false, p.sel.PickB(keys[0]), p.opts.Replicas, conn)
		return
	}
	groups := d.groups[:0]
	for _, k := range keys {
		srv, conn := p.routeKey(k), p.connFor(route.Hash64B(k))
		i := 0
		for i < len(groups) && (groups[i].srv != srv || groups[i].conn != conn) {
			i++
		}
		if i == len(groups) {
			if i == cap(groups) {
				groups = append(groups, splitGroup{})
			}
			groups = groups[:i+1] // a reused group keeps its slices
			groups[i].srv, groups[i].conn, groups[i].keys = srv, conn, groups[i].keys[:0]
		}
		groups[i].keys = append(groups[i].keys, k)
	}
	d.groups = groups
	if len(groups) == 1 {
		p.fanOut(d, frame, joinLines, kindRetrieval, false, groups[0].srv, 1, groups[0].conn)
		return
	}
	p.splitRead(d, cmd, groups)
}

// splitRead sends each group's share of a multi-key retrieval as one leg
// of a split slot. A share too long for one line goes out as pipelined
// lines on the same connection; its leg then reads one reply per line.
func (p *Proxy) splitRead(d *downstream, cmd *protocol.Command, groups []splitGroup) {
	slot := d.openSlot(joinSplit, kindRetrieval, len(groups))
	for i := range groups {
		g := &groups[i]
		g.frame = g.frame[:0]
		frames := 0
		for keys := g.keys; len(keys) > 0; frames++ {
			var n int
			g.frame, n = protocol.AppendRetrieval(g.frame, cmd.Op, cmd.Exptime, keys)
			keys = keys[n:]
		}
		p.sendLeg(d, slot, g.srv, g.conn, g.frame, frames)
	}
}

// fanOut sends frame to count servers, owner and its ring successors,
// as the legs of one slot joined by j whose replies are framed as kind:
// a passthrough is one lines leg, a replicated read races its legs
// (joinRace), a replicated write or flush_all folds their lines
// (joinLines). A noreply fan-out opens no slot.
func (p *Proxy) fanOut(d *downstream, frame []byte, j join, kind replyKind, noreply bool, owner, count, conn int) {
	var slot *pending
	if !noreply {
		slot = d.openSlot(j, kind, count)
	}
	for i := 0; i < count; i++ {
		p.sendLeg(d, slot, p.successor(owner, i), conn, frame, 1)
	}
}

// sendLeg sends one fan-out leg of slot (nil for noreply) carrying frames
// request lines to upstream (srv, conn).
func (p *Proxy) sendLeg(d *downstream, slot *pending, srv, conn int, frame []byte, frames int) {
	var leg *pending
	if slot != nil {
		d.mu.Lock()
		leg = d.allocLocked()
		leg.slot, leg.srv, leg.frames = slot, srv, frames
		d.mu.Unlock()
	}
	p.send(d, leg, srv, conn, frame)
}

// send writes frame to upstream (srv, conn) for pd (nil for noreply),
// noting the connection for the batch's flush; a send that fails before
// pd is enqueued resolves pd as an error reply.
func (p *Proxy) send(d *downstream, pd *pending, srv, conn int, frame []byte) {
	if d.hop.ID != 0 {
		// Once a leg is queued another client's flush may send it and its
		// reply be relayed, so the hop ends first: a client holding the
		// reply finds the span recorded.
		p.endHop(d)
	}
	c, err := p.ups[srv][conn].send(d.hdr, frame, pd)
	if err != nil {
		p.recordOutcome(srv, true)
		if pd != nil {
			d.fail(pd)
		}
		return
	}
	if !slices.Contains(d.ups, c) {
		d.ups = append(d.ups, c)
	}
	p.forwarded.Add(1)
}

// endHop records the traced command's hop span, once.
func (p *Proxy) endHop(d *downstream) {
	p.tracer.End(d.hop)
	d.hop = otrace.Span{}
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

// --- queue machinery -------------------------------------------------

// allocLocked pops a recycled pending (caller holds mu).
func (d *downstream) allocLocked() *pending {
	pd := d.free
	if pd == nil {
		return &pending{d: d}
	}
	d.free, pd.next = pd.next, nil
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

// recycleLocked returns a pending to the freelist, keeping a buffer of
// at most ConnBufferBytes (caller holds mu).
func (d *downstream) recycleLocked(pd *pending) {
	buf := pd.buf[:0]
	if cap(buf) > protocol.ConnBufferBytes {
		buf = nil
	}
	*pd = pending{d: d, next: d.free, buf: buf}
	d.free = pd
}

// advanceLocked relays every finished reply at the head of the queue,
// streams the folded prefix of a split waiting at the head, and flushes
// (caller holds mu).
func (d *downstream) advanceLocked() {
	wrote := false
	for d.head != nil && d.head.done {
		pd := d.head
		d.writeLocked(pd.buf)
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
	if h := d.head; h != nil && !h.done && h.join == joinSplit && len(h.buf) > 0 {
		// A split blocked on slower parts: its folded VALUE blocks are
		// whole, stream them now.
		d.writeLocked(h.buf)
		h.buf = h.buf[:0]
		wrote = true
	}
	if wrote {
		d.flushLocked()
	}
	if d.head == nil {
		d.cond.Broadcast()
	}
}

// flushTimeout bounds every write the proxy makes, to a client or to an
// upstream, each under its connection's lock: a peer that drains nothing
// for this long is disconnected, so the lock is freed for the upstream
// read loop and the other clients. A variable so tests can shorten it;
// New reads it once per Proxy.
var flushTimeout = 5 * time.Second

// armWrite keeps nc's write deadline timeout ahead, pushing it out only
// once half of it has run (*rearm records when): a write has between
// timeout/2 and timeout, and a request or reply costs no timer operation.
// The caller holds the lock that guards *rearm and the writes to nc.
func armWrite(nc net.Conn, rearm *time.Time, timeout time.Duration) {
	if now := time.Now(); now.After(*rearm) {
		_ = nc.SetWriteDeadline(now.Add(timeout))
		*rearm = now.Add(timeout / 2)
	}
}

// writeLocked appends b to the client's reply stream under the write
// deadline (caller holds mu).
func (d *downstream) writeLocked(b []byte) {
	if d.err != nil || len(b) == 0 {
		return
	}
	armWrite(d.nc, &d.rearm, d.p.flushTimeout)
	if _, err := d.w.Write(b); err != nil {
		d.poisonLocked(err)
	}
}

// flushLocked pushes the written replies to the client under the
// deadline writeLocked set (caller holds mu).
func (d *downstream) flushLocked() {
	if d.err == nil {
		if err := d.w.Flush(); err != nil {
			d.poisonLocked(err)
		}
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
	d.flushLocked()
	d.mu.Unlock()
}

// openSlot queues a slot that legs legs, framed as kind, fold into by j.
func (d *downstream) openSlot(j join, kind replyKind, legs int) *pending {
	d.mu.Lock()
	slot := d.allocLocked()
	slot.join, slot.kind, slot.remaining = j, kind, legs
	d.pushLocked(slot)
	d.mu.Unlock()
	return slot
}

// fail resolves pd, whose reply will never arrive, as an upstream error.
func (d *downstream) fail(pd *pending) {
	pd.buf = append(pd.buf[:0], serverErrorLine...)
	d.fold(pd, true)
}

// fold resolves leg pd once pd.buf holds its whole reply (fail: an
// error reply), folding it into its slot by the slot's join rule:
//
//   - split: a healthy part's VALUE blocks append, a failed part's keys
//     read as misses, END closes the join once every part is in;
//   - race: the first healthy reply wins, a miss being an answer; the
//     first error is kept, relayed only if no replica answers healthily;
//   - lines: every leg is awaited; the first error line beats any success.
func (d *downstream) fold(pd *pending, fail bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot := pd.slot
	slot.remaining--
	switch slot.join {
	case joinSplit:
		if !fail {
			slot.buf = append(slot.buf, pd.buf...)
		}
		if slot.remaining == 0 {
			slot.buf = append(slot.buf, endLine...)
		}
	case joinRace:
		if !slot.done && (!fail || len(slot.buf) == 0) {
			slot.buf, pd.buf = pd.buf, slot.buf
			slot.done = !fail
		}
	case joinLines:
		if len(slot.buf) == 0 || fail && !protocol.IsErrorReply(slot.buf) {
			slot.buf, pd.buf = pd.buf, slot.buf
		}
	}
	slot.done = slot.done || slot.remaining == 0
	d.recycleLocked(pd)
	if slot.popped && slot.remaining == 0 {
		d.recycleLocked(slot) // a race's last straggler
	} else {
		d.advanceLocked()
	}
}

// localReply enqueues a reply the proxy writes itself.
func (d *downstream) localReply(reply string) {
	d.mu.Lock()
	pd := d.allocLocked()
	pd.buf = append(pd.buf, reply...)
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
	d.localReply(string(append(buf, endLine...)))
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
