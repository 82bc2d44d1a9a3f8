package proxy

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"memqlat/internal/protocol"
)

// pendQueueDepth bounds outstanding pipelined requests per upstream
// connection; a full pipeline breaks the connection rather than block a
// sender that holds the pool lock.
const pendQueueDepth = 4096

// upstreamTimeout bounds the wait for one reply, to 9/8 of it from its hop
// start, then retires the connection. Tests shorten it; New reads it once.
var upstreamTimeout = 5 * time.Second

var (
	errPipelineFull     = errors.New("proxy: upstream pipeline full")
	errUpstreamProtocol = errors.New("proxy: upstream protocol desync")
)

// upstream is one pipelined connection slot to one server: at most one
// live uconn at a time, redialed lazily after a break until close.
type upstream struct {
	p    *Proxy
	srv  int
	addr string

	// mu is the write lock: held across a frame's enqueue, its append
	// and its flush, and across a redial. A read loop never takes it.
	mu     sync.Mutex
	cur    atomic.Pointer[uconn] // written under mu; close reads it without the lock
	closed atomic.Bool           // refuses redials
}

// uconn is one live upstream connection. Writers queue a frame's pending
// and append the frame to w (both under upstream.mu); the client handler
// whose batch wrote to w flushes it before it next reads its client
// (downstream.Read), the only flush w gets. The readLoop goroutine parks
// on the socket and resolves pendings in FIFO order — the order the
// server replies in — against their downstreams, taking only qmu, so a
// writer blocked on a full socket never stops the replies that would
// unblock it. w is the owned protocol.Writer every proxy connection
// writes through (empty until a request is owed), r a reader of bufio's
// default 4 KiB, which a VALUE block larger than it bypasses.
type uconn struct {
	u  *upstream
	nc net.Conn
	r  *bufio.Reader
	w  *protocol.Writer

	wdl, rdl protocol.Deadline // the write and read deadlines nc carries, guarded by u.mu and qmu

	// qmu is the queue lock, held only while the queue is edited. The
	// pendings awaiting replies, oldest first, are linked through
	// pending.upNext, so the queue holds memory only for what is queued;
	// queued counts them against pendQueueDepth. Once broken is set no
	// pending is queued, and the read loop fails what is.
	qmu        sync.Mutex
	head, tail *pending
	queued     int
	broken     bool
}

// send queues pd (nil for noreply) for the matching reply, then appends
// hdr (an mq_trace header, when non-empty) and frame to the pipeline, all
// under the write lock: replies stay in frame order, and no other
// downstream's frame can interleave and steal the trace scope. The
// caller flushes the returned uconn before it next reads its client.
// Once pd is queued the read loop owns it (a failed write retires c,
// whose read loop fails pd), so send reports only failures before that.
// A frame that reaches the socket is written under the same deadline as
// a flush, dated from now, the command's hop start.
func (u *upstream) send(hdr, frame []byte, pd *pending, now time.Time) (*uconn, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	c := u.cur.Load()
	err := net.ErrClosed
	if c != nil {
		err = c.enqueue(pd, now)
	}
	if err == net.ErrClosed { // never dialed, or retired: redial
		if c, err = u.dialLocked(); err == nil {
			err = c.enqueue(pd, now)
		}
	}
	if err != nil {
		return nil, err
	}
	_ = c.wdl.Arm(c.nc.SetWriteDeadline, now, u.p.flushTimeout)
	if len(hdr) > 0 {
		_, err = c.w.Write(hdr)
	}
	if err == nil {
		_, err = c.w.Write(frame)
	}
	if err != nil {
		c.retire()
		if pd == nil {
			return nil, err
		}
	}
	return c, nil
}

// enqueue queues pd (nil for noreply), owed from now, on c: net.ErrClosed
// when c is retired, errPipelineFull (retiring c) at pendQueueDepth owed.
func (c *uconn) enqueue(pd *pending, now time.Time) error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	switch {
	case c.broken:
		return net.ErrClosed
	case pd == nil:
		return nil
	case c.queued == pendQueueDepth:
		c.retireLocked()
		return errPipelineFull
	}
	pd.upNext, pd.sent = nil, now
	if c.tail == nil {
		c.head = pd
		_ = c.rdl.Arm(c.nc.SetReadDeadline, now, c.u.p.upstreamTimeout) // the oldest reply owed bounds it (see pop)
	} else {
		c.tail.upNext = pd
	}
	c.tail = pd
	c.queued++
	return nil
}

// flush pushes the frames written to c to its server; a failed write,
// or one that outlasts its deadline because the server stopped reading,
// retires c, whose read loop then fails every pending queued on it.
func (c *uconn) flush(now time.Time) {
	c.u.mu.Lock()
	_ = c.wdl.Arm(c.nc.SetWriteDeadline, now, c.u.p.flushTimeout)
	if err := c.w.Flush(); err != nil {
		c.retire()
	}
	c.u.mu.Unlock()
}

// dialTimeout bounds an upstream dial.
const dialTimeout = 2 * time.Second

// dialLocked establishes a fresh uconn and starts its read loop (caller
// holds u.mu).
func (u *upstream) dialLocked() (*uconn, error) {
	if u.closed.Load() {
		return nil, net.ErrClosed
	}
	nc, err := net.DialTimeout("tcp", u.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &uconn{
		u:  u,
		nc: nc,
		r:  bufio.NewReader(nc),
		w:  protocol.NewWriter(nc),
	}
	u.cur.Store(c)
	go c.readLoop()
	if u.closed.Load() { // close ran during the dial and may have missed c
		c.retire()
	}
	return c, nil
}

// retire marks c broken, so nothing more is queued on it, and closes its
// socket, which fails a blocked write and wakes the read loop to fail
// what is queued.
func (c *uconn) retire() {
	c.qmu.Lock()
	c.retireLocked()
	c.qmu.Unlock()
}

// retireLocked is retire with c.qmu held.
func (c *uconn) retireLocked() {
	if !c.broken {
		c.broken = true
		_ = c.nc.Close()
	}
}

// close tears the upstream down (proxy shutdown). It takes no write
// lock: the live socket closes at once, so a send or flush blocked
// writing to a server that stopped reading fails now rather than at its
// deadline.
func (u *upstream) close() {
	u.closed.Store(true)
	if c := u.cur.Load(); c != nil {
		c.retire()
	}
}

// readLoop parks on the socket between replies. A reply that starts
// belongs to the oldest pending; bytes that arrive with nothing pending
// (a desync), EOF or a reset while idle, the owed-reply deadline, or a
// reply that cannot be read retire the connection: every pending still
// queued fails with SERVER_ERROR (a request queued as an idle close
// arrives among them), and the next send redials.
func (c *uconn) readLoop() {
	for {
		_, err := c.r.Peek(1)
		if errors.Is(err, os.ErrDeadlineExceeded) && c.stale() {
			continue
		}
		pd := c.oldest()
		if err != nil || pd == nil || c.process(pd) != nil {
			break
		}
	}
	c.qmu.Lock()
	c.retireLocked()
	pd := c.head
	c.head, c.tail, c.queued = nil, nil, 0
	c.qmu.Unlock()
	for pd != nil {
		next := pd.upNext
		pd.upNext = nil
		c.failPending(pd)
		pd = next
	}
}

// stale reports whether a read deadline that fired while parked owes
// nothing: no reply is owed (it is disarmed), or the oldest is not due.
func (c *uconn) stale() bool {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.head == nil {
		c.rdl = protocol.Deadline{}
		return c.nc.SetReadDeadline(time.Time{}) == nil
	}
	return time.Since(c.head.sent) < c.u.p.upstreamTimeout
}

// oldest returns the pending the next reply belongs to, nil if none.
func (c *uconn) oldest() *pending {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.head
}

// pop dequeues the oldest pending, whose reply is read, and keeps the
// read deadline covering the next one owed, if any.
func (c *uconn) pop() *pending {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	pd := c.head
	if pd == nil {
		return nil
	}
	if c.head = pd.upNext; c.head == nil {
		c.tail = nil
	} else {
		_ = c.rdl.Arm(c.nc.SetReadDeadline, c.head.sent, c.u.p.upstreamTimeout)
	}
	pd.upNext = nil
	c.queued--
	return pd
}

// process reads the oldest pending's whole reply without any lock, then
// pops it and folds it into its slot. It fully resolves pd in every
// case; a non-nil return means the uconn must be abandoned (reply
// stream desynced or dead).
func (c *uconn) process(pd *pending) error {
	srv := pd.srv // pd is recycled once folded
	fail, err := c.readReply(pd)
	c.pop()
	pd.d.fold(pd, fail)
	c.u.p.recordOutcome(srv, fail)
	return err
}

// readReply reads pd's whole reply into pd.buf — only the VALUE blocks
// of a split part's replies, one per request line it sent — or
// serverErrorLine when the stream breaks. fail reports an error reply.
func (c *uconn) readReply(pd *pending) (fail bool, err error) {
	kind, part := pd.slot.kind, pd.slot.join == joinSplit
	for f := 0; f < pd.frames && err == nil; f++ {
		var lineFail bool
		pd.buf, lineFail, err = c.appendReply(pd.buf, kind, part)
		fail = fail || lineFail
	}
	if err != nil {
		pd.buf = append(pd.buf[:0], serverErrorLine...)
		fail = true
	}
	return fail, err
}

// failPending resolves a pending whose reply will never arrive (broken
// pipeline drain).
func (c *uconn) failPending(pd *pending) {
	srv := pd.srv
	pd.d.fail(pd)
	c.u.p.recordOutcome(srv, true)
}

// appendReply appends one reply from the upstream stream to dst, line
// by line as protocol.ScanReply classifies them; a VALUE block's data is
// read straight into dst. kindLine replies are a single terminal line;
// kindRetrieval replies are VALUE blocks closed by END or an error line.
// part drops the terminal line (split-join parts contribute only VALUE
// blocks). fail reports an error-line reply; a non-nil error means the
// stream is desynced and the conn must go.
func (c *uconn) appendReply(dst []byte, kind replyKind, part bool) ([]byte, bool, error) {
	for {
		rep, err := protocol.ScanReply(c.r)
		if err != nil {
			return dst, false, err
		}
		if kind == kindRetrieval && rep.Kind == protocol.ReplyValue {
			dst = append(dst, rep.Line...)
			n := len(dst)
			dst = slices.Grow(dst, rep.Bytes+len(crlf))[:n+rep.Bytes+len(crlf)]
			if _, err := io.ReadFull(c.r, dst[n:]); err != nil {
				return dst, false, err
			}
			continue
		}
		if !part {
			dst = append(dst, rep.Line...)
		}
		if kind == kindRetrieval && rep.Kind != protocol.ReplyEnd && rep.Kind != protocol.ReplyError {
			// A retrieval stream may only close with END or an error line;
			// anything else means we lost framing.
			return dst, true, errUpstreamProtocol
		}
		return dst, rep.Kind == protocol.ReplyError, nil
	}
}
