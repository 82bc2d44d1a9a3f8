package proxy

import (
	"bufio"
	"errors"
	"io"
	"net"
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

// upstreamTimeout bounds waiting for one upstream reply; a timeout
// abandons the connection and fails its pipeline.
const upstreamTimeout = 5 * time.Second

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

	mu     sync.Mutex
	cur    atomic.Pointer[uconn] // written under mu; close reads it without the lock
	closed bool                  // guarded by mu; refuses redials
}

// uconn is one live upstream connection. Writers append frames to w and
// queue the matching pending (both under upstream.mu); the client
// handler whose batch wrote to w flushes it before it next reads its
// client (downstream.Read), the only flush w gets. The readLoop goroutine
// parks on the socket and resolves pendings in FIFO order — the order
// the server replies in — against their downstreams. w is the owned
// protocol.Writer every proxy connection writes through (empty until a
// request is owed), r a reader of bufio's default 4 KiB, which a VALUE
// block larger than it bypasses.
type uconn struct {
	u  *upstream
	nc net.Conn
	r  *bufio.Reader
	w  *protocol.Writer

	// The pendings awaiting replies, oldest first, linked through
	// pending.upNext, so the queue holds memory only for what is queued;
	// queued counts them against pendQueueDepth. All guarded by u.mu.
	head, tail *pending
	queued     int

	rearm  time.Time // guarded by u.mu: when the write deadline is next pushed out
	broken bool      // guarded by u.mu; set exactly once
}

// send appends frame to the upstream pipeline and registers pd (nil for
// noreply) for the matching reply; the caller flushes the returned uconn
// before it next reads its client. hdr, when non-empty, is an mq_trace
// header written just before frame under the same lock, so no other
// downstream's frame can interleave and steal the trace scope. Once pd
// is enqueued the read loop owns its resolution, so send reports only
// pre-enqueue failures to the caller. A frame that reaches the socket is
// written under the same deadline as a flush.
func (u *upstream) send(hdr, frame []byte, pd *pending) (*uconn, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	c := u.cur.Load()
	if c == nil || c.broken {
		var err error
		if c, err = u.dialLocked(); err != nil {
			return nil, err
		}
	}
	armWrite(c.nc, &c.rearm, u.p.flushTimeout)
	if len(hdr) > 0 {
		if _, err := c.w.Write(hdr); err != nil {
			u.breakLocked(c)
			return nil, err
		}
	}
	if _, err := c.w.Write(frame); err != nil {
		u.breakLocked(c)
		return nil, err
	}
	if pd != nil {
		if c.queued == pendQueueDepth {
			u.breakLocked(c)
			return nil, errPipelineFull
		}
		pd.upNext = nil
		if c.tail == nil {
			c.head = pd
			// The first reply owed starts the read deadline (see pop).
			_ = c.nc.SetReadDeadline(time.Now().Add(upstreamTimeout))
		} else {
			c.tail.upNext = pd
		}
		c.tail = pd
		c.queued++
	}
	return c, nil
}

// flush pushes the frames written to c to its server; a failed write,
// or one that outlasts its deadline because the server stopped reading,
// retires c, whose read loop then fails every pending queued on it.
func (c *uconn) flush() {
	c.u.mu.Lock()
	if !c.broken {
		armWrite(c.nc, &c.rearm, c.u.p.flushTimeout)
		if err := c.w.Flush(); err != nil {
			c.u.breakLocked(c)
		}
	}
	c.u.mu.Unlock()
}

// dialTimeout bounds an upstream dial.
const dialTimeout = 2 * time.Second

// dialLocked establishes a fresh uconn and starts its read loop (caller
// holds u.mu).
func (u *upstream) dialLocked() (*uconn, error) {
	if u.closed {
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
	return c, nil
}

// breakLocked retires a uconn: no further sends land on it, and the
// socket closes to wake its read loop, which drains the queue (caller
// holds u.mu).
func (u *upstream) breakLocked(c *uconn) {
	if c.broken {
		return
	}
	c.broken = true
	_ = c.nc.Close()
}

// close tears the upstream down (proxy shutdown). The live socket
// closes before the lock is taken, so a send or flush blocked writing to
// a server that stopped reading fails now rather than at its deadline.
func (u *upstream) close() {
	if c := u.cur.Load(); c != nil {
		_ = c.nc.Close()
	}
	u.mu.Lock()
	u.closed = true
	if c := u.cur.Load(); c != nil {
		u.breakLocked(c)
	}
	u.mu.Unlock()
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
		pd := c.oldest()
		if err != nil || pd == nil || c.process(pd) != nil {
			break
		}
	}
	c.u.mu.Lock()
	c.u.breakLocked(c)
	c.u.mu.Unlock()
	for pd := c.pop(); pd != nil; pd = c.pop() {
		c.failPending(pd)
	}
}

// oldest returns the pending the next reply belongs to, nil if none.
func (c *uconn) oldest() *pending {
	c.u.mu.Lock()
	defer c.u.mu.Unlock()
	return c.head
}

// pop dequeues the oldest pending, whose reply is read, and keeps the
// read deadline running exactly while a reply is owed: pushed out when
// more are queued, cleared when none are.
func (c *uconn) pop() *pending {
	c.u.mu.Lock()
	defer c.u.mu.Unlock()
	pd := c.head
	if pd == nil {
		return nil
	}
	if c.head = pd.upNext; c.head == nil {
		c.tail = nil
		_ = c.nc.SetReadDeadline(time.Time{})
	} else {
		_ = c.nc.SetReadDeadline(time.Now().Add(upstreamTimeout))
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
