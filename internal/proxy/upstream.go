package proxy

import (
	"bufio"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
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
// live uconn at a time, redialed lazily after a break.
type upstream struct {
	p    *Proxy
	srv  int
	addr string

	mu  sync.Mutex
	cur *uconn
}

// uconn is one live upstream connection. Writers append frames to w and
// queue the matching pending (both under upstream.mu); the readLoop
// goroutine pops pendings in FIFO order — the order the server replies
// in — and resolves each against its downstream. w is the owned
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
	// queued counts them against pendQueueDepth. ready (on u.mu) wakes
	// the read loop when one is queued or the conn breaks. All guarded
	// by u.mu.
	head, tail *pending
	queued     int
	ready      sync.Cond

	broken bool // guarded by u.mu; set exactly once
}

// send writes frame to the upstream pipeline and registers pd (nil for
// noreply fire-and-forget) for the matching reply. hdr, when non-empty,
// is an mq_trace header written immediately before frame under the same
// lock, so no other downstream's frame can interleave and steal the
// trace scope. flush pushes the write buffer immediately; otherwise the
// readLoop flushes when it starts waiting on a reply. Once pd is
// enqueued the read loop owns its resolution, so send reports only
// pre-enqueue failures to the caller.
func (u *upstream) send(hdr, frame []byte, pd *pending, flush bool) error {
	u.mu.Lock()
	c := u.cur
	if c == nil || c.broken {
		var err error
		if c, err = u.dialLocked(); err != nil {
			u.mu.Unlock()
			return err
		}
	}
	if len(hdr) > 0 {
		if _, err := c.w.Write(hdr); err != nil {
			u.breakLocked(c)
			u.mu.Unlock()
			return err
		}
	}
	if _, err := c.w.Write(frame); err != nil {
		u.breakLocked(c)
		u.mu.Unlock()
		return err
	}
	if pd != nil {
		if c.queued == pendQueueDepth {
			u.breakLocked(c)
			u.mu.Unlock()
			return errPipelineFull
		}
		pd.upNext = nil
		if c.tail == nil {
			c.head = pd
		} else {
			c.tail.upNext = pd
		}
		c.tail = pd
		c.queued++
		c.ready.Signal()
	}
	if flush {
		if err := c.w.Flush(); err != nil {
			u.breakLocked(c)
			u.mu.Unlock()
			if pd != nil {
				// The read loop drains the broken pipeline and fails pd;
				// reporting the error here would resolve it twice.
				return nil
			}
			return err
		}
	}
	u.mu.Unlock()
	return nil
}

// dialTimeout bounds an upstream dial.
const dialTimeout = 2 * time.Second

// dialLocked establishes a fresh uconn and starts its read loop (caller
// holds u.mu).
func (u *upstream) dialLocked() (*uconn, error) {
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
	c.ready.L = &u.mu
	u.cur = c
	go c.readLoop()
	return c, nil
}

// breakLocked retires a uconn: no further sends land on it, the read
// loop wakes to finish draining its queue, and the socket closes to
// unblock any in-flight read (caller holds u.mu).
func (u *upstream) breakLocked(c *uconn) {
	if c.broken {
		return
	}
	c.broken = true
	c.ready.Signal()
	_ = c.nc.Close()
}

// abandon is breakLocked for callers that do not hold u.mu.
func (u *upstream) abandon(c *uconn) {
	u.mu.Lock()
	u.breakLocked(c)
	u.mu.Unlock()
}

// close tears the upstream down (proxy shutdown).
func (u *upstream) close() {
	u.mu.Lock()
	if u.cur != nil {
		u.breakLocked(u.cur)
	}
	u.mu.Unlock()
}

// readLoop resolves pendings in pipeline order. A processing error
// means the connection's reply stream is unusable: the conn is retired
// and every remaining pending fails with SERVER_ERROR.
func (c *uconn) readLoop() {
	for pd := c.next(); pd != nil; pd = c.next() {
		if err := c.process(pd); err != nil {
			c.u.abandon(c)
			for pd := c.next(); pd != nil; pd = c.next() {
				c.failPending(pd)
			}
			return
		}
	}
}

// next pops the oldest queued pending, waiting for one while the conn
// is live, and flushes the pipelined writes its reply may still sit
// behind. It returns nil once the conn is broken and its queue drained.
func (c *uconn) next() *pending {
	u := c.u
	u.mu.Lock()
	defer u.mu.Unlock()
	for c.head == nil && !c.broken {
		c.ready.Wait()
	}
	pd := c.head
	if pd == nil {
		return nil
	}
	if c.head = pd.upNext; c.head == nil {
		c.tail = nil
	}
	pd.upNext = nil
	c.queued--
	if !c.broken {
		if err := c.w.Flush(); err != nil {
			u.breakLocked(c)
		}
	}
	return pd
}

// process reads pd's whole reply without any lock, then folds it into
// its slot. It fully resolves pd in every case; a non-nil return means
// the uconn must be abandoned (reply stream desynced or dead).
func (c *uconn) process(pd *pending) error {
	_ = c.nc.SetReadDeadline(time.Now().Add(upstreamTimeout))
	srv := pd.srv // pd is recycled once folded
	fail, err := c.readReply(pd)
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
