package proxy

import (
	"bufio"
	"errors"
	"io"
	"net"
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
// in — and resolves each against its downstream.
type uconn struct {
	u  *upstream
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer

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
		r:  bufio.NewReaderSize(nc, protocol.ConnBufferBytes),
		w:  bufio.NewWriterSize(nc, protocol.ConnBufferBytes),
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

// process reads one reply off the wire and resolves pd. It fully
// resolves pd in every case; a non-nil return means the uconn must be
// abandoned (reply stream desynced or dead). The first byte is awaited
// without d.mu: a direct reply that then heads its downstream's queue
// streams straight to the socket (the zero-copy hot path); any other
// reply is read whole into pd.buf, then folded under the lock.
func (c *uconn) process(pd *pending) error {
	u := c.u
	_ = c.nc.SetReadDeadline(time.Now().Add(upstreamTimeout))

	d, srv := pd.d, pd.srv // pd is recycled once resolved
	if _, err := c.r.Peek(1); err == nil && pd.role == roleDirect {
		d.mu.Lock()
		if pd == d.head && d.err == nil {
			fail, err := c.copyReply(dsWriter{d}, pd.kind, false)
			if err != nil {
				// The downstream stream may hold a partial reply; its framing
				// cannot be recovered.
				d.poisonLocked(err)
			}
			pd.done = true
			d.advanceLocked()
			d.mu.Unlock()
			u.p.recordOutcome(srv, err != nil || fail)
			return err
		}
		d.mu.Unlock()
	}
	fail, err := c.readReply(pd) // a Peek error recurs here
	d.fold(pd, fail)
	u.p.recordOutcome(srv, fail)
	return err
}

// readReply reads pd's whole reply into pd.buf — only the VALUE blocks
// of a split part's replies, one per request line it sent — or
// serverErrorLine when the stream breaks. fail reports an error reply.
func (c *uconn) readReply(pd *pending) (fail bool, err error) {
	part := pd.role == roleLeg && pd.slot.join == joinSplit
	pd.buf = pd.buf[:0]
	for f := 0; f < max(pd.frames, 1) && err == nil; f++ {
		var lineFail bool
		lineFail, err = c.copyReply(appender{&pd.buf}, pd.kind, part)
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

// copyReply relays one reply from the upstream stream into dst, line
// by line as protocol.ScanReply classifies them. kindLine replies are a
// single terminal line; kindRetrieval replies are VALUE blocks closed by
// END or an error line. partMode swallows the terminal line (split-join
// parts contribute only VALUE blocks). fail reports an error-line reply;
// a non-nil error means the stream is desynced and the conn must go.
func (c *uconn) copyReply(dst io.Writer, kind replyKind, partMode bool) (fail bool, err error) {
	for {
		rep, err := protocol.ScanReply(c.r)
		if err != nil {
			return false, err
		}
		if kind == kindRetrieval && rep.Kind == protocol.ReplyValue {
			if _, werr := dst.Write(rep.Line); werr != nil {
				return false, werr
			}
			if cerr := c.copyN(dst, rep.Bytes+len(crlf)); cerr != nil {
				return false, cerr
			}
			continue
		}
		if !partMode {
			if _, werr := dst.Write(rep.Line); werr != nil {
				return false, werr
			}
		}
		if kind == kindRetrieval && rep.Kind != protocol.ReplyEnd && rep.Kind != protocol.ReplyError {
			// A retrieval stream may only close with END or an error line;
			// anything else means we lost framing.
			return true, errUpstreamProtocol
		}
		return rep.Kind == protocol.ReplyError, nil
	}
}

// copyN relays exactly n upstream bytes to dst, straight out of the
// reader's buffer.
func (c *uconn) copyN(dst io.Writer, n int) error {
	for n > 0 {
		if _, err := c.r.Peek(1); err != nil { // block until some of it is here
			return err
		}
		chunk, _ := c.r.Peek(min(n, c.r.Buffered()))
		if _, err := dst.Write(chunk); err != nil {
			return err
		}
		_, _ = c.r.Discard(len(chunk)) // cannot fail: chunk was just peeked
		n -= len(chunk)
	}
	return nil
}

// dsWriter streams reply bytes straight to the downstream socket's
// buffered writer (caller holds d.mu). Downstream write failures poison
// the downstream but report success, so the upstream reply finishes
// draining and the pipeline stays aligned.
type dsWriter struct{ d *downstream }

func (w dsWriter) Write(p []byte) (int, error) {
	d := w.d
	if d.err == nil {
		if _, err := d.w.Write(p); err != nil {
			d.poisonLocked(err)
		}
	}
	return len(p), nil
}

// appender accumulates reply bytes into a pending's reusable buffer.
// It is a one-pointer struct so converting it to io.Writer does not
// allocate (pointer-shaped values box directly).
type appender struct{ buf *[]byte }

func (a appender) Write(p []byte) (int, error) {
	*a.buf = append(*a.buf, p...)
	return len(p), nil
}
