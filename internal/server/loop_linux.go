//go:build linux

package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memqlat/internal/protocol"
)

// maxPendingOut caps the reply bytes buffered for a connection whose
// socket will not drain (a slow or stuck reader). Beyond this the
// connection is cut — the alternative is unbounded memory held hostage
// by the slowest client.
const maxPendingOut = 8 << 20

// eventLoopCore multiplexes every connection onto a small set of
// epoll-driven loops. Each loop goroutine owns its connections
// outright: registration, reads, parsing, dispatch, flushing and
// teardown all happen on the loop, so per-connection state needs no
// locks and a raw fd is never touched off its owner (no close/reuse
// races). Cross-goroutine requests (attach, shutdown) go through a
// mutex-protected pending list plus a self-pipe wakeup.
//
// The economics vs. the goroutine core: an idle connection here costs
// one epoll registration and a ~100-byte struct — parser, reply scratch
// and telemetry session are allocated lazily on the first byte received
// and the parser buffer is released whenever it drains — instead of a
// goroutine stack plus dedicated read/write buffers. That is what makes
// 100k mostly-idle connections cheap while the hot subset still runs
// the same zero-copy dispatch path as the legacy core.
type eventLoopCore struct {
	s     *Server
	loops []*evLoop
	stop  sync.Once
}

// newEventLoopCore starts GOMAXPROCS loop goroutines. Loops start
// immediately — they idle in epoll_wait until Serve attaches connections.
func newEventLoopCore(s *Server) (connCore, error) {
	e := &eventLoopCore{s: s}
	for i := range runtime.GOMAXPROCS(0) {
		l, err := newEvLoop(s, i)
		if err != nil {
			e.shutdown()
			return nil, fmt.Errorf("server: event loop %d: %w", i, err)
		}
		e.loops = append(e.loops, l)
		go l.run()
	}
	return e, nil
}

func (e *eventLoopCore) attach(conn net.Conn, id uint64) bool {
	l := e.loops[int(id)%len(e.loops)]
	fd, err := connFD(conn)
	if err != nil {
		// Not a pollable socket; drop it and keep serving.
		e.s.logger.Printf("server: conn %d: %v", id, err)
		_ = conn.Close()
		e.s.currConns.Add(-1)
		return true
	}
	c := &evConn{loop: l, fd: fd, conn: conn, id: id, lastActive: time.Now().UnixNano()}
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		return false
	}
	l.pending = append(l.pending, c)
	l.mu.Unlock()
	l.wake()
	return true
}

func (e *eventLoopCore) shutdown() {
	e.stop.Do(func() {
		for _, l := range e.loops {
			l.mu.Lock()
			l.closing = true
			l.mu.Unlock()
			l.wake()
		}
		for _, l := range e.loops {
			<-l.done
		}
	})
}

func (e *eventLoopCore) loopStats() []LoopStat {
	out := make([]LoopStat, len(e.loops))
	for i, l := range e.loops {
		out[i] = LoopStat{
			Conns:        l.nconns.Load(),
			Wakeups:      l.wakeups.Load(),
			FlushBatches: l.flushes.Load(),
			Commands:     l.commands.Load(),
		}
	}
	return out
}

// connFD extracts the file descriptor of a pollable connection. The fd
// stays valid because only the owning loop ever closes the conn.
func connFD(conn net.Conn) (int32, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return 0, fmt.Errorf("connection %T is not pollable", conn)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return 0, err
	}
	var fd int32
	if err := rc.Control(func(u uintptr) { fd = int32(u) }); err != nil {
		return 0, err
	}
	return fd, nil
}

// evLoop is one poller/worker goroutine: an epoll instance, the
// connections registered with it, and per-loop scratch (read buffer,
// reply writer) shared by all of them — safe because the loop services
// one connection at a time and flushes before moving on.
type evLoop struct {
	s    *Server
	idx  int
	epfd int
	// wakeR/wakeW are the self-pipe: writing one byte makes epoll_wait
	// return so the loop notices pending attaches or shutdown.
	wakeR, wakeW int

	mu      sync.Mutex
	pending []*evConn
	closing bool

	conns map[int32]*evConn

	// Per-loop scratch. w owes replies to the connection being served
	// (retargeted with Reset); its buffer is the loop's, not a
	// connection's.
	readBuf []byte
	w       *protocol.Writer

	nconns   atomic.Int64
	wakeups  atomic.Int64
	flushes  atomic.Int64
	commands atomic.Int64

	done chan struct{}
}

func newEvLoop(s *Server, idx int) (*evLoop, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create1: %w", err)
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		_ = syscall.Close(epfd)
		return nil, fmt.Errorf("pipe2: %w", err)
	}
	l := &evLoop{
		s: s, idx: idx, epfd: epfd, wakeR: p[0], wakeW: p[1],
		conns:   make(map[int32]*evConn),
		readBuf: make([]byte, protocol.ConnBufferBytes),
		w:       protocol.NewWriter(io.Discard),
		done:    make(chan struct{}),
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(l.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, l.wakeR, &ev); err != nil {
		_ = syscall.Close(epfd)
		_ = syscall.Close(p[0])
		_ = syscall.Close(p[1])
		return nil, fmt.Errorf("epoll_ctl wakeup: %w", err)
	}
	return l, nil
}

// wake makes epoll_wait return. A full pipe means a wakeup is already
// queued, which is all we need.
func (l *evLoop) wake() {
	var b [1]byte
	_, _ = syscall.Write(l.wakeW, b[:])
}

func (l *evLoop) run() {
	defer close(l.done)
	events := make([]syscall.EpollEvent, 128)
	var lastSweep time.Time
	for {
		msec := -1
		if idle := l.s.opts.IdleTimeout; idle > 0 {
			// Tick at a fraction of the timeout so reaping is timely
			// without busy-waking an otherwise idle loop.
			tick := idle / 4
			if tick < 100*time.Millisecond {
				tick = 100 * time.Millisecond
			}
			if tick > time.Second {
				tick = time.Second
			}
			msec = int(tick / time.Millisecond)
		}
		n, err := syscall.EpollWait(l.epfd, events, msec)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			l.s.logger.Printf("server: event loop %d: epoll_wait: %v", l.idx, err)
			l.teardown()
			return
		}
		l.wakeups.Add(1)
		now := time.Now()
		for i := 0; i < n; i++ {
			ev := &events[i]
			if int(ev.Fd) == l.wakeR {
				if l.drainWake() {
					l.teardown()
					return
				}
				continue
			}
			c := l.conns[ev.Fd]
			if c == nil {
				continue
			}
			if ev.Events&syscall.EPOLLOUT != 0 {
				l.flushOut(c)
			}
			if c.closed {
				continue
			}
			if ev.Events&(syscall.EPOLLIN|syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
				l.readable(c, now)
			}
		}
		if idle := l.s.opts.IdleTimeout; idle > 0 && now.Sub(lastSweep) >= idle/4 {
			lastSweep = now
			l.reapIdle(now, idle)
		}
	}
}

// drainWake empties the self-pipe and registers pending connections.
// It reports whether the loop should shut down.
func (l *evLoop) drainWake() bool {
	var buf [64]byte
	for {
		n, err := syscall.Read(l.wakeR, buf[:])
		if n < len(buf) || err != nil {
			break
		}
	}
	l.mu.Lock()
	pend := l.pending
	l.pending = nil
	closing := l.closing
	l.mu.Unlock()
	for _, c := range pend {
		if closing {
			_ = c.conn.Close()
			l.s.currConns.Add(-1)
			continue
		}
		l.register(c)
	}
	return closing
}

func (l *evLoop) register(c *evConn) {
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: c.fd}
	if err := syscall.EpollCtl(l.epfd, syscall.EPOLL_CTL_ADD, int(c.fd), &ev); err != nil {
		l.s.logger.Printf("server: conn %d: epoll add: %v", c.id, err)
		_ = c.conn.Close()
		l.s.currConns.Add(-1)
		return
	}
	l.conns[c.fd] = c
	l.nconns.Add(1)
}

// teardown closes everything the loop owns; runs once, on the loop
// goroutine, as its last act.
func (l *evLoop) teardown() {
	for _, c := range l.conns {
		c.closed = true
		_ = c.conn.Close()
		l.s.currConns.Add(-1)
	}
	l.conns = nil
	l.nconns.Store(0)
	// Late attaches park on l.closing and are closed by drainWake's
	// caller side (attach refuses once closing is set).
	_ = syscall.Close(l.epfd)
	_ = syscall.Close(l.wakeR)
	_ = syscall.Close(l.wakeW)
}

func (l *evLoop) reapIdle(now time.Time, idle time.Duration) {
	cutoff := now.Add(-idle).UnixNano()
	for _, c := range l.conns {
		if c.lastActive < cutoff {
			l.closeConn(c, nil)
		}
	}
}

// closeConn tears a connection down: deregisters (the kernel drops the
// epoll entry when the fd closes), releases state and fixes counters.
func (l *evLoop) closeConn(c *evConn, err error) {
	if c.closed {
		return
	}
	c.closed = true
	delete(l.conns, c.fd)
	_ = c.conn.Close()
	l.nconns.Add(-1)
	l.s.currConns.Add(-1)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		l.s.logger.Printf("server: conn %d: %v", c.id, err)
	}
}

// readable drains the socket and runs every complete command that
// arrived — the readiness-driven batch. Replies coalesce in the
// per-loop writer and go out in (at most) one write syscall at the end.
func (l *evLoop) readable(c *evConn, now time.Time) {
	c.lastActive = now.UnixNano()
	eof := false
	var rerr error
	got := false
	for {
		n, err := syscall.Read(int(c.fd), l.readBuf)
		if n > 0 {
			if c.sess == nil {
				// First byte ever: build the parser and dispatch state.
				// Idle connections never pay for these.
				c.sess = l.s.newSession(c.id)
				c.sp = protocol.NewStreamParser(0)
			}
			c.sp.Feed(l.readBuf[:n])
			got = true
		}
		if err != nil {
			if err == syscall.EAGAIN {
				break
			}
			if err == syscall.EINTR {
				continue
			}
			rerr = fmt.Errorf("read: %w", err)
			eof = true
			break
		}
		if n == 0 { // orderly EOF
			eof = true
			break
		}
		if n < len(l.readBuf) {
			break
		}
	}
	if got && !l.process(c) {
		return // connection closed during processing
	}
	if eof {
		// Serve what was buffered (done above), then drop the conn. Any
		// reply still in c.out is unsendable on a read-dead socket only
		// if the peer fully closed; half-close still drains via EPOLLOUT,
		// but a vanished peer errors there and closes us anyway.
		if len(c.out) > 0 && rerr == nil {
			c.closeAfterFlush = true
			return
		}
		l.closeConn(c, rerr)
	}
}

// process drains complete commands from the connection's parser through
// the shared service path, then flushes the batch. Reports false when
// the connection was closed.
func (l *evLoop) process(c *evConn) bool {
	s := l.s
	w := l.w
	w.Reset(c)
	quit := false
	for !quit {
		cmd, err := c.sp.Next()
		if err != nil {
			if errors.Is(err, protocol.ErrIncomplete) {
				break
			}
			switch {
			case errors.Is(err, protocol.ErrQuit):
				quit = true
				continue
			case protocol.IsRecoverable(err):
				if werr := w.ClientErrorf("%v", err); werr != nil {
					l.closeConn(c, werr)
					return false
				}
				continue
			default:
				l.closeConn(c, err)
				return false
			}
		}
		l.commands.Add(1)
		closeConn, serr := s.serveCommand(w, cmd, c.sess)
		if serr != nil {
			l.closeConn(c, serr)
			return false
		}
		if closeConn {
			// Fault reset: reply unwritten, pending output discarded.
			c.out = nil
			l.closeConn(c, nil)
			return false
		}
	}
	if w.Buffered() > 0 {
		l.flushes.Add(1)
		if err := w.Flush(); err != nil {
			l.closeConn(c, err)
			return false
		}
	}
	if quit {
		if len(c.out) == 0 {
			l.closeConn(c, nil)
			return false
		}
		c.closeAfterFlush = true
	}
	return true
}

// flushOut pushes pending reply bytes when the socket signals writable,
// disarming EPOLLOUT once drained.
func (l *evLoop) flushOut(c *evConn) {
	for len(c.out) > 0 {
		n, err := syscall.Write(int(c.fd), c.out)
		if n > 0 {
			c.out = c.out[n:]
		}
		if err != nil {
			if err == syscall.EAGAIN {
				return
			}
			if err == syscall.EINTR {
				continue
			}
			l.closeConn(c, fmt.Errorf("write: %w", err))
			return
		}
		if n == 0 {
			return
		}
	}
	c.out = nil // release capacity; idle conns hold no reply buffer
	c.setWritable(false)
	if c.closeAfterFlush {
		l.closeConn(c, nil)
	}
}

// evConn is one connection owned by an event loop. The zero-ish state
// right after attach (no sess, no parser, no out buffer) is the idle
// footprint; everything else arrives with the first byte.
type evConn struct {
	loop *evLoop
	fd   int32
	conn net.Conn
	id   uint64

	sess *connSession
	sp   *protocol.StreamParser
	// out holds reply bytes the socket would not accept; EPOLLOUT stays
	// armed while it is non-empty.
	out             []byte
	wantW           bool
	closeAfterFlush bool
	closed          bool
	werr            error
	lastActive      int64 // UnixNano of last readiness
}

// Write is the sink under the loop's reply writer: it tries the socket
// directly when nothing is queued (the common case — one syscall per
// batch) and spills the remainder to the out buffer otherwise.
func (c *evConn) Write(p []byte) (int, error) {
	if c.werr != nil {
		return 0, c.werr
	}
	total := len(p)
	if len(c.out) == 0 {
		for len(p) > 0 {
			n, err := syscall.Write(int(c.fd), p)
			if n > 0 {
				p = p[n:]
			}
			if err != nil {
				if err == syscall.EAGAIN {
					break
				}
				if err == syscall.EINTR {
					continue
				}
				c.werr = fmt.Errorf("write: %w", err)
				return total - len(p), c.werr
			}
			if n == 0 {
				break
			}
		}
		if len(p) == 0 {
			return total, nil
		}
	}
	if len(c.out)+len(p) > maxPendingOut {
		c.werr = fmt.Errorf("write: %d pending reply bytes, client not draining", len(c.out)+len(p))
		return total - len(p), c.werr
	}
	c.out = append(c.out, p...)
	c.setWritable(true)
	return total, nil
}

// setWritable arms or disarms EPOLLOUT for the connection.
func (c *evConn) setWritable(on bool) {
	if c.wantW == on {
		return
	}
	c.wantW = on
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: c.fd}
	if on {
		ev.Events |= syscall.EPOLLOUT
	}
	_ = syscall.EpollCtl(c.loop.epfd, syscall.EPOLL_CTL_MOD, int(c.fd), &ev)
}
