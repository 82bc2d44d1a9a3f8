package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"time"

	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/sketch"
	"memqlat/internal/telemetry"
)

// connState is the per-connection reusable scratch the dispatch path
// appends into, so steady-state gets allocate nothing.
type connState struct {
	val []byte // GetInto destination; grows to the largest value seen
	// trace is the pending mq_trace header: it scopes the next command
	// on the connection, then resets.
	trace otrace.Ctx
}

// connSession bundles the per-connection dispatch state both cores
// thread through serveCommand: telemetry handle, latency stripe,
// service-time shaper and reusable scratch.
type connSession struct {
	st connState
	// rec/lat: connections mapped to different stripes never serialize
	// on observability.
	rec telemetry.Recorder
	lat *sketch.Stripe
	// shaper draws exponential service times when ServiceRate > 0.
	shaper *rand.Rand
	// blackhole is the lazily built reply sink for Drop faults.
	blackhole *protocol.Writer
}

// newSession builds the dispatch state for connection id.
func (s *Server) newSession(id uint64) *connSession {
	cs := &connSession{
		rec: telemetry.Shard(s.rec, id),
		lat: s.latency.Stripe(id),
	}
	if s.opts.ServiceRate > 0 {
		cs.shaper = dist.SubRand(s.opts.Seed, id)
	}
	return cs
}

// serveCommand runs one parsed command through the full service path —
// counters, trace propagation, fault injection, the shaped service
// channel, dispatch and timing — identically on both connection cores.
// closeConn asks the caller to tear the connection down with the reply
// unwritten (fault reset/refuse); err reports a write failure.
func (s *Server) serveCommand(w *protocol.Writer, cmd *protocol.Command, cs *connSession) (closeConn bool, err error) {
	s.cmdCount.Add(1)
	if cmd.Op >= 0 && int(cmd.Op) < len(s.opCounts) {
		s.opCounts[cmd.Op].Add(1)
	}
	if cmd.Op == protocol.OpTrace {
		// Trace header: stash the context for the next command. No
		// reply, no fault evaluation — it is metadata, not work.
		cs.st.trace = otrace.Ctx{Trace: cmd.CAS, Span: cmd.Delta}
		return false, nil
	}
	// A pending trace header upgrades the command to traced: spans
	// are recorded against the tracer's run clock.
	var srvSpan otrace.Span
	if tc := cs.st.trace; tc.Valid() {
		cs.st.trace = otrace.Ctx{}
		if tr := s.opts.Tracer; tr.Enabled() {
			srvSpan = tr.Begin(tc, "server", "handle", s.opts.ID)
		}
	}
	// Every command is timed into the latency sketch and the service
	// stage, so stage totals count every command served.
	began := time.Now()
	var (
		act    fault.Action
		waited time.Duration
	)
	if cs.shaper != nil {
		// The station takes the verdict when it starts the command, as
		// the simulators' fifo does, and a served verdict's delay holds
		// it as service: the fault.Action law.
		v, _ := s.station.ArriveFunc(time.Now(), func(start time.Time) time.Duration {
			if act = s.opts.Fault.EvalAt(start); act.Refused() {
				return 0
			}
			return time.Duration((cs.shaper.ExpFloat64()/s.opts.ServiceRate + act.Work()) * float64(time.Second))
		})
		_ = s.station.Wait(context.Background(), v) // nothing closes the station
		// Time until the station starts serving the command is the
		// live server's queueing delay (the W of GI^X/M/1).
		waited = v.Start.Sub(began)
	} else if act = s.opts.Fault.Eval(); act.Work() > 0 {
		time.Sleep(time.Duration(act.Work() * float64(time.Second)))
	}
	if act.Refused() {
		// Tear the connection down mid-operation, reply unwritten.
		s.opts.Tracer.End(srvSpan)
		return true, nil
	}
	if cs.shaper != nil {
		cs.rec.Observe(telemetry.StageQueueWait, waited.Seconds())
	}
	out := w
	if act.Lost() {
		// The server does the work but the reply is lost: the client
		// is left waiting for its op timeout.
		if cs.blackhole == nil {
			cs.blackhole = protocol.NewWriter(io.Discard)
		}
		out = cs.blackhole
	}
	if err := s.dispatch(out, cmd, cs); err != nil {
		s.opts.Tracer.End(srvSpan)
		return false, err
	}
	total := time.Since(began)
	cs.lat.Record(total.Seconds())
	cs.rec.Observe(telemetry.StageService, (total - waited).Seconds())
	if srvSpan.ID != 0 {
		// A traced command doubles as the stage histograms' exemplar:
		// the freshest observation a scrape can link back to a trace.
		if ex := s.opts.Exemplars; ex != nil {
			unix := float64(time.Now().UnixNano()) / 1e9
			if waited > 0 {
				ex.Record(telemetry.StageQueueWait, srvSpan.Trace, waited.Seconds(), unix)
			}
			ex.Record(telemetry.StageService, srvSpan.Trace, (total - waited).Seconds(), unix)
		}
		tr := s.opts.Tracer
		// Child spans mirror the queue_wait/service telemetry
		// split inside the handle span's window.
		if waited > 0 {
			tr.Emit(otrace.Span{
				Trace: srvSpan.Trace, ID: tr.NewID(), Parent: srvSpan.ID,
				Comp: "server", Name: "queue_wait", Server: s.opts.ID,
				Start: srvSpan.Start, Dur: waited.Seconds(),
			})
		}
		tr.Emit(otrace.Span{
			Trace: srvSpan.Trace, ID: tr.NewID(), Parent: srvSpan.ID,
			Comp: "server", Name: "service", Server: s.opts.ID,
			Start: srvSpan.Start + waited.Seconds(), Dur: (total - waited).Seconds(),
		})
		tr.End(srvSpan)
	}
	return false, nil
}

// goroutineCore is the legacy connection core: each attached connection
// gets its own goroutine running a blocking read loop. Simple, fair,
// and exactly the configuration the paper reproduction measures — but a
// 100k-connection fan-in pays 100k goroutine stacks.
type goroutineCore struct {
	s *Server
}

func (c *goroutineCore) attach(conn net.Conn, id uint64) bool {
	s := c.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			s.currConns.Add(-1)
			_ = conn.Close()
		}()
		if err := s.handleConn(conn, id); err != nil && !errors.Is(err, net.ErrClosed) {
			s.logger.Printf("server: conn %d: %v", id, err)
		}
	}()
	return true
}

// shutdown is a no-op: Server.Close closes the conns map entries, which
// unblocks every handler goroutine, and s.wg waits for them.
func (c *goroutineCore) shutdown() {}

func (c *goroutineCore) loopStats() []LoopStat { return nil }

// handleConn runs the request loop for one connection.
func (s *Server) handleConn(conn net.Conn, id uint64) error {
	w := protocol.NewWriter(conn)
	p := protocol.NewParser(conn)
	cs := s.newSession(id)
	var idle protocol.Deadline
	for {
		if s.opts.IdleTimeout > 0 {
			if err := idle.Arm(conn.SetReadDeadline, time.Now(), s.opts.IdleTimeout); err != nil {
				return fmt.Errorf("set idle deadline: %w", err)
			}
		}
		cmd, err := p.Next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Idle connection: close it quietly.
				_ = w.Flush()
				return nil
			}
			switch {
			case errors.Is(err, protocol.ErrQuit):
				return w.Flush()
			case protocol.IsRecoverable(err):
				if werr := w.ClientErrorf("%v", err); werr != nil {
					return werr
				}
				if werr := w.Flush(); werr != nil {
					return werr
				}
				continue
			default:
				_ = w.Flush()
				return protocol.EOFOrNil(err)
			}
		}
		closeConn, err := s.serveCommand(w, cmd, cs)
		if err != nil {
			return err
		}
		if closeConn {
			return nil
		}
		// Flush when the pipeline is drained (no buffered next command).
		if p.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
}
