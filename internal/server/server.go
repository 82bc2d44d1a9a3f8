// Package server hosts the cache behind the memcached text protocol
// over TCP: accept loop, one goroutine per connection, pipelining-aware
// buffered I/O, graceful shutdown, connection limits and a stats
// surface. An optional service-time shaper reproduces the paper's
// exponential per-key service model (rate µ_S) so that live runs
// exercise the same dynamics the theory describes.
package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/extstore"
	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/queueing"
	"memqlat/internal/sketch"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// Version is reported by the version command.
const Version = "memqlat-0.9"

// thirtyDays is memcached's threshold separating relative exptimes from
// absolute unix timestamps.
const thirtyDays = 60 * 60 * 24 * 30

// Options configures a Server.
type Options struct {
	// Cache is the backing store (required).
	Cache *cache.Cache
	// MaxConns caps concurrent connections (default 1024).
	MaxConns int
	// ServiceRate, when positive, delays every command by an
	// exponential draw of mean 1/ServiceRate, emulating a Memcached
	// server with service rate µ_S (paper §5.1 measures 80 Kps).
	ServiceRate float64
	// Seed feeds the service-time shaper.
	Seed uint64
	// Logger receives connection-level errors (default log.Default()).
	Logger *log.Logger
	// IdleTimeout closes connections that send no command for this
	// long, or at most 9/8 of it on the goroutine core (0 = never).
	IdleTimeout time.Duration
	// Recorder, when set, additionally receives the server's per-stage
	// observations (queue wait on the service channel, service time) —
	// the live plane threads one harness-wide collector through here.
	// The server always keeps its own collector for "stats telemetry".
	Recorder telemetry.Recorder
	// Fault, when set, is this server's handle into the shared fault
	// injector: refuse windows reject connections at accept, and every
	// command is run through the injector (slow/stall delays, dropped
	// replies, connection resets). Nil = healthy.
	Fault *fault.Point
	// Tracer, when set, records request-scoped spans for commands whose
	// connection sent an mq_trace header. Nil (the default) disables
	// tracing; the per-command cost is then a single branch.
	Tracer *otrace.Tracer
	// Exemplars, when set alongside Tracer, retains each stage's most
	// recent traced observation so /metrics can attach OpenMetrics
	// exemplars (trace_id) to the stage histogram buckets. Nil (the
	// default) records nothing; untraced commands never touch it.
	Exemplars *telemetry.ExemplarStore
	// ID labels this server's spans when a cluster shares one Tracer
	// (the live plane numbers servers as the model does).
	ID int
	// ConnCore selects the connection-handling core: CoreGoroutines
	// (default, one goroutine per connection — the paper-repro
	// configuration and the only core the binaries run) or CoreEventLoop
	// (GOMAXPROCS epoll loops multiplexing every connection; Linux only).
	// Empty means CoreGoroutines. CoreEventLoop is kept for bench/'s
	// get_eventloop workload until a benchmark change retires it and the
	// event-loop core is deleted (ROADMAP item 5).
	ConnCore string
	// Extstore, when set, adds a log-structured SSD tier behind the RAM
	// cache: eviction victims are appended to it asynchronously (the server
	// installs the cache's OnEvict hook), a RAM miss consults it, disk
	// hits are re-promoted into RAM with their remaining TTL, and every
	// mutation drops the key's disk record. The server does not own the
	// store's lifecycle — the caller opens and closes it. Nil keeps the
	// RAM-only configuration: the miss path pays one nil check.
	Extstore *extstore.Store
}

// Server is a memcached-protocol TCP server.
type Server struct {
	opts   Options
	logger *log.Logger

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	totalConns   atomic.Int64
	currConns    atomic.Int64
	rejectedConn atomic.Int64
	cmdCount     atomic.Int64
	opCounts     [protocol.OpTrace + 1]atomic.Int64
	startTime    time.Time

	// telem aggregates the per-stage decomposition served by "stats
	// telemetry"; rec tees it with the Options.Recorder (if any).
	telem *telemetry.Collector
	rec   telemetry.Recorder

	// station is the one service channel of a shaped server: every
	// connection's commands queue on it FIFO, so the server behaves as
	// ONE queueing server (the paper's single GI^X/M/1 service channel),
	// not one per connection.
	station queueing.Station

	// latency tracks per-command handling time, served by "stats
	// latency" (a memqlat observability extension). Each connection
	// records through its own stripe, so per-command timing never
	// serializes the connections against each other.
	latency *sketch.Sketch

	// core owns connection handling after accept: either one goroutine
	// per connection or the shared event loop (see core.go).
	core connCore

	// diskHits/promotions count RAM misses the extstore tier absorbed
	// and how many of those were stored back into the RAM tier.
	diskHits   atomic.Int64
	promotions atomic.Int64
}

type statRow struct{ k, v string }

// latencyRows renders the merged per-command latency histogram as the
// "stats latency" rows.
func (s *Server) latencyRows() []statRow {
	merged := s.latency.Snapshot()
	if merged.Count() == 0 {
		return []statRow{{"latency:count", "0"}}
	}
	rows := []statRow{
		{"latency:count", fmt.Sprintf("%d", merged.Count())},
		{"latency:mean_us", fmt.Sprintf("%.1f", merged.Mean()*1e6)},
	}
	for _, q := range []struct {
		name  string
		level float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999}} {
		rows = append(rows, statRow{
			"latency:" + q.name + "_us",
			fmt.Sprintf("%.1f", merged.MustQuantile(q.level)*1e6),
		})
	}
	return rows
}

// New validates options and constructs a Server.
func New(opts Options) (*Server, error) {
	if opts.Cache == nil {
		return nil, errors.New("server: Cache is required")
	}
	if opts.MaxConns == 0 {
		opts.MaxConns = 1024
	}
	if opts.MaxConns < 0 {
		return nil, fmt.Errorf("server: MaxConns=%d must be positive", opts.MaxConns)
	}
	if opts.ServiceRate < 0 {
		return nil, fmt.Errorf("server: ServiceRate=%v must be >= 0", opts.ServiceRate)
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.Default()
	}
	telem := telemetry.NewCollector()
	// New cannot fail: Options has nothing to reject.
	latency, _ := sketch.New(sketch.Options{})
	s := &Server{
		opts:      opts,
		logger:    logger,
		conns:     make(map[net.Conn]struct{}),
		startTime: time.Now(),
		telem:     telem,
		rec:       telemetry.Tee(telem, opts.Recorder),
		latency:   latency,
	}
	// Shard-lock contention in the cache surfaces as the lock_wait
	// telemetry stage; the TryLock fast path records nothing when
	// uncontended, so healthy runs keep the stage zero-elided.
	opts.Cache.OnLockWait(func(seconds float64) {
		s.rec.Observe(telemetry.StageLockWait, seconds)
	})
	if ext := opts.Extstore; ext != nil {
		// Eviction victims feed the disk tier. PutAsync never blocks (the
		// hook runs under the cache shard lock): a full queue sheds the
		// write, which the tier's drop counter records.
		opts.Cache.OnEvict(func(key string, value string, flags uint32, expires time.Time) {
			ext.PutAsync(key, value, flags, expires)
		})
	}
	switch opts.ConnCore {
	case "", CoreGoroutines:
		s.opts.ConnCore = CoreGoroutines
		s.core = &goroutineCore{s: s}
	case CoreEventLoop:
		core, err := newEventLoopCore(s)
		if err != nil {
			return nil, err
		}
		s.core = core
	default:
		return nil, fmt.Errorf("server: unknown ConnCore %q (want %q or %q)",
			opts.ConnCore, CoreGoroutines, CoreEventLoop)
	}
	return s, nil
}

// Serve accepts connections on l until Close. It returns nil after a
// clean shutdown, and an error only when l is closed under it; any other
// failed accept counts as a rejected connection and is retried after a
// backoff.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.listener = l
	s.mu.Unlock()

	var connID uint64
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return fmt.Errorf("server: accept: %w", err)
			}
			// EMFILE at a connection peak, a connection reset before
			// accept: the listener still works, so back off (5 ms,
			// doubling up to 1 s) and go on.
			s.rejectedConn.Add(1)
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.logger.Printf("server: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if s.currConns.Load() >= int64(s.opts.MaxConns) {
			s.rejectedConn.Add(1)
			_ = conn.Close()
			continue
		}
		if p := s.opts.Fault; p != nil && p.Inj != nil && p.Now != nil &&
			p.Inj.RefusedAt(p.Server, p.Now()) {
			s.rejectedConn.Add(1)
			_ = conn.Close()
			continue
		}
		s.totalConns.Add(1)
		s.currConns.Add(1)
		connID++
		if !s.core.attach(conn, connID) {
			// The server closed while this connection was being accepted.
			s.totalConns.Add(-1)
			s.currConns.Add(-1)
			_ = conn.Close()
			return nil
		}
	}
}

// Addr returns the bound address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close stops accepting, closes all connections and waits for handler
// goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	if s.core != nil {
		s.core.shutdown()
	}
	s.wg.Wait()
	return err
}

// ttlFromExptime applies memcached exptime semantics: 0 = never,
// negative = immediately expired, <= 30 days = relative seconds,
// > 30 days = absolute unix timestamp. Only that last form needs the
// clock, so now is called there and nowhere else.
func ttlFromExptime(exptime int64, now func() time.Time) time.Duration {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return -time.Second
	case exptime <= thirtyDays:
		return time.Duration(exptime) * time.Second
	default:
		d := time.Unix(exptime, 0).Sub(now())
		if d <= 0 {
			return -time.Second
		}
		return d
	}
}

// reply writes a one-line response unless the command asked noreply.
func reply(w *protocol.Writer, cmd *protocol.Command, line string) error {
	if cmd.Noreply {
		return nil
	}
	return w.Line(line)
}

// storeModes maps each storage verb to its cache precondition.
var storeModes = [...]cache.StoreMode{
	protocol.OpSet:     cache.ModeSet,
	protocol.OpAdd:     cache.ModeAdd,
	protocol.OpReplace: cache.ModeReplace,
	protocol.OpAppend:  cache.ModeAppend,
	protocol.OpPrepend: cache.ModePrepend,
	protocol.OpCas:     cache.ModeCAS,
}

func (s *Server) dispatch(w *protocol.Writer, cmd *protocol.Command, cs *connSession) error {
	c := s.opts.Cache
	st := &cs.st
	// ttl is the expiry of the verbs that carry one (storage, touch, gat).
	ttl := ttlFromExptime(cmd.Exptime, time.Now)
	switch cmd.Op {
	case protocol.OpGet, protocol.OpGets:
		// The zero-alloc path: keys alias the parser's buffers, values
		// are copied into the connection's reusable scratch under the
		// shard lock, and the response header is built in place in the
		// reply writer's buffer.
		withCAS := cmd.Op == protocol.OpGets
		for _, key := range cmd.KeyList {
			v, flags, cas, err := c.GetInto(key, st.val[:0])
			if err != nil {
				dv, dflags, ok := s.diskFill(key, cs)
				if !ok {
					continue // missing keys are silently omitted
				}
				// The re-promoted RAM copy carries a fresh CAS this
				// reply never saw, so the disk hit is served without one.
				if err := w.ValueBytes(key, dflags, 0, dv, withCAS); err != nil {
					return err
				}
				continue
			}
			st.val = v
			if err := w.ValueBytes(key, flags, cas, v, withCAS); err != nil {
				return err
			}
		}
		return w.End()

	case protocol.OpSet, protocol.OpAdd, protocol.OpReplace,
		protocol.OpAppend, protocol.OpPrepend, protocol.OpCas:
		mode := storeModes[cmd.Op]
		err := s.tiered(cmd.Op, cmd.KeyB, cs, func() error {
			return c.Store(mode, cmd.KeyB, cmd.Value, cmd.Flags, ttl, cmd.CAS)
		})
		return keyedReply(w, cmd, err, protocol.RespStored)

	case protocol.OpDelete:
		err := c.Delete(cmd.KeyB)
		// The disk record goes whether or not RAM held the key —
		// otherwise the next get would resurrect it — and a key that
		// lived on disk only was still deleted.
		if ext := s.opts.Extstore; ext != nil && ext.Delete(cmd.KeyB) && errors.Is(err, cache.ErrNotFound) {
			err = nil
		}
		return keyedReply(w, cmd, err, protocol.RespDeleted)

	case protocol.OpIncr, protocol.OpDecr:
		delta := int64(cmd.Delta)
		if cmd.Op == protocol.OpDecr {
			delta = -delta
		}
		var n uint64
		err := s.tiered(cmd.Op, cmd.KeyB, cs, func() (err error) {
			n, err = c.IncrDecr(cmd.KeyB, delta)
			return err
		})
		if err == nil && !cmd.Noreply {
			return w.Number(n)
		}
		return keyedReply(w, cmd, err, "")

	case protocol.OpTouch:
		err := s.tiered(cmd.Op, cmd.KeyB, cs, func() error { return c.Touch(cmd.KeyB, ttl) })
		return keyedReply(w, cmd, err, protocol.RespTouched)

	case protocol.OpGat, protocol.OpGats:
		withCAS := cmd.Op == protocol.OpGats
		for _, key := range cmd.KeyList {
			var v []byte
			var flags uint32
			var cas uint64
			err := s.tiered(cmd.Op, key, cs, func() (err error) {
				v, flags, cas, err = c.GetAndTouch(key, ttl, st.val[:0])
				return err
			})
			if err != nil {
				continue
			}
			st.val = v
			if err := w.ValueBytes(key, flags, cas, v, withCAS); err != nil {
				return err
			}
		}
		return w.End()

	case protocol.OpStats:
		return s.writeStats(w, cmd.KeyB)

	case protocol.OpFlushAll:
		c.FlushAll()
		if ext := s.opts.Extstore; ext != nil {
			// Both tiers flush: a disk record surviving flush_all would
			// resurrect on the next miss.
			_ = ext.FlushAll()
		}
		return reply(w, cmd, protocol.RespOK)

	case protocol.OpVersion:
		return w.Version(Version)

	case protocol.OpVerbosity:
		return reply(w, cmd, protocol.RespOK)

	default:
		return w.Line(protocol.RespError)
	}
}

// diskFill serves one key that missed RAM from the extstore tier (a
// plain miss without one): a timed segment read (the disk_read
// telemetry stage) followed by re-promotion into the RAM tier under the
// record's remaining TTL, so the next read of a hot key is a RAM hit
// again. The value lands in the connection scratch like a RAM hit; a
// steady-state disk hit allocates nothing once the scratch has grown.
func (s *Server) diskFill(key []byte, cs *connSession) ([]byte, uint32, bool) {
	if s.opts.Extstore == nil {
		return nil, 0, false
	}
	began := time.Now()
	v, flags, expires, err := s.opts.Extstore.Lookup(key, cs.st.val[:0])
	if err != nil {
		return nil, 0, false
	}
	cs.rec.Observe(telemetry.StageDiskRead, time.Since(began).Seconds())
	s.diskHits.Add(1)
	cs.st.val = v
	var ttl time.Duration
	if !expires.IsZero() {
		// Lookup only returns unexpired records, so the remaining TTL is
		// positive barring a clock race (which stores it pre-expired —
		// harmless).
		ttl = time.Until(expires)
	}
	// SetBytes copies key and value; the disk record stays indexed and
	// is simply shadowed by the RAM copy until the next eviction
	// supersedes it.
	if s.opts.Cache.SetBytes(key, v, flags, ttl) == nil {
		s.promotions.Add(1)
	}
	return v, flags, true
}

// tiered runs one keyed verb against RAM and the disk tier as one cache.
// A verb that needs the key present and missed RAM runs once more after
// diskFill has promoted the disk record; add promotes before its one
// run instead, because what fails it is presence, and only a key RAM
// lacks: a key get has already promoted is on both tiers, and promoting
// it again would overwrite the live copy. The promoted copy owns
// a fresh CAS, so a cas of a disk-resident key answers EXISTS (its token
// is out of date), not NOT_FOUND. A verb that succeeds drops the disk
// record, so a stale copy cannot outlive it; one that failed leaves both
// tiers as they were. Without a disk tier the verb just runs.
func (s *Server) tiered(op protocol.Op, key []byte, cs *connSession, run func() error) error {
	ext := s.opts.Extstore
	if ext == nil {
		return run()
	}
	if op == protocol.OpAdd && !s.opts.Cache.Contains(key) {
		s.diskFill(key, cs)
	}
	err := run()
	if op != protocol.OpAdd && (errors.Is(err, cache.ErrNotFound) || errors.Is(err, cache.ErrNotStored)) {
		if _, _, ok := s.diskFill(key, cs); ok {
			err = run()
		}
	}
	if err == nil {
		ext.Delete(key)
	}
	return err
}

// keyedReply answers a keyed verb: ok on success, otherwise the
// protocol's line for the cache error. Validation failures are
// CLIENT_ERRORs.
func keyedReply(w *protocol.Writer, cmd *protocol.Command, err error, ok string) error {
	if cmd.Noreply {
		return nil
	}
	switch {
	case err == nil:
		return w.Line(ok)
	case errors.Is(err, cache.ErrNotStored):
		return w.Line(protocol.RespNotStored)
	case errors.Is(err, cache.ErrExists):
		return w.Line(protocol.RespExists)
	case errors.Is(err, cache.ErrNotFound):
		return w.Line(protocol.RespNotFound)
	case errors.Is(err, cache.ErrNotNumeric):
		return w.ClientErrorf("cannot increment or decrement non-numeric value")
	case errors.Is(err, cache.ErrKeyInvalid), errors.Is(err, cache.ErrValueTooLarge):
		return w.ClientErrorf("%v", err)
	default:
		return w.ServerErrorf("%v", err)
	}
}

func (s *Server) writeStats(w *protocol.Writer, section []byte) error {
	switch string(section) {
	case "items", "slabs":
		// Per-size-class accounting, in the spirit of memcached's
		// "stats items"/"stats slabs" output.
		for i, sc := range s.opts.Cache.SlabClasses() {
			cls := i + 1
			if err := w.Stat(fmt.Sprintf("items:%d:chunk_size", cls),
				fmt.Sprintf("%d", sc.ChunkSize)); err != nil {
				return err
			}
			if err := w.Stat(fmt.Sprintf("items:%d:number", cls),
				fmt.Sprintf("%d", sc.Items)); err != nil {
				return err
			}
			if err := w.Stat(fmt.Sprintf("items:%d:bytes", cls),
				fmt.Sprintf("%d", sc.Bytes)); err != nil {
				return err
			}
		}
		return w.End()
	case "latency":
		// memqlat extension: server-side per-command latency quantiles.
		for _, row := range s.latencyRows() {
			if err := w.Stat(row.k, row.v); err != nil {
				return err
			}
		}
		return w.End()
	case "commands":
		// memqlat extension: per-command counters, one row per
		// protocol op the server has dispatched.
		for op := protocol.OpGet; op <= protocol.OpTrace; op++ {
			if err := w.Stat("cmd_"+op.String(),
				fmt.Sprintf("%d", s.opCounts[op].Load())); err != nil {
				return err
			}
		}
		return w.End()
	case "telemetry":
		// memqlat extension: the per-stage latency decomposition the
		// evaluation planes diff (queue wait / service; the miss
		// penalty and fork-join stages live in the backend and load
		// generator, so they read 0 here).
		b := s.telem.Breakdown()
		for _, stage := range telemetry.Stages() {
			st := b[stage]
			name := stage.String()
			rows := []statRow{
				{name + ":count", fmt.Sprintf("%d", st.Count)},
				{name + ":mean_us", fmt.Sprintf("%.1f", st.Mean*1e6)},
				{name + ":p50_us", fmt.Sprintf("%.1f", st.P50*1e6)},
				{name + ":p95_us", fmt.Sprintf("%.1f", st.P95*1e6)},
				{name + ":p99_us", fmt.Sprintf("%.1f", st.P99*1e6)},
			}
			for _, row := range rows {
				if err := w.Stat(row.k, row.v); err != nil {
					return err
				}
			}
		}
		return w.End()
	case "":
		// fall through to the general table below
	default:
		return w.ClientErrorf("unknown stats section %q", section)
	}
	for _, row := range s.generalRows() {
		if err := w.Stat(row.k, row.v); err != nil {
			return err
		}
	}
	return w.End()
}

// generalRows is the general "stats" table, in the order it is written.
func (s *Server) generalRows() []statRow {
	st := s.opts.Cache.Stats()
	rows := []statRow{
		{"version", Version},
		{"conn_core", s.opts.ConnCore},
		{"uptime", fmt.Sprintf("%d", int64(time.Since(s.startTime).Seconds()))},
		{"curr_connections", fmt.Sprintf("%d", s.currConns.Load())},
		{"total_connections", fmt.Sprintf("%d", s.totalConns.Load())},
		{"rejected_connections", fmt.Sprintf("%d", s.rejectedConn.Load())},
		{"cmd_total", fmt.Sprintf("%d", s.cmdCount.Load())},
		{"curr_items", fmt.Sprintf("%d", st.Items)},
		{"bytes", fmt.Sprintf("%d", st.Bytes)},
		{"limit_maxbytes", fmt.Sprintf("%d", st.MaxBytes)},
		{"cmd_get", fmt.Sprintf("%d", st.Gets)},
		{"cmd_set", fmt.Sprintf("%d", st.Sets)},
		{"get_hits", fmt.Sprintf("%d", st.Hits)},
		{"get_misses", fmt.Sprintf("%d", st.Misses)},
		{"evictions", fmt.Sprintf("%d", st.Evictions)},
		{"expired_unfetched", fmt.Sprintf("%d", st.Expirations)},
	}
	if ext := s.opts.Extstore; ext != nil {
		es := ext.Stats()
		rows = append(rows,
			statRow{"extstore_disk_hits", fmt.Sprintf("%d", s.diskHits.Load())},
			statRow{"extstore_promotions", fmt.Sprintf("%d", s.promotions.Load())},
			statRow{"extstore_keys", fmt.Sprintf("%d", es.Keys)},
			statRow{"extstore_segments", fmt.Sprintf("%d", es.Segments)},
			statRow{"extstore_segment_bytes", fmt.Sprintf("%d", es.SegmentBytes)},
			statRow{"extstore_dead_bytes", fmt.Sprintf("%d", es.DeadBytes)},
			statRow{"extstore_puts", fmt.Sprintf("%d", es.Puts)},
			statRow{"extstore_drops", fmt.Sprintf("%d", es.Drops)},
			statRow{"extstore_compactions", fmt.Sprintf("%d", es.Compactions)},
			statRow{"extstore_relocated", fmt.Sprintf("%d", es.Relocated)})
	}
	return rows
}

// --- observability accessors -----------------------------------------
// The metrics registry scrapes these instead of round-tripping "stats"
// over the wire; they snapshot the same counters the protocol surface
// reports.

// Counters is a snapshot of the server's connection/command counters.
type Counters struct {
	CurrConns     int64
	TotalConns    int64
	RejectedConns int64
	Commands      int64
}

// Counters snapshots the connection and command counters.
func (s *Server) Counters() Counters {
	return Counters{
		CurrConns:     s.currConns.Load(),
		TotalConns:    s.totalConns.Load(),
		RejectedConns: s.rejectedConn.Load(),
		Commands:      s.cmdCount.Load(),
	}
}

// OpCount reports how many commands of op the server dispatched.
func (s *Server) OpCount(op protocol.Op) int64 {
	if op < 0 || int(op) >= len(s.opCounts) {
		return 0
	}
	return s.opCounts[op].Load()
}

// Telemetry exposes the server's own per-stage collector (the one
// "stats telemetry" prints).
func (s *Server) Telemetry() *telemetry.Collector { return s.telem }

// LoopStats snapshots the event-loop core's per-loop gauges (bench/'s
// server.loop_* rows). It returns nil on the goroutine core, which has
// no loops to report.
func (s *Server) LoopStats() []LoopStat { return s.core.loopStats() }

// Cache exposes the backing store for occupancy metrics.
func (s *Server) Cache() *cache.Cache { return s.opts.Cache }

// Stats returns the general "stats" table by row name: the rows the
// wire carries, read without crossing it.
func (s *Server) Stats() map[string]string {
	rows := s.generalRows()
	m := make(map[string]string, len(rows))
	for _, row := range rows {
		m[row.k] = row.v
	}
	return m
}

// LatencyHistogram snapshots the merged per-command latency histogram
// behind "stats latency". The copy is private to the caller.
func (s *Server) LatencyHistogram() *stats.Histogram { return s.latency.Snapshot() }
