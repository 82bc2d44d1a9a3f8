package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memqlat/internal/coalesce"
	"memqlat/internal/dist"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/route"
	"memqlat/internal/telemetry"
)

// Common errors.
var (
	// ErrCacheMiss: the key was not in the cache.
	ErrCacheMiss = errors.New("client: cache miss")
	// ErrNotStored: a conditional store's precondition failed.
	ErrNotStored = errors.New("client: not stored")
	// ErrCASConflict: a CompareAndSwap lost the race.
	ErrCASConflict = errors.New("client: cas conflict")
	// ErrClosed: the client was closed.
	ErrClosed = errors.New("client: closed")
	// ErrBreakerOpen: the server's circuit breaker is shedding load.
	ErrBreakerOpen = errors.New("client: circuit breaker open")
)

// thirtyDays is memcached's threshold separating relative exptimes from
// absolute unix timestamps.
const thirtyDays = 60 * 60 * 24 * 30

// Item is a cached value.
type Item struct {
	Key   string
	Value []byte
	Flags uint32
	CAS   uint64
}

// Filler fetches a missed key from the store of record (the back-end
// database): the cache-miss relay path of the paper's model.
type Filler interface {
	Get(ctx context.Context, key string) ([]byte, error)
}

// Options configures a Client.
type Options struct {
	// Servers lists memcached server addresses (required).
	Servers []string
	// Selector maps keys to servers (default: ketama ring).
	Selector Selector
	// PoolSize caps idle connections per server (default 4).
	PoolSize int
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds one round trip (default 2s).
	OpTimeout time.Duration
	// MaxConnIdle drops pooled connections idle longer than this at
	// acquire time, so a connection parked across a server restart is
	// screened instead of poisoning the next request (default 2m;
	// negative disables the age check).
	MaxConnIdle time.Duration
	// Filler, when set, is consulted on Get misses via GetThrough and
	// the fetched value is written back to the cache.
	Filler Filler
	// FillTTL is the expiry used for filled values (default 0 = none).
	FillTTL time.Duration
	// Coalesce, when set, collapses concurrent GetThrough misses on the
	// same key into one in-flight Filler fetch (single-flight miss
	// coalescing): the first miss leads the fetch, concurrent misses
	// attach as waiters and share its outcome. Nil keeps the naive
	// one-fetch-per-miss behavior.
	Coalesce *coalesce.Policy
	// Seed seeds the client's jitter RNG (retry backoff) so resilience
	// behavior is reproducible under a run seed. 0 seeds from the wall
	// clock.
	Seed uint64
	// Resilience configures retries, hedged reads and circuit breakers
	// (zero value = all off, the seed behavior).
	Resilience Resilience
	// Recorder, when set, receives the client-side resilience telemetry:
	// StageRetry per backoff wait, StageHedgeWait per fired hedge,
	// StageBreakerShed per shed operation.
	Recorder telemetry.Recorder
	// Tracer, when set, opens a request-scoped span per read (a root
	// span per Get/MultiGet/GetThrough, a child per server RPC) and
	// propagates the context in-band via mq_trace headers so server
	// spans land in the same trace. Nil disables tracing.
	Tracer *otrace.Tracer
}

// Client is a connection-pooled memcached client with an optional
// resilient read path: budget-limited retries, percentile-triggered
// hedged reads, per-server circuit breakers and degraded-mode fork-join
// (MultiGetDegraded).
type Client struct {
	opts     Options
	selector Selector
	rec      telemetry.Recorder
	tracer   *otrace.Tracer // nil = tracing disabled

	retry       *RetryPolicy
	hedge       *HedgePolicy
	breakers    []*route.Breaker // per server; nil when disabled
	retryBudget *tokenBucket
	readLat     *latencyDigest
	coalescer   *coalesce.Group // nil = naive miss path

	jitterMu sync.Mutex
	jitter   func() float64

	dials      []atomic.Int64 // per-server connections dialed
	discards   []atomic.Int64 // per-server connections discarded
	staleDrops []atomic.Int64 // per-server discards by the liveness screen

	mu     sync.Mutex
	pools  []chan *conn
	closed bool
}

// conn is one pooled connection.
type conn struct {
	nc net.Conn
	r  *bufio.Reader
	// buf is the request under construction: the protocol encoders
	// append into it and send writes it out in one call.
	buf []byte
	// idleSince is when the connection was parked in the pool (or
	// dialed); the acquire-time liveness screen keys off it.
	idleSince time.Time
}

// maxRetainedBuf bounds the request buffer a pooled connection keeps, so
// one large value does not pin its size for the connection's lifetime.
const maxRetainedBuf = 64 << 10

// send writes the request framed in cn.buf.
func (cn *conn) send() error {
	_, err := cn.nc.Write(cn.buf)
	if cap(cn.buf) > maxRetainedBuf {
		cn.buf = nil
	}
	return err
}

// lineReply sends the request framed in cn.buf and reads its one-line
// reply. A reply listed in outcomes yields the listed error (nil for
// success); any other line comes back with an "unexpected reply" error,
// for the caller to accept (incr/decr results) or pass up.
func (cn *conn) lineReply(outcomes map[string]error) (string, error) {
	if err := cn.send(); err != nil {
		return "", err
	}
	line, err := protocol.ReadLineReply(cn.r)
	if err != nil {
		return "", err
	}
	if outcome, ok := outcomes[line]; ok {
		return line, outcome
	}
	return line, fmt.Errorf("client: unexpected reply %q", line)
}

// Per-verb reply tables: what each legal one-line reply means.
var (
	storeOutcomes = map[string]error{
		protocol.RespStored:    nil,
		protocol.RespNotStored: ErrNotStored,
		protocol.RespExists:    ErrCASConflict,
		protocol.RespNotFound:  ErrCacheMiss,
	}
	deleteOutcomes = map[string]error{protocol.RespDeleted: nil, protocol.RespNotFound: ErrCacheMiss}
	touchOutcomes  = map[string]error{protocol.RespTouched: nil, protocol.RespNotFound: ErrCacheMiss}
	incrOutcomes   = map[string]error{protocol.RespNotFound: ErrCacheMiss}
	flushOutcomes  = map[string]error{protocol.RespOK: nil}
)

// New validates options and constructs a Client.
func New(opts Options) (*Client, error) {
	if len(opts.Servers) == 0 {
		return nil, errors.New("client: at least one server required")
	}
	if opts.Selector == nil {
		ring, err := NewRingSelector(len(opts.Servers), 0)
		if err != nil {
			return nil, err
		}
		opts.Selector = ring
	}
	if opts.Selector.N() != len(opts.Servers) {
		return nil, fmt.Errorf("client: selector covers %d servers, have %d",
			opts.Selector.N(), len(opts.Servers))
	}
	if opts.PoolSize == 0 {
		opts.PoolSize = 4
	}
	if opts.PoolSize < 0 {
		return nil, fmt.Errorf("client: PoolSize=%d must be positive", opts.PoolSize)
	}
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.OpTimeout == 0 {
		opts.OpTimeout = 2 * time.Second
	}
	if opts.MaxConnIdle == 0 {
		opts.MaxConnIdle = 2 * time.Minute
	}
	c := &Client{
		opts:     opts,
		selector: opts.Selector,
		rec:      telemetry.OrNop(opts.Recorder),
		tracer:   opts.Tracer,
	}
	n := len(opts.Servers)
	c.pools = make([]chan *conn, n)
	for i := range c.pools {
		c.pools[i] = make(chan *conn, opts.PoolSize)
	}
	c.dials = make([]atomic.Int64, n)
	c.discards = make([]atomic.Int64, n)
	c.staleDrops = make([]atomic.Int64, n)
	if p := opts.Resilience.Retry; p != nil {
		c.retry = p.withDefaults()
		c.retryBudget = newTokenBucket(c.retry.BudgetRatio, c.retry.BudgetBurst)
	}
	if p := opts.Resilience.Hedge; p != nil {
		c.hedge = p.withDefaults()
		c.readLat = newLatencyDigest()
	}
	if p := opts.Resilience.Breaker; p != nil {
		pol := *p.WithDefaults()
		c.breakers = make([]*route.Breaker, n)
		for i := range c.breakers {
			c.breakers[i] = route.NewBreaker(pol)
		}
	}
	if p := opts.Coalesce; p != nil {
		pol := *p
		if pol.Recorder == nil {
			pol.Recorder = c.rec
		}
		c.coalescer = coalesce.New(pol)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	rng := dist.SubRand(seed, 0x7e7)
	c.jitter = rng.Float64
	return c, nil
}

// Coalescer exposes the single-flight group behind GetThrough for
// stats and metrics scraping; nil when coalescing is off.
func (c *Client) Coalescer() *coalesce.Group { return c.coalescer }

// jitterFloat draws one uniform jitter value under the client's lock.
func (c *Client) jitterFloat() float64 {
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	return c.jitter()
}

// Close releases all pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, pool := range c.pools {
		for {
			select {
			case cn := <-pool:
				_ = cn.nc.Close()
			default:
				goto next
			}
		}
	next:
	}
	return nil
}

// probeAfterIdle is how long a connection must have been parked before
// the acquire-time screen spends a read-probe syscall on it; fresher
// connections are handed out directly.
const probeAfterIdle = 10 * time.Millisecond

// acquire returns a pooled or fresh connection to server idx. Pooled
// connections are screened for liveness so a server restart does not
// poison the first request issued afterwards.
func (c *Client) acquire(idx int) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	pool := c.pools[idx]
	c.mu.Unlock()
	for {
		select {
		case cn := <-pool:
			if c.connAlive(cn) {
				return cn, nil
			}
			_ = cn.nc.Close()
			c.discards[idx].Add(1)
			c.staleDrops[idx].Add(1)
			continue
		default:
		}
		break
	}
	nc, err := net.DialTimeout("tcp", c.opts.Servers[idx], c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.opts.Servers[idx], err)
	}
	c.dials[idx].Add(1)
	return &conn{
		nc:        nc,
		r:         bufio.NewReader(nc),
		idleSince: time.Now(),
	}, nil
}

// connAlive cheaply screens a pooled connection: connections idle past
// MaxConnIdle are dropped, and ones idle longer than a beat get a
// non-blocking read probe that detects a peer that closed (a server
// restart sends FIN/RST) without consuming stream data. A deadline-based
// probe cannot do this — an already-expired read deadline short-circuits
// before the syscall — so the probe reads the raw fd directly.
func (c *Client) connAlive(cn *conn) bool {
	idle := time.Since(cn.idleSince)
	if c.opts.MaxConnIdle > 0 && idle > c.opts.MaxConnIdle {
		return false
	}
	if idle < probeAfterIdle {
		return true
	}
	if cn.r.Buffered() > 0 {
		// Unsolicited bytes on an idle connection: protocol desync.
		return false
	}
	// The last exchange's deadline is still on the connection, and once
	// it has passed the probe would fail without reaching the socket.
	_ = cn.nc.SetReadDeadline(time.Time{})
	return !connDead(cn.nc)
}

// connDead probes the socket with one non-blocking zero-consumption
// read: EAGAIN means a healthy idle peer, EOF/RST means it is gone, and
// readable bytes mean the stream desynchronized.
func connDead(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return true
	}
	dead := false
	probeErr := raw.Read(func(fd uintptr) bool {
		var buf [1]byte
		n, err := syscall.Read(int(fd), buf[:])
		switch {
		case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
			dead = false
		case err != nil, n == 0:
			dead = true // RST, or orderly EOF
		default:
			dead = true // the peer spoke unprompted
		}
		return true // never block the poller
	})
	return dead || probeErr != nil
}

// release returns a healthy connection to the pool (or closes it when
// the pool is full or the client closed).
func (c *Client) release(idx int, cn *conn, healthy bool) {
	if !healthy {
		_ = cn.nc.Close()
		c.discards[idx].Add(1)
		return
	}
	c.mu.Lock()
	closed := c.closed
	pool := c.pools[idx]
	c.mu.Unlock()
	if closed {
		_ = cn.nc.Close()
		return
	}
	cn.idleSince = time.Now()
	select {
	case pool <- cn:
	default:
		_ = cn.nc.Close()
		c.discards[idx].Add(1)
	}
}

// roundTrip runs fn on a connection to server idx — one attempt, no
// retry. All mutating commands go through here.
func (c *Client) roundTrip(idx int, fn func(*conn) error) error {
	return c.roundTripOnce(idx, fn)
}

// roundTripRead is the idempotent-read path: the same round trip, but
// transport-level failures are retried under the RetryPolicy (capped
// exponential backoff + jitter, spent from the token budget), and a
// success feeds the hedge trigger's latency digest.
func (c *Client) roundTripRead(idx int, fn func(*conn) error) error {
	var began time.Time
	if c.readLat != nil {
		began = time.Now()
	}
	err := c.roundTripOnce(idx, fn)
	for attempt := 2; c.retries(err) && attempt <= c.retry.MaxAttempts && c.retryBudget.take(); attempt++ {
		c.backOff(attempt)
		err = c.roundTripOnce(idx, fn)
	}
	if c.readLat != nil && err == nil {
		c.readLat.add(time.Since(began).Seconds())
	}
	return err
}

// retries reports whether a read that came to err may be re-issued.
func (c *Client) retries(err error) bool {
	return err != nil && c.retry != nil && retryable(err)
}

// backOff sleeps out the RetryPolicy's wait before attempt.
func (c *Client) backOff(attempt int) {
	wait := c.retry.backoff(attempt-1, c.jitterFloat())
	time.Sleep(wait)
	c.rec.Observe(telemetry.StageRetry, wait.Seconds())
}

// retryable reports whether err is a transport-level failure worth
// re-issuing an idempotent read for. Protocol outcomes are answers; a
// shed (breaker open) or closed client will not get better by asking
// again immediately.
func retryable(err error) bool {
	return !isProtocolOutcome(err) &&
		!errors.Is(err, ErrBreakerOpen) &&
		!errors.Is(err, ErrClosed)
}

// roundTripOnce runs fn on a connection with the op deadline applied,
// recycling the connection on success and feeding the server's circuit
// breaker with the outcome.
func (c *Client) roundTripOnce(idx int, fn func(*conn) error) error {
	cn, err := c.checkout(idx)
	if err != nil {
		return err
	}
	if _, err = c.arm(cn); err == nil {
		err = fn(cn)
	}
	c.checkin(idx, cn, err)
	return err
}

// checkout is the first half of a round trip: breaker admission and a
// screened pooled (or fresh) connection. A dial is bounded by DialTimeout
// and by nothing else: the exchange's clock starts once the connection
// is in hand (arm), so a slow dial spends no OpTimeout.
func (c *Client) checkout(idx int) (*conn, error) {
	if br := c.breakerFor(idx); br != nil && !br.Allow(time.Now()) {
		c.rec.Observe(telemetry.StageBreakerShed, 0)
		return nil, fmt.Errorf("client: server %s: %w", c.opts.Servers[idx], ErrBreakerOpen)
	}
	cn, err := c.acquire(idx)
	if err != nil {
		c.recordOutcome(idx, false)
		return nil, err
	}
	return cn, nil
}

// arm starts the clock of an exchange on cn: its deadline is OpTimeout
// from now.
func (c *Client) arm(cn *conn) (deadline time.Time, err error) {
	deadline = time.Now().Add(c.opts.OpTimeout)
	if err := cn.nc.SetDeadline(deadline); err != nil {
		return deadline, fmt.Errorf("client: set deadline: %w", err)
	}
	return deadline, nil
}

// checkin is the second half: err is what the exchange on cn came to.
// Protocol-level outcomes (miss, not-stored, cas conflict, server error
// lines) leave the stream positioned at a command boundary and the
// connection reusable; only transport/parse errors poison it.
func (c *Client) checkin(idx int, cn *conn, err error) {
	ok := err == nil || isProtocolOutcome(err)
	c.release(idx, cn, ok)
	c.recordOutcome(idx, ok)
}

// breakerFor returns server idx's breaker (nil when disabled).
func (c *Client) breakerFor(idx int) *route.Breaker {
	if c.breakers == nil {
		return nil
	}
	return c.breakers[idx]
}

// recordOutcome feeds the breaker and the retry budget.
func (c *Client) recordOutcome(idx int, success bool) {
	if br := c.breakerFor(idx); br != nil {
		br.Record(!success, time.Now())
	}
	if success && c.retryBudget != nil {
		c.retryBudget.earn()
	}
}

// isProtocolOutcome reports whether err is an application-level reply
// rather than a broken connection.
func isProtocolOutcome(err error) bool {
	var se *protocol.ServerError
	return errors.Is(err, ErrCacheMiss) ||
		errors.Is(err, ErrNotStored) ||
		errors.Is(err, ErrCASConflict) ||
		errors.As(err, &se)
}

// pickServer exposes the key-to-server mapping (used by the load
// generator to steer per-server load).
func (c *Client) pickServer(key string) int { return c.selector.Pick(key) }

// ServerFor returns the address that owns key.
func (c *Client) ServerFor(key string) string {
	return c.opts.Servers[c.pickServer(key)]
}

// NumServers reports how many servers the client spreads keys across
// (the per-server metrics and pool-stats index range).
func (c *Client) NumServers() int { return len(c.opts.Servers) }

// BreakerState reports server idx's breaker state ("closed", "open",
// "half-open", or "disabled").
func (c *Client) BreakerState(idx int) string {
	if idx < 0 || idx >= len(c.opts.Servers) || c.breakers == nil {
		return "disabled"
	}
	return c.breakers[idx].State()
}

// PoolStats is the per-server connection-pool introspection surface
// (used by the poisoning-semantics tests and debug tooling).
type PoolStats struct {
	// Idle is the number of pooled connections right now.
	Idle int
	// Dials counts connections ever dialed to the server.
	Dials int64
	// Discards counts connections closed instead of recycled (poisoned,
	// stale, or pool overflow).
	Discards int64
	// StaleDrops counts the Discards attributed to the acquire-time
	// liveness screen.
	StaleDrops int64
}

// PoolStats snapshots server idx's pool counters.
func (c *Client) PoolStats(idx int) (PoolStats, error) {
	if idx < 0 || idx >= len(c.opts.Servers) {
		return PoolStats{}, fmt.Errorf("client: server index %d out of range", idx)
	}
	c.mu.Lock()
	idle := len(c.pools[idx])
	c.mu.Unlock()
	return PoolStats{
		Idle:       idle,
		Dials:      c.dials[idx].Load(),
		Discards:   c.discards[idx].Load(),
		StaleDrops: c.staleDrops[idx].Load(),
	}, nil
}

// Get fetches one key, returning ErrCacheMiss when absent.
func (c *Client) Get(key string) (Item, error) {
	return c.get(otrace.Ctx{}, key, false)
}

// Gets fetches one key with its CAS token.
func (c *Client) Gets(key string) (Item, error) {
	return c.get(otrace.Ctx{}, key, true)
}

// get is the shared single-key read: it opens a span (a fresh root
// trace when parent is zero) and fetches from the key's owner. Plain
// gets ride the resilient read path: retries under the RetryPolicy and,
// when hedging is enabled, a duplicate request to a second pooled
// connection once the primary outlives the hedge trigger. CAS reads
// (gets) never hedge — racing tokens would be ambiguous.
func (c *Client) get(parent otrace.Ctx, key string, withCAS bool) (Item, error) {
	idx := c.pickServer(key)
	op, name := protocol.OpGet, "get"
	if withCAS {
		op, name = protocol.OpGets, "gets"
	}
	sp := c.tracer.Begin(parent, "client", name, idx)
	defer c.tracer.End(sp)
	if c.hedge != nil && !withCAS {
		items, err := c.hedgedGet(sp.Ctx(), idx, []string{key})
		if err != nil {
			return Item{}, err
		}
		if len(items) == 0 {
			return Item{}, ErrCacheMiss
		}
		return items[0], nil
	}
	one := oneKey{keys: [1]string{key}}
	err := c.roundTripRead(idx, func(cn *conn) error {
		one.found = false // a retried attempt starts over
		return c.attempt(cn, sp.Ctx(), idx, op, 0, one.keys[:], one.emit)
	})
	return one.result(err)
}

// oneKey is the receiving end of a single-key read: the key in the
// shape the retrieval path takes keys in, and the item once it arrives.
type oneKey struct {
	keys  [1]string
	item  Item
	found bool
}

// emit keeps the item, unless it answers a key that was not asked for.
func (o *oneKey) emit(it protocol.ValueItem) error {
	if err := checkKey(o.keys[:], it.Key); err != nil {
		return err
	}
	o.item, o.found = Item(it), true
	return nil
}

// result is what the read came to, err being the round trip's error.
func (o *oneKey) result(err error) (Item, error) {
	switch {
	case err != nil:
		return Item{}, err
	case !o.found:
		return Item{}, ErrCacheMiss
	}
	return o.item, nil
}

// checkKey refuses the reply to a single-key read that names another
// key: it is some other request's reply, so the connection is out of
// step and the error — no protocol outcome — has it discarded.
func checkKey(asked []string, got string) error {
	if len(asked) == 1 && asked[0] != got {
		return fmt.Errorf("client: asked for key %q, reply carries %q", asked[0], got)
	}
	return nil
}

// sendRetrieval frames keys as retrieval lines and writes them in one
// call, returning how many lines — replies owed — went out. The encoder
// keeps each line under the server's line limit, so a read of any width
// goes out as pipelined lines whose replies come back to back and cost
// no extra round trip. When rpc is live every line is preceded by its
// mq_trace header, so the server's spans land under it.
func (cn *conn) sendRetrieval(op protocol.Op, exptime int64, keys []string, rpc otrace.Span) (lines int, err error) {
	cn.buf = cn.buf[:0]
	for rest := keys; len(rest) > 0; lines++ {
		if rpc.ID != 0 {
			cn.buf = protocol.AppendTrace(cn.buf, rpc.Trace, rpc.ID)
		}
		var n int
		cn.buf, n = protocol.AppendRetrieval(cn.buf, op, exptime, rest)
		rest = rest[n:]
	}
	return lines, cn.send()
}

// readRetrieval reads the replies to lines retrieval lines for keys,
// handing every item to emit. It reads every reply the request is owed:
// an error reply ends one line's reply, not the others', so the first
// one is kept while the rest are read, and the connection is back at a
// command boundary when a protocol outcome is returned. Any other error
// leaves the stream wherever it broke.
func (cn *conn) readRetrieval(lines int, keys []string, emit func(protocol.ValueItem) error) error {
	rr := protocol.RetrievalReader{Want: keys}
	var refused error
	for ; lines > 0; lines-- {
		if err := rr.Read(cn.r, emit); err != nil {
			var se *protocol.ServerError
			if !errors.As(err, &se) {
				return err
			}
			if refused == nil {
				refused = err
			}
		}
	}
	return refused
}

// attempt is one retrieval exchange on cn: under a traced parent it gets
// its own rpc span, which the server is told in-band, so retried and
// hedged attempts are distinguishable in the trace.
func (c *Client) attempt(cn *conn, parent otrace.Ctx, idx int, op protocol.Op, exptime int64, keys []string, emit func(protocol.ValueItem) error) error {
	var rpc otrace.Span
	if parent.Valid() {
		rpc = c.tracer.Begin(parent, "client", "rpc", idx)
		defer c.tracer.End(rpc)
	}
	lines, err := cn.sendRetrieval(op, exptime, keys, rpc)
	if err != nil {
		return err
	}
	return cn.readRetrieval(lines, keys, emit)
}

// getOnce gets keys from server idx (with retries when enabled) into a
// slice of its own: what a hedged leg, which races another for the same
// keys, needs.
func (c *Client) getOnce(parent otrace.Ctx, idx int, keys []string) ([]Item, error) {
	var out []Item
	err := c.roundTripRead(idx, func(cn *conn) error {
		out = make([]Item, 0, len(keys)) // a retried attempt starts over
		return c.attempt(cn, parent, idx, protocol.OpGet, 0, keys, func(it protocol.ValueItem) error {
			if err := checkKey(keys, it.Key); err != nil {
				return err
			}
			out = append(out, Item(it))
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// hedgeTrigger returns the current hedge delay: the fixed Delay when
// configured, else the observed read-latency percentile (floored), else
// the fallback while the digest warms up.
func (c *Client) hedgeTrigger() time.Duration {
	if c.hedge.Delay > 0 {
		return c.hedge.Delay
	}
	if q, ok := c.readLat.quantile(c.hedge.Percentile, c.hedge.MinSamples); ok {
		d := time.Duration(q * float64(time.Second))
		if d < minHedgeDelay {
			d = minHedgeDelay
		}
		return d
	}
	return c.hedge.FallbackDelay
}

// hedgedGet races the primary read against a hedge fired after the
// trigger delay. The first success wins; if the first reply is a
// failure and a hedge is outstanding, the slower leg gets to answer.
// Both legs run complete round trips, so the loser's connection is
// recycled normally.
func (c *Client) hedgedGet(parent otrace.Ctx, idx int, keys []string) ([]Item, error) {
	type legResult struct {
		items []Item
		err   error
	}
	ch := make(chan legResult, 2)
	issue := func() {
		items, err := c.getOnce(parent, idx, keys)
		ch <- legResult{items, err}
	}
	go issue()
	delay := c.hedgeTrigger()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.items, r.err
	case <-timer.C:
	}
	c.rec.Observe(telemetry.StageHedgeWait, delay.Seconds())
	go issue()
	r := <-ch
	if r.err == nil {
		return r.items, nil
	}
	// First responder failed; the other leg may still save the read.
	r2 := <-ch
	if r2.err == nil {
		return r2.items, nil
	}
	return nil, r.err
}

// GetThrough fetches key from the cache, falling back to the configured
// Filler (the database) on a miss and writing the value back — the
// paper's two-stage read path. The returned bool reports whether the
// read hit the cache.
func (c *Client) GetThrough(ctx context.Context, key string) (Item, bool, error) {
	// The root span covers the whole two-stage read; the cache get and
	// the backend fill nest under it (the backend reads the context via
	// otrace.FromContext and emits its own span).
	root := c.tracer.Begin(otrace.FromContext(ctx), "client", "get_through", c.pickServer(key))
	defer c.tracer.End(root)
	it, err := c.get(root.Ctx(), key, false)
	if err == nil {
		return it, true, nil
	}
	if !errors.Is(err, ErrCacheMiss) {
		return Item{}, false, err
	}
	if c.opts.Filler == nil {
		return Item{}, false, ErrCacheMiss
	}
	if c.coalescer.Coalescing() {
		res, cerr := c.coalescer.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
			return c.opts.Filler.Get(otrace.ContextWith(fctx, root.Ctx()), key)
		})
		if cerr != nil {
			return Item{}, false, fmt.Errorf("client: fill %q: %w", key, cerr)
		}
		// Only the leader writes back, and only if no Set/Delete raced
		// the fetch: waiters would just re-store the same bytes, and a
		// stale write-back would resurrect an overwritten entry.
		if !res.Shared && !res.Stale {
			_ = c.Set(key, res.Value, 0, c.opts.FillTTL)
		}
		return Item{Key: key, Value: res.Value}, false, nil
	}
	value, err := c.opts.Filler.Get(otrace.ContextWith(ctx, root.Ctx()), key)
	if err != nil {
		return Item{}, false, fmt.Errorf("client: fill %q: %w", key, err)
	}
	// Write-back is best-effort: a racing eviction must not fail the read.
	_ = c.Set(key, value, 0, c.opts.FillTTL)
	return Item{Key: key, Value: value}, false, nil
}

// MultiGet fetches many keys with fork-join fan-out: keys are grouped by
// owning server, every group is put on the wire before any reply is
// read, and the call returns when the slowest server has answered —
// exactly the request/N-keys join the model analyzes. Missing keys are
// absent from the result map.
//
// When a server group fails, the items healthy groups returned are
// still in the map alongside the first error — partial results are
// never thrown away. Callers that need per-key failure attribution use
// MultiGetDegraded.
func (c *Client) MultiGet(keys []string) (map[string]Item, error) {
	out, keyErrs := c.multiGet(keys)
	if len(keyErrs) == 0 {
		return out, nil
	}
	// Surface the first failed key's error in input order (determinism
	// for callers that log it).
	for _, k := range keys {
		if err, ok := keyErrs[k]; ok {
			return out, err
		}
	}
	return out, nil
}

// MultiGetDegraded is the degraded-mode fork-join read: it returns
// every item the healthy legs produced plus a per-key error map for
// the keys whose server leg failed, instead of failing the whole
// request when one leg dies. Keys that simply missed are in neither
// map. An empty error map means every leg answered.
func (c *Client) MultiGetDegraded(keys []string) (map[string]Item, map[string]error) {
	return c.multiGet(keys)
}

// A leg is one server's share of a fork-join read.
type leg struct {
	idx  int
	keys []string // the keys idx owns, in request order
	span otrace.Span
	err  error

	// A pipelined leg: whether the next pass issues it and, between its
	// checkout and its join, the exchange in flight.
	due      bool
	cn       *conn
	deadline time.Time
	rpc      otrace.Span
	lines    int

	items []Item // a hedged leg's result
}

// forkJoin is the per-call scratch of multiGet, pooled so that a call
// allocates for its results only.
type forkJoin struct {
	owner   []int    // owner[i] is the server of keys[i]
	fill    []int    // per server: where its next key goes in grouped
	grouped []string // the keys ordered by server
	legs    []leg
}

var forkJoins = sync.Pool{New: func() any { return new(forkJoin) }}

// maxPooledKeys bounds the scratch the pool keeps: a wider call's is
// left to the collector.
const maxPooledKeys = 1024

// split groups keys by owning server — a counting sort, so each group
// keeps request order — into one leg per server that owns any.
func (fj *forkJoin) split(c *Client, keys []string) []leg {
	n := len(c.opts.Servers)
	fj.owner = slices.Grow(fj.owner[:0], len(keys))[:len(keys)]
	fj.fill = slices.Grow(fj.fill[:0], n+1)[:n+1]
	fj.grouped = slices.Grow(fj.grouped[:0], len(keys))[:len(keys)]
	clear(fj.fill)
	for i, k := range keys {
		fj.owner[i] = c.pickServer(k)
		fj.fill[fj.owner[i]+1]++
	}
	for idx := 0; idx < n; idx++ {
		fj.fill[idx+1] += fj.fill[idx] // fill[idx] is now where idx's group starts
	}
	for i, k := range keys {
		fj.grouped[fj.fill[fj.owner[i]]] = k
		fj.fill[fj.owner[i]]++ // ... and, once filled, where it ends
	}
	fj.legs = fj.legs[:0]
	start := 0
	for idx := 0; idx < n; idx++ {
		if end := fj.fill[idx]; end > start {
			fj.legs = append(fj.legs, leg{idx: idx, keys: fj.grouped[start:end], due: true})
			start = end
		}
	}
	return fj.legs
}

// recycle returns the scratch to the pool without the caller's strings.
func (fj *forkJoin) recycle() {
	if len(fj.grouped) > maxPooledKeys {
		return
	}
	clear(fj.grouped)
	clear(fj.legs)
	forkJoins.Put(fj)
}

// drainGrace is how long a leg that is read only after its deadline has
// passed — it waited its turn behind a stalled sibling, or a later leg's
// dial — gets to hand over the reply it received in time.
const drainGrace = 10 * time.Millisecond

// multiGet runs the fork-join and attributes leg failures to their keys.
func (c *Client) multiGet(keys []string) (map[string]Item, map[string]error) {
	// The root span is the fork-join the model analyzes: its duration is
	// the max over the per-server leg spans beneath it.
	root := c.tracer.Begin(otrace.Ctx{}, "client", "multiget", -1)
	defer c.tracer.End(root)
	out := make(map[string]Item, len(keys))
	fj := forkJoins.Get().(*forkJoin)
	legs := fj.split(c, keys)
	if c.hedge != nil {
		// A hedged leg's losing attempt may outlive the call and still
		// read its keys: this scratch is not reused.
		c.forkHedged(root.Ctx(), legs, out)
	} else {
		defer fj.recycle()
		c.forkPipelined(root.Ctx(), legs, out)
	}
	var keyErrs map[string]error
	for i := range legs {
		if l := &legs[i]; l.err != nil {
			if keyErrs == nil {
				keyErrs = make(map[string]error)
			}
			for _, k := range l.keys {
				keyErrs[k] = l.err
			}
		}
	}
	return out, keyErrs
}

// forkHedged runs every leg as a hedged read. A hedged read races two
// connections, so each leg needs a goroutine of its own.
func (c *Client) forkHedged(root otrace.Ctx, legs []leg, out map[string]Item) {
	var wg sync.WaitGroup
	for i := range legs {
		l := &legs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.span = c.tracer.Begin(root, "client", "leg", l.idx)
			defer c.tracer.End(l.span)
			l.items, l.err = c.hedgedGet(l.span.Ctx(), l.idx, l.keys)
		}()
	}
	wg.Wait()
	for i := range legs {
		for _, it := range legs[i].items {
			out[it.Key] = it
		}
	}
}

// forkPipelined runs the legs on the calling goroutine, as one pipelined
// pass over all of them and, under a RetryPolicy, one more per further
// attempt over those that failed retryably: the legs of a pass back off
// together, once, and each spends a token of the retry budget.
func (c *Client) forkPipelined(root otrace.Ctx, legs []leg, out map[string]Item) {
	c.pipeline(root, legs, out)
	for attempt := 2; c.retry != nil && attempt <= c.retry.MaxAttempts; attempt++ {
		again := false
		for i := range legs {
			l := &legs[i]
			l.due = c.retries(l.err) && c.retryBudget.take()
			again = again || l.due
		}
		if !again {
			break
		}
		c.backOff(attempt)
		c.pipeline(root, legs, out)
	}
	for i := range legs {
		if l := &legs[i]; c.retries(l.err) {
			c.tracer.End(l.span) // join left it open for a retry
		}
	}
}

// pipeline is one pass over the legs that are due: every leg's request
// goes on the wire — the first half of any round trip, then one write —
// before the first reply is read, so the servers work in parallel as
// they would for one goroutine per leg, and the replies are then read in
// send order. Each leg has OpTimeout from the moment it has its
// connection, as a round trip of its own would: a leg that has to dial
// does so on nobody's clock, its own included.
func (c *Client) pipeline(root otrace.Ctx, legs []leg, out map[string]Item) {
	emit := func(it protocol.ValueItem) error {
		out[it.Key] = Item(it)
		return nil
	}
	for i := range legs {
		l := &legs[i]
		if !l.due {
			continue
		}
		if l.span.ID == 0 { // a retried leg's is open
			l.span = c.tracer.Begin(root, "client", "leg", l.idx)
		}
		if l.cn, l.err = c.checkout(l.idx); l.err == nil {
			l.deadline, l.err = c.arm(l.cn)
		}
		if l.err == nil {
			if l.span.ID != 0 {
				l.rpc = c.tracer.Begin(l.span.Ctx(), "client", "rpc", l.idx)
			}
			l.lines, l.err = l.cn.sendRetrieval(protocol.OpGet, 0, l.keys, l.rpc)
		}
		if l.err != nil {
			c.join(l, out)
		}
	}
	for i := range legs {
		l := &legs[i]
		if l.cn == nil {
			continue
		}
		// A read that starts after the deadline fails without looking at
		// the socket, whatever has arrived.
		if time.Now().After(l.deadline) {
			_ = l.cn.nc.SetReadDeadline(time.Now().Add(drainGrace)) // on failure the read reports it
		}
		l.err = l.cn.readRetrieval(l.lines, l.keys, emit)
		c.join(l, out)
	}
}

// join ends a pipelined leg's exchange: the connection, if the leg got
// one, goes back under the health rule of any round trip, and a failed
// leg contributes no items, not even those read before it failed. The
// leg's span stays open while the failure is one a retry may mend.
func (c *Client) join(l *leg, out map[string]Item) {
	if l.cn != nil {
		c.tracer.End(l.rpc)
		c.checkin(l.idx, l.cn, l.err)
		l.cn, l.rpc = nil, otrace.Span{}
	}
	if l.err != nil {
		dropKeys(out, l.keys)
	}
	if !c.retries(l.err) {
		c.tracer.End(l.span)
	}
}

func dropKeys(out map[string]Item, keys []string) {
	for _, k := range keys {
		delete(out, k)
	}
}

// storage runs one storage-class command. A successful store
// invalidates any in-flight coalesced fetch for the key so waiters do
// not write the now-superseded fetched value back over it.
func (c *Client) storage(op protocol.Op, key string, value []byte, flags uint32, ttl time.Duration, cas uint64) error {
	exptime := exptimeFromTTL(ttl)
	defer c.coalescer.Invalidate(key)
	return c.roundTrip(c.pickServer(key), func(cn *conn) error {
		cn.buf = protocol.AppendStorage(cn.buf[:0], op, key, flags, exptime, value, cas)
		_, err := cn.lineReply(storeOutcomes)
		return err
	})
}

// exptimeFromTTL maps a TTL to the protocol's exptime field. Memcached
// interprets exptimes above 30 days as absolute unix timestamps, so
// long TTLs must be sent as now+ttl — sending the raw second count
// would name a moment in 1970 and expire the item immediately.
func exptimeFromTTL(ttl time.Duration) int64 {
	if ttl == 0 {
		return 0
	}
	if ttl < 0 {
		// Memcached semantics: negative exptime = already expired. Used
		// by steady-miss workloads (hot-key herds) where write-backs
		// must not mask subsequent misses.
		return -1
	}
	secs := int64(ttl / time.Second)
	if secs == 0 {
		secs = 1
	}
	if secs > thirtyDays {
		return time.Now().Add(ttl).Unix()
	}
	return secs
}

// Set stores a value unconditionally.
func (c *Client) Set(key string, value []byte, flags uint32, ttl time.Duration) error {
	return c.storage(protocol.OpSet, key, value, flags, ttl, 0)
}

// Add stores a value only if absent.
func (c *Client) Add(key string, value []byte, flags uint32, ttl time.Duration) error {
	return c.storage(protocol.OpAdd, key, value, flags, ttl, 0)
}

// Replace stores a value only if present.
func (c *Client) Replace(key string, value []byte, flags uint32, ttl time.Duration) error {
	return c.storage(protocol.OpReplace, key, value, flags, ttl, 0)
}

// CompareAndSwap stores a value if the CAS token still matches.
func (c *Client) CompareAndSwap(key string, value []byte, flags uint32, ttl time.Duration, cas uint64) error {
	return c.storage(protocol.OpCas, key, value, flags, ttl, cas)
}

// Delete removes a key; ErrCacheMiss when absent. Like the storage
// verbs it invalidates any in-flight coalesced fetch for the key.
func (c *Client) Delete(key string) error {
	defer c.coalescer.Invalidate(key)
	return c.roundTrip(c.pickServer(key), func(cn *conn) error {
		cn.buf = protocol.AppendDelete(cn.buf[:0], key)
		_, err := cn.lineReply(deleteOutcomes)
		return err
	})
}

// Incr atomically adds delta to a numeric value.
func (c *Client) Incr(key string, delta uint64) (uint64, error) {
	return c.incrDecr(protocol.OpIncr, key, delta)
}

// Decr atomically subtracts delta (floored at zero).
func (c *Client) Decr(key string, delta uint64) (uint64, error) {
	return c.incrDecr(protocol.OpDecr, key, delta)
}

func (c *Client) incrDecr(op protocol.Op, key string, delta uint64) (uint64, error) {
	var result uint64
	err := c.roundTrip(c.pickServer(key), func(cn *conn) error {
		cn.buf = protocol.AppendIncrDecr(cn.buf[:0], op, key, delta)
		line, err := cn.lineReply(incrOutcomes)
		if n, perr := strconv.ParseUint(line, 10, 64); perr == nil {
			result, err = n, nil // the one reply no table can list: the new value
		}
		return err
	})
	return result, err
}

// GetAndTouch atomically fetches a key and refreshes its TTL (the
// protocol's gat command); ErrCacheMiss when absent.
func (c *Client) GetAndTouch(key string, ttl time.Duration) (Item, error) {
	idx := c.pickServer(key)
	one := oneKey{keys: [1]string{key}}
	err := c.roundTrip(idx, func(cn *conn) error {
		return c.attempt(cn, otrace.Ctx{}, idx, protocol.OpGat, exptimeFromTTL(ttl), one.keys[:], one.emit)
	})
	return one.result(err)
}

// Touch refreshes a key's TTL.
func (c *Client) Touch(key string, ttl time.Duration) error {
	return c.roundTrip(c.pickServer(key), func(cn *conn) error {
		cn.buf = protocol.AppendTouch(cn.buf[:0], key, exptimeFromTTL(ttl))
		_, err := cn.lineReply(touchOutcomes)
		return err
	})
}

// ServerStats fetches the stats table from server idx.
func (c *Client) ServerStats(idx int) (map[string]string, error) {
	if idx < 0 || idx >= len(c.opts.Servers) {
		return nil, fmt.Errorf("client: server index %d out of range", idx)
	}
	var out map[string]string
	err := c.roundTrip(idx, func(cn *conn) (err error) {
		cn.buf = protocol.AppendBare(cn.buf[:0], protocol.OpStats)
		if err = cn.send(); err == nil {
			out, err = protocol.ReadStats(cn.r)
		}
		return err
	})
	return out, err
}

// FlushAll clears every server.
func (c *Client) FlushAll() error {
	for idx := range c.opts.Servers {
		err := c.roundTrip(idx, func(cn *conn) error {
			cn.buf = protocol.AppendBare(cn.buf[:0], protocol.OpFlushAll)
			_, err := cn.lineReply(flushOutcomes)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
