// Package client is the Memcached-client substrate (the front-end web
// server side of the paper's Fig. 1): it hashes keys to servers,
// multiplexes pooled TCP connections, fans a request's keys out to all
// servers in parallel and joins on the last value (the fork-join that
// the paper's model analyzes), and relays misses to the back-end
// database.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memqlat/internal/coalesce"
	"memqlat/internal/dist"
	"memqlat/internal/fault"
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
	// PoolSize caps idle connections per server (default 4).
	PoolSize int
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// OpTimeout (T, default 2s) bounds a round trip: it fails in [T, 9T/8].
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
	// Coalesce collapses concurrent GetThrough misses on the same key
	// into one in-flight Filler fetch (single-flight miss coalescing):
	// the first miss leads the fetch, concurrent misses attach as
	// waiters and share its outcome. False keeps the naive
	// one-fetch-per-miss behavior.
	Coalesce bool
	// Seed seeds the client's jitter RNG (retry backoff) so resilience
	// behavior is reproducible under a run seed. 0 seeds from the wall
	// clock.
	Seed uint64
	// Resilience configures retries, hedged reads and circuit breakers
	// (zero value = all off, the seed behavior). New refuses a spec that
	// fails its Validate.
	Resilience fault.Resilience
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
	selector *route.RingSelector // the same ketama ring the proxy routes by
	rec      telemetry.Recorder
	tracer   *otrace.Tracer // nil = tracing disabled

	res         fault.Resilience // Options.Resilience with its defaults
	breakers    []*route.Breaker // per server; nil when disabled
	retryBudget *tokenBucket     // nil without retries
	readLat     *latencyDigest   // nil without hedging
	coalescer   *coalesce.Group  // nil = naive miss path

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
	dl        protocol.Deadline // the deadline nc carries, read and write
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

// Per-verb reply tables: what each legal one-line reply means (nil for
// success). anyNumber stands for the replies no table can list: incr's
// new value.
const anyNumber = "<number>"

var (
	storeOutcomes = map[string]error{
		protocol.RespStored:    nil,
		protocol.RespNotStored: ErrNotStored,
		protocol.RespExists:    ErrCASConflict,
		protocol.RespNotFound:  ErrCacheMiss,
	}
	incrOutcomes = map[string]error{anyNumber: nil, protocol.RespNotFound: ErrCacheMiss}
)

// New validates options and constructs a Client.
func New(opts Options) (*Client, error) {
	if len(opts.Servers) == 0 {
		return nil, errors.New("client: at least one server required")
	}
	ring, err := route.NewRingSelector(len(opts.Servers), 0)
	if err != nil {
		return nil, err
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
	if err := opts.Resilience.Validate(); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{
		opts:     opts,
		selector: ring,
		rec:      telemetry.OrNop(opts.Recorder),
		tracer:   opts.Tracer,
		res:      opts.Resilience.WithDefaults(),
	}
	n := len(opts.Servers)
	c.pools = make([]chan *conn, n)
	for i := range c.pools {
		c.pools[i] = make(chan *conn, opts.PoolSize)
	}
	c.dials = make([]atomic.Int64, n)
	c.discards = make([]atomic.Int64, n)
	c.staleDrops = make([]atomic.Int64, n)
	if c.res.Retries > 0 {
		// Full from the start, so cold-start failures can retry at once.
		c.retryBudget = &tokenBucket{tokens: retryBudgetBurst}
	}
	if c.res.Hedging() {
		c.readLat = newLatencyDigest()
	}
	if c.res.BreakerThreshold > 0 {
		pol := route.PolicyOf(c.res)
		c.breakers = make([]*route.Breaker, n)
		for i := range c.breakers {
			c.breakers[i] = route.NewBreaker(pol)
		}
	}
	if opts.Coalesce {
		c.coalescer = coalesce.New(c.rec)
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

// connAlive cheaply screens a pooled connection: connections idle past
// MaxConnIdle are dropped, and ones idle longer than a beat get a
// non-blocking read probe that detects a peer that closed (a server
// restart sends FIN/RST) without consuming stream data. A deadline-based
// probe cannot do this — an already-expired read deadline short-circuits
// before the syscall — so the probe reads the raw fd directly.
func (c *Client) connAlive(cn *conn, now time.Time) bool {
	idle := now.Sub(cn.idleSince)
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
	// A probe past the deadline never reaches the socket: arm the next one.
	_ = cn.dl.Arm(cn.nc.SetDeadline, now, c.opts.OpTimeout)
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

// checkout is the first half of a round trip: breaker admission, then a
// pooled connection — screened for liveness, so a server restart does
// not poison the first request issued afterwards — or a fresh one. A dial
// is bounded by DialTimeout and by nothing else: the exchange's clock
// starts once the connection is in hand (at the time returned: now or
// the dial's end), so a slow dial spends no OpTimeout.
func (c *Client) checkout(idx int, now time.Time) (*conn, time.Time, error) {
	if br := c.breakerFor(idx); br != nil && !br.Allow(now) {
		c.rec.Observe(telemetry.StageBreakerShed, 0)
		return nil, now, fmt.Errorf("client: server %s: %w", c.opts.Servers[idx], ErrBreakerOpen)
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		c.recordOutcome(idx, false)
		return nil, now, ErrClosed
	}
	for {
		select {
		case cn := <-c.pools[idx]:
			if c.connAlive(cn, now) {
				return cn, now, nil
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
		c.recordOutcome(idx, false)
		return nil, now, fmt.Errorf("client: dial %s: %w", c.opts.Servers[idx], err)
	}
	c.dials[idx].Add(1)
	cn := &conn{nc: nc, r: bufio.NewReader(nc), idleSince: time.Now()}
	return cn, cn.idleSince, nil
}

// checkin is the second half: err is what the exchange on cn, begun at
// start, came to. Protocol-level outcomes (miss, not-stored, cas
// conflict, server error lines) leave the stream positioned at a command
// boundary and the connection reusable; only transport/parse errors
// poison it. A healthy connection is parked under the lock Close drains
// the pools under, so none lands in a drained pool.
func (c *Client) checkin(idx int, cn *conn, err error, start time.Time) {
	ok := err == nil || isProtocolOutcome(err)
	c.recordOutcome(idx, ok)
	parked, closed := false, false
	if ok {
		cn.idleSince = start
		c.mu.Lock()
		if closed = c.closed; !closed {
			select {
			case c.pools[idx] <- cn:
				parked = true
			default: // pool full
			}
		}
		c.mu.Unlock()
	}
	if parked {
		return
	}
	_ = cn.nc.Close()
	if !closed {
		c.discards[idx].Add(1)
	}
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
	return c.get(otrace.Ctx{}, "get", protocol.OpGet, 0, key)
}

// Gets fetches one key with its CAS token.
func (c *Client) Gets(key string) (Item, error) {
	return c.get(otrace.Ctx{}, "gets", protocol.OpGets, 0, key)
}

// GetAndTouch atomically fetches a key and refreshes its TTL (the
// protocol's gat command); ErrCacheMiss when absent.
func (c *Client) GetAndTouch(key string, ttl time.Duration) (Item, error) {
	return c.get(otrace.Ctx{}, "", protocol.OpGat, exptimeFromTTL(ttl), key)
}

// get is the single-key read: a fork-join of one leg, under a span
// called name (a fresh root trace when parent is zero).
func (c *Client) get(parent otrace.Ctx, name string, op protocol.Op, exptime int64, key string) (Item, error) {
	fj := forkJoins.Get().(*forkJoin)
	defer fj.recycle()
	l := &fj.split(c, []string{key}, op, exptime)[0]
	c.read(parent, name, fj.legs)
	switch {
	case l.err != nil:
		return Item{}, l.err
	case len(l.items) == 0:
		return Item{}, ErrCacheMiss
	}
	return l.items[0], nil
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
	it, err := c.get(root.Ctx(), "get", protocol.OpGet, 0, key)
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
		// Only the leader writes back: waiters would just re-store the
		// same bytes. A store that raced the fetch (Stale) skips it too.
		if !res.Shared && !res.Stale {
			c.fill(key, res.Value)
		}
		return Item{Key: key, Value: res.Value}, false, nil
	}
	value, err := c.opts.Filler.Get(otrace.ContextWith(ctx, root.Ctx()), key)
	if err != nil {
		return Item{}, false, fmt.Errorf("client: fill %q: %w", key, err)
	}
	c.fill(key, value)
	return Item{Key: key, Value: value}, false, nil
}

// fill writes a fetched value back as an add, so a Set that raced the
// fetch keeps its newer value. It is best-effort: a racing eviction or
// a NOT_STORED must not fail the read.
func (c *Client) fill(key string, value []byte) {
	_ = c.storage(protocol.OpAdd, key, value, 0, c.opts.FillTTL, 0)
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
	out, keyErrs := c.MultiGetDegraded(keys)
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
	// The root span is the fork-join the model analyzes: its duration is
	// the max over the per-server leg spans beneath it.
	root := c.tracer.Begin(otrace.Ctx{}, "client", "multiget", -1)
	defer c.tracer.End(root)
	fj := forkJoins.Get().(*forkJoin)
	defer fj.recycle()
	legs := fj.split(c, keys, protocol.OpGet, 0)
	c.read(root.Ctx(), "leg", legs)
	out := make(map[string]Item, len(keys))
	var keyErrs map[string]error
	for i := range legs {
		l := &legs[i]
		if l.err == nil {
			for _, it := range l.items {
				out[it.Key] = it
			}
			continue
		}
		// What a failed leg delivered before it failed stands for nothing.
		if keyErrs == nil {
			keyErrs = make(map[string]error)
		}
		for _, k := range l.keys {
			keyErrs[k] = l.err
		}
	}
	return out, keyErrs
}

// A leg is one server's share of a read, and the unit every retrieval is
// made of: a single-key read is one leg, a fork-join one per server.
type leg struct {
	idx     int
	op      protocol.Op // get, gets or gat
	exptime int64       // gat's
	keys    []string    // the keys idx owns, in request order
	items   []Item      // what the reply to the last attempt carried
	err     error       // what the last attempt came to
	span    otrace.Span

	// Whether the next pass issues the leg and, between its checkout and
	// its join, the exchange in flight.
	due   bool
	cn    *conn
	start time.Time // the exchange's one clock reading
	rpc   otrace.Span
	lines int
}

// forkJoin is the per-call scratch of a read, pooled so that a call
// allocates for its results only.
type forkJoin struct {
	ints    []int    // owner and fill of split, one after the other
	grouped []string // the keys ordered by server
	items   []Item   // room for an item per key, shared out like grouped
	legs    []leg
}

var forkJoins = sync.Pool{New: func() any { return new(forkJoin) }}

// maxPooledKeys bounds the scratch the pool keeps: a wider call's is
// left to the collector.
const maxPooledKeys = 1024

// split groups keys by owning server — a counting sort, so each group
// keeps request order — into one leg per server that owns any, each an
// op (with gat's exptime) for its keys and due.
func (fj *forkJoin) split(c *Client, keys []string, op protocol.Op, exptime int64) []leg {
	n := len(c.opts.Servers)
	fj.ints = scratch(fj.ints, len(keys)+n+1)
	fj.grouped = scratch(fj.grouped, len(keys))
	fj.items = scratch(fj.items, len(keys))
	owner := fj.ints[:len(keys)] // owner[i] is the server of keys[i]
	fill := fj.ints[len(keys):]  // per server: where its next key goes in grouped
	clear(fill)
	for i, k := range keys {
		owner[i] = c.pickServer(k)
		fill[owner[i]+1]++
	}
	for idx := 0; idx < n; idx++ {
		fill[idx+1] += fill[idx] // fill[idx] is now where idx's group starts
	}
	for i, k := range keys {
		fj.grouped[fill[owner[i]]] = k
		fill[owner[i]]++ // ... and, once filled, where it ends
	}
	fj.legs = fj.legs[:0]
	start := 0
	for idx := 0; idx < n; idx++ {
		if end := fill[idx]; end > start {
			fj.legs = append(fj.legs, leg{
				idx: idx, op: op, exptime: exptime, due: true,
				keys: fj.grouped[start:end], items: fj.items[start:start:end],
			})
			start = end
		}
	}
	return fj.legs
}

// scratch returns n elements to overwrite: s's own when it has them.
// (slices.Grow allocates twice under -race, where a quarter of the pool's
// Puts are dropped and the bounds of TestForkJoinCost still have to hold.)
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// recycle returns the scratch to the pool without the caller's strings
// and values.
func (fj *forkJoin) recycle() {
	if len(fj.grouped) > maxPooledKeys {
		return
	}
	clear(fj.grouped)
	clear(fj.items)
	clear(fj.legs)
	forkJoins.Put(fj)
}

// read takes the legs of a retrieval to their outcomes: on the calling
// goroutine (run) unless hedging is on, when every leg of a plain get is
// a race and needs a goroutine of its own to wait on it. CAS reads never
// hedge — racing tokens would be ambiguous — and neither does gat.
func (c *Client) read(parent otrace.Ctx, name string, legs []leg) {
	if !c.res.Hedging() || len(legs) == 0 || legs[0].op != protocol.OpGet {
		c.run(parent, name, legs)
		return
	}
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.race(parent, name, &legs[i])
		}()
	}
	wg.Wait()
}

// run takes legs to their outcomes on the calling goroutine: one
// pipelined pass over all of them and, with retries on, one more per
// further attempt over those that failed retryably. The legs of a pass
// back off together, once, and each spends a token of the retry budget.
func (c *Client) run(parent otrace.Ctx, name string, legs []leg) {
	c.pass(parent, name, legs, nil)
	for attempt := 2; attempt <= c.res.Retries+1; attempt++ {
		again := false
		for i := range legs {
			l := &legs[i]
			l.due = c.retries(l) && c.retryBudget.take()
			again = again || l.due
		}
		if !again {
			break
		}
		c.backOff(attempt)
		c.pass(parent, name, legs, nil)
	}
	for i := range legs {
		if l := &legs[i]; c.retries(l) {
			c.tracer.End(l.span) // the last pass left it open for a retry
		}
	}
}

// drainGrace is how long a leg that is read only after its deadline has
// passed — it waited its turn behind a stalled sibling, or a later leg's
// dial — gets to hand over the reply it received in time.
const drainGrace = 10 * time.Millisecond

// pass is the one exchange every operation is made of, run over the legs
// that are due: every leg's request goes on the wire — breaker admission,
// a connection, the leg's clock, one write — before the first reply is
// read, so the servers work in parallel as they would for one goroutine
// per leg, and the replies are then read in send order. Each leg has
// OpTimeout from the moment it has its connection, as a round trip of its
// own would: a leg that has to dial does so on nobody's clock, its own
// included. A leg gets a span called name, if there is one, and under a
// traced parent every attempt gets its own rpc span, which the server is
// told in-band, so retried and hedged attempts are distinguishable.
//
// A command that is no retrieval shares everything but the wire format:
// its leg sends nothing, and do — the whole of its round trip — runs
// where a retrieval's reply is read.
func (c *Client) pass(parent otrace.Ctx, name string, legs []leg, do func(*conn) error) {
	for i := range legs {
		l := &legs[i]
		if !l.due {
			continue
		}
		under := parent
		if name != "" {
			if l.span.ID == 0 { // a retried leg's is open
				l.span = c.tracer.Begin(parent, "client", name, l.idx)
			}
			under = l.span.Ctx()
		}
		if l.cn, l.start, l.err = c.checkout(l.idx, time.Now()); l.err == nil {
			l.err = l.cn.dl.Arm(l.cn.nc.SetDeadline, l.start, c.opts.OpTimeout)
		}
		if l.err == nil && do == nil {
			if under.Valid() {
				l.rpc = c.tracer.Begin(under, "client", "rpc", l.idx)
			}
			l.lines, l.err = l.cn.sendRetrieval(l.op, l.exptime, l.keys, l.rpc)
		}
	}
	for i := range legs {
		l := &legs[i]
		if !l.due {
			continue
		}
		if l.err == nil {
			// A read that starts after the deadline fails without looking
			// at the socket, whatever has arrived.
			if len(legs) > 1 && time.Since(l.start) > c.opts.OpTimeout {
				_ = l.cn.nc.SetReadDeadline(time.Now().Add(drainGrace)) // on failure the read reports it
				l.cn.dl = protocol.Deadline{}
			}
			if do != nil {
				l.err = do(l.cn)
			} else {
				l.items, l.err = l.cn.readRetrieval(l.lines, l.keys, l.items[:0])
			}
		}
		// The join: the connection, if the leg got one, goes back under the
		// health rule of any round trip, and the leg's span stays open only
		// while the failure is one a retry may mend.
		if l.cn != nil {
			c.tracer.End(l.rpc)
			c.checkin(l.idx, l.cn, l.err, l.start)
			l.cn, l.rpc = nil, otrace.Span{}
		}
		if !c.retries(l) {
			c.tracer.End(l.span)
		}
	}
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
// appending every item to items. It reads every reply the request is
// owed: an error reply ends one line's reply, not the others', so the
// first one is kept while the rest are read, and the connection is back
// at a command boundary when a protocol outcome is returned. Any other
// error leaves the stream wherever it broke.
//
// The reply to a single-key read that names another key is refused: it
// is some other request's reply, so the connection is out of step and
// the error — no protocol outcome — has it discarded.
func (cn *conn) readRetrieval(lines int, keys []string, items []Item) ([]Item, error) {
	rr := protocol.RetrievalReader{Want: keys}
	emit := func(it protocol.ValueItem) error {
		if len(keys) == 1 && keys[0] != it.Key {
			return fmt.Errorf("client: asked for key %q, reply carries %q", keys[0], it.Key)
		}
		items = append(items, Item(it))
		return nil
	}
	var refused error
	for ; lines > 0; lines-- {
		if err := rr.Read(cn.r, emit); err != nil {
			var se *protocol.ServerError
			if !errors.As(err, &se) {
				return items, err
			}
			if refused == nil {
				refused = err
			}
		}
	}
	return items, refused
}

// do runs fn, a command's whole round trip, on a connection to server
// idx: a pass of one leg, one attempt. Every command that is not a
// retrieval goes through here.
func (c *Client) do(idx int, fn func(*conn) error) error {
	l := [1]leg{{idx: idx, due: true}}
	c.pass(otrace.Ctx{}, "", l[:], fn)
	return l[0].err
}

// command runs a one-line command on server idx and returns its number
// reply ("" for any other): frame appends the request to the
// connection's buffer, and outcomes is the verb's reply table. A reply
// the table lists is looked up without building a string; only a number
// is copied out. A reply the table does not list is an error that is no
// protocol outcome, so the connection is discarded.
func (c *Client) command(idx int, outcomes map[string]error, frame func([]byte) []byte) (number string, err error) {
	err = c.do(idx, func(cn *conn) (err error) {
		cn.buf = frame(cn.buf[:0])
		if err = cn.send(); err != nil {
			return err
		}
		rep, err := protocol.ScanReply(cn.r)
		if err != nil {
			return err
		}
		text := rep.Text()
		if rep.Kind == protocol.ReplyError {
			return &protocol.ServerError{Line: string(text)}
		}
		outcome, ok := outcomes[string(text)]
		if !ok {
			if _, perr := strconv.ParseUint(string(text), 10, 64); perr == nil {
				outcome, ok = outcomes[anyNumber]
				number = string(text)
			}
		}
		if !ok {
			return fmt.Errorf("client: unexpected reply %q", text)
		}
		return outcome
	})
	return number, err
}

// storage runs one storage-class command. A successful store
// invalidates any in-flight coalesced fetch for the key so waiters do
// not write the now-superseded fetched value back over it.
func (c *Client) storage(op protocol.Op, key string, value []byte, flags uint32, ttl time.Duration, cas uint64) error {
	exptime := exptimeFromTTL(ttl)
	defer c.coalescer.Invalidate(key)
	_, err := c.command(c.pickServer(key), storeOutcomes, func(buf []byte) []byte {
		return protocol.AppendStorage(buf, op, key, flags, exptime, value, cas)
	})
	return err
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

// CompareAndSwap stores a value if the CAS token still matches.
func (c *Client) CompareAndSwap(key string, value []byte, flags uint32, ttl time.Duration, cas uint64) error {
	return c.storage(protocol.OpCas, key, value, flags, ttl, cas)
}

// Incr atomically adds delta to a numeric value.
func (c *Client) Incr(key string, delta uint64) (uint64, error) {
	number, err := c.command(c.pickServer(key), incrOutcomes, func(buf []byte) []byte {
		return protocol.AppendIncrDecr(buf, protocol.OpIncr, key, delta)
	})
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(number, 10, 64)
}

// ServerStats fetches the stats table from server idx.
func (c *Client) ServerStats(idx int) (map[string]string, error) {
	if idx < 0 || idx >= len(c.opts.Servers) {
		return nil, fmt.Errorf("client: server index %d out of range", idx)
	}
	var out map[string]string
	err := c.do(idx, func(cn *conn) (err error) {
		cn.buf = protocol.AppendBare(cn.buf[:0], protocol.OpStats)
		if err = cn.send(); err == nil {
			out, err = protocol.ReadStats(cn.r)
		}
		return err
	})
	return out, err
}
