// Package proxy is the mcrouter-style memcached proxy tier: it
// multiplexes many downstream client connections onto a small pool of
// pipelined upstream connections per server, routes keys with the same
// selectors a direct client uses (internal/route), and adds route
// policies on top — direct, primary-with-failover driven by the
// per-server circuit breaker, and replicated reads (fan out to r
// replicas, the first healthy reply wins). Multi-gets are split per
// owning server and rejoined fork-join style, which is the paper's
// fork-join point moved into the proxy.
//
// The data plane is allocation-free in steady state: commands are
// forwarded as the exact wire frames the protocol Parser captured
// (no re-parse, no re-serialization), pending-reply records are
// freelist-recycled, and replies relay through reusable buffers.
package proxy

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/route"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// Policy selects how the proxy routes keys to upstream servers.
type Policy int

const (
	// PolicyDirect routes every key to its selector-assigned owner.
	PolicyDirect Policy = iota
	// PolicyFailover routes to the owner unless its circuit breaker is
	// open, in which case the key fails over to the next ring successor
	// whose breaker admits traffic.
	PolicyFailover
	// PolicyReplicate fans single-key reads out to Replicas servers
	// (owner plus ring successors) and keeps the first healthy reply (a
	// miss counts; an error only when every replica errs); writes
	// broadcast to the same replica set so the copies stay coherent.
	PolicyReplicate
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyDirect:
		return "direct"
	case PolicyFailover:
		return "failover"
	case PolicyReplicate:
		return "replicate"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name ("direct", "failover", "replicate").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "direct":
		return PolicyDirect, nil
	case "failover":
		return PolicyFailover, nil
	case "replicate":
		return PolicyReplicate, nil
	}
	return 0, fmt.Errorf("proxy: unknown route policy %q (known: direct, failover, replicate)", s)
}

// Options configures a Proxy.
type Options struct {
	// Upstreams are the memcached server addresses (required).
	Upstreams []string
	// Policy is the route policy (default PolicyDirect).
	Policy Policy
	// Replicas is the replication degree of PolicyReplicate (default 2,
	// capped at len(Upstreams)).
	Replicas int
	// UpstreamConns is the pipelined connection pool size per upstream
	// server (default 2). Keys stick to one connection by hash, so a
	// noreply write and a subsequent read of the same key stay ordered.
	UpstreamConns int
	// Recorder, when set, receives StageProxyHop observations: the
	// forward-path cost (parse + route + upstream enqueue) per command.
	Recorder telemetry.Recorder
	// Tracer, when set, joins traced commands (ones preceded by an
	// mq_trace header) with a proxy hop span and re-propagates the
	// context to the upstream servers. Nil disables tracing.
	Tracer *otrace.Tracer
	// Tenants, when set, arms the multi-tenant QoS layer: every keyed
	// command is charged to the tenant its key prefix names, and
	// over-limit silver/bronze tenants are shed with a SERVER_ERROR
	// before anything queues upstream. Nil disables QoS entirely (no
	// per-command overhead).
	Tenants *tenant.Limiter
	// TenantClock supplies the admission clock in seconds for Tenants
	// (the run's fault.Clock on the live plane, so throttling starts at
	// the shared epoch). Default: wall seconds since proxy creation.
	TenantClock func() float64
	// Logger, when set, receives accept/teardown diagnostics.
	Logger *log.Logger
}

func (o Options) withDefaults() (Options, error) {
	if len(o.Upstreams) == 0 {
		return o, errors.New("proxy: at least one upstream required")
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > len(o.Upstreams) {
		o.Replicas = len(o.Upstreams)
	}
	if o.UpstreamConns <= 0 {
		o.UpstreamConns = 2
	}
	if o.Logger == nil {
		o.Logger = log.New(io.Discard, "", 0)
	}
	return o, nil
}

// Proxy is one proxy instance. Construct with New, drive with Serve
// (once per listener), stop with Close.
type Proxy struct {
	opts     Options
	sel      *route.RingSelector // the client's ring, so proxied and direct deployments agree on ownership
	rec      telemetry.Recorder
	tracer   *otrace.Tracer // nil = tracing disabled
	log      *log.Logger
	ups      [][]*upstream    // [server][conn]
	breakers []*route.Breaker // per server; nil unless PolicyFailover

	tenants   *tenant.Limiter // nil = QoS disabled
	tenantNow func() float64
	epoch     time.Time // default TenantClock base

	flushTimeout, upstreamTimeout time.Duration // bounds on one write and one owed upstream reply

	cmds        atomic.Int64 // commands dispatched
	forwarded   atomic.Int64 // upstream sends (legs count individually)
	failovers   atomic.Int64 // keys routed off their owner
	tenantSheds atomic.Int64 // commands shed by tenant QoS
	connSeq     atomic.Uint64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
}

// New validates opts and builds the upstream pool. Upstream connections
// dial lazily on first use.
func New(opts Options) (*Proxy, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sel, err := route.NewRingSelector(len(opts.Upstreams), 0)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		opts:      opts,
		sel:       sel,
		rec:       telemetry.OrNop(opts.Recorder),
		tracer:    opts.Tracer,
		log:       opts.Logger,
		tenants:   opts.Tenants,
		epoch:     time.Now(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	p.flushTimeout, p.upstreamTimeout = flushTimeout, upstreamTimeout
	p.tenantNow = opts.TenantClock
	if p.tenantNow == nil {
		p.tenantNow = func() float64 { return time.Since(p.epoch).Seconds() }
	}
	p.ups = make([][]*upstream, len(opts.Upstreams))
	for s, addr := range opts.Upstreams {
		p.ups[s] = make([]*upstream, opts.UpstreamConns)
		for c := range p.ups[s] {
			p.ups[s][c] = &upstream{p: p, srv: s, addr: addr}
		}
	}
	if opts.Policy == PolicyFailover {
		pol := route.PolicyOf(fault.Resilience{BreakerThreshold: fault.DefaultBreakerThreshold})
		p.breakers = make([]*route.Breaker, len(opts.Upstreams))
		for i := range p.breakers {
			p.breakers[i] = route.NewBreaker(pol)
		}
	}
	return p, nil
}

// Serve accepts downstream connections on l until l or the proxy
// closes. A failed accept is retried after a backoff.
func (p *Proxy) Serve(l net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("proxy: closed")
	}
	p.listeners[l] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.listeners, l)
		p.mu.Unlock()
		_ = l.Close()
	}()
	var backoff time.Duration
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			// EMFILE at a connection peak, a connection reset before
			// accept: the listener still works, so back off (5 ms,
			// doubling up to 1 s) and go on.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			p.log.Printf("proxy: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = nc.Close()
			return nil
		}
		p.conns[nc] = struct{}{}
		p.mu.Unlock()
		go func() {
			p.handleConn(nc, p.connSeq.Add(1))
			p.mu.Lock()
			delete(p.conns, nc)
			p.mu.Unlock()
		}()
	}
}

// Close stops the listeners, downstream connections and upstream pool.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for l := range p.listeners {
		_ = l.Close()
	}
	for nc := range p.conns {
		_ = nc.Close()
	}
	p.mu.Unlock()
	for _, conns := range p.ups {
		for _, u := range conns {
			u.close()
		}
	}
	return nil
}

// Stats is the proxy's introspection surface (and its "stats" reply).
type Stats struct {
	Commands    int64
	Forwarded   int64
	Failovers   int64
	TenantSheds int64
	Policy      Policy
	Upstreams   int
}

// Stats snapshots the counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Commands:    p.cmds.Load(),
		Forwarded:   p.forwarded.Load(),
		Failovers:   p.failovers.Load(),
		TenantSheds: p.tenantSheds.Load(),
		Policy:      p.opts.Policy,
		Upstreams:   len(p.opts.Upstreams),
	}
}

// BreakerState reports upstream srv's breaker state ("disabled" unless
// PolicyFailover).
func (p *Proxy) BreakerState(srv int) string {
	if p.breakers == nil || srv < 0 || srv >= len(p.breakers) {
		return "disabled"
	}
	return p.breakers[srv].State()
}

// routeKey picks the serving upstream for key: the selector's owner,
// shifted to the next ring successor with a closed breaker under
// PolicyFailover. A command routes each key once: Allow admits a
// half-open breaker's one probe, which must then be sent.
func (p *Proxy) routeKey(key []byte) int {
	owner := p.sel.PickB(key)
	if p.breakers == nil {
		return owner
	}
	now := time.Now()
	for i := 0; i < p.sel.N(); i++ {
		if s := p.successor(owner, i); p.breakers[s].Allow(now) {
			if i > 0 {
				p.failovers.Add(1)
			}
			return s
		}
	}
	return owner
}

// successor is the server i steps after owner around the ring.
func (p *Proxy) successor(owner, i int) int {
	return (owner + i) % p.sel.N()
}

// recordOutcome feeds the failover breakers (no-op otherwise).
func (p *Proxy) recordOutcome(srv int, failure bool) {
	if p.breakers == nil || srv < 0 {
		return
	}
	p.breakers[srv].Record(failure, time.Now())
}

// UpstreamQueueDepths snapshots the outstanding pipelined requests per
// upstream server (summed over that server's connections) — the proxy's
// queue-depth gauge on the admin plane.
func (p *Proxy) UpstreamQueueDepths() []int {
	out := make([]int, len(p.ups))
	for s, conns := range p.ups {
		for _, u := range conns {
			if c := u.cur.Load(); c != nil {
				c.qmu.Lock()
				if !c.broken {
					out[s] += c.queued
				}
				c.qmu.Unlock()
			}
		}
	}
	return out
}

// connFor maps a key hash to an upstream connection index. Keys stick
// to one pipelined connection so noreply writes and subsequent reads of
// the same key serialize on one upstream FIFO.
func (p *Proxy) connFor(h uint64) int {
	return int((h >> 33) % uint64(p.opts.UpstreamConns))
}
