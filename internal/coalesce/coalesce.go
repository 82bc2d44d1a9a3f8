// Package coalesce implements per-key single-flight miss coalescing:
// the robustness subsystem that turns a hot-key miss storm into one
// in-flight backend fetch with waiters.
//
// Without coalescing, k concurrent misses on the same key issue k
// independent backend fetches — the "delayed hit" pathology (Jiang &
// Ma, arXiv:2505.15531; Manohar et al., arXiv:2006.00376): the backend
// sees a thundering herd exactly when the cache is least able to
// absorb it, single-queue backends shed with ErrOverloaded, and
// client retries amplify the storm. With coalescing, the first miss
// (the leader) runs the fetch; every concurrent miss on the same key
// attaches to the pending call and receives the same value, error or
// negative result when it completes. The waiters' extra latency is the
// residual of the leader's fetch and is recorded as the
// telemetry.StageCoalesceWait stage, which the model plane prices
// analytically (see DESIGN.md §13).
//
// The in-flight table is sharded like the cache (FNV-1a over the key)
// so coalescing adds no global lock to the miss path. The per-key
// waiter count is bounded at 1024: past the bound, extra arrivals shed
// with ErrTooManyWaiters instead of pinning an unbounded
// number of goroutines to one pathological key — shedding the 1025th
// waiter is strictly better than letting a stalled backend accumulate
// every connection in the process.
package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"memqlat/internal/telemetry"
)

// ErrTooManyWaiters is returned by Do when the per-key waiter bound is
// reached: the caller is shed instead of attaching to the in-flight
// fetch. Callers should treat it like a backend overload error
// (fail the miss, optionally retry with backoff).
var ErrTooManyWaiters = errors.New("coalesce: too many waiters for key")

const (
	// shards is the number of lock domains of the in-flight table, a
	// power of two.
	shards = 16
	// maxWaiters bounds how many callers may be attached to one key's
	// in-flight fetch (the leader does not count).
	maxWaiters = 1024
)

// Result is the outcome of one Do call.
type Result struct {
	// Value is the fetched value. A nil Value with a nil error is a
	// negative result (key absent at the backend) and fans out to every
	// waiter like any other outcome.
	Value []byte
	// Shared reports that this caller was a waiter on another caller's
	// fetch rather than the leader that ran it.
	Shared bool
	// Stale reports that the key was invalidated (Invalidate was
	// called: a Set or Delete raced the fetch) while the fetch was in
	// flight. The value is still returned — it was correct when the
	// fetch was issued — but callers must not write it back to the
	// cache or they would resurrect the overwritten/deleted entry.
	Stale bool
}

// Stats is a point-in-time snapshot of a Group's counters.
type Stats struct {
	// InflightKeys is the number of keys with a fetch currently in
	// flight.
	InflightKeys int
	// Waiters is the number of callers currently attached to in-flight
	// fetches (excluding leaders).
	Waiters int
	// Fetches counts backend fetches actually issued (one per leader).
	Fetches int64
	// FanIns counts callers that attached to an existing fetch instead
	// of issuing their own — i.e. backend fetches saved.
	FanIns int64
	// Sheds counts callers rejected with ErrTooManyWaiters.
	Sheds int64
	// Invalidations counts Invalidate calls that hit an in-flight key.
	Invalidations int64
}

// call is one in-flight fetch.
type call struct {
	done chan struct{} // closed after value/err are set

	// value and err are written once by the fetch goroutine before
	// done is closed; readers must wait on done first.
	value []byte
	err   error

	invalidated atomic.Bool

	// refs counts the callers still waiting on this fetch (leader +
	// waiters), guarded by the shard mutex. When the last caller
	// abandons (context cancelled), the fetch itself is cancelled and
	// the table entry removed so the next miss starts fresh.
	refs    int
	waiters int
	cancel  context.CancelFunc
}

type shard struct {
	mu    sync.Mutex
	calls map[string]*call
}

// Group coalesces concurrent fetches per key. The zero value is not
// usable; construct with New. A nil *Group is a valid no-op handle for
// which Coalescing() reports false.
type Group struct {
	shards     [shards]shard
	maxWaiters int // the package's bound; tests lower it
	rec        telemetry.Recorder

	fetches       atomic.Int64
	fanIns        atomic.Int64
	sheds         atomic.Int64
	invalidations atomic.Int64
	curWaiters    atomic.Int64
}

// New builds a Group that records, on rec, a StageCoalesceWait
// observation for every waiter that fanned in (the time it spent
// attached to the fetch). A nil rec disables recording.
func New(rec telemetry.Recorder) *Group {
	g := &Group{maxWaiters: maxWaiters, rec: telemetry.OrNop(rec)}
	for i := range g.shards {
		g.shards[i].calls = make(map[string]*call)
	}
	return g
}

// Coalescing reports whether g is a live group (nil-receiver safe), so
// call sites can keep a single pointer field and one nil check on the
// miss path.
func (g *Group) Coalescing() bool { return g != nil }

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func (g *Group) shardFor(key string) *shard {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return &g.shards[h%shards]
}

// Do fetches key once per in-flight window: if no fetch for key is
// pending, the caller becomes the leader, fetch runs (on a context
// detached from ctx's cancellation but cancelled when every
// participant abandons), and its outcome — value, error or negative
// result — fans out to everyone attached. If a fetch is already
// pending, the caller attaches as a waiter (subject to the waiter
// bound) and blocks until the fetch completes or ctx is done.
//
// The fetch function must honor its context and must not retain the
// returned byte slice's ownership — the same slice fans out to every
// participant, so all of them (and fetch itself) must treat it as
// read-only after return.
func (g *Group) Do(ctx context.Context, key string, fetch func(context.Context) ([]byte, error)) (Result, error) {
	sh := g.shardFor(key)

	sh.mu.Lock()
	if c, ok := sh.calls[key]; ok {
		if c.waiters >= g.maxWaiters {
			sh.mu.Unlock()
			g.sheds.Add(1)
			return Result{}, ErrTooManyWaiters
		}
		c.waiters++
		c.refs++
		sh.mu.Unlock()
		g.curWaiters.Add(1)
		defer g.curWaiters.Add(-1)

		start := time.Now()
		select {
		case <-c.done:
			g.fanIns.Add(1)
			g.rec.Observe(telemetry.StageCoalesceWait, time.Since(start).Seconds())
			return Result{Value: c.value, Shared: true, Stale: c.invalidated.Load()}, c.err
		case <-ctx.Done():
			g.abandon(sh, key, c)
			return Result{}, ctx.Err()
		}
	}

	// Leader: register the call, then run the fetch in its own
	// goroutine so the leader can abandon on its own deadline without
	// killing the fetch the waiters still depend on. The fetch context
	// inherits ctx's values (trace propagation) but not its
	// cancellation; it is cancelled only when every participant has
	// abandoned.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call{done: make(chan struct{}), refs: 1, cancel: cancel}
	sh.calls[key] = c
	sh.mu.Unlock()
	g.fetches.Add(1)

	go func() {
		v, err := fetch(fctx)
		sh.mu.Lock()
		c.value, c.err = v, err
		close(c.done)
		if sh.calls[key] == c {
			delete(sh.calls, key)
		}
		sh.mu.Unlock()
		cancel()
	}()

	select {
	case <-c.done:
		return Result{Value: c.value, Stale: c.invalidated.Load()}, c.err
	case <-ctx.Done():
		g.abandon(sh, key, c)
		return Result{}, ctx.Err()
	}
}

// abandon drops one participant from c after its context fired. When
// the last participant leaves, the fetch is cancelled and the table
// entry removed so the next miss on the key starts a fresh fetch
// instead of attaching to a doomed one.
func (g *Group) abandon(sh *shard, key string, c *call) {
	sh.mu.Lock()
	c.refs--
	last := c.refs == 0
	if last && sh.calls[key] == c {
		delete(sh.calls, key)
	}
	sh.mu.Unlock()
	if last {
		c.cancel()
	}
}

// Invalidate marks key's in-flight fetch (if any) stale: a Set or
// Delete has superseded whatever value the fetch will return, so
// participants must not write the fetched value back to the cache.
// Safe to call on a nil Group and on keys with no pending fetch.
func (g *Group) Invalidate(key string) {
	if g == nil {
		return
	}
	sh := g.shardFor(key)
	sh.mu.Lock()
	c, ok := sh.calls[key]
	sh.mu.Unlock()
	if ok {
		c.invalidated.Store(true)
		g.invalidations.Add(1)
	}
}

// Stats snapshots the group's counters. Safe on a nil Group (zero
// stats).
func (g *Group) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	s := Stats{
		Fetches:       g.fetches.Load(),
		FanIns:        g.fanIns.Load(),
		Sheds:         g.sheds.Load(),
		Invalidations: g.invalidations.Load(),
		Waiters:       int(g.curWaiters.Load()),
	}
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		s.InflightKeys += len(sh.calls)
		sh.mu.Unlock()
	}
	return s
}
