package client

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/route"
	"memqlat/internal/telemetry"
)

// Resilience bundles the client's recovery policies. The zero value
// disables all of them (the seed behavior). Each policy is optional;
// ResilienceFromSpec lifts the plane-neutral fault.Resilience knobs a
// Scenario carries into these policies so the live plane and the
// simulator interpret one spec.
type Resilience struct {
	// Retry re-issues idempotent reads after transport-level failures.
	Retry *RetryPolicy
	// Hedge fires a duplicate read when the primary is slow.
	Hedge *HedgePolicy
	// Breaker sheds load to servers that keep failing.
	Breaker *BreakerPolicy
}

// RetryPolicy is capped exponential backoff with jitter, spent from a
// token budget so a dead server cannot multiply load. Only idempotent
// reads (get/gets and MultiGet legs) retry, and only on transport
// errors — protocol outcomes (miss, NOT_STORED, ...) are answers, not
// failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff (default 1ms); attempt k
	// waits BaseBackoff·2^(k-1), full-jittered, capped at
	// maxBackoffFactor·BaseBackoff.
	BaseBackoff time.Duration
}

const (
	// maxBackoffFactor caps a backoff at this many BaseBackoffs.
	maxBackoffFactor = 8
	// retryBudgetRatio is the retry tokens earned per successful
	// operation: at most ~10% extra load in steady state.
	retryBudgetRatio = 0.1
	// retryBudgetBurst caps banked retry tokens.
	retryBudgetBurst = 10
)

func (p *RetryPolicy) withDefaults() *RetryPolicy {
	out := *p
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.BaseBackoff <= 0 {
		out.BaseBackoff = time.Millisecond
	}
	return &out
}

// backoff returns the jittered wait before retry attempt k (1-based).
func (p *RetryPolicy) backoff(k int, jitter float64) time.Duration {
	d := float64(p.BaseBackoff) * math.Min(math.Pow(2, float64(k-1)), maxBackoffFactor)
	// Full jitter: uniform in [0, d) so synchronized clients
	// desynchronize. Equal jitter (d/2 + U·d/2) keeps a d/2 floor that
	// re-aligns a coalesced herd whose waiters all erred out at the same
	// instant — they would re-arrive inside the same half-window and
	// re-form the thundering herd the coalescer just collapsed.
	return time.Duration(d * jitter)
}

// retries reports whether asking again may mend l's failure: under a
// RetryPolicy, a transport-level error of an idempotent read — get or
// gets; gat moves the expiry, and no other command is a leg with an op.
// Protocol outcomes are answers; a shed (breaker open) or closed client
// will not get better by asking again immediately.
func (c *Client) retries(l *leg) bool {
	if l.err == nil || c.retry == nil || (l.op != protocol.OpGet && l.op != protocol.OpGets) {
		return false
	}
	return !isProtocolOutcome(l.err) && !errors.Is(l.err, ErrBreakerOpen) && !errors.Is(l.err, ErrClosed)
}

// backOff sleeps out the RetryPolicy's wait before attempt.
func (c *Client) backOff(attempt int) {
	wait := c.retry.backoff(attempt-1, c.jitterFloat())
	time.Sleep(wait)
	c.rec.Observe(telemetry.StageRetry, wait.Seconds())
}

// HedgePolicy duplicates a slow read to a second connection and keeps
// the fastest reply. The trigger is percentile-based by default: the
// hedge fires once the primary has been outstanding longer than the
// configured quantile of recently observed read latency.
type HedgePolicy struct {
	// Delay, when positive, is a fixed hedge trigger.
	Delay time.Duration
	// Percentile is the adaptive trigger quantile (default 0.95).
	Percentile float64
}

func (p *HedgePolicy) withDefaults() *HedgePolicy {
	out := *p
	if out.Percentile <= 0 || out.Percentile >= 1 {
		out.Percentile = 0.95
	}
	return &out
}

const (
	// hedgeMinSamples is how many reads must be observed before the
	// adaptive trigger arms; until then hedgeFallbackDelay is the trigger.
	hedgeMinSamples    = 50
	hedgeFallbackDelay = 10 * time.Millisecond
	// minHedgeDelay floors the adaptive trigger so sub-µs observed
	// latencies cannot degenerate into hedging every read.
	minHedgeDelay = 100 * time.Microsecond
)

// race is a hedged read: l's one-leg run, and the same run again on
// another connection once the first has outlived the hedge trigger. The
// first success wins; if the first reply is a failure and a hedge is
// outstanding, the slower attempt gets to answer. Both are complete runs,
// so the loser's connection is recycled normally, and each success feeds
// the digest the trigger is read from.
func (c *Client) race(parent otrace.Ctx, name string, l *leg) {
	span := c.tracer.Begin(parent, "client", name, l.idx)
	defer c.tracer.End(span)
	idx, keys := l.idx, slices.Clone(l.keys) // the loser may outlive the call, and its keys with it
	ch := make(chan leg, 2)
	issue := func() {
		r := [1]leg{{idx: idx, op: protocol.OpGet, keys: keys, items: make([]Item, 0, len(keys)), due: true}}
		began := time.Now()
		c.run(span.Ctx(), "", r[:])
		if r[0].err == nil {
			c.readLat.add(time.Since(began).Seconds())
		}
		ch <- r[0]
	}
	go issue()
	delay := c.hedgeTrigger()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var won leg
	select {
	case won = <-ch:
	case <-timer.C:
		c.rec.Observe(telemetry.StageHedgeWait, delay.Seconds())
		go issue()
		if won = <-ch; won.err != nil {
			// First responder failed; the other attempt may still save the read.
			if second := <-ch; second.err == nil {
				won = second
			}
		}
	}
	l.items, l.err = won.items, won.err
}

// hedgeTrigger returns the current hedge delay: the fixed Delay when
// configured, else the observed read-latency percentile (floored), else
// the fallback while the digest warms up.
func (c *Client) hedgeTrigger() time.Duration {
	if c.hedge.Delay > 0 {
		return c.hedge.Delay
	}
	if q, ok := c.readLat.quantile(c.hedge.Percentile); ok {
		return max(time.Duration(q*float64(time.Second)), minHedgeDelay)
	}
	return hedgeFallbackDelay
}

// BreakerPolicy is the per-server circuit breaker policy. It lives in
// internal/route (the proxy's failover policy shares the same state
// machine); the alias keeps the client API unchanged.
type BreakerPolicy = route.BreakerPolicy

// ResilienceFromSpec lifts the plane-neutral spec into client policies.
func ResilienceFromSpec(spec fault.Resilience) Resilience {
	spec = spec.WithDefaults()
	var r Resilience
	if spec.Retries > 0 {
		r.Retry = &RetryPolicy{
			MaxAttempts: spec.Retries + 1,
			BaseBackoff: time.Duration(spec.RetryBackoff * float64(time.Second)),
		}
	}
	if spec.HedgeDelay > 0 || spec.HedgePercentile > 0 {
		r.Hedge = &HedgePolicy{
			Delay:      time.Duration(spec.HedgeDelay * float64(time.Second)),
			Percentile: spec.HedgePercentile,
		}
	}
	if spec.BreakerThreshold > 0 {
		r.Breaker = &BreakerPolicy{
			Window:           spec.BreakerWindow,
			FailureThreshold: spec.BreakerThreshold,
			Cooldown:         time.Duration(spec.BreakerCooldown * float64(time.Second)),
		}
	}
	return r
}

// tokenBucket is the retry budget: successes earn fractional tokens,
// each retry spends one.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
}

// earn credits one successful operation.
func (t *tokenBucket) earn() {
	t.mu.Lock()
	t.tokens = math.Min(t.tokens+retryBudgetRatio, retryBudgetBurst)
	t.mu.Unlock()
}

// take spends one token; false means the budget is exhausted.
func (t *tokenBucket) take() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// latencyDigest is a fixed-size reservoir of recent read latencies with
// a lazily recomputed quantile — the adaptive hedge trigger's input.
type latencyDigest struct {
	mu      sync.Mutex
	buf     [digestSize]float64
	idx     int
	filled  int
	stale   int
	cachedQ float64
}

const digestSize = 512

// recomputing the quantile every insert would be O(n log n) per op;
// every 32 inserts keeps the trigger fresh at negligible cost.
const digestRefresh = 32

func (d *latencyDigest) add(v float64) {
	d.mu.Lock()
	d.buf[d.idx] = v
	d.idx = (d.idx + 1) % len(d.buf)
	if d.filled < len(d.buf) {
		d.filled++
	}
	d.stale++
	d.mu.Unlock()
}

// quantile returns the p-quantile of the reservoir — p being the same
// from call to call — once it holds hedgeMinSamples observations.
func (d *latencyDigest) quantile(p float64) (float64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.filled < hedgeMinSamples {
		return 0, false
	}
	if d.cachedQ == 0 || d.stale >= digestRefresh {
		tmp := slices.Clone(d.buf[:d.filled])
		sort.Float64s(tmp)
		d.cachedQ = tmp[int(p*float64(len(tmp)-1))]
		d.stale = 0
	}
	return d.cachedQ, true
}
