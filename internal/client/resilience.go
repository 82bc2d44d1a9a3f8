package client

import (
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

const (
	// retryBudgetRatio is the retry tokens earned per successful
	// operation: at most ~10% extra load in steady state.
	retryBudgetRatio = 0.1
	// retryBudgetBurst caps banked retry tokens.
	retryBudgetBurst = 10
)

// backoff is the wait before retry attempt k (1-based) of res.
func backoff(res fault.Resilience, k int, jitter float64) time.Duration {
	// Full jitter: uniform in [0, d) so synchronized clients
	// desynchronize. Equal jitter (d/2 + U·d/2) keeps a d/2 floor that
	// re-aligns a coalesced herd whose waiters all erred out at the same
	// instant — they would re-arrive inside the same half-window and
	// re-form the thundering herd the coalescer just collapsed.
	return time.Duration(res.Backoff(k) * float64(time.Second) * jitter)
}

// retries reports whether asking again may mend l's failure: with
// retries on, a transport-level error of an idempotent read — get or
// gets; gat moves the expiry, and no other command is a leg with an op.
// Protocol outcomes are answers; a shed (breaker open) or closed client
// will not get better by asking again immediately.
func (c *Client) retries(l *leg) bool {
	if l.err == nil || c.res.Retries == 0 || (l.op != protocol.OpGet && l.op != protocol.OpGets) {
		return false
	}
	return !isProtocolOutcome(l.err) && !errors.Is(l.err, ErrBreakerOpen) && !errors.Is(l.err, ErrClosed)
}

// backOff sleeps out the wait before attempt.
func (c *Client) backOff(attempt int) {
	wait := backoff(c.res, attempt-1, c.jitterFloat())
	time.Sleep(wait)
	c.rec.Observe(telemetry.StageRetry, wait.Seconds())
}

const (
	// hedgeMinSamples is how many reads must be observed before the
	// adaptive trigger arms; until then a read is not hedged.
	hedgeMinSamples = 50
	// minHedgeDelay floors the adaptive trigger so sub-µs observed
	// latencies cannot degenerate into hedging every read.
	minHedgeDelay = 100 * time.Microsecond
)

// race is a hedged read: l's one-leg run, and the same run again on
// another connection once the first has outlived the hedge trigger. The
// first success wins; if the first reply is a failure and a hedge is
// outstanding, the slower attempt gets to answer. Both are complete runs,
// so the loser's connection is recycled normally, and each success feeds
// the digest the trigger is read from. Without a trigger yet the read
// runs once.
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
	var fire <-chan time.Time // nil: never hedges
	delay, armed := c.hedgeTrigger()
	if armed {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		fire = timer.C
	}
	var won leg
	select {
	case won = <-ch:
	case <-fire:
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

// hedgeTrigger returns the current hedge delay: the fixed HedgeDelay
// when configured, else the observed read-latency percentile (floored).
// It reports false while the digest warms up: there is no measured
// delay to hedge at yet.
func (c *Client) hedgeTrigger() (time.Duration, bool) {
	if c.res.HedgeDelay > 0 {
		return time.Duration(c.res.HedgeDelay * float64(time.Second)), true
	}
	q, ok := c.readLat.quantile(c.res.HedgePercentile)
	return max(time.Duration(q*float64(time.Second)), minHedgeDelay), ok
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

// latencyDigest keeps the latencies of recent successful reads — the
// adaptive hedge trigger's input — in two histogram windows: the one
// filling and the last full one.
type latencyDigest struct {
	mu        sync.Mutex
	cur, last *stats.Histogram
	full      bool // last holds a full window
}

// digestWindow is how many reads a window holds before it replaces the
// last full one.
const digestWindow = 512

func newLatencyDigest() *latencyDigest {
	return &latencyDigest{cur: stats.NewHistogram(), last: stats.NewHistogram()}
}

func (d *latencyDigest) add(v float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur.Record(v)
	if d.cur.Count() == digestWindow {
		d.cur, d.last, d.full = d.last, d.cur, true
		d.cur.Reset()
	}
}

// quantile returns the p-quantile of the last full window, or of the
// filling one until a window fills, once it holds hedgeMinSamples reads.
func (d *latencyDigest) quantile(p float64) (float64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.cur
	if d.full {
		h = d.last
	}
	if h.Count() < hedgeMinSamples {
		return 0, false
	}
	return h.MustQuantile(p), true
}
