package sim

import (
	"math"
	"math/rand/v2"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/route"
	"memqlat/internal/telemetry"
)

// simResilience interprets the plane-neutral fault.Resilience spec in
// the composition stage, mirroring what the live client does with the
// same knobs: budget-free capped-backoff retries of failed key reads,
// a hedge draw once a read exceeds the trigger, and a per-server
// route.Breaker — the client's and proxy's own state machine — whose
// open state sheds draws.
type simResilience struct {
	spec fault.Resilience
	// breakers per server; nil entries without a breaker policy.
	breakers []*drawBreaker
	// hedgeThreshold per server, in seconds; +Inf disables.
	hedgeThreshold []float64
}

// newSimResilience arms spec; under the zero spec a read is one draw.
func newSimResilience(spec fault.Resilience, m *core.Config, servers []*ServerResult) *simResilience {
	spec = spec.WithDefaults()
	rs := &simResilience{
		spec:           spec,
		breakers:       make([]*drawBreaker, len(servers)),
		hedgeThreshold: make([]float64, len(servers)),
	}
	for j := range servers {
		if spec.BreakerThreshold > 0 {
			// The composition has no wall clock, so the cooldown converts
			// to a per-server draw count via the server's key rate
			// (draws ≈ rate × seconds).
			cooldown := max(int(spec.BreakerCooldown*m.ServerKeyRate(j)), 1)
			rs.breakers[j] = newDrawBreaker(spec.BreakerWindow, spec.BreakerThreshold, cooldown)
		}
		rs.hedgeThreshold[j] = math.Inf(1)
		if servers[j] == nil {
			continue
		}
		switch {
		case spec.HedgeDelay > 0:
			rs.hedgeThreshold[j] = spec.HedgeDelay
		case spec.HedgePercentile > 0:
			if q, err := servers[j].Hist.Quantile(spec.HedgePercentile); err == nil {
				rs.hedgeThreshold[j] = q
			}
		}
	}
	return rs
}

// resolveKey runs one key read of server j through the resilience
// pipeline, each attempt a draw from srv's stream on rng. It returns the
// observed latency, whether the read ended unanswered, and whether it
// was a breaker fast-fail.
func (rs *simResilience) resolveKey(j int, srv *ServerResult, rng *rand.Rand, rec telemetry.Recorder) (obs float64, failed, shed bool) {
	br := rs.breakers[j]
	if !br.allow() {
		rec.Observe(telemetry.StageBreakerShed, 0)
		return 0, true, true
	}
	obs, failed = srv.draw(rng)
	br.record(failed)
	// Retries: the observed latency accumulates each failed attempt plus
	// its backoff, exactly as the live read path pays them in sequence.
	for k := 1; failed && k <= rs.spec.Retries; k++ {
		if !br.allow() {
			rec.Observe(telemetry.StageBreakerShed, 0)
			break
		}
		backoff := rs.spec.Backoff(k)
		rec.Observe(telemetry.StageRetry, backoff)
		s, f := srv.draw(rng)
		br.record(f)
		obs += backoff + s
		failed = f
	}
	// Hedge: once the read is outstanding past the trigger, a duplicate
	// draw races it; the client keeps whichever answers first.
	if h := rs.hedgeThreshold[j]; obs > h {
		rec.Observe(telemetry.StageHedgeWait, h)
		s2, f2 := srv.draw(rng)
		br.record(f2)
		if hedged := h + s2; !f2 && (failed || hedged < obs) {
			obs, failed = hedged, false
		}
	}
	return obs, failed, false
}

// drawBreaker runs a route.Breaker on a per-server virtual clock that
// ticks once per admission check; outcomes record at the current tick.
// Open, it sheds the next cooldown checks and admits the half-open probe
// on the one after (Cooldown = cooldown+1 ticks). Nil admits everything.
type drawBreaker struct {
	b   *route.Breaker
	now time.Time
}

func newDrawBreaker(window int, threshold float64, cooldown int) *drawBreaker {
	return &drawBreaker{b: route.NewBreaker(route.BreakerPolicy{
		Window:           window,
		FailureThreshold: threshold,
		Cooldown:         time.Duration(cooldown + 1),
	})}
}

// allow advances the clock and reports whether the draw may proceed.
func (d *drawBreaker) allow() bool {
	if d == nil {
		return true
	}
	d.now = d.now.Add(1)
	return d.b.Allow(d.now)
}

// record feeds one draw outcome at the current tick.
func (d *drawBreaker) record(failed bool) {
	if d != nil {
		d.b.Record(failed, d.now)
	}
}
