package route

import (
	"sync"
	"time"

	"memqlat/internal/fault"
)

// BreakerPolicy is the per-server circuit breaker: closed → open when
// the failure rate over a sliding outcome window crosses the threshold,
// open → half-open after a cooldown, half-open → closed after one probe
// success (or back to open on a probe failure). The client uses it to
// shed load; the proxy's failover policy uses it to steer keys to ring
// successors while the primary is open. The window may trip once it
// holds max(Window/2, 1) outcomes.
type BreakerPolicy struct {
	// Window is the sliding outcome-window size in operations.
	Window int
	// FailureThreshold opens the breaker when fails/window ≥ it.
	FailureThreshold float64
	// Cooldown is how long the breaker stays open before probing.
	Cooldown time.Duration
}

// PolicyOf is the breaker policy spec enables, with its defaults.
func PolicyOf(spec fault.Resilience) BreakerPolicy {
	spec = spec.WithDefaults()
	return BreakerPolicy{
		Window:           spec.BreakerWindow,
		FailureThreshold: spec.BreakerThreshold,
		Cooldown:         time.Duration(spec.BreakerCooldown * float64(time.Second)),
	}
}

// breakerState is the circuit breaker's state machine position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker tracks one server's health. All methods are safe for
// concurrent use.
type Breaker struct {
	pol BreakerPolicy

	mu       sync.Mutex
	state    breakerState
	outcomes []bool // ring; true = failure
	idx      int
	filled   int
	fails    int
	openedAt time.Time
	probing  bool // the half-open probe is out
}

// NewBreaker constructs a closed breaker under pol.
func NewBreaker(pol BreakerPolicy) *Breaker {
	return &Breaker{pol: pol, outcomes: make([]bool, pol.Window)}
}

// Allow reports whether an operation may proceed, transitioning
// open → half-open once the cooldown elapses.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.pol.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = false
	}
	// Half-open: admit one probe.
	if !b.probing {
		b.probing = true
		return true
	}
	return false
}

// Record feeds one operation outcome into the state machine.
func (b *Breaker) Record(failure bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		// A straggler from before the trip; the window restarts on probe.
		return
	case breakerHalfOpen:
		if failure {
			b.trip(now)
		} else {
			b.reset()
		}
		return
	}
	if b.filled == len(b.outcomes) {
		if b.outcomes[b.idx] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.outcomes[b.idx] = failure
	if failure {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.outcomes)
	if b.filled >= max(len(b.outcomes)/2, 1) &&
		float64(b.fails)/float64(b.filled) >= b.pol.FailureThreshold {
		b.trip(now)
	}
}

// trip opens the breaker and clears the window (caller holds mu).
func (b *Breaker) trip(now time.Time) {
	b.state = breakerOpen
	b.openedAt = now
	b.clearWindow()
}

// reset closes the breaker with a fresh window (caller holds mu).
func (b *Breaker) reset() {
	b.state = breakerClosed
	b.clearWindow()
}

func (b *Breaker) clearWindow() {
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
	b.idx, b.filled, b.fails = 0, 0, 0
	b.probing = false
}

// State returns the state name (test/stats introspection).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
