package client

import (
	"testing"
	"time"

	"memqlat/internal/fault"
)

// TestBackoffFullJitter pins the full-jitter shape: uniform in [0, d)
// with no floor, exponential doubling capped at 8·RetryBackoff. A floor
// (equal jitter) would re-synchronize a coalesced herd whose waiters
// all saw the same fetch error at the same instant.
func TestBackoffFullJitter(t *testing.T) {
	res := fault.Resilience{Retries: 1, RetryBackoff: 1e-3}
	p := func(k int, jitter float64) time.Duration { return backoff(res, k, jitter) }
	if got := p(1, 0); got != 0 {
		t.Errorf("backoff(1, jitter=0) = %v, want 0 (full jitter has no floor)", got)
	}
	if got := p(1, 0.5); got != 500*time.Microsecond {
		t.Errorf("backoff(1, jitter=0.5) = %v, want 500µs", got)
	}
	// Attempt 3 doubles twice: window [0, 4ms). Attempt 5 would be 16ms
	// but caps at 8·RetryBackoff.
	if got := p(3, 1); got != 4*time.Millisecond {
		t.Errorf("backoff(3, jitter=1) = %v, want 4ms", got)
	}
	if got := p(5, 1); got != 8*time.Millisecond {
		t.Errorf("backoff(5, jitter=1) = %v, want the 8ms cap", got)
	}
}

// TestBackoffDeterministicUnderSeed: equal Options.Seed must give equal
// jitter streams, so a seeded run replays its retry schedule exactly.
func TestBackoffDeterministicUnderSeed(t *testing.T) {
	mk := func(seed uint64) *Client {
		c, err := New(Options{Servers: []string{"127.0.0.1:1"}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, other := mk(42), mk(42), mk(43)
	same, diff := true, true
	for i := 0; i < 16; i++ {
		av, bv, ov := a.jitterFloat(), b.jitterFloat(), other.jitterFloat()
		if av != bv {
			same = false
		}
		if av != ov {
			diff = false
		}
	}
	if !same {
		t.Error("equal seeds produced different jitter streams")
	}
	if diff {
		t.Error("different seeds produced identical jitter streams")
	}
}
