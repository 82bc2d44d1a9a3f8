// Package sketch is the repo's one concurrent latency recorder: a
// stats.Histogram striped over independent locks. Every bucketing,
// quantile and merge rule lives in stats.Histogram; this package adds
// only the striping, so whatever records through it (telemetry stages,
// the SLO watchdog's windows, the server's per-command timing) yields
// distributions that merge and compare bucket for bucket.
package sketch

import (
	"sync"

	"memqlat/internal/stats"
)

// numStripes is the number of independent lock domains. Power of two so
// Stripe can mask instead of divide.
const numStripes = 8

// Options configures a Sketch. It has no fields: the bucketing is
// stats.NewHistogram's, the same everywhere, which is what makes
// snapshots from different recorders mergeable.
type Options struct{}

// Stripe is one lock domain of a Sketch. Its Record only contends with
// workers mapped to the same stripe.
type Stripe struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Record adds one observation to the stripe under stats.Histogram's
// rule for bad samples. It allocates only when the sample opens a new
// top bucket (the histogram grows on demand), never in steady state.
func (st *Stripe) Record(v float64) {
	st.mu.Lock()
	st.h.Record(v)
	st.mu.Unlock()
}

// Sketch is a thread-safe latency histogram. The zero value is not
// usable; construct with New.
type Sketch struct {
	stripes [numStripes]Stripe
}

// New constructs an empty sketch. The error is always nil; the
// signature is kept for the callers that check it.
func New(Options) (*Sketch, error) {
	s := &Sketch{}
	for i := range s.stripes {
		s.stripes[i].h = *stats.NewHistogram()
	}
	return s, nil
}

// Record adds one observation via stripe 0. Hot paths with many
// concurrent workers should take a per-worker handle via Stripe.
func (s *Sketch) Record(v float64) { s.stripes[0].Record(v) }

// Stripe returns the lock-stripe handle for the worker identified by
// hint; observations through distinct handles do not serialize.
func (s *Sketch) Stripe(hint uint64) *Stripe {
	return &s.stripes[hint&(numStripes-1)]
}

// Snapshot returns a private copy of the sketch's current state, merged
// across stripes. Snapshot allocates; it is meant for window boundaries
// and reporting, not the record path.
func (s *Sketch) Snapshot() *stats.Histogram {
	merged := stats.NewHistogram()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		// Identical bucketing by construction; Merge cannot fail.
		_ = merged.Merge(&st.h)
		st.mu.Unlock()
	}
	return merged
}

// Reset discards all observations, keeping each stripe's bucket array
// so the next window records without allocating.
func (s *Sketch) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.h.Reset()
		st.mu.Unlock()
	}
}
