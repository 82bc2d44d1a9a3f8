package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// simBreaker is the composition's former private circuit breaker, kept
// as the reference drawBreaker must reproduce: the live client's
// sliding window and threshold, with the open-state cooldown counted in
// shed draws instead of seconds.
type simBreaker struct {
	window    int
	threshold float64
	cooldown  int

	outcomes []bool
	idx      int
	filled   int
	fails    int
	openLeft int  // draws remaining in the open state
	halfOpen bool // next draw is the probe
}

// allow reports whether the next draw may proceed.
func (b *simBreaker) allow() bool {
	if b.openLeft > 0 {
		b.openLeft--
		if b.openLeft == 0 {
			b.halfOpen = true
		}
		return false
	}
	return true
}

// record feeds one draw outcome.
func (b *simBreaker) record(failure bool) {
	if b.halfOpen {
		b.halfOpen = false
		if failure {
			b.trip()
		} else {
			b.clearWindow()
		}
		return
	}
	if b.outcomes == nil {
		b.outcomes = make([]bool, b.window)
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
	minSamples := b.window / 2
	if minSamples == 0 {
		minSamples = 1
	}
	if b.filled >= minSamples && float64(b.fails)/float64(b.filled) >= b.threshold {
		b.trip()
	}
}

func (b *simBreaker) trip() {
	b.openLeft = b.cooldown
	b.clearWindow()
}

func (b *simBreaker) clearWindow() {
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
	b.idx, b.filled, b.fails = 0, 0, 0
}

// breaker is what resolveKey asks of a circuit breaker.
type breaker interface {
	allow() bool
	record(failed bool)
}

// readStream drives b through reads shaped the way resolveKey issues
// them — a check and a draw, up to two retries while the read fails, a
// hedge draw on 30% of reads — and returns the admit/shed stream of its
// checks. Reads alternate between healthy and failing phases of 300 so
// the breaker trips, cools down and recovers many times. With
// hedgeAfterShed false a read whose retry was shed takes no hedge.
func readStream(b breaker, seed uint64, reads int, hedgeAfterShed bool) []bool {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var stream []bool
	check := func() bool {
		ok := b.allow()
		stream = append(stream, ok)
		return ok
	}
	for i := range reads {
		pFail := 0.05
		if i/300%2 == 1 {
			pFail = 0.7
		}
		if !check() {
			continue
		}
		failed := rng.Float64() < pFail
		b.record(failed)
		shed := false
		for k := 0; failed && k < 2; k++ {
			if !check() {
				shed = true
				break
			}
			failed = rng.Float64() < pFail
			b.record(failed)
		}
		hedge, hedgeFailed := rng.Float64() < 0.3, rng.Float64() < pFail
		if hedge && (hedgeAfterShed || !shed) {
			b.record(hedgeFailed)
		}
	}
	return stream
}

// TestDrawBreakerMatchesReference: route.Breaker on the draw clock
// admits and sheds exactly where simBreaker did, over random read
// sequences across windows and cooldowns. A one-draw cooldown is the
// exception for a hedge taken right after a shed retry (see
// TestDrawBreakerDropsOpenStateOutcomes), so those sequences leave that
// hedge out.
func TestDrawBreakerMatchesReference(t *testing.T) {
	for _, window := range []int{4, 20} {
		for _, cooldown := range []int{1, 3, 40} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("window=%d/cooldown=%d/seed=%d", window, cooldown, seed), func(t *testing.T) {
					ref := &simBreaker{window: window, threshold: 0.5, cooldown: cooldown}
					want := readStream(ref, seed, 6000, cooldown > 1)
					got := readStream(newDrawBreaker(window, 0.5, cooldown), seed, 6000, cooldown > 1)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("check %d of %d: admitted=%v, reference %v", i, len(want), at(got, i), at(want, i))
					}
					if sheds := len(want) - countTrue(want); sheds == 0 {
						t.Fatal("the breaker never opened: the sequence proves nothing")
					}
				})
			}
		}
	}
}

// TestDrawBreakerDropsOpenStateOutcomes pins the two places the draw
// breaker differs from simBreaker. Both are a hedge outcome recorded
// right after a shed retry, which route.Breaker — like the live client —
// drops while open, where simBreaker let it re-arm the breaker.
func TestDrawBreakerDropsOpenStateOutcomes(t *testing.T) {
	// read runs one resolveKey-shaped read: a check, a failed draw, and
	// while retries remain another check and failed draw; then a failed
	// hedge draw.
	read := func(b breaker, retries int) {
		if !b.allow() {
			return
		}
		b.record(true)
		for range retries {
			if !b.allow() {
				break
			}
			b.record(true)
		}
		b.record(true)
	}
	checks := func(b breaker, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = b.allow()
		}
		return out
	}
	t.Run("window below 4", func(t *testing.T) {
		// Window 2 trips on one failure. The read trips it, its retry is
		// shed, and the failed hedge used to trip it again, adding a
		// third shed before the probe.
		ref := &simBreaker{window: 2, threshold: 0.5, cooldown: 3}
		b := newDrawBreaker(2, 0.5, 3)
		read(ref, 1)
		read(b, 1)
		if got, want := checks(b, 3), []bool{false, false, true}; !slices.Equal(got, want) {
			t.Errorf("draw breaker after the read: %v, want %v", got, want)
		}
		if got, want := checks(ref, 4), []bool{false, false, false, true}; !slices.Equal(got, want) {
			t.Errorf("reference after the read: %v, want %v", got, want)
		}
	})
	t.Run("one-draw cooldown", func(t *testing.T) {
		// Window 4 trips on the retry's second failure; the next retry is
		// the one shed check, after which simBreaker took the hedge as
		// its half-open probe and tripped again.
		ref := &simBreaker{window: 4, threshold: 0.5, cooldown: 1}
		b := newDrawBreaker(4, 0.5, 1)
		read(ref, 2)
		read(b, 2)
		if got, want := checks(b, 1), []bool{true}; !slices.Equal(got, want) {
			t.Errorf("draw breaker after the read: %v, want %v", got, want)
		}
		if got, want := checks(ref, 2), []bool{false, true}; !slices.Equal(got, want) {
			t.Errorf("reference after the read: %v, want %v", got, want)
		}
	})
}

func firstDiff(a, b []bool) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(s []bool, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "past the end"
}

func countTrue(s []bool) int {
	n := 0
	for _, v := range s {
		if v {
			n++
		}
	}
	return n
}
