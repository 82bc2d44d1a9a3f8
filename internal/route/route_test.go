package route

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"memqlat/internal/fault"
)

func TestRingSelectorValidation(t *testing.T) {
	if _, err := NewRingSelector(0, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRingSelectorBalance(t *testing.T) {
	r, err := NewRingSelector(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Pick(fmt.Sprintf("key-%d", i))]++
	}
	for s, c := range counts {
		share := float64(c) / n
		if share < 0.15 || share > 0.35 {
			t.Errorf("server %d share = %v, want ~0.25", s, share)
		}
	}
}

func TestRingSelectorStability(t *testing.T) {
	// Removing one server moves only ~1/n of the keys.
	r4, _ := NewRingSelector(4, 0)
	r3, _ := NewRingSelector(3, 0)
	moved := 0
	const n = 20000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		a, b := r4.Pick(key), r3.Pick(key)
		// Keys on servers 0-2 should mostly stay put.
		if a < 3 && a != b {
			moved++
		}
	}
	if frac := float64(moved) / n; frac > 0.25 {
		t.Errorf("consistent hashing moved %v of stable keys", frac)
	}
}

func TestRingSelectorDeterministic(t *testing.T) {
	a, _ := NewRingSelector(5, 100)
	b, _ := NewRingSelector(5, 100)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Pick(key) != b.Pick(key) {
			t.Fatal("ring not deterministic")
		}
	}
}

// Property: the ring is deterministic per key and in range, and PickB
// agrees with Pick on identical bytes.
func TestPropertySelectorsDeterministicInRange(t *testing.T) {
	ring, _ := NewRingSelector(7, 40)
	f := func(key string) bool {
		a := ring.Pick(key)
		return a == ring.Pick(key) && a >= 0 && a < ring.N() && ring.PickB([]byte(key)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	pol := BreakerPolicy{Window: 4, FailureThreshold: 0.5, Cooldown: 10 * time.Millisecond}
	b := NewBreaker(pol)
	now := time.Now()
	if !b.Allow(now) || b.State() != "closed" {
		t.Fatal("fresh breaker not closed")
	}
	b.Record(true, now)
	b.Record(true, now)
	if b.State() != "open" {
		t.Fatalf("state %q after failures, want open", b.State())
	}
	if b.Allow(now) {
		t.Error("open breaker admitted an operation")
	}
	later := now.Add(pol.Cooldown + time.Millisecond)
	if !b.Allow(later) || b.State() != "half-open" {
		t.Fatalf("state %q after cooldown, want half-open probe", b.State())
	}
	if b.Allow(later) {
		t.Error("half-open breaker admitted a second probe")
	}
	b.Record(false, later)
	if b.State() != "closed" {
		t.Fatalf("state %q after probe success, want closed", b.State())
	}

	// A failed probe re-opens the breaker, and a straggler that reports
	// while it is open does not count towards the next window.
	b.Record(true, later)
	b.Record(true, later)
	b.Record(false, later) // straggler: state is open
	reopen := later.Add(pol.Cooldown + time.Millisecond)
	if !b.Allow(reopen) {
		t.Fatal("cooled-down breaker refused its probe")
	}
	b.Record(true, reopen)
	if b.State() != "open" || b.Allow(reopen) {
		t.Fatalf("state %q after probe failure, want open and refusing", b.State())
	}

	// A one-outcome window trips on its first failure.
	one := NewBreaker(BreakerPolicy{Window: 1, FailureThreshold: 0.5, Cooldown: time.Second})
	if one.Record(true, now); one.State() != "open" {
		t.Fatalf("Window 1 breaker %q after a failure, want open", one.State())
	}

	// The proxy's failover breaker takes every default, and the window
	// slides: old failures age out, so a healthy server never trips on
	// history.
	def := PolicyOf(fault.Resilience{BreakerThreshold: fault.DefaultBreakerThreshold})
	if def != (BreakerPolicy{Window: 20, FailureThreshold: 0.5, Cooldown: time.Second}) {
		t.Fatalf("defaults = %+v", def)
	}
	h := NewBreaker(def)
	for i := 0; i < 4; i++ {
		h.Record(true, now) // below Window/2 outcomes, and 4/10 once there
	}
	for i := 0; i < 40; i++ {
		h.Record(false, now)
	}
	if h.State() != "closed" || h.fails != 0 {
		t.Fatalf("state %q with %d failures in the window after 40 successes, want closed/0", h.State(), h.fails)
	}
}

// searchOwner is the ring lookup as a binary search over the points: the
// definition the jump table must reproduce bit for bit.
func searchOwner(r *RingSelector, h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].server
}

// TestRingSelectorOwnerOracle checks the jump-table lookup against the
// binary search on a million random hashes and on the hashes where an
// off-by-one would show — each point's own hash and its two neighbours,
// and both ends of the hash space — on rings of several shapes.
func TestRingSelectorOwnerOracle(t *testing.T) {
	check := func(t *testing.T, r *RingSelector, random int, rng *rand.Rand) {
		t.Helper()
		same := func(h uint64) {
			if got, want := r.owner(h), searchOwner(r, h); got != want {
				t.Fatalf("owner(%#x) = %d, binary search says %d (%d points)", h, got, want, len(r.points))
			}
		}
		same(0)
		same(math.MaxUint64)
		for _, p := range r.points {
			same(p.hash - 1)
			same(p.hash)
			same(p.hash + 1)
		}
		for i := 0; i < random; i++ {
			same(rng.Uint64())
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{1, 1}, {1, 160}, {2, 160}, {3, 7}, {64, 160}} {
		r, err := NewRingSelector(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		check(t, r, 50_000, rng)
	}

	r, err := NewRingSelector(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	check(t, r, 1_000_000, rng)
}
