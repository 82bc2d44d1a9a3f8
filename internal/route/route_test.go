package route

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestModuloSelector(t *testing.T) {
	if _, err := NewModuloSelector(0); err == nil {
		t.Error("n=0 accepted")
	}
	m, err := NewModuloSelector(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 4 {
		t.Errorf("N = %d", m.N())
	}
	for i := 0; i < 100; i++ {
		idx := m.Pick(fmt.Sprintf("key-%d", i))
		if idx < 0 || idx >= 4 {
			t.Fatalf("pick out of range: %d", idx)
		}
	}
}

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

// TestRingSelectorIncrementalRemove is the consistent-hashing promise
// stated precisely: deleting one server's vnodes in place moves only
// that server's keys (~1/n of the total), every other key keeps its
// owner exactly, and Add restores the original ring bit-for-bit.
func TestRingSelectorIncrementalRemove(t *testing.T) {
	const servers, n = 5, 20000
	r, err := NewRingSelector(servers, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]int, n)
	for i := range before {
		before[i] = r.Pick(fmt.Sprintf("key-%d", i))
	}
	const victim = 2
	if err := r.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if r.Contains(victim) || r.Live() != servers-1 || r.N() != servers {
		t.Fatalf("membership after remove: contains=%v live=%d n=%d",
			r.Contains(victim), r.Live(), r.N())
	}
	moved, victims := 0, 0
	for i := range before {
		after := r.Pick(fmt.Sprintf("key-%d", i))
		if after == victim {
			t.Fatalf("key-%d still routed to removed server", i)
		}
		if before[i] == victim {
			victims++
			continue
		}
		if after != before[i] {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved between surviving servers; want 0", moved)
	}
	// The victim owned ~1/n of the keys, so that is all that moved.
	if frac := float64(victims) / n; math.Abs(frac-1.0/servers) > 0.1 {
		t.Errorf("victim owned %.3f of keys, want ~%.3f", frac, 1.0/servers)
	}
	if err := r.Add(victim); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if got := r.Pick(fmt.Sprintf("key-%d", i)); got != before[i] {
			t.Fatalf("key-%d owner %d after add, want %d (ring not restored)", i, got, before[i])
		}
	}
}

func TestRingSelectorMembershipErrors(t *testing.T) {
	r, _ := NewRingSelector(2, 8)
	if err := r.Remove(5); err == nil {
		t.Error("out-of-range remove accepted")
	}
	if err := r.Add(0); err == nil {
		t.Error("double add accepted")
	}
	if err := r.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(0); err == nil {
		t.Error("double remove accepted")
	}
	if err := r.Remove(1); err == nil {
		t.Error("removing the last server accepted")
	}
}

func TestRingSelectorAddGrows(t *testing.T) {
	r, _ := NewRingSelector(3, 0)
	if err := r.Add(3); err != nil {
		t.Fatal(err)
	}
	if r.N() != 4 || r.Live() != 4 {
		t.Fatalf("N=%d live=%d after growth, want 4/4", r.N(), r.Live())
	}
	fresh, _ := NewRingSelector(4, 0)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r.Pick(key) != fresh.Pick(key) {
			t.Fatal("grown ring disagrees with a fresh 4-server ring")
		}
	}
}

func TestWeightedSelectorValidation(t *testing.T) {
	if _, err := NewWeightedSelector(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewWeightedSelector([]float64{-1, 2}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestWeightedSelectorProportions(t *testing.T) {
	w, err := NewWeightedSelector([]float64{0.7, 0.1, 0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 4 {
		t.Errorf("N = %d", w.N())
	}
	counts := make([]int, 4)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[w.Pick(fmt.Sprintf("key-%d", i))]++
	}
	if share := float64(counts[0]) / n; math.Abs(share-0.7) > 0.03 {
		t.Errorf("heavy server share = %v, want ~0.7", share)
	}
	for s := 1; s < 4; s++ {
		if share := float64(counts[s]) / n; math.Abs(share-0.1) > 0.02 {
			t.Errorf("light server %d share = %v, want ~0.1", s, share)
		}
	}
}

// Property: every selector is deterministic per key, in range, and
// PickB agrees with Pick on identical bytes.
func TestPropertySelectorsDeterministicInRange(t *testing.T) {
	mod, _ := NewModuloSelector(7)
	ring, _ := NewRingSelector(7, 40)
	wt, _ := NewWeightedSelector([]float64{1, 2, 3, 4, 5, 6, 7})
	sels := []Selector{mod, ring, wt}
	f := func(key string) bool {
		for _, s := range sels {
			a := s.Pick(key)
			if a != s.Pick(key) {
				return false
			}
			if a < 0 || a >= s.N() {
				return false
			}
			if PickKey(s, []byte(key)) != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	pol := (&BreakerPolicy{Window: 4, MinSamples: 2, Cooldown: 10 * time.Millisecond}).WithDefaults()
	b := NewBreaker(*pol)
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
	b.Record(false, later)
	if b.State() != "closed" {
		t.Fatalf("state %q after probe success, want closed", b.State())
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
// and both ends of the hash space — on rings of several shapes and after
// every step of a membership walk.
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
	walk := []struct {
		add bool
		s   int
	}{
		{false, 3}, {false, 0}, {false, 7}, {true, 0}, {true, 8}, {false, 5},
		{true, 3}, {true, 9}, {false, 8}, {true, 7}, {true, 5}, {true, 8},
	}
	for _, step := range walk {
		if step.add {
			err = r.Add(step.s)
		} else {
			err = r.Remove(step.s)
		}
		if err != nil {
			t.Fatalf("walk step %+v: %v", step, err)
		}
		check(t, r, 20_000, rng)
	}
}
