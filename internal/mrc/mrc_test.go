package mrc

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"memqlat/internal/dist"
)

func TestEmptyTrace(t *testing.T) {
	a := NewAnalyzer()
	if _, err := a.Curve(); err != ErrEmptyTrace {
		t.Errorf("err = %v", err)
	}
}

func TestSingleKeyTrace(t *testing.T) {
	// a a a a: 1 cold miss, then stack distance 1 hits.
	curve, err := Compute([]string{"a", "a", "a", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := curve.MissRatio(1); got != 0.25 {
		t.Errorf("missRatio(1) = %v, want 0.25", got)
	}
	if got := curve.ColdMissRatio(); got != 0.25 {
		t.Errorf("cold = %v", got)
	}
	if curve.UniqueKeys() != 1 {
		t.Errorf("uniques = %d", curve.UniqueKeys())
	}
	if got := curve.MissRatio(0); got != 1 {
		t.Errorf("missRatio(0) = %v", got)
	}
}

func TestKnownStackDistances(t *testing.T) {
	// Trace: a b c a  -> the second 'a' has stack distance 3
	// (distinct keys a,b,c since inclusive), so it hits iff capacity >= 3.
	curve, err := Compute([]string{"a", "b", "c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := curve.MissRatio(2); got != 1.0 {
		t.Errorf("missRatio(2) = %v, want 1 (all four accesses miss)", got)
	}
	if got := curve.MissRatio(3); got != 0.75 {
		t.Errorf("missRatio(3) = %v, want 0.75", got)
	}
}

func TestCyclicTraceCliff(t *testing.T) {
	// Round-robin over 10 keys, 100 rounds: classic LRU pathology —
	// capacity 9 gives 100% misses, capacity 10 gives only cold misses.
	var trace []string
	for round := 0; round < 100; round++ {
		for k := 0; k < 10; k++ {
			trace = append(trace, fmt.Sprintf("key-%d", k))
		}
	}
	curve, err := Compute(trace)
	if err != nil {
		t.Fatal(err)
	}
	if got := curve.MissRatio(9); got != 1.0 {
		t.Errorf("missRatio(9) = %v, want 1 (LRU thrashing)", got)
	}
	if got := curve.MissRatio(10); !almostEqual(got, 0.01, 1e-9) {
		t.Errorf("missRatio(10) = %v, want 0.01 (cold only)", got)
	}
}

func TestMissRatioMonotoneNonIncreasing(t *testing.T) {
	rng := dist.NewRand(1)
	zipf, err := dist.NewZipf(500, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	for i := 0; i < 20000; i++ {
		a.Add(fmt.Sprintf("k-%d", zipf.SampleInt(rng)))
	}
	curve, err := a.Curve()
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for c := 0; c <= 500; c += 10 {
		mr := curve.MissRatio(c)
		if mr > prev+1e-12 {
			t.Fatalf("miss ratio increased at capacity %d: %v > %v", c, mr, prev)
		}
		if mr < 0 || mr > 1 {
			t.Fatalf("miss ratio out of range: %v", mr)
		}
		prev = mr
	}
	// Full capacity leaves only compulsory misses.
	if got := curve.MissRatio(curve.UniqueKeys()); !almostEqual(got, curve.ColdMissRatio(), 1e-9) {
		t.Errorf("floor = %v, cold = %v", got, curve.ColdMissRatio())
	}
}

func TestCapacityForMissRatio(t *testing.T) {
	rng := dist.NewRand(2)
	zipf, err := dist.NewZipf(300, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	for i := 0; i < 30000; i++ {
		a.Add(fmt.Sprintf("k-%d", zipf.SampleInt(rng)))
	}
	curve, err := a.Curve()
	if err != nil {
		t.Fatal(err)
	}
	target := 0.05
	capNeeded, err := curve.CapacityForMissRatio(target)
	if err != nil {
		t.Fatal(err)
	}
	if got := curve.MissRatio(capNeeded); got > target {
		t.Errorf("missRatio(%d) = %v > target", capNeeded, got)
	}
	if capNeeded > 0 {
		if got := curve.MissRatio(capNeeded - 1); got <= target {
			t.Errorf("capacity %d not minimal (smaller works: %v)", capNeeded, got)
		}
	}
	// Unreachable target.
	if _, err := curve.CapacityForMissRatio(curve.ColdMissRatio() / 2); err == nil {
		t.Error("target below compulsory floor accepted")
	}
	if _, err := curve.CapacityForMissRatio(-0.1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := curve.CapacityForMissRatio(math.NaN()); err == nil {
		t.Error("NaN target accepted")
	}
}

func TestAnalyzerCounters(t *testing.T) {
	a := NewAnalyzer()
	for _, k := range []string{"x", "y", "x", "z"} {
		a.Add(k)
	}
	if a.Accesses() != 4 || a.UniqueKeys() != 3 {
		t.Errorf("accesses=%d uniques=%d", a.Accesses(), a.UniqueKeys())
	}
}

// Property: against a brute-force LRU simulation, the MRC must agree
// exactly for every capacity.
func TestPropertyMatchesBruteForceLRU(t *testing.T) {
	f := func(seed uint64, nKeys, nAccess uint8) bool {
		keys := int(nKeys)%12 + 2
		accesses := int(nAccess)%150 + 20
		rng := dist.NewRand(seed)
		var trace []string
		for i := 0; i < accesses; i++ {
			trace = append(trace, fmt.Sprintf("k%d", rng.IntN(keys)))
		}
		curve, err := Compute(trace)
		if err != nil {
			return false
		}
		for capacity := 1; capacity <= keys+1; capacity++ {
			want := bruteForceLRUMissRatio(trace, capacity)
			got := curve.MissRatio(capacity)
			if math.Abs(got-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bruteForceLRUMissRatio simulates an actual LRU list.
func bruteForceLRUMissRatio(trace []string, capacity int) float64 {
	var lru []string // front = most recent
	misses := 0
	for _, k := range trace {
		found := -1
		for i, v := range lru {
			if v == k {
				found = i
				break
			}
		}
		if found >= 0 {
			lru = append(lru[:found], lru[found+1:]...)
		} else {
			misses++
			if len(lru) == capacity {
				lru = lru[:len(lru)-1]
			}
		}
		lru = append([]string{k}, lru...)
	}
	return float64(misses) / float64(len(trace))
}

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1e-15, math.Max(math.Abs(a), math.Abs(b)))
}

func TestDegenerateSinglePointCurve(t *testing.T) {
	// One key, repeated: the histogram holds a single stack distance,
	// so every query hits the same step edge.
	curve, err := Compute([]string{"a", "a", "a", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := curve.MissRatio(0); got != 1 {
		t.Errorf("MissRatio(0) = %v, want 1", got)
	}
	if got := curve.MissRatio(1); got != 0.25 {
		t.Errorf("MissRatio(1) = %v, want 0.25 (only the compulsory miss)", got)
	}
	if got := curve.MissRatio(100); got != 0.25 {
		t.Errorf("MissRatio(100) = %v, want floor 0.25", got)
	}
	capNeeded, err := curve.CapacityForMissRatio(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if capNeeded != 1 {
		t.Errorf("CapacityForMissRatio(0.25) = %d, want 1", capNeeded)
	}
}

func TestDegenerateNoReuseCurve(t *testing.T) {
	// Every access is cold: the histogram is empty, the distance grid
	// has zero points, and no capacity beats the compulsory floor.
	curve, err := Compute([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := curve.MissRatio(2); got != 1 {
		t.Errorf("MissRatio(2) = %v, want 1", got)
	}
	if got := curve.ColdMissRatio(); got != 1 {
		t.Errorf("ColdMissRatio = %v, want 1", got)
	}
	// A capacity of zero items is never a meaningful provisioning
	// answer, even when the target is trivially met everywhere.
	capNeeded, err := curve.CapacityForMissRatio(1)
	if err != nil {
		t.Fatal(err)
	}
	if capNeeded < 1 {
		t.Errorf("CapacityForMissRatio(1) = %d, want >= 1", capNeeded)
	}
}

func TestTierSplit(t *testing.T) {
	// Trace engineered so distances 1..3 each occur: a cache of 1 is
	// the RAM tier, 3 the RAM+SSD total.
	trace := []string{"a", "a", "b", "a", "c", "b", "a", "c", "b", "a"}
	curve, err := Compute(trace)
	if err != nil {
		t.Fatal(err)
	}
	split, err := curve.Split(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum := split.RAMHit + split.DiskHit + split.DBMiss
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("split sums to %v, want 1 (%+v)", sum, split)
	}
	if !almostEqual(split.RAMHit, 1-curve.MissRatio(1), 1e-9) {
		t.Errorf("RAMHit = %v, want %v", split.RAMHit, 1-curve.MissRatio(1))
	}
	if !almostEqual(split.DBMiss, curve.MissRatio(3), 1e-9) {
		t.Errorf("DBMiss = %v, want %v", split.DBMiss, curve.MissRatio(3))
	}
	if split.DiskHit <= 0 {
		t.Errorf("DiskHit = %v, want > 0 for a reuse-heavy trace", split.DiskHit)
	}
	want := split.DiskHit / (split.DiskHit + split.DBMiss)
	if got := split.DiskHitFraction(); !almostEqual(got, want, 1e-9) {
		t.Errorf("DiskHitFraction = %v, want %v", got, want)
	}

	// Validation and degenerate edges.
	if _, err := curve.Split(-1, 3); err == nil {
		t.Error("Split(-1, 3) should fail")
	}
	if _, err := curve.Split(3, 1); err == nil {
		t.Error("Split(3, 1) should fail")
	}
	same, err := curve.Split(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if same.DiskHit != 0 {
		t.Errorf("zero-size SSD tier DiskHit = %v, want 0", same.DiskHit)
	}
	if same.DiskHitFraction() != 0 {
		t.Errorf("zero-size SSD DiskHitFraction = %v, want 0", same.DiskHitFraction())
	}
}
