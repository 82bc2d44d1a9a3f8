package core

import (
	"math"
	"testing"
)

func TestCliffValidation(t *testing.T) {
	if _, err := CliffUtilization(-0.1, 0.1, CliffDeltaThreshold); err == nil {
		t.Error("negative xi accepted")
	}
	if _, err := CliffUtilization(1, 0.1, CliffDeltaThreshold); err == nil {
		t.Error("xi=1 accepted")
	}
	if _, err := CliffUtilization(0.1, 1, CliffDeltaThreshold); err == nil {
		t.Error("q=1 accepted")
	}
	if _, err := CliffUtilization(0.1, 0.1, CliffMethod(99)); err == nil {
		t.Error("unknown method accepted")
	}
}

// Calibration anchor: for xi=0 (Poisson) delta = rho exactly, so the
// delta-threshold method returns deltaStar itself — the paper's 77%.
func TestCliffDeltaThresholdPoisson(t *testing.T) {
	got, err := CliffUtilization(0, 0.1, CliffDeltaThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.77, 1e-3) {
		t.Errorf("cliff(0) = %v, want 0.77", got)
	}
}

// Proposition 2 / Table 4: the cliff is decreasing in the burst degree,
// for both detectors.
func TestCliffDecreasesWithXi(t *testing.T) {
	for _, method := range []CliffMethod{CliffSlope, CliffDeltaThreshold} {
		prev := 2.0
		for _, xi := range []float64{0, 0.3, 0.6, 0.9} {
			got, err := CliffUtilization(xi, 0.1, method)
			if err != nil {
				t.Fatal(err)
			}
			if got <= 0 || got >= 1 {
				t.Fatalf("method %d xi=%v: cliff %v out of (0,1)", method, xi, got)
			}
			if got >= prev {
				t.Errorf("method %d: cliff(xi=%v) = %v not decreasing (prev %v)", method, xi, got, prev)
			}
			prev = got
		}
	}
}

// The Facebook workload (xi=0.15) should cliff near the paper's 75%.
func TestCliffFacebookWorkload(t *testing.T) {
	got, err := CliffUtilization(0.15, 0.1, CliffDeltaThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.65 || got > 0.85 {
		t.Errorf("cliff(0.15) = %v, paper says ~0.75", got)
	}
}

// Heavy tails collapse the usable utilization (paper: xi=0.95 -> 9%).
func TestCliffHeavyTailCollapse(t *testing.T) {
	light, err := CliffUtilization(0, 0.1, CliffDeltaThreshold)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := CliffUtilization(0.95, 0.1, CliffDeltaThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if heavy > light/2 {
		t.Errorf("heavy-tail cliff %v not much below light-tail %v", heavy, light)
	}
}

func TestCliffTable(t *testing.T) {
	rows, err := CliffTable([]float64{0, 0.15, 0.5}, 0.1,
		CliffDeltaThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Utilization >= rows[i-1].Utilization {
			t.Errorf("table not decreasing at row %d", i)
		}
	}
	if _, err := CliffTable([]float64{-1}, 0.1, CliffDeltaThreshold); err == nil {
		t.Error("invalid xi row accepted")
	}
}

func TestPaperTable4Xis(t *testing.T) {
	xis := PaperTable4Xis()
	if len(xis) != 20 {
		t.Fatalf("len = %d, want 20", len(xis))
	}
	if xis[0] != 0 || !almostEqual(xis[19], 0.95, 1e-12) {
		t.Errorf("range = [%v, %v]", xis[0], xis[19])
	}
}

// Knee and delta-threshold agree on order of magnitude across xi.
func TestCliffMethodsAgreeRoughly(t *testing.T) {
	for _, xi := range []float64{0, 0.3, 0.6} {
		knee, err := CliffUtilization(xi, 0.1, CliffSlope)
		if err != nil {
			t.Fatal(err)
		}
		thr, err := CliffUtilization(xi, 0.1, CliffDeltaThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(knee-thr) > 0.35 {
			t.Errorf("xi=%v: knee %v vs threshold %v diverge", xi, knee, thr)
		}
	}
}
