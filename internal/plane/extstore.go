package plane

import (
	"fmt"
	"math"
	"strconv"

	"memqlat/internal/dist"
	"memqlat/internal/mrc"
	"memqlat/internal/telemetry"
)

// Disk service-time families the model and simulator planes can price
// for the extstore tier.
const (
	DiskDistExp       = "exp"
	DiskDistLogNormal = "lognormal"
)

// extstoreTraceStream is the rng sub-stream seeding the synthetic MRC
// trace, disjoint from the loadgen (1, 11–15, 2000+) and sim (101–108)
// streams so arming the tier never perturbs their draw sequences.
const extstoreTraceStream = 901

// ExtstoreSpec arms the log-structured SSD cache tier (internal/
// extstore) behind the RAM tier on every plane. The tier split — what
// fraction of RAM misses the disk absorbs — is not an input: all three
// planes derive it from the same miss-ratio curve, computed over a
// seeded synthetic trace of the scenario's own key popularity (Keys,
// ZipfS), evaluated at the two capacity points RAMItems and TotalItems
// (mrc.Curve.Split). The model plane prices the miss stage at the
// blended service rate 1/µ' = β/µ_disk + (1−β)/µ_D; the composition
// simulator draws per-miss disk reads with probability β; the live
// plane runs real segment files in a temp dir and must realize β
// within measurement error.
//
// Scenario.MissRatio stays exogenous, as everywhere else in the model:
// for a coherent tiered scenario set it to the MRC's RAM miss ratio
// (1 − Split().RAMHit), which is what the live plane's capacity-sized
// cache realizes on its own.
type ExtstoreSpec struct {
	// RAMItems is the RAM tier's capacity in items across the cluster.
	RAMItems int
	// TotalItems is the combined RAM+SSD capacity in items; the SSD
	// budget is the difference.
	TotalItems int
	// MuDisk is the disk read service rate µ_disk (mean read 1/µ_disk)
	// the model and simulator planes price. The live plane ignores it —
	// its disk reads cost whatever the filesystem charges.
	MuDisk float64
	// DiskDist selects the simulated disk service-time family:
	// DiskDistExp (default) or DiskDistLogNormal (mean preserved at
	// 1/µ_disk, shape DiskSigma).
	DiskDist string
	// DiskSigma is the lognormal shape parameter (default 0.5).
	DiskSigma float64
}

// mrcTraceLen sizes the synthetic MRC trace, in accesses.
const mrcTraceLen = 50000

// withDefaults fills the spec's zero values.
func (e ExtstoreSpec) withDefaults() ExtstoreSpec {
	if e.DiskDist == "" {
		e.DiskDist = DiskDistExp
	}
	if e.DiskSigma == 0 {
		e.DiskSigma = 0.5
	}
	return e
}

// validate rejects specs no plane can realize.
func (e ExtstoreSpec) validate(name string) error {
	if e.RAMItems < 1 {
		return fmt.Errorf("plane: scenario %q: extstore RAMItems=%d must be >= 1", name, e.RAMItems)
	}
	if e.TotalItems <= e.RAMItems {
		return fmt.Errorf("plane: scenario %q: extstore TotalItems=%d must exceed RAMItems=%d (otherwise there is no SSD tier)",
			name, e.TotalItems, e.RAMItems)
	}
	// The model, the simulator and the live plane would each read an
	// infinite rate or shape differently, so no plane takes one.
	if !(e.MuDisk > 0) || math.IsInf(e.MuDisk, 1) {
		return fmt.Errorf("plane: scenario %q: extstore MuDisk=%v must be positive and finite", name, e.MuDisk)
	}
	switch e.DiskDist {
	case DiskDistExp, DiskDistLogNormal:
	default:
		return fmt.Errorf("plane: scenario %q: extstore DiskDist=%q unknown (exp, lognormal)", name, e.DiskDist)
	}
	if !(e.DiskSigma > 0) || math.IsInf(e.DiskSigma, 1) {
		return fmt.Errorf("plane: scenario %q: extstore DiskSigma=%v must be positive and finite", name, e.DiskSigma)
	}
	return nil
}

// ExtstoreSplit evaluates the scenario's miss-ratio curve at the two
// tier capacities, yielding the RAM-hit / disk-hit / DB-miss split
// every plane prices the SSD tier from. The trace is synthesized from
// the scenario's own key-popularity law — Zipf(ZipfS) over Keys keys
// (uniform when ZipfS = 0) on a seeded sub-stream — so the prediction
// and the live loadgen draw from the same law.
func (s Scenario) ExtstoreSplit() (mrc.TierSplit, error) {
	if s.Extstore == nil {
		return mrc.TierSplit{}, fmt.Errorf("plane: scenario %q has no extstore spec", s.Name)
	}
	e := s.Extstore.withDefaults()
	if err := e.validate(s.Name); err != nil {
		return mrc.TierSplit{}, err
	}
	keys := s.Keys
	if keys == 0 {
		keys = 2000
	}
	rng := dist.SubRand(s.Seed, extstoreTraceStream)
	draw := func() int { return rng.IntN(keys) }
	if s.ZipfS > 0 {
		z, err := dist.NewZipf(keys, s.ZipfS)
		if err != nil {
			return mrc.TierSplit{}, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
		}
		draw = func() int { return z.SampleInt(rng) }
	}
	a := mrc.NewAnalyzer()
	for i := 0; i < mrcTraceLen; i++ {
		a.Add("k" + strconv.Itoa(draw()))
	}
	curve, err := a.Curve()
	if err != nil {
		return mrc.TierSplit{}, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	split, err := curve.Split(e.RAMItems, e.TotalItems)
	if err != nil {
		return mrc.TierSplit{}, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	return split, nil
}

// ExtstoreResult is the tiered-storage surface of one run: the MRC
// prediction every plane shares plus whatever the plane measures.
type ExtstoreResult struct {
	// Predicted is the two-point MRC evaluation (RAM vs RAM+SSD) the
	// tier split was priced from — identical across planes for the same
	// scenario, which is what makes the measured counters diffable.
	Predicted mrc.TierSplit
	// DiskHits counts RAM misses the disk tier absorbed: real segment
	// reads on the live plane, β-coin draws on the simulator, zero on
	// the model plane (it prices rates, not counts).
	DiskHits int64
	// RAMMisses counts RAM-tier misses (the denominator of the realized
	// disk-hit fraction). Zero on the model plane.
	RAMMisses int64
	// Promotions counts disk hits re-inserted into RAM (live only).
	Promotions int64
	// SegmentBytes / Segments / Compactions / Drops snapshot the live
	// tier's physical state (zero on model and sim).
	SegmentBytes int64
	Segments     int
	Compactions  int64
	Drops        int64
}

// DiskHitFraction is the realized P{disk hit | RAM miss} — the number
// Predicted.DiskHitFraction() claims it should be.
func (e *ExtstoreResult) DiskHitFraction() float64 {
	if e.RAMMisses == 0 {
		return 0
	}
	return float64(e.DiskHits) / float64(e.RAMMisses)
}

// diskStage predicts the disk_read stage's distributional shape:
// exponential around 1/µ_disk by default; lognormal with the same mean
// (µ = ln(1/µ_disk) − σ²/2) when the spec selects it, with quantiles
// from the standard-normal points z₅₀=0, z₉₅=1.6449, z₉₉=2.3263.
func diskStage(e ExtstoreSpec) telemetry.StageStats {
	e = e.withDefaults()
	mean := 1 / e.MuDisk
	if e.DiskDist != DiskDistLogNormal {
		return expStage(mean)
	}
	sigma := e.DiskSigma
	mu := math.Log(mean) - sigma*sigma/2
	q := func(z float64) float64 { return math.Exp(mu + sigma*z) }
	return telemetry.StageStats{
		Count: 1, Mean: mean, Total: mean,
		P50: q(0), P95: q(1.6449), P99: q(2.3263),
	}
}
