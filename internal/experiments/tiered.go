package experiments

import (
	"context"
	"fmt"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/plane"
)

// The tiered sweep spends a fixed hardware budget on two storage
// classes priced per item: RAM at tieredRAMCost units, SSD at
// tieredSSDCost. Every row buys a different RAM:SSD mix with the same
// tieredBudget units, so the table answers the capacity-planning
// question directly: at 4:1 price parity, how much RAM is worth
// trading for a slower-but-bigger extstore tier?
const (
	tieredKeys   = 2000
	tieredZipfS  = 1.0
	tieredMuDisk = 2000.0 // SSD reads at 2× the DB rate (0.5ms mean)

	tieredRAMCost = 4
	tieredSSDCost = 1
	tieredBudget  = 2400
)

// tieredModel is the paper's N=10 baseline with a slow enough backend
// (µ_D = 1000/s) that the miss path dominates: exactly the regime
// where an SSD tier pays.
func tieredModel() *core.Config {
	return &core.Config{
		N:              10,
		LoadRatios:     core.BalancedLoad(2),
		TotalKeyRate:   20000,
		Q:              0.1,
		Xi:             0.15,
		MuS:            80000,
		MissRatio:      0.1, // overwritten per split by the MRC
		MuD:            1000,
		NetworkLatency: 20e-6,
	}
}

// tieredSplit is one point of the sweep: f is the fraction of the
// budget spent on RAM.
type tieredSplit struct {
	ram, ssd int // items each class buys
}

func tieredSplits() []tieredSplit {
	var out []tieredSplit
	for _, f := range []float64{1, 2.0 / 3, 0.5, 1.0 / 3, 1.0 / 6} {
		ramUnits := f * tieredBudget
		out = append(out, tieredSplit{
			ram: int(ramUnits) / tieredRAMCost,
			ssd: (tieredBudget - int(ramUnits)) / tieredSSDCost,
		})
	}
	return out
}

// Tiered sweeps RAM:SSD capacity splits at a fixed total cost through
// the model and simulator planes, plus one scaled live leg with real
// segment files. All planes price the tier from the same miss-ratio
// curve: the MRC over the seeded Zipf trace yields both r (the RAM
// miss ratio at RAMItems) and β (the fraction of those misses the SSD
// absorbs at TotalItems), so the only per-plane difference is how the
// disk read is realized — a blended service rate (model), an explicit
// two-point mixture (sim), or a real pread from a segment file (live).
func Tiered(b Budget) (*Report, error) {
	start := time.Now()
	model := tieredModel()
	ctx := context.Background()

	// prep builds the scenario for one split and returns it with the
	// MRC-derived miss ratio r and disk-hit fraction β attached.
	prep := func(sp tieredSplit) (plane.Scenario, float64, float64, error) {
		s := scenarioFor("tiered", model, b, 0)
		s.Keys = tieredKeys
		s.ZipfS = tieredZipfS
		// The curve probe needs a tier spec even for the all-RAM split;
		// only RAMHit is read from it there.
		probe := s
		probe.Extstore = &plane.ExtstoreSpec{
			RAMItems:   sp.ram,
			TotalItems: max(sp.ram+sp.ssd, sp.ram+1),
			MuDisk:     tieredMuDisk,
		}
		split, err := probe.ExtstoreSplit()
		if err != nil {
			return s, 0, 0, err
		}
		s.MissRatio = 1 - split.RAMHit
		beta := 0.0
		if sp.ssd > 0 {
			s.Extstore = &plane.ExtstoreSpec{
				RAMItems:   sp.ram,
				TotalItems: sp.ram + sp.ssd,
				MuDisk:     tieredMuDisk,
			}
			beta = split.DiskHitFraction()
		}
		return s, s.MissRatio, beta, nil
	}

	var rows [][]string
	for _, sp := range tieredSplits() {
		s, r, beta, err := prep(sp)
		if err != nil {
			return nil, fmt.Errorf("split %d:%d: %w", sp.ram, sp.ssd, err)
		}
		mres, err := (plane.ModelPlane{}).Run(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("model %d:%d: %w", sp.ram, sp.ssd, err)
		}
		sres, err := (plane.SimPlane{}).Run(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("sim %d:%d: %w", sp.ram, sp.ssd, err)
		}
		rows = append(rows, tieredRow(fmt.Sprintf("%d:%d", sp.ram, sp.ssd), r, beta, mres, sres))
	}

	// --- live leg: the mid-sweep split on the real stack, with real
	// segment files in a temp dir, at live-sustainable rates. MissRatio
	// stays 0: the capacity-sized cache produces misses organically.
	liveSpec := &plane.ExtstoreSpec{RAMItems: 200, TotalItems: 1800, MuDisk: tieredMuDisk}
	ls := plane.Scenario{
		Name:         "tiered-live",
		N:            1,
		LoadRatios:   core.BalancedLoad(2),
		TotalKeyRate: 4000,
		Q:            0.1,
		Xi:           0.15,
		MuS:          2000,
		MuD:          1000,
		Ops:          max(b.Requests, 2000),
		Workers:      32,
		Duration:     45 * time.Second,
		Seed:         b.Seed,
		Keys:         tieredKeys,
		ZipfS:        tieredZipfS,
		Extstore:     liveSpec,
	}
	lsplit, err := ls.ExtstoreSplit()
	if err != nil {
		return nil, err
	}
	lres, err := (plane.LivePlane{}).Run(ctx, ls)
	if err != nil {
		return nil, fmt.Errorf("live %d:%d: %w", liveSpec.RAMItems, liveSpec.TotalItems-liveSpec.RAMItems, err)
	}
	rows = append(rows, tieredRow(
		fmt.Sprintf("live %d:%d", liveSpec.RAMItems, liveSpec.TotalItems-liveSpec.RAMItems),
		1-lsplit.RAMHit, lsplit.DiskHitFraction(), nil, lres))

	le := lres.Extstore
	notes := []string{
		fmt.Sprintf("every split spends the same %d cost units at %d:%d RAM:SSD price parity "+
			"(e.g. 600 RAM items ↔ 2400 SSD items); r and β come from one seeded Zipf(%.1f) "+
			"MRC over %d keys, shared verbatim by all planes", tieredBudget,
			tieredRAMCost, tieredSSDCost, tieredZipfS, tieredKeys),
		fmt.Sprintf("µ_disk = %.0f/s sits at 2× µ_D — close enough that the model's blended "+
			"miss-stage rate tracks the sim's explicit hit-or-fetch mixture; widely separated "+
			"rates would make the fork-join max visibly non-exponential", tieredMuDisk),
		"trading RAM for SSD raises r (smaller RAM catches fewer hits) but converts DB misses " +
			"into 0.5ms disk reads: E[T(N)] falls as long as β grows faster than r — the table's " +
			"minimum is the cost-optimal split",
	}
	if le != nil {
		notes = append(notes, fmt.Sprintf(
			"live leg: %d disk hits / %d RAM misses (β=%.2f vs MRC %.2f), %d promotions, "+
				"%d segments holding %d bytes, %d compactions",
			le.DiskHits, le.RAMMisses, le.DiskHitFraction(), lsplit.DiskHitFraction(),
			le.Promotions, le.Segments, le.SegmentBytes, le.Compactions))
	}
	return &Report{
		ID:    "tiered",
		Title: "tiered storage: RAM:SSD splits at fixed cost, priced by one shared MRC",
		Columns: []string{"split ram:ssd", "r", "β pred", "model E[T(N)]",
			"measured E[T(N)]", "p99", "disk hits", "db fetches", "β meas"},
		Rows:    rows,
		Notes:   notes,
		Elapsed: time.Since(start),
	}, nil
}

// tieredRow formats one split: the model band next to the measured
// point (sim or live), plus the tier's hit accounting.
func tieredRow(label string, r, beta float64, mres, meas *plane.Result) []string {
	cells := []string{label, fmt.Sprintf("%.3f", r), fmt.Sprintf("%.2f", beta),
		"-", "-", "-", "-", "-", "-"}
	if mres != nil {
		cells[3] = fmt.Sprintf("%s ~ %s", us(mres.Total.Lo), us(mres.Total.Hi))
	}
	if meas == nil {
		return cells
	}
	cells[4] = us(meas.Point())
	if meas.Sample != nil && meas.Sample.Count() > 0 {
		if v, err := meas.Sample.Quantile(0.99); err == nil {
			cells[5] = us(v)
		}
	}
	if meas.Sim != nil {
		cells[6] = fmt.Sprintf("%d", meas.Sim.DiskHits)
		cells[7] = fmt.Sprintf("%d", meas.Sim.BackendFetches)
	}
	if e := meas.Extstore; e != nil {
		cells[6] = fmt.Sprintf("%d", e.DiskHits)
		if e.RAMMisses > 0 {
			cells[8] = fmt.Sprintf("%.2f", e.DiskHitFraction())
		}
	}
	if meas.Live != nil {
		// Live fetches are the DB faults the tier failed to absorb.
		cells[7] = fmt.Sprintf("%d", meas.Live.Misses)
	}
	return cells
}
