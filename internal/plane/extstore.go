package plane

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"strconv"

	"memqlat/internal/cache"
	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/extstore"
	"memqlat/internal/loadgen"
	"memqlat/internal/mrc"
	"memqlat/internal/server"
	"memqlat/internal/sim"
	"memqlat/internal/telemetry"
)

// The disk read laws an ExtstoreSpec can name (diskRead).
const (
	DiskDistExp       = "exp"
	DiskDistLogNormal = "lognormal"
)

const (
	// extstoreTraceStream is the rng sub-stream seeding the synthetic MRC
	// trace, disjoint from the loadgen (1, 11–15, 2000+) and sim (101–108)
	// streams so arming the tier never perturbs their draw sequences.
	extstoreTraceStream = 901
	// mrcTraceLen sizes the synthetic MRC trace, in accesses.
	mrcTraceLen = 50000
)

// ExtstoreSpec arms the log-structured SSD cache tier (internal/
// extstore) behind the RAM tier on every plane. The fraction β of RAM
// misses the disk absorbs is not an input: every plane derives it from
// one miss-ratio curve (ExtstoreSplit), and the live plane's real
// segment files must realize it within measurement error.
//
// Scenario.MissRatio stays exogenous, as everywhere else in the model:
// for a coherent tiered scenario set it to the MRC's RAM miss ratio
// (1 − Split().RAMHit), which the live plane's capacity-sized cache
// realizes on its own.
type ExtstoreSpec struct {
	// RAMItems is the RAM tier's capacity in items across the cluster.
	RAMItems int
	// TotalItems is the RAM+SSD capacity in items; the SSD's is the rest.
	TotalItems int
	// MuDisk is the disk read service rate µ_disk (mean read 1/µ_disk)
	// the model and simulator planes price. The live plane ignores it —
	// its disk reads cost whatever the filesystem charges.
	MuDisk float64
	// DiskDist selects the disk read law (diskRead): DiskDistExp
	// (default) or DiskDistLogNormal of shape DiskSigma (default 0.5).
	DiskDist  string
	DiskSigma float64
}

// withDefaults fills the spec's zero values.
func (e ExtstoreSpec) withDefaults() ExtstoreSpec {
	e.DiskDist, e.DiskSigma = cmp.Or(e.DiskDist, DiskDistExp), cmp.Or(e.DiskSigma, 0.5)
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
// tier capacities: the RAM-hit / disk-hit / DB-miss split every plane
// prices the SSD tier from. Its trace draws the live loadgen's key law,
// Zipf(ZipfS) over Keys keys (uniform at ZipfS = 0), on its own stream.
func (s Scenario) ExtstoreSplit() (mrc.TierSplit, error) {
	if s.Extstore == nil {
		return mrc.TierSplit{}, fmt.Errorf("plane: scenario %q has no extstore spec", s.Name)
	}
	s = s.withDefaults()
	e := *s.Extstore
	if err := e.validate(s.Name); err != nil {
		return mrc.TierSplit{}, err
	}
	rng := dist.SubRand(s.Seed, extstoreTraceStream)
	draw := func() int { return rng.IntN(s.Keys) }
	if s.ZipfS > 0 {
		z, err := dist.NewZipf(s.Keys, s.ZipfS)
		if err != nil {
			return mrc.TierSplit{}, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
		}
		draw = func() int { return z.SampleInt(rng) }
	}
	a := mrc.NewAnalyzer()
	for i := 0; i < mrcTraceLen; i++ {
		a.Add("k" + strconv.Itoa(draw()))
	}
	var split mrc.TierSplit
	curve, err := a.Curve()
	if err == nil {
		split, err = curve.Split(e.RAMItems, e.TotalItems)
	}
	if err != nil {
		return mrc.TierSplit{}, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	return split, nil
}

// ExtstoreResult is the tiered-storage surface of one run: the MRC
// prediction every plane shares plus whatever the plane measures.
type ExtstoreResult struct {
	// Predicted is the two-point MRC evaluation (RAM vs RAM+SSD) every
	// plane prices the split from, so the measured counters diff.
	Predicted mrc.TierSplit
	// DiskHits counts RAM misses the disk tier absorbed: segment reads
	// live, β-coin draws simulated, zero on the model (it prices rates).
	DiskHits int64
	// RAMMisses counts RAM-tier misses (zero on the model plane).
	RAMMisses int64
	// Promotions (disk hits re-inserted into RAM) and the rest snapshot
	// the live tier; they are zero on model and sim.
	Promotions   int64
	SegmentBytes int64
	Segments     int64
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

// diskRead is the disk read's service-time law, mean 1/µ_disk: the one
// object the model prices and the simulator draws from.
func (e ExtstoreSpec) diskRead() (dist.Interarrival, error) {
	if e.DiskDist == DiskDistLogNormal {
		return dist.NewLogNormalMean(1/e.MuDisk, e.DiskSigma)
	}
	return dist.NewExponential(e.MuDisk)
}

// diskStage predicts the disk_read stage from the read law: exponential
// quantiles, or a lognormal's e^(µ+σz) at the standard-normal points
// z₅₀=0, z₉₅=1.6449, z₉₉=2.3263.
func diskStage(read dist.Interarrival) telemetry.StageStats {
	mean := read.Mean()
	ln, ok := read.(dist.LogNormal)
	if !ok {
		return expStage(mean)
	}
	q := func(z float64) float64 { return math.Exp(ln.Mu + ln.Sigma*z) }
	return telemetry.StageStats{Count: 1, Mean: mean, Total: mean, P50: q(0), P95: q(1.6449), P99: q(2.3263)}
}

// extstoreTier is the disk tier unit; ExtstoreSpec says how each plane
// runs it.
func (s Scenario) extstoreTier() (tier, error) {
	e := *s.Extstore
	// The MRC prediction every plane prices from is also the Result's
	// cross-plane surface.
	split, err := s.ExtstoreSplit()
	if err != nil {
		return tier{}, err
	}
	read, err := e.diskRead()
	if err != nil {
		return tier{}, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	beta := split.DiskHitFraction()
	var stores []*extstore.Store
	return tier{
		name: "the extstore tier",
		// The disk absorbs a RAM miss with probability β at mean 1/µ_disk,
		// else it pays the backend's 1/µ_D, so Theorem 1's database stage
		// is priced at the blended rate 1/µ' = β/µ_disk + (1−β)/µ_D.
		reprice: func(c *core.Config) { c.MuD = 1 / (beta/e.MuDisk + (1-beta)/s.MuD) },
		price: func(res *Result) error {
			// The bounds price the blend, but the breakdown keeps the
			// stages apart the way the measured planes record them.
			if s.MissRatio > 0 {
				res.Breakdown[telemetry.StageMissPenalty] = expStage(1 / s.MuD)
				res.Breakdown[telemetry.StageDiskRead] = diskStage(read)
			}
			res.Extstore = &ExtstoreResult{Predicted: split}
			return nil
		},
		lower: func(rc *sim.RequestConfig) error {
			rc.Extstore = &sim.ExtstoreSim{DiskHitFraction: beta, Read: read}
			return nil
		},
		simulated: func(out *sim.RequestResult, res *Result) {
			res.Extstore = &ExtstoreResult{Predicted: split, DiskHits: out.DiskHits, RAMMisses: out.MissCount}
		},
		server: func(r *LiveRun, _ int, o *server.Options) error {
			err := r.liveTier(o)
			stores = append(stores, o.Extstore)
			return err
		},
		drive: func(_ *LiveRun, d *driver) error {
			// A tiered run's misses are capacity misses, and whatever falls
			// past the disk tier must still read through to the backend.
			d.load.UseGetThrough = true
			return nil
		},
		populated: func() {
			// The measured run starts with the populate spill indexed on disk.
			for _, st := range stores {
				st.Flush()
			}
		},
		summarize: func(_ *LiveRun, _ *loadgen.Result, res *Result) {
			// The servers' own rows are the measurement (diskLedger).
			res.Extstore.Predicted = split
		},
	}, nil
}

// liveExtSegmentBytes keeps live-plane segments small so modest SSD
// budgets still roll across several segments (eviction granularity is
// a whole segment).
const liveExtSegmentBytes = 16 << 10

// liveTier builds one server's share of a tiered scenario into o: a RAM
// cache holding ~RAMItems/M items and a store in a temp dir for the SSD
// share, both sized in bytes at the loadgen's key size and the
// scenario's ValueSize (0 = the loadgen default of 100).
func (r *LiveRun) liveTier(o *server.Options) error {
	s, m := r.s, len(r.s.LoadRatios)
	valueSize := cmp.Or(s.ValueSize, 100)
	keyLen := len(loadgen.KeyPrefix + strconv.Itoa(s.Keys-1))
	ramPer := (s.Extstore.RAMItems + m - 1) / m
	diskPer := (s.Extstore.TotalItems - s.Extstore.RAMItems + m - 1) / m
	dir, err := os.MkdirTemp("", "memqlat-extstore-*")
	if err != nil {
		return err
	}
	// The dir outlives the store and the store its server: reads race a
	// store's Close.
	r.closers = append(r.closers, func() { _ = os.RemoveAll(dir) })
	ext, err := extstore.Open(extstore.Options{
		Dir:          dir,
		SegmentBytes: liveExtSegmentBytes,
		// One segment of slack absorbs footers and the active segment's
		// unsealed tail.
		MaxBytes: int64(diskPer)*extstore.FrameCost(keyLen, valueSize) + liveExtSegmentBytes,
	})
	if err != nil {
		return err
	}
	r.closers = append(r.closers, func() { _ = ext.Close() })
	o.Extstore = ext
	o.Cache, err = cache.New(cache.Options{
		// One shard: a sharded cache partitions its budget per shard,
		// which blurs the item capacity this sizing is trying to pin.
		// The split it is sized from is Mattson's, exact LRU; the cache
		// evicts by second chance, which lands within ~2 % of that RAM
		// hit ratio here (DESIGN §9.1).
		MaxBytes:    int64(ramPer) * cache.ItemCost(keyLen, valueSize),
		Shards:      1,
		MaxItemSize: 1024,
	})
	return err
}

// diskLedger sums the disk-tier rows of the servers' stats tables into
// one report, nil when no server has a disk tier. RAMMisses is the
// caches' get_misses: populate only writes, so these are the measured
// gets. A row that does not parse is an error naming it.
func diskLedger(tables []map[string]string) (*ExtstoreResult, error) {
	var er *ExtstoreResult
	for _, m := range tables {
		if _, ok := m["extstore_disk_hits"]; !ok {
			continue
		}
		if er == nil {
			er = &ExtstoreResult{}
		}
		for _, f := range []struct {
			row string
			sum *int64
		}{
			{"extstore_disk_hits", &er.DiskHits}, {"get_misses", &er.RAMMisses},
			{"extstore_promotions", &er.Promotions}, {"extstore_segments", &er.Segments},
			{"extstore_segment_bytes", &er.SegmentBytes}, {"extstore_compactions", &er.Compactions},
			{"extstore_drops", &er.Drops},
		} {
			v, err := strconv.ParseInt(m[f.row], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("plane: stats row %s: %w", f.row, err)
			}
			*f.sum += v
		}
	}
	return er, nil
}
