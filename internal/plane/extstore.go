package plane

import (
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
// fraction β of RAM misses the disk absorbs — is not an input: all three
// planes derive it from the same miss-ratio curve (ExtstoreSplit). The
// model plane prices the miss stage at the blended service rate
// 1/µ' = β/µ_disk + (1−β)/µ_D; the composition simulator draws per-miss
// disk reads with probability β; the live plane runs real segment files
// in a temp dir and must realize β within measurement error.
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
	beta := split.DiskHitFraction()
	var caches []*cache.Cache
	var stores []*extstore.Store
	return tier{
		name: "the extstore tier",
		// A RAM miss is absorbed by the disk tier with probability β at
		// mean 1/µ_disk, else it pays the backend's 1/µ_D, so Theorem 1's
		// database stage is priced at the blended rate
		// 1/µ' = β/µ_disk + (1−β)/µ_D.
		reprice: func(c *core.Config) { c.MuD = 1 / (beta/e.MuDisk + (1-beta)/s.MuD) },
		price: func(res *Result) error {
			// The bounds price the blend, but the breakdown keeps the
			// stages apart the way the measured planes record them.
			if s.MissRatio > 0 {
				res.Breakdown[telemetry.StageMissPenalty] = expStage(1 / s.MuD)
				res.Breakdown[telemetry.StageDiskRead] = diskStage(e)
			}
			res.Extstore = &ExtstoreResult{Predicted: split}
			return nil
		},
		lower: func(rc *sim.RequestConfig) error {
			rc.Extstore = &sim.ExtstoreSim{DiskHitFraction: beta, MuDisk: e.MuDisk, Dist: e.DiskDist, Sigma: e.DiskSigma}
			return nil
		},
		simulated: func(out *sim.RequestResult, res *Result) {
			res.Extstore = &ExtstoreResult{Predicted: split, DiskHits: out.DiskHits, RAMMisses: out.MissCount}
		},
		server: func(r *LiveRun, _ int, o *server.Options) error {
			copts, eopts := liveTier(s, len(s.LoadRatios))
			dir, err := os.MkdirTemp("", "memqlat-extstore-*")
			if err != nil {
				return err
			}
			// The dir outlives the store and the store its server: reads
			// race a store's Close.
			r.closers = append(r.closers, func() { _ = os.RemoveAll(dir) })
			eopts.Dir = dir
			ext, err := extstore.Open(eopts)
			if err != nil {
				return err
			}
			r.closers = append(r.closers, func() { _ = ext.Close() })
			c, err := cache.New(copts)
			if err != nil {
				return err
			}
			o.Cache, o.Extstore = c, ext
			caches, stores = append(caches, c), append(stores, ext)
			return nil
		},
		drive: func(_ *LiveRun, d *driver) error {
			// A tiered run's misses are capacity misses, and whatever falls
			// past the disk tier must still read through to the backend.
			d.load.UseGetThrough = true
			return nil
		},
		populated: func() {
			// Drain the eviction queues so the measured run starts with the
			// populate spill fully indexed on disk.
			for _, st := range stores {
				st.Flush()
			}
		},
		summarize: func(r *LiveRun, _ *loadgen.Result, res *Result) {
			er := &ExtstoreResult{Predicted: split}
			for _, srv := range r.servers {
				dh, pr := srv.ExtstoreCounts()
				er.DiskHits += dh
				er.Promotions += pr
			}
			for _, c := range caches {
				// Populate only writes, so Misses counts the measured gets.
				er.RAMMisses += c.Stats().Misses
			}
			for _, st := range stores {
				ss := st.Stats()
				er.SegmentBytes += ss.SegmentBytes
				er.Segments += ss.Segments
				er.Compactions += ss.Compactions
				er.Drops += ss.Drops
			}
			res.Extstore = er
		},
	}, nil
}

// liveExtSegmentBytes keeps live-plane segments small so modest SSD
// budgets still roll across several segments (eviction granularity is
// a whole segment).
const liveExtSegmentBytes = 16 << 10

// liveTier sizes one server's share of a tiered scenario: a RAM cache
// holding ~RAMItems/M items and an extstore budget for the SSD share,
// both converted to bytes at the loadgen's key size and the scenario's
// ValueSize (0 = the loadgen default of 100).
func liveTier(s Scenario, m int) (cache.Options, extstore.Options) {
	valueSize := s.ValueSize
	if valueSize == 0 {
		valueSize = 100
	}
	e := s.Extstore
	keyLen := len(loadgen.KeyPrefix + strconv.Itoa(s.Keys-1))
	ramPer := (e.RAMItems + m - 1) / m
	diskPer := (e.TotalItems - e.RAMItems + m - 1) / m
	copts := cache.Options{
		// One shard: a sharded cache partitions its budget per shard,
		// which blurs the item capacity this sizing is trying to pin.
		// The split it is sized from is Mattson's, exact LRU; the cache
		// evicts by second chance, which lands within ~2 % of that RAM
		// hit ratio here (DESIGN §9.1).
		MaxBytes:    int64(ramPer) * cache.ItemCost(keyLen, valueSize),
		Shards:      1,
		MaxItemSize: 1024,
	}
	eopts := extstore.Options{
		SegmentBytes: liveExtSegmentBytes,
		// One segment of slack absorbs footers and the active segment's
		// unsealed tail.
		MaxBytes: int64(diskPer)*extstore.FrameCost(keyLen, valueSize) + liveExtSegmentBytes,
	}
	return copts, eopts
}

// attachedExtstore sums the extstore_* stats rows of an attached
// cluster, whose disk tier is its own: nil when no server reports one
// or a proxy in front does not relay the rows.
func (r *LiveRun) attachedExtstore() *ExtstoreResult {
	var er *ExtstoreResult
	for i := range r.cl.NumServers() {
		m, err := r.cl.ServerStats(i)
		if _, ok := m["extstore_disk_hits"]; err != nil || !ok {
			continue
		}
		if er == nil {
			er = &ExtstoreResult{}
		}
		row := func(k string) int64 {
			v, _ := strconv.ParseInt(m[k], 10, 64)
			return v
		}
		er.DiskHits += row("extstore_disk_hits")
		er.RAMMisses += row("get_misses") // cache.Stats().Misses, as in process
		er.Promotions += row("extstore_promotions")
		er.SegmentBytes += row("extstore_segment_bytes")
		er.Segments += int(row("extstore_segments"))
		er.Compactions += row("extstore_compactions")
		er.Drops += row("extstore_drops")
	}
	return er
}
