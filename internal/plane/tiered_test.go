package plane

import (
	"context"
	"math"
	"testing"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/sim"
	"memqlat/internal/telemetry"
	"memqlat/internal/workload"
)

// tieredScenario is the model/sim tiered matrix point: the paper's
// baseline at N=10 with an SSD tier absorbing most RAM misses. The
// MissRatio is not hand-picked — it is the MRC's own RAM miss ratio at
// RAMItems, which is the rate the live plane's capacity-sized cache
// realizes organically. MuDisk sits at 2× MuD so the model's
// blended-exponential miss stage stays a good approximation of the
// sim's explicit two-point mixture (widely separated rates make the
// mixture visibly non-exponential in the fork-join tail; the tiered
// experiment explores that axis, the cross-plane band pins this one).
func tieredScenario(t *testing.T) Scenario {
	t.Helper()
	s := FromConfig("tiered", workload.WithN(10))
	s.Requests = 8000
	s.KeysPerServer = 150000
	s.Seed = 7
	s.Keys = 2000
	s.ZipfS = 1.0
	s.Extstore = &ExtstoreSpec{RAMItems: 200, TotalItems: 1200, MuDisk: 2000}
	split, err := s.ExtstoreSplit()
	if err != nil {
		t.Fatal(err)
	}
	s.MissRatio = 1 - split.RAMHit
	if s.MissRatio <= 0.05 || split.DiskHitFraction() <= 0.3 {
		t.Fatalf("degenerate tier split %+v — the scenario no longer exercises the tier", split)
	}
	return s
}

// TestCrossPlaneTiered is the acceptance check for the extstore
// subsystem: all three planes price the SSD tier from the same
// miss-ratio curve, so (a) the composition simulator's tiered total
// must land inside the model plane's blended Theorem 1 band with the
// usual 8% slack, and (b) the live plane's realized disk-hit fraction
// — real segment reads over real RAM misses — must be within 1.5× of
// the MRC's two-point prediction.
func TestCrossPlaneTiered(t *testing.T) {
	ctx := context.Background()
	s := tieredScenario(t)
	split, err := s.ExtstoreSplit()
	if err != nil {
		t.Fatal(err)
	}
	beta := split.DiskHitFraction()

	t.Run("model-vs-sim", func(t *testing.T) {
		mres, err := ModelPlane{}.Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := (SimPlane{}).Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if !within(mres.Total, sres.Point(), 0.08) {
			t.Errorf("tiered sim total %v outside model band [%v, %v] (+8%%)",
				sres.Point(), mres.Total.Lo, mres.Total.Hi)
		}
		// Both planes share the identical MRC prediction — that is what
		// makes their disk columns diffable at all.
		if mres.Extstore == nil || sres.Extstore == nil {
			t.Fatal("tiered run missing the Extstore result surface")
		}
		if mres.Extstore.Predicted != sres.Extstore.Predicted {
			t.Errorf("planes disagree on the MRC split: model %+v, sim %+v",
				mres.Extstore.Predicted, sres.Extstore.Predicted)
		}
		// The model prices the stages separately: miss_penalty stays the
		// backend's 1/µ_D and disk_read carries the 1/µ_disk mean.
		if got := mres.Breakdown.MeanOf(telemetry.StageMissPenalty); math.Abs(got-1/s.MuD) > 1e-12 {
			t.Errorf("model miss_penalty mean = %v, want unblended %v", got, 1/s.MuD)
		}
		if got := mres.Breakdown.MeanOf(telemetry.StageDiskRead); math.Abs(got-1/s.Extstore.MuDisk) > 1e-12 {
			t.Errorf("model disk_read mean = %v, want %v", got, 1/s.Extstore.MuDisk)
		}
		// The sim measured real disk reads at the predicted fraction
		// (binomial over ~20k misses: ±10% is generous).
		ds := sres.Breakdown[telemetry.StageDiskRead]
		if ds.Count == 0 {
			t.Fatal("sim breakdown has no disk_read samples")
		}
		if r := ds.Mean / (1 / s.Extstore.MuDisk); r < 0.9 || r > 1.1 {
			t.Errorf("sim disk_read mean = %v, want ~%v", ds.Mean, 1/s.Extstore.MuDisk)
		}
		if sres.Sim.BackendFetches+sres.Sim.DelayedHits+sres.Sim.DiskHits != sres.Sim.MissCount {
			t.Errorf("fetches(%d) + delayed(%d) + disk(%d) != misses(%d)",
				sres.Sim.BackendFetches, sres.Sim.DelayedHits, sres.Sim.DiskHits, sres.Sim.MissCount)
		}
		got := sres.Extstore.DiskHitFraction()
		if got < beta*0.9 || got > beta*1.1 {
			t.Errorf("sim disk-hit fraction %.3f, MRC predicts %.3f", got, beta)
		}
	})

	// The integrated mode shares the miss path, so the tier absorbs its
	// misses at the same MRC fraction.
	t.Run("sim-integrated", func(t *testing.T) {
		ires, err := (SimPlane{Mode: SimIntegrated}).Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		in := ires.Sim
		if ires.Extstore == nil || in.DiskHits == 0 || ires.Breakdown[telemetry.StageDiskRead].Count != in.DiskHits {
			t.Fatalf("integrated tiered run reports no disk hits: %+v", ires.Extstore)
		}
		if in.BackendFetches+in.DelayedHits+in.DiskHits != in.MissCount {
			t.Errorf("fetches(%d) + delayed(%d) + disk(%d) != misses(%d)",
				in.BackendFetches, in.DelayedHits, in.DiskHits, in.MissCount)
		}
		if got := ires.Extstore.DiskHitFraction(); got < beta*0.9 || got > beta*1.1 {
			t.Errorf("integrated disk-hit fraction %.3f, MRC predicts %.3f", got, beta)
		}
	})

	t.Run("sim-deterministic", func(t *testing.T) {
		a, err := (SimPlane{}).Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := (SimPlane{}).Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Point() != b.Point() || a.Extstore.DiskHits != b.Extstore.DiskHits {
			t.Errorf("tiered sim not deterministic: %v/%d vs %v/%d",
				a.Point(), a.Extstore.DiskHits, b.Point(), b.Extstore.DiskHits)
		}
	})

	t.Run("coalesce-composes", func(t *testing.T) {
		cs := s
		cs.Coalesce = true
		sres, err := (SimPlane{}).Run(ctx, cs)
		if err != nil {
			t.Fatal(err)
		}
		// Disk hits are local reads — they never enter the coalescing
		// windows — and the three-way miss accounting must still close.
		if sres.Sim.BackendFetches+sres.Sim.DelayedHits+sres.Sim.DiskHits != sres.Sim.MissCount {
			t.Errorf("coalesced tiered accounting: fetches(%d) + delayed(%d) + disk(%d) != misses(%d)",
				sres.Sim.BackendFetches, sres.Sim.DelayedHits, sres.Sim.DiskHits, sres.Sim.MissCount)
		}
		if sres.Sim.DiskHits == 0 {
			t.Error("coalesced tiered run produced no disk hits")
		}
	})

	t.Run("live-vs-mrc", func(t *testing.T) {
		onLiveCore(t, func(t *testing.T, live LivePlane) {
			// The live leg runs the same tier spec and key-popularity law at
			// live-sustainable rates. MissRatio stays 0: the capacity-sized
			// RAM cache produces the misses organically, which is the whole
			// point of deriving the split from the MRC.
			ls := Scenario{
				Name: "tiered-live",
				Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 4000,
					Q: 0.1, Xi: 0.15, MuS: 2000, MuD: 1000},
				Ops:      8000,
				Workers:  32,
				Duration: 45 * time.Second,
				Seed:     7,
				Keys:     2000,
				ZipfS:    1.0,
				Extstore: &ExtstoreSpec{RAMItems: 200, TotalItems: 1200, MuDisk: 2000},
			}
			lsplit, err := ls.ExtstoreSplit()
			if err != nil {
				t.Fatal(err)
			}
			lbeta := lsplit.DiskHitFraction()
			res, err := live.Run(context.Background(), ls)
			if err != nil {
				t.Fatal(err)
			}
			er := res.Extstore
			if er == nil {
				t.Fatal("live tiered run missing the Extstore result surface")
			}
			if er.DiskHits == 0 || er.Promotions == 0 {
				t.Fatalf("live tier never served a read: %+v", er)
			}
			if er.RAMMisses == 0 {
				t.Fatal("capacity-sized cache produced no RAM misses")
			}
			if er.SegmentBytes == 0 || er.Segments == 0 {
				t.Fatalf("live tier holds no segments: %+v", er)
			}
			got := er.DiskHitFraction()
			t.Logf("live disk-hit fraction %.3f, MRC (exact LRU) predicts %.3f; RAM hit %.3f vs %.3f",
				got, lbeta, 1-float64(er.RAMMisses)/float64(ls.Ops), lsplit.RAMHit)
			if got < lbeta/1.5 || got > lbeta*1.5 {
				t.Errorf("live disk-hit fraction %.3f outside 1.5x of MRC prediction %.3f (hits=%d, ram misses=%d)",
					got, lbeta, er.DiskHits, er.RAMMisses)
			}
			// Real disk reads landed in the shared breakdown.
			if res.Breakdown[telemetry.StageDiskRead].Count == 0 {
				t.Error("live breakdown has no disk_read samples")
			}
		})
	})
}

// TestExtstoreSpecRefusedOnEveryPlane: a disk rate or shape that is not
// finite would be priced by the model, fail deep inside the simulator's
// distributions and be ignored by the live plane; instead every plane
// refuses it with the same validation error.
func TestExtstoreSpecRefusedOnEveryPlane(t *testing.T) {
	ctx := context.Background()
	for name, mut := range map[string]func(*ExtstoreSpec){
		"mud=Inf":   func(e *ExtstoreSpec) { e.MuDisk = math.Inf(1) },
		"sigma=NaN": func(e *ExtstoreSpec) { e.DiskDist, e.DiskSigma = DiskDistLogNormal, math.NaN() },
		"sigma=Inf": func(e *ExtstoreSpec) { e.DiskDist, e.DiskSigma = DiskDistLogNormal, math.Inf(1) },
	} {
		t.Run(name, func(t *testing.T) {
			s := tieredScenario(t)
			spec := *s.Extstore
			mut(&spec)
			s.Extstore = &spec
			want := spec.withDefaults().validate(s.Name)
			if want == nil {
				t.Fatal("validate accepted the spec")
			}
			_, mErr := ModelPlane{}.Run(ctx, s)
			_, sErr := (SimPlane{}).Run(ctx, s)
			ls := s
			ls.N = 1 // the live plane's request is one key
			r, lErr := (LivePlane{}).Start(ls)
			if lErr == nil {
				r.Close()
			}
			for plane, err := range map[string]error{"model": mErr, "sim": sErr, "live": lErr} {
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s plane: err = %v, want %q", plane, err, want)
				}
			}
		})
	}
}

// TestTieredScenarioValidation pins the rejection surface: malformed
// specs fail on every plane with a named scenario, and both simulator
// modes accept a well-formed one.
func TestTieredScenarioValidation(t *testing.T) {
	ctx := context.Background()
	s := tieredScenario(t)
	if _, err := (SimPlane{Mode: SimIntegrated}).Run(ctx, s); err != nil {
		t.Errorf("integrated sim refused an extstore scenario: %v", err)
	}
	for name, mut := range map[string]func(*ExtstoreSpec){
		"zero-ram":      func(e *ExtstoreSpec) { e.RAMItems = 0 },
		"no-ssd-budget": func(e *ExtstoreSpec) { e.TotalItems = e.RAMItems },
		"bad-mu":        func(e *ExtstoreSpec) { e.MuDisk = 0 },
		"bad-dist":      func(e *ExtstoreSpec) { e.DiskDist = "pareto" },
		"bad-sigma":     func(e *ExtstoreSpec) { e.DiskSigma = -1 },
	} {
		bad := s
		spec := *s.Extstore
		mut(&spec)
		bad.Extstore = &spec
		if _, err := bad.ExtstoreSplit(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
		if _, err := (ModelPlane{}).Run(ctx, bad); err == nil {
			t.Errorf("%s: model plane accepted invalid spec", name)
		}
		if _, err := (SimPlane{}).Run(ctx, bad); err == nil {
			t.Errorf("%s: sim plane accepted invalid spec", name)
		}
	}
	// Split determinism: same seed, same curve, same prediction.
	a, err := s.ExtstoreSplit()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ExtstoreSplit()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("ExtstoreSplit not deterministic: %+v vs %+v", a, b)
	}
	if sum := a.RAMHit + a.DiskHit + a.DBMiss; math.Abs(sum-1) > 1e-9 {
		t.Errorf("tier split does not sum to 1: %+v", a)
	}
	// Lognormal pricing keeps the disk stage's mean and orders quantiles.
	ln := s
	spec := *s.Extstore
	spec.DiskDist = DiskDistLogNormal
	ln.Extstore = &spec
	mres, err := ModelPlane{}.Run(ctx, ln)
	if err != nil {
		t.Fatal(err)
	}
	ds := mres.Breakdown[telemetry.StageDiskRead]
	if math.Abs(ds.Mean-1/spec.MuDisk) > 1e-12 {
		t.Errorf("lognormal disk_read mean = %v, want %v", ds.Mean, 1/spec.MuDisk)
	}
	if !(ds.P50 < ds.P95 && ds.P95 < ds.P99) {
		t.Errorf("lognormal quantiles out of order: %+v", ds)
	}
	if ds.P50 >= ds.Mean {
		t.Errorf("lognormal median %v must sit below the mean %v", ds.P50, ds.Mean)
	}
}

// TestDiskReadLawIsOneObject: the model prices, and the simulator draws,
// the disk read from the one law the tier builds, of mean 1/µ_disk; for
// the lognormal the priced median is that law's e^µ.
func TestDiskReadLawIsOneObject(t *testing.T) {
	for _, d := range []string{DiskDistExp, DiskDistLogNormal} {
		t.Run(d, func(t *testing.T) {
			s := tieredScenario(t).withDefaults()
			s.Extstore.DiskDist = d
			ti, err := s.extstoreTier()
			if err != nil {
				t.Fatal(err)
			}
			var rc sim.RequestConfig
			if err := ti.lower(&rc); err != nil {
				t.Fatal(err)
			}
			read, ok := rc.Extstore.Read.(dist.Interarrival)
			if !ok {
				t.Fatalf("simulated read law %T has no mean", rc.Extstore.Read)
			}
			if got, want := read.Mean(), 1/s.Extstore.MuDisk; math.Abs(got-want) > 1e-15 {
				t.Errorf("read law mean = %v, want 1/µ_disk = %v", got, want)
			}
			res := &Result{Breakdown: telemetry.Breakdown{}}
			if err := ti.price(res); err != nil {
				t.Fatal(err)
			}
			priced := res.Breakdown[telemetry.StageDiskRead]
			if priced != diskStage(read) || priced.Mean != read.Mean() {
				t.Errorf("priced disk_read %+v is not the simulated law's %+v", priced, diskStage(read))
			}
			if ln, ok := read.(dist.LogNormal); ok {
				if priced.P50 != math.Exp(ln.Mu) || ln.Sigma != s.Extstore.DiskSigma {
					t.Errorf("priced P50 = %v, want e^µ = %v (σ %v)", priced.P50, math.Exp(ln.Mu), ln.Sigma)
				}
			} else if d == DiskDistLogNormal {
				t.Errorf("DiskDist %q built a %T", d, read)
			}
		})
	}
}
