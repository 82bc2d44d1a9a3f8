package plane

import (
	"context"
	"math"
	"testing"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/otrace"
	"memqlat/internal/server"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
	"memqlat/internal/workload"
)

// scenarios returns the seeded cross-plane test matrix: the paper's
// Facebook workload plus parameter excursions along each model axis.
func scenarios() []Scenario {
	fb := FromConfig("facebook", workload.Facebook())
	light := FromConfig("light-load", workload.WithLambda(30000))
	bursty := FromConfig("bursty", workload.WithXi(0.3))
	batched := FromConfig("batched", workload.WithQ(0.3))
	smallN := FromConfig("small-n", workload.WithN(10))
	out := []Scenario{fb, light, bursty, batched, smallN}
	for i := range out {
		out[i].Requests = 8000
		out[i].KeysPerServer = 150000
		out[i].Seed = 7
	}
	return out
}

func TestByName(t *testing.T) {
	for _, name := range []string{"model", "sim", "sim-integrated", "live"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("quantum"); err == nil {
		t.Error("unknown plane accepted")
	}
}

// within reports whether x lies in b give or take slack·|b.Hi|, the
// simulation-noise allowance of the cross-plane checks.
func within(b core.Bounds, x, slack float64) bool {
	span := math.Abs(b.Hi) * slack
	return x >= b.Lo-span && x <= b.Hi+span
}

func TestModelPlaneDeterministic(t *testing.T) {
	s := FromConfig("facebook", workload.Facebook())
	a, err := ModelPlane{}.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelPlane{}.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Point() != b.Point() {
		t.Errorf("model plane not deterministic: %v vs %v", a.Point(), b.Point())
	}
	if a.Total.Lo > a.Total.Hi {
		t.Errorf("inverted bounds [%v, %v]", a.Total.Lo, a.Total.Hi)
	}
	for _, st := range telemetry.Stages() {
		if st == telemetry.StageMissPenalty && s.MissRatio == 0 {
			continue
		}
		switch st {
		case telemetry.StageRetry, telemetry.StageHedgeWait, telemetry.StageBreakerShed:
			// Resilience stages only materialize under fault schedules,
			// which the healthy analytic baseline never carries.
			continue
		case telemetry.StageLockWait:
			// Shard-lock contention is a live-plane-only diagnostic; the
			// analytic model has no lock convoys by construction.
			continue
		case telemetry.StageProxyHop:
			// The proxy stage only materializes when the scenario carries
			// a ProxySpec; the direct baseline never does.
			continue
		case telemetry.StageCoalesceWait:
			// Delayed hits only materialize when the scenario enables
			// miss coalescing; the naive baseline never does.
			continue
		case telemetry.StageTenantShed:
			// Tenant sheds only materialize when the scenario declares
			// tenant specs; the single-tenant baseline never does.
			continue
		case telemetry.StageDiskRead:
			// Disk reads only materialize when the scenario arms the
			// extstore tier; the RAM-only baseline never does.
			continue
		}
		if _, ok := a.Breakdown[st]; !ok {
			t.Errorf("model breakdown missing stage %v", st)
		}
	}
}

// TestModelPlaneQueueWaitIsTheBandLaw: the model plane's queue_wait
// quantiles are the eq. 3 law the SLO watchdog is banded with, not an
// exponential around the mean. At low utilization most keys do not
// wait, so the median is the same-batch term alone.
func TestModelPlaneQueueWaitIsTheBandLaw(t *testing.T) {
	for _, s := range []Scenario{
		FromConfig("facebook", workload.Facebook()),
		FromConfig("low-rho", workload.WithLambda(5000)),
	} {
		res, err := ModelPlane{}.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		bands, err := PredictedBands(s)
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.Breakdown[telemetry.StageQueueWait], bands[telemetry.StageQueueWait]
		if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
			t.Errorf("%s: model queue_wait p50/p95/p99 = %.1f/%.1f/%.1f µs, bands %.1f/%.1f/%.1f µs", s.Name,
				got.P50*1e6, got.P95*1e6, got.P99*1e6, want.P50*1e6, want.P95*1e6, want.P99*1e6)
		}
		bq, err := s.HeaviestQueue()
		if err != nil {
			t.Fatal(err)
		}
		delta, rate, batch := bq.Delta(), bq.DecayRate(), s.Q/(1-s.Q)/s.MuS
		if m := delta/rate + batch; math.Abs(got.Mean/m-1) > 1e-12 {
			t.Errorf("%s: queue_wait mean %.2f µs, want δ/R + q/(1−q)/µS = %.2f µs", s.Name, got.Mean*1e6, m*1e6)
		}
		// P{W > t} = δ·e^{−R·t} at the p99 (above the atom at every
		// utilization here).
		if p := delta * math.Exp(-rate*(got.P99-batch)); math.Abs(p/0.01-1) > 1e-9 {
			t.Errorf("%s: P{W > p99} = %.6f, want 0.01", s.Name, p)
		}
		if 1-delta >= 0.5 && got.P50 != batch {
			t.Errorf("%s: δ = %.3f but p50 = %.2f µs, want the batch term %.2f µs", s.Name, delta, got.P50*1e6, batch*1e6)
		}
		t.Logf("%s: δ %.3f, queue_wait p50/p95/p99 %.1f/%.1f/%.1f µs, mean %.1f µs", s.Name, delta,
			got.P50*1e6, got.P95*1e6, got.P99*1e6, got.Mean*1e6)
	}
}

func TestSimPlaneDeterministic(t *testing.T) {
	s := scenarios()[0]
	s.Requests = 2000
	s.KeysPerServer = 60000
	a, err := (SimPlane{}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (SimPlane{}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Point() != b.Point() {
		t.Errorf("sim plane not deterministic under fixed seed: %v vs %v", a.Point(), b.Point())
	}
}

// TestCrossPlaneConsistency is the harness's reason to exist: for every
// scenario in the matrix, the simulator plane's point estimate must
// land inside the model plane's Theorem 1 band (widened by the same 8%
// stochastic slack the simulator's own tests use), and the model's
// point must be plausible against the simulator's sampled mean.
func TestCrossPlaneConsistency(t *testing.T) {
	ctx := context.Background()
	for _, s := range scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			mres, err := ModelPlane{}.Run(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := (SimPlane{}).Run(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if !within(mres.Total, sres.Point(), 0.08) {
				t.Errorf("sim total %v outside model band [%v, %v] (+8%%)",
					sres.Point(), mres.Total.Lo, mres.Total.Hi)
			}
			// The memcached stage must agree too — it is where all the
			// queueing structure lives.
			if !within(mres.TS, sres.TS.Mid(), 0.08) {
				t.Errorf("sim TS %v outside model band [%v, %v] (+8%%)",
					sres.TS.Mid(), mres.TS.Lo, mres.TS.Hi)
			}
			// Breakdown stages that both planes populate must agree on
			// per-stage means within a loose factor (the model's stage
			// split is approximate, the sim's is measured).
			for _, st := range []telemetry.Stage{telemetry.StageQueueWait, telemetry.StageService} {
				mm := mres.Breakdown.MeanOf(st)
				sm := sres.Breakdown.MeanOf(st)
				if mm <= 0 || sm <= 0 {
					t.Fatalf("stage %v missing: model %v, sim %v", st, mm, sm)
				}
				if r := sm / mm; r < 0.5 || r > 2 {
					t.Errorf("stage %v disagrees: model mean %v, sim mean %v (ratio %.2f)",
						st, mm, sm, r)
				}
			}
			// The simulator's sampled mean of per-request maxima always
			// sits at or above the quantile-approximation point.
			if sres.MeanCI.Point+sres.Sample.Mean() == 0 {
				t.Fatal("sim plane produced no sample")
			}
			if math.IsNaN(sres.MeanCI.Lo) || sres.MeanCI.Lo > sres.MeanCI.Hi {
				t.Errorf("bad mean CI [%v, %v]", sres.MeanCI.Lo, sres.MeanCI.Hi)
			}
		})
	}
}

// TestCrossPlaneHotKeyCoalesced extends the cross-validation to the
// coalesced miss path: with single-flight coalescing on over a hot
// Zipf miss keyspace, the simulator's total must still land inside the
// model plane's Theorem 1 band — the band is unchanged by coalescing
// (memorylessness: the residual of an Exp(µD) window is Exp(µD)), so
// this pins that coalescing moves backend load, not latency bounds.
// The scenario is deliberately moderate: under extreme herds the
// within-request window correlation legitimately pulls the sim total
// below the naive band (see sim.TestCoalescedTDDistributionMatchesNaive).
func TestCrossPlaneHotKeyCoalesced(t *testing.T) {
	ctx := context.Background()
	s := scenarios()[0]
	s.Name = "facebook-hotkey-coalesced"
	s.Coalesce = true
	s.Keys = 200
	s.ZipfS = 1.0

	mres, err := ModelPlane{}.Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := (SimPlane{}).Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !within(mres.Total, sres.Point(), 0.08) {
		t.Errorf("coalesced sim total %v outside model band [%v, %v] (+8%%)",
			sres.Point(), mres.Total.Lo, mres.Total.Hi)
	}
	// Both planes expose the delayed-hit stage.
	if mres.Breakdown.MeanOf(telemetry.StageCoalesceWait) <= 0 {
		t.Error("model breakdown missing coalesce_wait stage")
	}
	cw, ok := sres.Breakdown[telemetry.StageCoalesceWait]
	if !ok || cw.Count == 0 || cw.Mean <= 0 {
		t.Fatalf("sim breakdown missing coalesce_wait samples: %+v", cw)
	}
	// The stage means must agree: both are Exp(µD) residuals.
	if r := cw.Mean / mres.Breakdown.MeanOf(telemetry.StageCoalesceWait); r < 0.5 || r > 2 {
		t.Errorf("coalesce_wait disagrees: model %v, sim %v (ratio %.2f)",
			mres.Breakdown.MeanOf(telemetry.StageCoalesceWait), cw.Mean, r)
	}
	// Miss accounting: every miss fetched or fanned in, and the hot
	// keyspace produced real coalescing.
	if sres.Sim.BackendFetches+sres.Sim.DelayedHits != sres.Sim.MissCount {
		t.Errorf("fetches(%d) + delayed(%d) != misses(%d)",
			sres.Sim.BackendFetches, sres.Sim.DelayedHits, sres.Sim.MissCount)
	}
	if sres.Sim.DelayedHits == 0 {
		t.Error("hot-key coalesced run produced no delayed hits")
	}
	// The analytic delayed-hit fraction must predict the sim's fetch
	// savings (loose band: D varies with the realized key mix).
	d, err := DelayedHitFraction(s.TotalKeyRate*s.MissRatio, s.MuD, s.Keys, s.ZipfS)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(sres.Sim.DelayedHits) / float64(sres.Sim.MissCount)
	if d <= 0 || got < d*0.5 || got > d*1.5 {
		t.Errorf("delayed-hit fraction: predicted %.3f, sim measured %.3f", d, got)
	}
}

// TestCrossPlaneProxiedConsistency extends the cross-validation to the
// proxy tier: with a ProxySpec interposed, the composition simulator's
// proxied total must still land inside the model plane's (proxy-stage
// augmented) Theorem 1 band with the usual 8% slack, and both planes
// must agree the proxy made things strictly slower than direct.
func TestCrossPlaneProxiedConsistency(t *testing.T) {
	ctx := context.Background()
	direct := scenarios()[0]
	proxied := direct
	proxied.Name = "facebook-proxied"
	proxied.Proxy = &ProxySpec{}

	mdir, err := ModelPlane{}.Run(ctx, direct)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := ModelPlane{}.Run(ctx, proxied)
	if err != nil {
		t.Fatal(err)
	}
	sdir, err := (SimPlane{}).Run(ctx, direct)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := (SimPlane{}).Run(ctx, proxied)
	if err != nil {
		t.Fatal(err)
	}
	if !within(mres.Total, sres.Point(), 0.08) {
		t.Errorf("proxied sim total %v outside model band [%v, %v] (+8%%)",
			sres.Point(), mres.Total.Lo, mres.Total.Hi)
	}
	if mres.Total.Lo <= mdir.Total.Lo || sres.Point() <= sdir.Point() {
		t.Errorf("proxy hop should cost latency: model %v vs %v, sim %v vs %v",
			mres.Total.Lo, mdir.Total.Lo, sres.Point(), sdir.Point())
	}
	// Both planes expose the hop in the stage decomposition.
	if mres.Breakdown.MeanOf(telemetry.StageProxyHop) <= 0 {
		t.Error("model breakdown missing proxy_hop stage")
	}
	ph, ok := sres.Breakdown[telemetry.StageProxyHop]
	if !ok || ph.Count == 0 || ph.Mean <= 0 {
		t.Errorf("sim breakdown missing proxy_hop samples: %+v", ph)
	}
	if sres.Sim == nil || sres.Sim.TP == nil || sres.Sim.TP.Count() == 0 {
		t.Fatal("sim result missing the TP histogram")
	}
	// Replicated reads through the proxy hedge the memcached stage but
	// charge the duplicated traffic to the servers. The invariant is
	// therefore conditional on load: the fastest-of-2 draw must beat a
	// single draw at the same (doubled) per-server key rate.
	light := scenarios()[1]
	repl := light
	repl.Name = "light-proxied-replicated"
	repl.Proxy = &ProxySpec{Policy: "replicate", Replicas: 2}
	rres, err := (SimPlane{}).Run(ctx, repl)
	if err != nil {
		t.Fatal(err)
	}
	inflated := light
	inflated.Name = "light-proxied-inflated"
	inflated.TotalKeyRate *= 2
	inflated.Proxy = &ProxySpec{}
	ires, err := (SimPlane{}).Run(ctx, inflated)
	if err != nil {
		t.Fatal(err)
	}
	if rres.TS.Mid() >= ires.TS.Mid() {
		t.Errorf("replicated TS %v not below equal-load direct TS %v",
			rres.TS.Mid(), ires.TS.Mid())
	}
	// The integrated simulator has no proxy stream: asking for one is an
	// explicit error, not a silently direct run.
	if _, err := (SimPlane{Mode: SimIntegrated}).Run(ctx, proxied); err == nil {
		t.Error("sim-integrated accepted a ProxySpec")
	}
	// A bogus policy is rejected up front on every plane.
	bad := proxied
	bad.Proxy = &ProxySpec{Policy: "quantum"}
	if _, err := (ModelPlane{}).Run(ctx, bad); err == nil {
		t.Error("model plane accepted unknown proxy policy")
	}
	if _, err := (SimPlane{}).Run(ctx, bad); err == nil {
		t.Error("sim plane accepted unknown proxy policy")
	}
}

// TestCrossPlaneNoisyNeighbor extends the cross-validation to the
// tenant QoS layer: a two-tenant mix (a victim inside its contract, an
// aggressor offering 3× its op quota) behind the proxy's token
// buckets. The composition simulator runs the same bucket code on the
// offered virtual timeline; its total over the admitted traffic must
// land inside the model plane's Theorem 1 band priced at the admitted
// Λ′ — and both planes must agree on who shed: the victim nothing,
// the aggressor ≈2/3 of its offer.
func TestCrossPlaneNoisyNeighbor(t *testing.T) {
	ctx := context.Background()
	s := scenarios()[0]
	s.Name = "facebook-noisy"
	s.Proxy = &ProxySpec{}
	quota := s.TotalKeyRate / 2 / 3 // a third of the aggressor's half
	s.Tenants = []tenant.Spec{
		{Name: "victim", Share: 0.5},
		{Name: "aggressor", Rate: quota, Share: 0.5},
	}

	mres, err := ModelPlane{}.Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := (SimPlane{}).Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !within(mres.Total, sres.Point(), 0.08) {
		t.Errorf("tenant-shed sim total %v outside model band [%v, %v] (+8%%)",
			sres.Point(), mres.Total.Lo, mres.Total.Hi)
	}
	// The model's band is exactly the no-tenant band at Λ′: pricing at
	// the admitted rate is the whole analytic treatment of shedding.
	admitted := s
	admitted.Tenants = nil
	admitted.TotalKeyRate = s.TotalKeyRate/2 + quota
	ares, err := ModelPlane{}.Run(ctx, admitted)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Total != ares.Total {
		t.Errorf("tenant model band [%v, %v] != admitted-rate band [%v, %v]",
			mres.Total.Lo, mres.Total.Hi, ares.Total.Lo, ares.Total.Hi)
	}
	// Both planes report per-tenant results in declared order.
	for _, res := range []*Result{mres, sres} {
		if len(res.Tenants) != 2 || res.Tenants[0].Name != "victim" ||
			res.Tenants[1].Name != "aggressor" {
			t.Fatalf("%s plane tenants = %+v", res.Plane, res.Tenants)
		}
	}
	victim, aggr := sres.Tenants[0], sres.Tenants[1]
	if victim.Shed != 0 {
		t.Errorf("victim shed %d keys, want 0", victim.Shed)
	}
	if aggr.Shed == 0 {
		t.Error("aggressor shed nothing at 3× quota")
	}
	// The aggressor's realized shed fraction tracks the analytic 2/3
	// (loose band: the bucket burst admits a little above quota).
	offeredKeys := float64(aggr.Issued)
	if frac := float64(aggr.Shed) / offeredKeys; frac < 0.5 || frac > 0.8 {
		t.Errorf("aggressor shed fraction %.3f, want ≈2/3", frac)
	}
	// Model rates: victim admitted in full, aggressor clamped to quota.
	mv, ma := mres.Tenants[0], mres.Tenants[1]
	if mv.Admitted != mv.Offered || ma.Admitted != quota {
		t.Errorf("model rates: victim %v/%v, aggressor %v (quota %v)",
			mv.Admitted, mv.Offered, ma.Admitted, quota)
	}
	// Sheds surface on the shared stage ledger, and the per-tenant
	// latency samples cover every admitted-key request.
	ts, ok := sres.Breakdown[telemetry.StageTenantShed]
	if !ok || ts.Count != sres.Sim.TenantShedKeys || sres.Sim.TenantShedKeys == 0 {
		t.Errorf("tenant_shed stage count %v != sim shed keys %d",
			ts.Count, sres.Sim.TenantShedKeys)
	}
	if victim.Latency == nil || victim.Latency.Count() == 0 ||
		aggr.Latency == nil || aggr.Latency.Count() == 0 {
		t.Error("sim per-tenant latency histograms empty")
	}
	// The integrated simulator has no tenant stream: explicit error.
	if _, err := (SimPlane{Mode: SimIntegrated}).Run(ctx, s); err == nil {
		t.Error("sim-integrated accepted tenant specs")
	}
	// Tenants without a proxy are rejected up front on every plane.
	noProxy := s
	noProxy.Proxy = nil
	if _, err := (ModelPlane{}).Run(ctx, noProxy); err == nil {
		t.Error("model plane accepted tenants without a proxy")
	}
	if _, err := (SimPlane{}).Run(ctx, noProxy); err == nil {
		t.Error("sim plane accepted tenants without a proxy")
	}
}

// onLiveCore runs f as a subtest named after the connection core the
// live plane's servers run — always the goroutine core; server's
// core-equivalence suite holds the event loop to the same replies.
func onLiveCore(t *testing.T, f func(t *testing.T, live LivePlane)) {
	t.Helper()
	if testing.Short() {
		t.Skip("live plane needs real time")
	}
	t.Run(server.CoreGoroutines, func(t *testing.T) { f(t, LivePlane{}) })
}

// liveTheorem1 is Theorem 1's mean key sojourn at server 0 for s run at
// the service rate mu and key rate lambda.
func liveTheorem1(t *testing.T, s Scenario, lambda, mu float64) float64 {
	t.Helper()
	s.TotalKeyRate, s.MuS = lambda, mu
	q, err := s.ServerQueue(0)
	if err != nil {
		t.Fatal(err)
	}
	return q.MeanSojourn()
}

// TestLivePlaneSmoke gates the live stack against Theorem 1 at the
// measured service rate: the prediction is taken at µ̂S = 1/(mean of
// the service stage) and the achieved key rate, so it prices whatever
// service the stations realized. The client's per-key mean must land
// within 25 % of it, and at 2·µ̂S the same comparison must miss by more
// than 100 %, so a stack shaping at twice its measured rate fails. ρ̂ is
// ≈ 0.3 here; near saturation the live mean spreads too widely to gate.
func TestLivePlaneSmoke(t *testing.T) {
	onLiveCore(t, func(t *testing.T, live LivePlane) {
		s := Scenario{
			Name: "live-gate",
			Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 600, Q: 0.1,
				Xi: 0.15, MuS: 1000, MuD: 1000},
			Ops:      2000,
			Duration: 60 * time.Second,
			Seed:     3,
		}
		res, err := live.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		service := res.Breakdown.MeanOf(telemetry.StageService)
		if service <= 0 || res.Sample == nil || res.Sample.Count() == 0 {
			t.Fatalf("live run measured no service stage (%v) or no sample", service)
		}
		mean, lambda, mu := res.Sample.Mean(), res.Live.AchievedRate(), 1/service
		theory, doubled := liveTheorem1(t, s, lambda, mu), liveTheorem1(t, s, lambda, 2*mu)
		t.Logf("live mean %.2f ms, Theorem 1 at λ̂ %.0f/s µ̂S %.0f/s (ρ̂ %.2f): %.2f ms (%+.0f %%), at 2·µ̂S %+.0f %%",
			mean*1e3, lambda, mu, lambda/2/mu, theory*1e3, 100*(mean/theory-1), 100*(mean/doubled-1))
		if e := mean/theory - 1; math.Abs(e) > 0.25 {
			t.Errorf("live mean %.2f ms is %+.0f %% off Theorem 1 at the measured service rate (%.2f ms); want within 25 %%",
				mean*1e3, 100*e, theory*1e3)
		}
		if e := mean/doubled - 1; e <= 1 {
			t.Errorf("at 2·µ̂S the live mean is only %+.0f %% off Theorem 1; want more than +100 %%", 100*e)
		}
	})
}

// TestLiveBreakdownCountsOnlyTheRun: flow balance on the shaped
// servers. Every command the servers serve during Drive — the gets and
// the read-through write-backs — is one queue_wait and one service
// observation, and the populate that Start ran is not in the breakdown.
func TestLiveBreakdownCountsOnlyTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("live plane needs real time")
	}
	r, err := (LivePlane{}).Start(Scenario{
		Name: "live-flow",
		Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 1000, Q: 0.1,
			Xi: 0.15, MuS: 2000, MissRatio: 0.05, MuD: 2000},
		Keys:     200,
		Ops:      500,
		Duration: 30 * time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	commands := func() (n int64) {
		for _, srv := range r.servers {
			n += srv.Counters().Commands
		}
		return n
	}
	before := commands()
	res, err := r.Drive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	served := commands() - before
	if res.DB == nil || res.DB.Lookups == 0 {
		t.Fatalf("run read through no misses (DB %+v): the write-backs go unchecked", res.DB)
	}
	// Without coalescing or a disk tier the backend times exactly the
	// fills counted as misses, so TD's stage mass is mean·r.
	b := res.Breakdown
	if want := b.MeanOf(telemetry.StageMissPenalty) * float64(res.Live.Misses) / float64(res.Live.Issued); math.Abs(res.TD/want-1) > 1e-9 {
		t.Errorf("TD = %v, want mean(miss_penalty)·misses/issued = %v", res.TD, want)
	}
	for _, st := range []telemetry.Stage{telemetry.StageQueueWait, telemetry.StageService} {
		if got := res.Breakdown[st].Count; got != served {
			t.Errorf("%s observations = %d, want the %d commands served during Drive", st, got, served)
		}
	}
}

// TestLivePlaneProxiedSmoke runs the scaled-down live scenario through
// a real TCP proxy in front of the server pool and checks the run
// completes with proxy_hop telemetry in the breakdown.
func TestLivePlaneProxiedSmoke(t *testing.T) {
	onLiveCore(t, func(t *testing.T, live LivePlane) {
		s := Scenario{
			Name: "live-proxied-smoke",
			Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 4000, Q: 0.1,
				Xi: 0.15, MuS: 2000, MissRatio: 0.01, MuD: 1000},
			Ops:      1200,
			Workers:  32,
			Duration: 30 * time.Second,
			Seed:     3,
			Proxy:    &ProxySpec{},
		}
		res, err := live.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Live == nil || res.Live.Issued == 0 {
			t.Fatal("proxied live plane issued no operations")
		}
		if res.Sample == nil || res.Sample.Count() == 0 {
			t.Fatal("proxied live plane recorded no latency sample")
		}
		ph, ok := res.Breakdown[telemetry.StageProxyHop]
		if !ok || ph.Count == 0 {
			t.Fatalf("proxied live breakdown missing proxy_hop samples: %+v", ph)
		}
		if res.Breakdown.MeanOf(telemetry.StageService) <= 0 {
			t.Fatal("proxied live breakdown missing server-side service stage")
		}
	})
}

// TestSimPlaneTraced checks Scenario.Tracer reaches the composition
// simulator: virtual-time request spans land in the ring.
func TestSimPlaneTraced(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	s := Scenario{
		Name: "sim-traced",
		Config: core.Config{N: 20, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 2 * 40000, Q: 0.1,
			Xi: 0.15, MuS: 60000, MuD: 1000},
		Requests:      200,
		KeysPerServer: 20000,
		Seed:          5,
		Tracer:        tr,
	}
	if _, err := (SimPlane{}).Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	if len(spans) == 0 {
		t.Fatal("sim plane recorded no spans")
	}
	roots := 0
	for _, sp := range spans {
		if sp.Comp == "sim" && sp.Name == "request" {
			roots++
		}
	}
	if roots != 200 {
		t.Errorf("sim/request roots = %d, want 200", roots)
	}
}

// TestLivePlaneTraced runs the scaled-down live scenario with a tracer
// on the Scenario and checks every tier contributed wall-clock spans.
func TestLivePlaneTraced(t *testing.T) {
	onLiveCore(t, func(t *testing.T, live LivePlane) {
		tr := otrace.New(otrace.Options{RingSize: 1 << 16})
		s := Scenario{
			Name: "live-traced",
			Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 4000, Q: 0.1,
				Xi: 0.15, MuS: 2000, MissRatio: 0.05, MuD: 1000},
			Ops:      600,
			Workers:  16,
			Duration: 30 * time.Second,
			Seed:     3,
			Tracer:   tr,
		}
		res, err := live.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Live == nil || res.Live.Issued == 0 {
			t.Fatal("traced live plane issued no operations")
		}
		comps := map[string]int{}
		for _, sp := range tr.Snapshot() {
			comps[sp.Comp]++
		}
		for _, comp := range []string{"client", "server", "backend"} {
			if comps[comp] == 0 {
				t.Errorf("no %s spans in live trace (got %v)", comp, comps)
			}
		}
	})
}
