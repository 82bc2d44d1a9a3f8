package sim

import (
	"math"
	"strings"
	"testing"

	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

func TestSimulateIntegratedValidation(t *testing.T) {
	if _, err := SimulateRequests(RequestConfig{Integrated: true, Model: nil, Requests: 1}); err == nil {
		t.Error("nil model accepted")
	}
	m := facebookModel()
	if _, err := SimulateRequests(RequestConfig{Integrated: true, Model: m, Requests: 0}); err == nil {
		t.Error("zero requests accepted")
	}
	bad := facebookModel()
	bad.MuS = 0
	if _, err := SimulateRequests(RequestConfig{Integrated: true, Model: bad, Requests: 1}); err == nil {
		t.Error("invalid model accepted")
	}
	// Every option drawn from a pre-simulated stream or acting on the
	// series join is refused by name, and the same option is fine for the
	// composition mode. The miss path is shared, so coalescing and the
	// extstore tier run in both modes.
	disk := &ExtstoreSim{DiskHitFraction: 0.5, Read: dist.Exponential{Rate: 1000}}
	for name, c := range map[string]struct {
		set     func(*RequestConfig)
		refused string
	}{
		"proxy":      {func(c *RequestConfig) { c.ProxyModel = facebookModel() }, "a proxy tier"},
		"replicas":   {func(c *RequestConfig) { c.ReadReplicas = 2 }, "read replicas"},
		"tenants":    {func(c *RequestConfig) { c.Tenants = []tenant.Spec{{Name: "a"}} }, "tenant QoS"},
		"coalesce":   {func(c *RequestConfig) { c.Coalesce = true }, ""},
		"extstore":   {func(c *RequestConfig) { c.Extstore = disk }, ""},
		"observer":   {func(c *RequestConfig) { c.Observer = nopObserver{} }, "a request observer"},
		"resilience": {func(c *RequestConfig) { c.Resilience = fault.Resilience{Retries: 1} }, "resilience policies"},
	} {
		cfg := RequestConfig{Model: facebookModel(), Requests: 10, KeysPerServer: 2000, Integrated: true}
		c.set(&cfg)
		_, err := SimulateRequests(cfg)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("integrated mode with %s: %v", name, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), "integrated mode does not model") ||
			!strings.Contains(err.Error(), c.refused)):
			t.Errorf("integrated mode with %s: err = %v, want a refusal naming %q", name, err, c.refused)
		}
		cfg.Integrated = false
		if _, err := SimulateRequests(cfg); err != nil {
			t.Errorf("composition mode with %s: %v", name, err)
		}
	}
}

// integratedMissRun is the integrated mode on a miss-heavy model, with
// coalescing over a hot keyspace and a disk tier as asked.
func integratedMissRun(t *testing.T, coalesce bool, disk *ExtstoreSim, col telemetry.Recorder) *RequestResult {
	t.Helper()
	res, err := SimulateRequests(RequestConfig{
		Model: hotMissModel(), Requests: 4000, Seed: 7, Integrated: true, Recorder: col,
		Coalesce: coalesce, MissKeys: 50, MissZipfS: 1.2, Extstore: disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIntegratedMissPath: the integrated mode sends its misses down the
// composition mode's miss path in completion order. Every measured miss
// is a backend fetch, a delayed hit or a disk hit, each on its stage.
func TestIntegratedMissPath(t *testing.T) {
	col := telemetry.NewCollector()
	res := integratedMissRun(t, true, &ExtstoreSim{DiskHitFraction: 0.4, Read: dist.Exponential{Rate: 5000}}, col)
	if res.BackendFetches+res.DelayedHits+res.DiskHits != res.MissCount {
		t.Fatalf("fetches(%d) + delayed(%d) + disk(%d) != misses(%d)",
			res.BackendFetches, res.DelayedHits, res.DiskHits, res.MissCount)
	}
	if res.BackendFetches == 0 || res.DelayedHits == 0 || res.DiskHits == 0 {
		t.Fatalf("fetches/delayed/disk = %d/%d/%d: every kind should occur",
			res.BackendFetches, res.DelayedHits, res.DiskHits)
	}
	if frac := float64(res.DiskHits) / float64(res.MissCount); math.Abs(frac-0.4) > 0.05 {
		t.Errorf("disk-hit fraction %.3f, want ~0.4", frac)
	}
	b := col.Breakdown()
	for st, want := range map[telemetry.Stage]int64{
		telemetry.StageMissPenalty:  res.BackendFetches,
		telemetry.StageCoalesceWait: res.DelayedHits,
		telemetry.StageDiskRead:     res.DiskHits,
	} {
		if got := b[st].Count; got != want {
			t.Errorf("%v count = %d, want %d", st, got, want)
		}
	}
	if got := res.DBLat.Count(); got != res.MissCount {
		t.Errorf("DBLat holds %d samples, want %d misses", got, res.MissCount)
	}

	// Coalescing only merges fetches: the same keys miss, so MissCount
	// holds while BackendFetches drops.
	naive, coalesced := integratedMissRun(t, false, nil, nil), integratedMissRun(t, true, nil, nil)
	if naive.MissCount != coalesced.MissCount {
		t.Fatalf("misses %d naive vs %d coalesced: coalescing changed which keys miss",
			naive.MissCount, coalesced.MissCount)
	}
	if naive.BackendFetches != naive.MissCount || naive.DelayedHits != 0 {
		t.Errorf("naive: %d fetches, %d delayed hits of %d misses", naive.BackendFetches, naive.DelayedHits, naive.MissCount)
	}
	if coalesced.BackendFetches*2 > naive.BackendFetches {
		t.Errorf("coalesced fetches %d, naive %d: a hot keyspace should collapse most of them",
			coalesced.BackendFetches, naive.BackendFetches)
	}
}

// TestIntegratedMissPathDeterministic: one seed, one run, whatever the
// miss path's stages.
func TestIntegratedMissPathDeterministic(t *testing.T) {
	read, err := dist.NewLogNormalMean(1.0/5000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	disk := &ExtstoreSim{DiskHitFraction: 0.4, Read: read}
	a, b := integratedMissRun(t, true, disk, nil), integratedMissRun(t, true, disk, nil)
	if a.Total.Mean() != b.Total.Mean() || a.TD.Mean() != b.TD.Mean() || a.Elapsed != b.Elapsed ||
		a.BackendFetches != b.BackendFetches || a.DelayedHits != b.DelayedHits || a.DiskHits != b.DiskHits {
		t.Errorf("same seed, different runs: total %v/%v, fetches %d/%d, delayed %d/%d, disk %d/%d",
			a.Total.Mean(), b.Total.Mean(), a.BackendFetches, b.BackendFetches,
			a.DelayedHits, b.DelayedHits, a.DiskHits, b.DiskHits)
	}
}

// nopObserver watches nothing.
type nopObserver struct{}

func (nopObserver) Observe(telemetry.Stage, float64) {}
func (nopObserver) BeginRequest(float64)             {}
func (nopObserver) RequestTotal(float64, float64)    {}

// The integrated request-driven system, run at moderate load, should agree
// with the composition simulator and the Theorem 1 ballpark on E[TS(N)].
func TestSimulateIntegratedAgreesWithModel(t *testing.T) {
	m := facebookModel()
	m.N = 20 // keep the event count tractable for CI
	m.TotalKeyRate = 4 * 40000
	m.MissRatio = 0.01
	res, err := SimulateRequests(RequestConfig{
		Model:      m,
		Requests:   4000,
		Seed:       1,
		Integrated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 4000 {
		t.Fatalf("completed %d", res.Requests)
	}
	est, err := m.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	// The integrated system violates the model's independence assumptions
	// (keys of one request arrive in one burst), so allow a generous
	// envelope: within a factor [0.5, 2] of the theorem interval.
	gotTS := res.TS.Mean()
	if gotTS < est.TS.Lo*0.5 || gotTS > est.TS.Hi*2 {
		t.Errorf("integrated E[TS] = %v, theorem [%v, %v]", gotTS, est.TS.Lo, est.TS.Hi)
	}
	// TD should be near the closed form (misses are rare and the DB is
	// an independent exponential stage in this mode).
	if est.TD > 0 && (res.TD.Mean() < est.TD*0.5 || res.TD.Mean() > est.TD*2) {
		t.Errorf("integrated E[TD] = %v, theorem %v", res.TD.Mean(), est.TD)
	}
	// Total latency must at least include the network constant.
	if res.Total.Mean() <= m.NetworkLatency {
		t.Errorf("total mean %v too small", res.Total.Mean())
	}
}

func TestSimulateIntegratedDeterministic(t *testing.T) {
	m := facebookModel()
	m.N = 5
	m.TotalKeyRate = 4 * 10000
	cfg := RequestConfig{Model: m, Requests: 500, Seed: 7, Integrated: true}
	a, err := SimulateRequests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateRequests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total.Mean() != b.Total.Mean() {
		t.Error("same seed, different integrated results")
	}
}

// Per-key latency in the integrated M/M/1-like regime (q irrelevant,
// light load): sojourn ≈ exp with rate mu - lambda at each server.
func TestSimulateIntegratedKeyLatencySanity(t *testing.T) {
	m := facebookModel()
	m.N = 1
	m.MissRatio = 0
	m.Xi = 0
	m.Q = 0
	m.TotalKeyRate = 4 * 40000 // rho = 0.5 per server
	res, err := SimulateRequests(RequestConfig{Integrated: true, Model: m, Requests: 60000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With N=1 the request stream is Poisson per server at 40K, so this
	// IS an M/M/1: mean sojourn 1/(80K-40K) = 25µs.
	want := 1.0 / 40000
	if !almostEqual(res.KeyLat.Mean(), want, 0.05) {
		t.Errorf("key latency mean = %v, want %v", res.KeyLat.Mean(), want)
	}
}

// The emergent utilization of the integrated system must match the
// configured rho, and Little's law (L = lambda * W) must hold for the
// per-server key latency.
func TestSimulateIntegratedUtilizationAndLittlesLaw(t *testing.T) {
	// N=1 keeps the per-server arrival process Poisson (thinned request
	// stream), so the M/M/1 closed form applies exactly; larger N makes
	// arrivals batchy and only raises W (see the ext-integrated ablation).
	m := facebookModel()
	m.N = 1
	m.Xi = 0
	m.Q = 0
	m.MissRatio = 0
	m.NetworkLatency = 0
	m.TotalKeyRate = 4 * 48000 // rho = 0.6 per server
	res, err := SimulateRequests(RequestConfig{Integrated: true, Model: m, Requests: 40000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || len(res.BusyTime) != 4 {
		t.Fatalf("elapsed %v over busy times %v: not measured", res.Elapsed, res.BusyTime)
	}
	for j, busy := range res.BusyTime {
		if got := busy / res.Elapsed; !almostEqual(got, 0.6, 0.05) {
			t.Errorf("server %d utilization = %v, want ~0.6", j, got)
		}
	}
	// Little's law on the whole cache tier: mean number of keys in
	// system L = lambda * W. We approximate L via lambda*W and check it
	// against the M/M/1 closed form rho/(1-rho) per server.
	lambdaPerServer := 48000.0
	w := res.KeyLat.Mean()
	l := lambdaPerServer * w
	want := 0.6 / 0.4 // M/M/1 mean number in system
	if !almostEqual(l, want, 0.1) {
		t.Errorf("Little's law L = %v, want ~%v", l, want)
	}
}
