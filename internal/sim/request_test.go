package sim

import (
	"math"
	"testing"

	"memqlat/internal/core"
	"memqlat/internal/otrace"
)

func facebookModel() *core.Config {
	return &core.Config{
		N:              150,
		LoadRatios:     core.BalancedLoad(4),
		TotalKeyRate:   4 * 62500,
		Q:              0.1,
		Xi:             0.15,
		MuS:            80000,
		MissRatio:      0.01,
		MuD:            1000,
		NetworkLatency: 20e-6,
	}
}

func TestSimulateRequestsValidation(t *testing.T) {
	if _, err := SimulateRequests(RequestConfig{Model: nil, Requests: 10}); err == nil {
		t.Error("nil model accepted")
	}
	bad := facebookModel()
	bad.N = 0
	if _, err := SimulateRequests(RequestConfig{Model: bad, Requests: 10}); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := SimulateRequests(RequestConfig{Model: facebookModel(), Requests: 0}); err == nil {
		t.Error("zero requests accepted")
	}
}

// The headline validation (paper Table 3): the simulated Facebook
// workload must land inside the Theorem 1 bounds.
func TestSimulateRequestsMatchesTheorem1(t *testing.T) {
	model := facebookModel()
	res, err := SimulateRequests(RequestConfig{
		Model:         model,
		Requests:      20000,
		KeysPerServer: 300000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := model.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	// E[TS(N)] with the paper's §4.5 estimator (composite N/(N+1)
	// quantile): paper experiment 368µs within [351µs, 366µs] ±.
	gotTS, err := res.TSQuantileEstimate(model)
	if err != nil {
		t.Fatal(err)
	}
	if span := 0.08 * est.TS.Hi; gotTS < est.TS.Lo-span || gotTS > est.TS.Hi+span {
		t.Errorf("E[TS(N)] quantile estimate = %v, theorem bounds [%v, %v]",
			gotTS, est.TS.Lo, est.TS.Hi)
	}
	// The mean of per-request maxima exceeds the quantile approximation
	// by the Euler–Mascheroni bias (~gamma/rate), but stays within ~25%
	// of the theorem interval.
	meanMax := res.TS.Mean()
	if meanMax < gotTS {
		t.Errorf("mean of maxima %v below quantile estimate %v", meanMax, gotTS)
	}
	if meanMax > est.TS.Hi*1.25 {
		t.Errorf("mean of maxima %v too far above theorem upper %v", meanMax, est.TS.Hi)
	}
	// E[TD(N)] with the paper's eq. 21–23 estimator: paper experiment
	// 867µs vs theory 836µs (~4% off).
	gotTD, err := res.TDQuantileEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(gotTD, est.TD, 0.08) {
		t.Errorf("E[TD(N)] quantile estimate = %v, theorem %v", gotTD, est.TD)
	}
	// The mean of per-request maxima again exceeds the quantile
	// estimate by the maximal-statistics bias (E[H_K]/µD vs
	// ln(K̄+1)/µD ≈ +30% here), but by no more than ~40%.
	if res.TD.Mean() < gotTD || res.TD.Mean() > est.TD*1.45 {
		t.Errorf("TD mean of maxima = %v vs estimate %v, theory %v",
			res.TD.Mean(), gotTD, est.TD)
	}
	// Total within [max, sum] with headroom for the mean-of-max bias on
	// both the TS and TD components (paper experiment: 1144µs in
	// [836µs, 1222µs]).
	gotT := res.Total.Mean()
	if gotT < est.Total.Lo*0.95 || gotT > est.Total.Hi*1.30 {
		t.Errorf("E[T(N)] = %v outside [%v, %v]", gotT, est.Total.Lo, est.Total.Hi)
	}
	// Network latency constant.
	if res.TN != 20e-6 {
		t.Errorf("TN = %v", res.TN)
	}
	// Miss accounting: ~1% of keys.
	missRate := float64(res.MissCount) / float64(res.KeyCount)
	if !almostEqual(missRate, 0.01, 0.1) {
		t.Errorf("miss rate = %v", missRate)
	}
}

func TestSimulateRequestsZeroMiss(t *testing.T) {
	model := facebookModel()
	model.MissRatio = 0
	res, err := SimulateRequests(RequestConfig{
		Model: model, Requests: 2000, KeysPerServer: 50000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissCount != 0 {
		t.Errorf("misses = %d", res.MissCount)
	}
	if res.TD.Mean() != 0 {
		t.Errorf("TD mean = %v", res.TD.Mean())
	}
}

func TestSimulateRequestsUnbalancedSkipsZeroServers(t *testing.T) {
	model := facebookModel()
	model.LoadRatios = []float64{1, 0, 0, 0}
	model.TotalKeyRate = 62500
	res, err := SimulateRequests(RequestConfig{
		Model: model, Requests: 1000, KeysPerServer: 50000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers[1] != nil || res.Servers[2] != nil {
		t.Error("zero-load servers were simulated")
	}
	if res.Servers[0] == nil {
		t.Error("loaded server missing")
	}
}

func TestSimulateRequestsDeterministic(t *testing.T) {
	cfg := RequestConfig{Model: facebookModel(), Requests: 500, KeysPerServer: 20000, Seed: 9}
	a, err := SimulateRequests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateRequests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total.Mean() != b.Total.Mean() || a.TS.Mean() != b.TS.Mean() {
		t.Error("same seed, different results")
	}
}

// Growing N must grow E[TS(N)] roughly logarithmically (Fig. 12 shape).
func TestSimulateRequestsLogNGrowth(t *testing.T) {
	means := make([]float64, 0, 3)
	for _, n := range []int{10, 100, 1000} {
		model := facebookModel()
		model.N = n
		model.MissRatio = 0
		res, err := SimulateRequests(RequestConfig{
			Model: model, Requests: 4000, KeysPerServer: 150000, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		means = append(means, res.TS.Mean())
	}
	inc1 := means[1] - means[0]
	inc2 := means[2] - means[1]
	if inc1 <= 0 || inc2 <= 0 {
		t.Fatalf("TS not increasing with N: %v", means)
	}
	// Log growth: equal per-decade increments within 35%.
	if math.Abs(inc2-inc1)/inc1 > 0.35 {
		t.Errorf("increments %v vs %v not log-like", inc1, inc2)
	}
}

// The composition simulator must emit virtual-time spans: one
// sim/request root per composed request with its stage children laid
// out in series on the virtual request timeline.
func TestSimulateRequestsEmitsVirtualSpans(t *testing.T) {
	tr := otrace.New(otrace.Options{RingSize: 4096})
	const requests = 50
	res, err := SimulateRequests(RequestConfig{
		Model: facebookModel(), Requests: requests, KeysPerServer: 20000,
		Seed: 7, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	var roots, kids []otrace.Span
	for _, sp := range spans {
		if sp.Comp != "sim" {
			t.Fatalf("unexpected component %q", sp.Comp)
		}
		if sp.Name == "request" {
			roots = append(roots, sp)
		} else {
			kids = append(kids, sp)
		}
	}
	if len(roots) != requests {
		t.Fatalf("sim/request roots = %d, want %d", len(roots), requests)
	}
	// Roots sit on the virtual arrival timeline (rate Λ/N), strictly
	// increasing from 0.
	for i := 1; i < len(roots); i++ {
		if roots[i].Start <= roots[i-1].Start {
			t.Fatalf("root starts not increasing: %v then %v", roots[i-1].Start, roots[i].Start)
		}
	}
	byID := make(map[uint64]otrace.Span, len(roots))
	for _, r := range roots {
		byID[r.ID] = r
	}
	sums := make(map[uint64]float64)
	for _, k := range kids {
		root, ok := byID[k.Parent]
		if !ok || k.Trace != root.Trace {
			t.Fatalf("child %+v not under a request root", k)
		}
		if k.Dur <= 0 {
			t.Fatalf("child %+v has non-positive duration", k)
		}
		sums[k.Parent] += k.Dur
	}
	// Stage children plus the constant network latency reconstruct the
	// root's duration.
	tn := facebookModel().NetworkLatency
	for id, sum := range sums {
		if root := byID[id]; math.Abs(sum+tn-root.Dur) > 1e-12 {
			t.Fatalf("stage durations %v + TN %v != total %v", sum, tn, root.Dur)
		}
	}
	if res.Requests != requests {
		t.Fatalf("res.Requests = %d", res.Requests)
	}
}

// Tracing must not perturb the simulation: same seed, same histogram.
func TestSimulateRequestsTracerNeutral(t *testing.T) {
	cfg := RequestConfig{Model: facebookModel(), Requests: 300, KeysPerServer: 20000, Seed: 11}
	plain, err := SimulateRequests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = otrace.New(otrace.Options{})
	traced, err := SimulateRequests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total.Mean() != traced.Total.Mean() || plain.Total.Count() != traced.Total.Count() {
		t.Errorf("tracing changed the measurement: %v/%d vs %v/%d",
			plain.Total.Mean(), plain.Total.Count(), traced.Total.Mean(), traced.Total.Count())
	}
}
