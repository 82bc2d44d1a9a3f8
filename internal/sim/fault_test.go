package sim

import (
	"testing"

	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/telemetry"
)

func mustSchedule(t *testing.T, spec string) fault.Schedule {
	t.Helper()
	s, err := fault.ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = 42
	return s
}

func serverCfg(t *testing.T, seed uint64) ServerConfig {
	t.Helper()
	arrival, err := dist.NewGeneralizedPareto(0.15, 0.9*50000)
	if err != nil {
		t.Fatal(err)
	}
	return ServerConfig{
		Interarrival: arrival,
		Q:            0.1,
		MuS:          80000,
		Keys:         30000,
		Seed:         seed,
	}
}

// TestFaultSimServerSlowWindow: a permanent slowdown must shift the
// per-key latency distribution by at least the injected delay.
func TestFaultSimServerSlowWindow(t *testing.T) {
	healthy, err := SimulateServer(serverCfg(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverCfg(t, 5)
	inj, err := fault.NewInjector(mustSchedule(t, "slow:srv=0,delay=1ms"), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault, cfg.Server = inj, 0
	slowed, err := SimulateServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := slowed.Mean() - healthy.Mean(); got < 1e-3 {
		t.Errorf("slow fault added %.0fµs mean, want >= 1000µs", got*1e6)
	}
	if slowed.FailedKeys != 0 {
		t.Errorf("slowdown marked %d keys failed", slowed.FailedKeys)
	}
}

// TestFaultSimServerDropMarksFailed: a certain drop fails every key at
// the timeout stand-in latency.
func TestFaultSimServerDropMarksFailed(t *testing.T) {
	cfg := serverCfg(t, 6)
	cfg.Keys = 5000
	inj, err := fault.NewInjector(mustSchedule(t, "drop:srv=0,p=1,delay=50ms"), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault, cfg.Server = inj, 0
	res, err := SimulateServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedKeys != len(res.Sojourns) {
		t.Fatalf("%d/%d keys failed, want all", res.FailedKeys, len(res.Sojourns))
	}
	for i, s := range res.Sojourns {
		if s < 0.05 {
			t.Fatalf("dropped key %d observed %.1fms, want >= 50ms stand-in", i, s*1e3)
		}
		if !res.FailedAt(i) {
			t.Fatalf("key %d not marked failed", i)
		}
	}
}

// TestFaultSimRequestsDegraded: with one server refusing for the whole
// run, the composition must report failed keys and degraded requests,
// and the schedule determinism must hold run to run.
func TestFaultSimRequestsDegraded(t *testing.T) {
	run := func() *RequestResult {
		res, err := SimulateRequests(RequestConfig{
			Model:         facebookModel(),
			Requests:      400,
			KeysPerServer: 20000,
			Seed:          9,
			Faults:        mustSchedule(t, "refuse:srv=0"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FailedKeys == 0 || a.DegradedRequests == 0 {
		t.Fatalf("refusing server produced no failures: %+v", a)
	}
	if a.DegradedRequests != a.Requests {
		// With N=150 keys and ~1/4 on the dead server, every request
		// should see at least one failure.
		t.Errorf("only %d/%d requests degraded", a.DegradedRequests, a.Requests)
	}
	if a.FailedKeys != b.FailedKeys || a.Total.Mean() != b.Total.Mean() {
		t.Errorf("faulted run not deterministic: %d/%v vs %d/%v",
			a.FailedKeys, a.Total.Mean(), b.FailedKeys, b.Total.Mean())
	}
}

// TestFaultSimRetryMasksPartialDrops: with 20% of one server's replies
// dropped, two retries must recover most failed reads (independent
// redraws fail ~0.8% of the time vs 20%).
func TestFaultSimRetryMasksPartialDrops(t *testing.T) {
	base := RequestConfig{
		Model:         facebookModel(),
		Requests:      400,
		KeysPerServer: 20000,
		Seed:          11,
		Faults:        mustSchedule(t, "drop:srv=0,p=0.2,delay=5ms"),
	}
	raw, err := SimulateRequests(base)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	withRetry := base
	withRetry.Recorder = col
	withRetry.Resilience = fault.Resilience{Retries: 2, RetryBackoff: 1e-4}
	cured, err := SimulateRequests(withRetry)
	if err != nil {
		t.Fatal(err)
	}
	if raw.FailedKeys == 0 {
		t.Fatal("baseline drop schedule produced no failures")
	}
	if cured.FailedKeys*5 > raw.FailedKeys {
		t.Errorf("retries left %d failed keys of %d baseline, want < 20%%",
			cured.FailedKeys, raw.FailedKeys)
	}
	if col.Breakdown()[telemetry.StageRetry].Count == 0 {
		t.Error("no StageRetry observations under retry policy")
	}
}

// TestFaultSimBreakerShedsDropTimeouts: a breaker must convert slow
// drop-timeout failures into fast sheds, pulling the mean request
// latency down.
func TestFaultSimBreakerShedsDropTimeouts(t *testing.T) {
	base := RequestConfig{
		Model:         facebookModel(),
		Requests:      400,
		KeysPerServer: 20000,
		Seed:          13,
		Faults:        mustSchedule(t, "drop:srv=0,p=1,delay=20ms"),
	}
	raw, err := SimulateRequests(base)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	shedded := base
	shedded.Recorder = col
	shedded.Resilience = fault.Resilience{BreakerThreshold: 0.5, BreakerWindow: 20, BreakerCooldown: 0.05}
	cured, err := SimulateRequests(shedded)
	if err != nil {
		t.Fatal(err)
	}
	if cured.ShedKeys == 0 {
		t.Fatal("breaker never opened against a 100% drop server")
	}
	if cured.Total.Mean() >= raw.Total.Mean() {
		t.Errorf("breaker did not cut latency: %.1fms with vs %.1fms without",
			cured.Total.Mean()*1e3, raw.Total.Mean()*1e3)
	}
	if col.Breakdown()[telemetry.StageBreakerShed].Count == 0 {
		t.Error("no StageBreakerShed observations")
	}
}

// TestFaultSimHedgeRecoversDrops: a hedge draw races any read stuck
// past the trigger, so most dropped reads (stand-in >> trigger) get a
// second, usually successful, attempt.
func TestFaultSimHedgeRecoversDrops(t *testing.T) {
	base := RequestConfig{
		Model:         facebookModel(),
		Requests:      400,
		KeysPerServer: 20000,
		Seed:          17,
		Faults:        mustSchedule(t, "drop:srv=0,p=0.3,delay=10ms"),
	}
	raw, err := SimulateRequests(base)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	hedged := base
	hedged.Recorder = col
	hedged.Resilience = fault.Resilience{HedgeDelay: 2e-3}
	cured, err := SimulateRequests(hedged)
	if err != nil {
		t.Fatal(err)
	}
	if raw.FailedKeys == 0 {
		t.Fatal("baseline drop schedule produced no failures")
	}
	// Independent hedge draws fail ~0.3×0.3 = 9% of the time vs 30%.
	if cured.FailedKeys*2 > raw.FailedKeys {
		t.Errorf("hedging left %d failed keys of %d baseline, want < 50%%",
			cured.FailedKeys, raw.FailedKeys)
	}
	if col.Breakdown()[telemetry.StageHedgeWait].Count == 0 {
		t.Error("no StageHedgeWait observations")
	}
}

// TestFaultSimIntegratedSlow: the request-driven mode must also honor the
// schedule.
func TestFaultSimIntegratedSlow(t *testing.T) {
	model := facebookModel()
	healthy, err := SimulateRequests(RequestConfig{Integrated: true, Model: model, Requests: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := SimulateRequests(RequestConfig{
		Model:      model,
		Requests:   400,
		Seed:       3,
		Faults:     mustSchedule(t, "slow:srv=all,delay=100us"),
		Integrated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := slowed.TS.Mean() - healthy.TS.Mean(); got < 100e-6 {
		t.Errorf("integrated slow fault added %.0fµs TS mean, want >= 100µs", got*1e6)
	}
}

// TestFaultSimIntegratedDrop: a server drop fails keys in the integrated
// mode as it does in the composition: the lost keys and their requests
// are counted, and each costs its caller at least the rule's delay.
func TestFaultSimIntegratedDrop(t *testing.T) {
	res, err := SimulateRequests(RequestConfig{
		Model: facebookModel(), Requests: 400, Seed: 3, Integrated: true,
		Faults: mustSchedule(t, "drop:srv=0,p=0.3,delay=1ms"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedKeys == 0 || res.DegradedRequests == 0 {
		t.Fatalf("drop schedule failed %d keys, degraded %d requests; want both > 0",
			res.FailedKeys, res.DegradedRequests)
	}
	if res.FailedKeys > res.KeyCount || res.DegradedRequests > res.Requests {
		t.Errorf("failed %d of %d keys, degraded %d of %d requests",
			res.FailedKeys, res.KeyCount, res.DegradedRequests, res.Requests)
	}
	if got := res.TS.Mean(); got < 1e-3 {
		t.Errorf("TS mean %.0fµs, want >= the 1ms drop delay when most requests hold a lost key", got*1e6)
	}
}

// TestFaultSimHealthyUnchanged: the zero schedule must not perturb the
// healthy simulation (no RNG stream drift from the fault seam).
func TestFaultSimHealthyUnchanged(t *testing.T) {
	a, err := SimulateRequests(RequestConfig{
		Model: facebookModel(), Requests: 300, KeysPerServer: 20000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateRequests(RequestConfig{
		Model: facebookModel(), Requests: 300, KeysPerServer: 20000, Seed: 21,
		Faults: fault.Schedule{}, Resilience: fault.Resilience{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total.Mean() != b.Total.Mean() || a.KeyCount != b.KeyCount {
		t.Errorf("zero schedule perturbed the healthy run: %v vs %v",
			a.Total.Mean(), b.Total.Mean())
	}
}
