package sim

import (
	"math"
	"slices"
	"testing"

	"memqlat/internal/dist"
	"memqlat/internal/queueing"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	// Relative comparison with a tiny absolute floor so that
	// microsecond-scale quantities are compared meaningfully.
	return math.Abs(a-b) <= tol*math.Max(1e-15, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSimulateServerValidation(t *testing.T) {
	exp, _ := dist.NewExponential(100)
	cases := []ServerConfig{
		{Interarrival: nil, MuS: 1, Keys: 10},
		{Interarrival: exp, Q: -1, MuS: 1, Keys: 10},
		{Interarrival: exp, Q: 1, MuS: 1, Keys: 10},
		{Interarrival: exp, Q: 0, MuS: 0, Keys: 10},
		{Interarrival: exp, Q: 0, MuS: 1, Keys: 0},
	}
	for i, c := range cases {
		if _, err := SimulateServer(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// M/M/1 sanity: Poisson arrivals (q=0) at rho=0.5 must reproduce the
// textbook mean sojourn 1/(mu - lambda).
func TestSimulateServerMM1Mean(t *testing.T) {
	exp, err := dist.NewExponential(40000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateServer(ServerConfig{
		Interarrival: exp,
		Q:            0,
		MuS:          80000,
		Keys:         400000,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / (80000 - 40000)
	if !almostEqual(res.Mean(), want, 0.03) {
		t.Errorf("mean sojourn = %v, want %v", res.Mean(), want)
	}
	if len(res.Sojourns) != 400000 {
		t.Errorf("recorded %d sojourns", len(res.Sojourns))
	}
	if res.Batches == 0 {
		t.Error("no batches counted")
	}
}

// M/M/1 sojourn is exponential with rate mu - lambda: check the p90.
func TestSimulateServerMM1Quantile(t *testing.T) {
	exp, _ := dist.NewExponential(40000)
	res, err := SimulateServer(ServerConfig{
		Interarrival: exp, Q: 0, MuS: 80000, Keys: 400000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(10) / 40000
	if !almostEqual(got, want, 0.05) {
		t.Errorf("p90 = %v, want %v", got, want)
	}
}

// Fig. 4 check at unit scale: under the Facebook workload the simulated
// per-key latency quantiles must fall within the eq. 9 bounds.
func TestSimulateServerWithinEq9Bounds(t *testing.T) {
	gp, err := dist.NewGeneralizedPareto(0.15, (1-0.1)*62500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateServer(ServerConfig{
		Interarrival: gp, Q: 0.1, MuS: 80000, Keys: 600000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bq, err := queueing.NewBatchQueue(gp, 0.1, 80000)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		lo, hi, err := bq.KeyLatencyBounds(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Quantile(k)
		if err != nil {
			t.Fatal(err)
		}
		// 10% slack for finite-sample and histogram-resolution noise.
		if got < lo*0.9 || got > hi*1.1 {
			t.Errorf("k=%v: quantile %v outside [%v, %v]", k, got, lo, hi)
		}
	}
}

// Batching increases latency: same key rate, more concurrency.
func TestSimulateServerBatchingHurts(t *testing.T) {
	run := func(q float64) float64 {
		gp, err := dist.NewGeneralizedPareto(0.15, (1-q)*62500)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateServer(ServerConfig{
			Interarrival: gp, Q: q, MuS: 80000, Keys: 300000, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean()
	}
	if !(run(0.4) > run(0)) {
		t.Error("q=0.4 not slower than q=0")
	}
}

// Determinism: equal seeds give identical samples; different seeds differ.
func TestSimulateServerDeterminism(t *testing.T) {
	gp, _ := dist.NewGeneralizedPareto(0.15, 56250)
	cfg := ServerConfig{Interarrival: gp, Q: 0.1, MuS: 80000, Keys: 1000, Seed: 42}
	a, err := SimulateServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sojourns {
		if a.Sojourns[i] != b.Sojourns[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Sojourns[i], b.Sojourns[i])
		}
	}
	cfg.Seed = 43
	c, err := SimulateServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sojourns[0] == c.Sojourns[0] && a.Sojourns[1] == c.Sojourns[1] {
		t.Error("different seeds produced identical start")
	}
}

// The first Keys/10 keys are discarded: a run of 5000 keys records keys
// 501–5500 of the stream, a run of 5500 keys records keys 551–6050, and
// the stream itself does not depend on where it stops.
func TestSimulateServerWarmupDiscard(t *testing.T) {
	exp, _ := dist.NewExponential(10000)
	run := func(keys int) []float64 {
		res, err := SimulateServer(ServerConfig{Interarrival: exp, Q: 0.3, MuS: 80000, Keys: keys, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sojourns) != keys {
			t.Fatalf("recorded %d, want %d post-warmup keys", len(res.Sojourns), keys)
		}
		return res.Sojourns
	}
	a, b := run(5000), run(5500)
	if !slices.Equal(a[50:], b[:4950]) {
		t.Error("runs of 5000 and 5500 keys do not record the same stream 50 keys apart")
	}
}
