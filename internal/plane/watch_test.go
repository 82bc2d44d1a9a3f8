package plane

import (
	"math"
	"strings"
	"testing"

	"memqlat/internal/core"
	"memqlat/internal/slo"
)

// bands reads back the p50/p95/p99 band of every stage w judges.
func bands(w *slo.Watchdog) map[string]slo.Quantiles {
	out := map[string]slo.Quantiles{}
	for _, ss := range w.Status().Stages {
		if ss.Predicted != nil {
			out[ss.Stage] = *ss.Predicted
		}
	}
	return out
}

// TestNewWatchdogBands pins, bit for bit, the bands each binary's -slo
// arms for the specs of TestSLOSmoke (a standalone server, and a live
// mcbench run whose scenario flags set the model) and of the daemons'
// drain tests. The values are the ones the per-binary band functions
// gave before NewWatchdog replaced them.
func TestNewWatchdogBands(t *testing.T) {
	mcbench := Scenario{Name: "mcbench", Config: core.Config{N: 1, LoadRatios: core.BalancedLoad(2),
		TotalKeyRate: 300, Xi: 0.15, Q: 0.1, MuS: 500, MissRatio: 0.2, MuD: 500}}
	for _, tc := range []struct {
		name, spec string
		s          Scenario
		want       map[string]slo.Quantiles
	}{
		{"memcached-server smoke", "lambda=100,mus=500,q=0.1,xi=0.15,window=0.5s,k=2,band=3", Scenario{Config: core.Config{MuS: 500}},
			map[string]slo.Quantiles{
				"queue_wait": {P50: 0.00022222222222222223, P95: 0.004580182157746285, P99: 0.00920981231286612},
				"service":    {P50: 0.0013862943611198907, P95: 0.0059914645471079815, P99: 0.009210340371976183},
			}},
		{"memcached-server drain", "lambda=100,mus=5000,window=20ms", Scenario{Config: core.Config{MuS: 5000}},
			map[string]slo.Quantiles{
				"queue_wait": {P50: 0, P95: 0, P99: 0.0001414586082775396},
				"service":    {P50: 0.00013862943611198905, P95: 0.0005991464547107981, P99: 0.0009210340371976184},
			}},
		{"mcproxy drain", "lambda=2000,mus=8000,window=20ms", Scenario{Proxy: &ProxySpec{}},
			map[string]slo.Quantiles{
				"proxy_hop": {P50: 0.00011552453009332422, P95: 0.0004992887122589985, P99: 0.0007675283643313486},
			}},
		{"mcbench live smoke", "window=0.5s,k=2,band=3", mcbench,
			map[string]slo.Quantiles{
				"queue_wait":   {P50: 0.00022222222222222223, P95: 0.00659296702229303, P99: 0.011977210832040605},
				"service":      {P50: 0.0013862943611198907, P95: 0.0059914645471079815, P99: 0.009210340371976183},
				"miss_penalty": {P50: 0.0013862943611198907, P95: 0.0059914645471079815, P99: 0.009210340371976183},
			}},
	} {
		w, err := NewWatchdog(tc.spec, tc.s, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := bands(w)
		if len(got) != len(tc.want) {
			t.Errorf("%s: bands on %v, want %v", tc.name, got, tc.want)
		}
		for stage, want := range tc.want {
			if got[stage] != want {
				t.Errorf("%s: %s band %+v, want %+v", tc.name, stage, got[stage], want)
			}
		}
	}
}

// TestNewWatchdogProxyIsMM1: with single-key batches (q = 0) and
// Poisson arrivals (ξ = 0) the proxy is an M/M/1 queue, whose sojourn
// is Exp(µ−λ): mcproxy -slo lambda=2000,mus=8000 arms a proxy_hop band
// of mean 1/(µ−λ) = 166.67 µs, quantiles −ln(1−p)/(µ−λ).
func TestNewWatchdogProxyIsMM1(t *testing.T) {
	w, err := NewWatchdog("lambda=2000,mus=8000", Scenario{Proxy: &ProxySpec{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := bands(w)["proxy_hop"]
	mean := 1 / (8000.0 - 2000.0)
	for i, q := range []struct{ p, got float64 }{{0.5, got.P50}, {0.95, got.P95}, {0.99, got.P99}} {
		if want := -math.Log(1-q.p) * mean; math.Abs(q.got/want-1) > 1e-12 {
			t.Errorf("proxy_hop quantile %d (p=%g) = %.4g µs, want M/M/1 %.4g µs", i, q.p, q.got*1e6, want*1e6)
		}
	}
}

// TestNewWatchdogRefusals: a harness run refuses each model key by
// name, since its scenario sets the model, and a standalone daemon
// needs the keys its model cannot do without.
func TestNewWatchdogRefusals(t *testing.T) {
	s := FromConfig("harness", &core.Config{N: 1, LoadRatios: core.BalancedLoad(2), TotalKeyRate: 300, MuS: 500, MuD: 500})
	for _, key := range []string{"lambda", "mus", "mud", "q", "xi", "miss", "n"} {
		_, err := NewWatchdog(key+"=1,window=1s", s, nil)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`": a model key`) {
			t.Errorf("harness -slo %s=1: err = %v, want a refusal naming %q", key, err, key)
		}
	}
	for spec, want := range map[string]string{
		"window=1s":                 "needs lambda > 0 and mus > 0",
		"lambda=100":                "needs lambda > 0 and mus > 0",
		"lambda=100,mus=500,miss=1": "miss > 0 needs mud > 0",
		"lambda=100,mus=500,nope=1": "unknown key",
	} {
		if _, err := NewWatchdog(spec, Scenario{}, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("standalone -slo %q: err = %v, want %q", spec, err, want)
		}
	}
}
