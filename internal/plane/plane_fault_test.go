package plane

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/telemetry"
)

// faultScenario is the shared faulted scenario at N = 10; live callers
// set N = 1, the only request the live plane runs.
func faultScenario(t *testing.T, spec string, res fault.Resilience) Scenario {
	t.Helper()
	sched, err := fault.ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	sched.Seed = 7
	return Scenario{
		Name: "fault",
		Config: core.Config{N: 10, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 4000, Q: 0.1,
			Xi: 0.15, MuS: 2000, MuD: 1000},
		Ops:           600,
		Requests:      600,
		KeysPerServer: 30000,
		Workers:       16,
		Duration:      30 * time.Second,
		Seed:          3,
		Faults:        sched,
		Resilience:    res,
	}
}

// TestFaultCrossPlaneInjectedSequence is the acceptance check for the
// shared-schedule design: the injector the SimPlane builds and the one
// the LivePlane builds (same Schedule, same server count) must make the
// identical per-target decision sequence, regardless of when each
// target is consulted or how queries to different targets interleave —
// because decisions are a pure hash of (seed, rule, target, per-target
// op counter), never of time or global order.
func TestFaultCrossPlaneInjectedSequence(t *testing.T) {
	sched, err := fault.ParseSchedule("drop:srv=all,p=0.4,delay=1ms;slow:srv=1,p=0.5,delay=200us")
	if err != nil {
		t.Fatal(err)
	}
	sched.Seed = 99
	simInj, err := fault.NewInjector(sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	liveInj, err := fault.NewInjector(sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 500
	// Sim walk: virtual time, strictly per-target (server 0 first, then
	// server 1), regular spacing.
	var simSeq [2][]fault.Action
	for target := 0; target < 2; target++ {
		for i := 0; i < ops; i++ {
			simSeq[target] = append(simSeq[target], simInj.At(target, float64(i)*1e-4))
		}
	}
	// Live walk: wall-clock-like irregular times, targets interleaved the
	// way concurrent workers would hit them.
	var liveSeq [2][]fault.Action
	for i := 0; i < ops; i++ {
		now := float64(i)*3.3e-5 + float64(i%7)*1e-6
		liveSeq[1] = append(liveSeq[1], liveInj.At(1, now))
		liveSeq[0] = append(liveSeq[0], liveInj.At(0, now))
	}
	for target := 0; target < 2; target++ {
		for i := range simSeq[target] {
			if simSeq[target][i] != liveSeq[target][i] {
				t.Fatalf("server %d op %d: sim injected %+v, live injected %+v",
					target, i, simSeq[target][i], liveSeq[target][i])
			}
		}
	}
}

// TestFaultSimPlaneDegrades: the composition plane under a reset fault
// reports failures that the healthy run does not.
func TestFaultSimPlaneDegrades(t *testing.T) {
	s := faultScenario(t, "reset:srv=0", fault.Resilience{})
	res, err := SimPlane{}.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.FailedKeys == 0 || res.Sim.DegradedRequests == 0 {
		t.Fatalf("faulted sim plane reported no failures: %+v", res.Sim)
	}
	healthy := s
	healthy.Faults = fault.Schedule{}
	hres, err := SimPlane{}.Run(context.Background(), healthy)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Sim.FailedKeys != 0 {
		t.Fatalf("healthy sim plane reported %d failed keys", hres.Sim.FailedKeys)
	}
}

// TestFaultLivePlaneSameSchedule runs the LIVE TCP stack under the same
// reset schedule the sim test uses: every command on server 0 tears the
// connection down, so ~half the single-key gets must error while the
// healthy half keeps answering — the live realization of the degraded
// behavior the simulator predicts.
func TestFaultLivePlaneSameSchedule(t *testing.T) {
	onLiveCore(t, func(t *testing.T, live LivePlane) {
		s := faultScenario(t, "reset:srv=0", fault.Resilience{})
		s.N = 1
		res, err := live.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		lg := res.Live
		if lg.Errors == 0 {
			t.Fatal("live plane under reset:srv=0 reported no errors")
		}
		if lg.Hits == 0 {
			t.Fatal("live plane under reset:srv=0 lost the healthy server too")
		}
		// Balanced hashing puts ~half the keyspace on the dead server; allow
		// wide slack for the key distribution.
		frac := float64(lg.Errors) / float64(lg.Issued)
		if frac < 0.2 || frac > 0.8 {
			t.Errorf("error fraction %.2f, want roughly the dead server's key share", frac)
		}
	})
}

// TestFaultLivePlaneBreakerSheds: with the circuit breaker on, the same
// live fault turns slow transport errors into fast breaker sheds,
// visible both in the loadgen counters and the telemetry stage.
func TestFaultLivePlaneBreakerSheds(t *testing.T) {
	onLiveCore(t, func(t *testing.T, live LivePlane) {
		s := faultScenario(t, "reset:srv=0", fault.Resilience{
			BreakerThreshold: 0.5,
			BreakerWindow:    4,
			BreakerCooldown:  0.05,
		})
		s.N = 1
		res, err := live.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Live.Shed == 0 {
			t.Fatal("breaker never shed under a 100% reset fault")
		}
		if res.Breakdown.MeanOf(telemetry.StageBreakerShed) < 0 ||
			res.Breakdown[telemetry.StageBreakerShed].Count == 0 {
			t.Error("no StageBreakerShed telemetry from the live plane")
		}
	})
}

// TestFaultResilienceRefusedOnEveryPlane: a spec the planes would read
// differently (the client clamping what the simulator ignores) is
// refused by both instead of run by each in its own way.
func TestFaultResilienceRefusedOnEveryPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("live plane needs real time")
	}
	for _, tc := range []struct {
		name string
		res  fault.Resilience
	}{
		{"hedge-percentile-1.5", fault.Resilience{HedgePercentile: 1.5}},
		{"negative-backoff", fault.Resilience{Retries: 1, RetryBackoff: -1e-3}},
		{"negative-cooldown", fault.Resilience{BreakerThreshold: 0.5, BreakerCooldown: -1}},
		{"threshold-above-1", fault.Resilience{BreakerThreshold: 1.5}},
		{"negative-retries", fault.Resilience{Retries: -1}},
		{"nan-hedge-delay", fault.Resilience{HedgeDelay: math.NaN()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.res.Validate()
			if want == nil {
				t.Fatal("Validate accepted the spec")
			}
			s := faultScenario(t, "", tc.res)
			if _, err := (SimPlane{}).Run(context.Background(), s); err == nil || !strings.Contains(err.Error(), want.Error()) {
				t.Errorf("sim plane: err = %v, want %q", err, want)
			}
			s.N = 1
			r, err := (LivePlane{}).Start(s)
			if err == nil {
				r.Close()
			}
			if err == nil || !strings.Contains(err.Error(), want.Error()) {
				t.Errorf("live plane: err = %v, want %q", err, want)
			}
		})
	}
}
