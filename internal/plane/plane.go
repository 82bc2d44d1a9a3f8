// Package plane unifies the repo's three evaluation paths — the
// analytical model (internal/core), the simulator (internal/sim) and
// the live TCP stack (internal/server + internal/loadgen) — behind one
// interface. A Scenario is a core.Config, the deployment/workload in the
// paper's terms (Table 1), plus how to run it; a Plane runs it and returns
// a Result whose shape is identical across planes: latency bounds, the
// TN/TS/TD decomposition of Theorem 1, and the per-stage telemetry
// Breakdown (queue wait, service, miss penalty, fork-join overhead).
//
// The paper's whole evaluation is a cross-validation exercise — the
// same scenario judged by algebra, by simulation, and by measurement.
// Making that a first-class operation ("run these Scenarios on these
// Planes and diff") is what lets every table/figure runner, the CLIs,
// and future workloads compare planes for free.
package plane

import (
	"context"
	"fmt"
	"slices"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/coalesce"
	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/loadgen"
	"memqlat/internal/otrace"
	"memqlat/internal/sim"
	"memqlat/internal/slo"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// Scenario is one model configuration plus its measurement budget,
// tiers and observers: the unit of cross-plane comparison. Rates are
// per second, times in seconds.
type Scenario struct {
	// Name labels the scenario in reports (e.g. "facebook", "fig5 q=0.3").
	Name string

	// Config is Theorem 1's parameter set, which every plane prices the
	// scenario at. The live plane issues single-key gets over a
	// consistent-hash ring, so it refuses any N but 1 and unequal
	// LoadRatios.
	core.Config

	// Faults is the fault schedule the measured planes share
	// (faults.go). The empty schedule is the healthy run.
	Faults fault.Schedule
	// Resilience configures the recovery policies (retries, hedging,
	// circuit breaking) the measured planes apply. Zero value = none.
	Resilience fault.Resilience

	// Requests is the number of end-user requests to measure
	// (simulator planes; default 4000).
	Requests int
	// KeysPerServer sizes the per-server key streams of the
	// composition simulator (default 120000).
	KeysPerServer int
	// Ops is the number of key operations the live plane issues
	// (default 2000 — real-time pacing bounds the live rate).
	Ops int
	// Workers bounds the live plane's in-flight operations and sizes
	// its client's idle pool per server (default 32).
	Workers int
	// Duration caps the live run's wall time (default 2 minutes).
	Duration time.Duration
	// Seed roots all randomness, making model/sim runs deterministic.
	Seed uint64

	// Proxy, when non-nil, interposes the proxy tier on every plane
	// (proxy.go).
	Proxy *ProxySpec

	// Tenants, when non-empty, arms the multi-tenant QoS layer at the
	// proxy, so Proxy must be set too (tenants.go). Each spec's Share is
	// its slice of the offered load Λ; its bucket decides how much of
	// that slice is admitted.
	Tenants []tenant.Spec

	// Coalesce turns on single-flight miss coalescing on every plane
	// (coalesce.go). Off keeps the naive one-fetch-per-miss path.
	Coalesce bool
	// Keys sizes the keyspace the live load generator (and the sim's
	// coalesced miss draw) samples from (default 2000).
	Keys int
	// ZipfS skews key popularity by a Zipf(s) law on the live and sim
	// planes (0 = uniform). Hot keys are what give coalescing windows
	// to collapse.
	ZipfS float64
	// FillTTL is the live plane's write-back TTL for filled misses
	// (0 = never expires). Short TTLs keep a hot key re-missing, which
	// the hot-key experiment uses to sustain a miss stream.
	FillTTL time.Duration
	// DBQueueDepth, when > 0, runs the live backend in single-queue
	// mode with this backlog bound, so hot-key miss storms surface as
	// queue-depth high-watermarks and ErrOverloaded drops. 0 keeps the
	// concurrent backend (the paper's ρ_D ≈ 0 stage).
	DBQueueDepth int

	// ValueSize, ValueDist and ValueSigma are the live plane's per-key
	// value-size law. ValueSize is the stored value in bytes (0 = the
	// loadgen's 100), and the mean of the law under lognormal; the live
	// tier sizing converts item budgets to bytes at it. ValueDist is
	// loadgen.ValueDistFixed or loadgen.ValueDistLogNormal ("" =
	// fixed): the lognormal gives the disk tier mixed object sizes
	// around the same mean. ValueSigma is its shape (0 = loadgen's
	// default). The model and sim planes ignore all three: they price
	// service stages, not payloads.
	ValueSize  int
	ValueDist  string
	ValueSigma float64

	// Extstore, when non-nil, adds a log-structured SSD cache tier
	// behind the RAM tier on every plane (ExtstoreSpec, extstore.go).
	Extstore *ExtstoreSpec

	// SLO, when set, arms the model-anchored watchdog on the measured
	// planes: on the live plane's run clock, and replayed on the
	// simulator's virtual request timeline (see SimPlane.Run). The model
	// plane ignores it. NewWatchdog arms one on the bands PredictedBands
	// gives the scenario.
	SLO *slo.Watchdog

	// Tracer, when set, records request-scoped spans from every tier of
	// the measured planes: wall-clock spans across client, proxy, server
	// and backend on the live plane; virtual-time spans per composed
	// request on the simulator. The model plane ignores it (nothing
	// executes). Nil disables tracing at zero cost.
	Tracer *otrace.Tracer
}

// withDefaults fills measurement-budget zero values.
func (s Scenario) withDefaults() Scenario {
	if s.Requests == 0 {
		s.Requests = 4000
	}
	if s.KeysPerServer == 0 {
		s.KeysPerServer = 120000
	}
	if s.Ops == 0 {
		s.Ops = 2000
	}
	if s.Workers == 0 {
		s.Workers = 32
	}
	if s.Duration == 0 {
		s.Duration = 2 * time.Minute
	}
	if s.Keys == 0 {
		s.Keys = 2000
	}
	if s.Proxy != nil {
		p := *s.Proxy
		if p.Replicas == 0 {
			p.Replicas = 2
		}
		s.Proxy = &p
	}
	if s.Extstore != nil {
		e := s.Extstore.withDefaults()
		s.Extstore = &e
	}
	return s
}

// FromConfig lifts a model configuration into a Scenario.
func FromConfig(name string, c *core.Config) Scenario {
	s := Scenario{Name: name, Config: *c}
	s.LoadRatios = slices.Clone(c.LoadRatios)
	return s
}

// Result is the plane-independent outcome of running one Scenario.
type Result struct {
	// Plane names the plane that produced the result.
	Plane string
	// Scenario echoes the input (post-defaulting).
	Scenario Scenario

	// Total bounds E[T(N)]: exact Theorem 1 bounds on the model plane,
	// a collapsed point estimate (Lo == Hi) on measured planes.
	Total core.Bounds
	// TN / TS / TD are the paper's stage decomposition: constant
	// network latency, Memcached stage bounds, database stage estimate.
	TN float64
	TS core.Bounds
	TD float64

	// Sample is the measured per-request latency histogram (nil on the
	// model plane).
	Sample *stats.Histogram
	// MeanCI is the 95% confidence interval on Sample's mean (zero
	// value on the model plane).
	MeanCI stats.Interval
	// Breakdown is the per-stage latency decomposition. Measured
	// planes populate it from telemetry; the model plane fills in the
	// stage means Theorem 1's ingredients predict.
	Breakdown telemetry.Breakdown
	// Elapsed is the wall time of the run.
	Elapsed time.Duration

	// Plane-specific detail for renderers that need more than the
	// common surface (per-server samples, hit counters, ...). Sim is set
	// by both simulator modes.
	Sim  *sim.RequestResult
	Live *loadgen.Result
	// Coalesce carries the live client's single-flight counters when
	// the scenario enables coalescing (nil otherwise; the simulator
	// reports its equivalents on Sim.BackendFetches/DelayedHits).
	Coalesce *coalesce.Stats
	// DB carries the live backend's counters — lookups (= backend
	// fetches) and, in single-queue mode, the queue-depth high-water
	// mark. Nil on the model and simulator planes.
	DB *backend.Stats
	// Tenants carries the per-tenant QoS outcome when the scenario
	// declares tenants (declaration order; empty otherwise).
	Tenants []TenantResult
	// SLO carries the watchdog's end-of-run status when the scenario
	// arms one: per-stage bands vs observed quantiles, drift streaks,
	// burn rates and the alert log (nil otherwise, and on the model
	// plane).
	SLO *slo.Status
	// Extstore carries the tiered-storage surface when the scenario
	// arms the SSD tier: the shared MRC prediction plus the plane's
	// measured disk-hit counters (nil otherwise).
	Extstore *ExtstoreResult
}

// Point returns the scalar each plane nominates for cross-plane
// diffing: the midpoint of the Theorem 1 band on the model plane, the
// §4.5-estimator total on measured planes.
func (r *Result) Point() float64 { return r.Total.Mid() }

// Plane runs Scenarios. Implementations must be safe for reuse across
// runs (they hold no per-run state).
type Plane interface {
	// Name identifies the plane ("model", "sim", "sim-integrated",
	// "live").
	Name() string
	// Run evaluates the scenario. ctx bounds wall time (the model and
	// simulator planes complete in virtual time and only check for
	// early cancellation).
	Run(ctx context.Context, s Scenario) (*Result, error)
}

// ByName returns the named plane; it understands every Name() of the
// built-in planes plus "sim-integrated" for the request-driven simulator.
func ByName(name string) (Plane, error) {
	switch name {
	case "model":
		return ModelPlane{}, nil
	case "sim":
		return SimPlane{}, nil
	case "sim-integrated":
		return SimPlane{Mode: SimIntegrated}, nil
	case "live":
		return LivePlane{}, nil
	}
	return nil, fmt.Errorf("plane: unknown plane %q (known: model, sim, sim-integrated, live)", name)
}

// ci95 is the confidence level every measured plane reports.
const ci95 = 0.95
