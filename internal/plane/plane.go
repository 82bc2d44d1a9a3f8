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
	"memqlat/internal/proxy"
	"memqlat/internal/sim"
	"memqlat/internal/slo"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// ProxySpec interposes the proxy tier (internal/proxy) between the
// clients and the servers of a Scenario. The model and simulator planes
// price the proxy as one extra GI^X/M/1 stage in series: a single
// queue receiving the aggregate key rate Λ at service rate MuS × M, whose
// per-request contribution is the fork-join max over the request's N
// keys — exactly the Theorem 1 treatment of the memcached stage. The
// live plane interposes a real TCP proxy and points the client at it.
type ProxySpec struct {
	// Policy is the route policy ("direct", "failover", "replicate";
	// default direct). The model plane prices every policy identically —
	// routing does not change the queueing structure; the composition
	// simulator realizes "replicate" as hedged reads; the live plane
	// runs the policy for real.
	Policy string
	// Replicas is the replication degree under "replicate" (default 2).
	Replicas int
}

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

	// Faults is the shared fault schedule. The simulator planes evaluate
	// it in virtual time; the live plane injects the same rules in wall
	// time (a shared fault.Clock starts when the load does), so both
	// planes see the identical deterministic per-rule decision sequence.
	// The model plane ignores it — Theorem 1 has no failure modes, which
	// is exactly the gap the faulted planes measure.
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

	// Proxy, when non-nil, interposes the proxy tier on every plane.
	Proxy *ProxySpec

	// Tenants, when non-empty, arms the multi-tenant QoS layer (which
	// lives at the proxy, so Proxy must be set too). Each spec's Share
	// is its slice of the offered load Λ; its bucket decides how much
	// of that slice is admitted. The model plane prices each tenant's
	// admitted rate as its own arrival stream into the shared stages
	// (Λ' = Σ_t admitted_t replaces Λ, so the victim tenants' Theorem-1
	// band is computable with the aggressor's excess shed out of λ);
	// the composition sim draws per-request tenants from the Share mix
	// and runs the same token buckets on virtual time; the live plane
	// runs the real limiter at the proxy under a tenant-mixed loadgen.
	Tenants []tenant.Spec

	// Coalesce turns on single-flight miss coalescing on every plane:
	// the live client's GetThrough single-flights its backend fills,
	// the composition sim gives misses key identities with per-key
	// in-flight windows, and the model prices the delayed-hit stage
	// (coalesce_wait = residual Exp(µ_D) wait) in its breakdown. Off
	// keeps the naive one-fetch-per-miss path everywhere.
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
	// behind the RAM tier on every plane. All three planes derive the
	// tier split from the same miss-ratio curve (see ExtstoreSpec and
	// ExtstoreSplit): the model blends the miss-stage service rate and
	// prices a disk_read breakdown stage, the composition simulator
	// draws per-miss disk reads with the predicted hit fraction, and
	// the live plane runs real segment files in a temp dir behind a
	// capacity-sized RAM cache.
	Extstore *ExtstoreSpec

	// SLO, when set, arms the model-anchored watchdog on the measured
	// planes. The live plane tees it into every tier's telemetry,
	// arms it when the run clock starts and advances its rolling
	// windows on a wall-clock ticker; the composition simulator
	// replays the same detector on the virtual request timeline, so a
	// given seed detects drift at an identical window index on every
	// run. The model plane ignores it (nothing executes). NewWatchdog
	// arms one on the bands PredictedBands gives the scenario.
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

// validateTenants checks the QoS side of a scenario: tenant specs must
// parse and the proxy tier must be present (admission lives there).
func (s Scenario) validateTenants() (*tenant.Limiter, error) {
	if len(s.Tenants) == 0 {
		return nil, nil
	}
	if s.Proxy == nil {
		return nil, fmt.Errorf("plane: scenario %q declares tenants but no proxy (QoS lives at the proxy tier)", s.Name)
	}
	l, err := tenant.New(s.Tenants)
	if err != nil {
		return nil, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	return l, nil
}

// tenantRates prices the QoS layer the way every plane agrees on: each
// declared tenant offers Share_t × Λ; its bucket sustains
// admitted_t = min(offered_t, Rate_t) (gold and unlimited tenants pass
// through); Λ' = Σ_t admitted_t is the post-shedding aggregate rate the
// shared stages actually see.
func (s Scenario) tenantRates() (offered, admitted []float64, total float64) {
	shares := tenant.Shares(s.Tenants)
	offered = make([]float64, len(s.Tenants))
	admitted = make([]float64, len(s.Tenants))
	for i, sp := range s.Tenants {
		offered[i] = shares[i] * s.TotalKeyRate
		admitted[i] = sp.AdmittedRate(offered[i])
		total += admitted[i]
	}
	return offered, admitted, total
}

// admittedScenario returns the scenario with Λ replaced by the
// admitted Λ', which is what the shared GI^X/M/1 stages are priced at
// when QoS sheds traffic ahead of them. Without tenants it is the
// identity.
func (s Scenario) admittedScenario() Scenario {
	if len(s.Tenants) == 0 {
		return s
	}
	_, _, total := s.tenantRates()
	s.TotalKeyRate = total
	return s
}

// proxyConfig lowers the proxy stage to its own single-queue model
// configuration: the aggregate key stream Λ through one queue at rate
// µ_P = MuS × M (one proxy fronting M servers runs at the per-server
// utilization), with the workload's batching (Q) and burstiness (Xi) intact —
// the proxy sees the union of the arrival processes the servers see.
// Only the stage's TS and queue wait are read from it; the miss and
// network parameters ride along unread (the proxy never touches the
// database).
func (s Scenario) proxyConfig() (*core.Config, error) {
	if s.Proxy == nil {
		return nil, fmt.Errorf("plane: scenario %q has no proxy spec", s.Name)
	}
	if _, err := proxy.ParsePolicy(s.Proxy.Policy); err != nil {
		return nil, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	c := s.Config
	c.LoadRatios = []float64{1}
	c.MuS *= float64(s.M()) // µ_P
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("plane: scenario %q proxy stage: %w", s.Name, err)
	}
	return &c, nil
}

// FromConfig lifts a model configuration into a Scenario.
func FromConfig(name string, c *core.Config) Scenario {
	s := Scenario{Name: name, Config: *c}
	s.LoadRatios = slices.Clone(c.LoadRatios)
	return s
}

// modelConfig returns a validated copy of s.Config, which a plane may
// reprice (a blended µ_D) without touching s.
func (s Scenario) modelConfig() (*core.Config, error) {
	c := s.Config
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	return &c, nil
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

// TenantResult is one tenant's cross-plane surface: the model plane
// fills the analytic rates; measured planes add realized counters and
// the admitted-traffic latency histogram.
type TenantResult struct {
	// Name / Class echo the spec.
	Name  string
	Class string
	// Offered is the tenant's offered key rate λ_t = Share_t × Λ.
	Offered float64
	// Admitted is the post-bucket key rate the shared stages see: the
	// analytic min(λ_t, Rate_t) on the model plane, the realized rate
	// on measured planes.
	Admitted float64
	// Issued / Shed count keys on the measured planes (zero on model).
	Issued int64
	Shed   int64
	// Latency is the admitted-traffic per-request latency histogram
	// (nil on the model plane).
	Latency *stats.Histogram
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
