// Package telemetry is the per-stage latency seam shared by every
// evaluation plane (model, simulator, live TCP stack): a Recorder
// interface that the server, backend, simulator and load generator call
// at each stage boundary, and a thread-safe Collector that aggregates
// the observations into the Breakdown the analytical model predicts
// stage by stage — queue wait, service, miss penalty, fork-join
// overhead. Because all three planes report the same decomposition,
// any scenario's latency budget can be diffed across planes directly.
package telemetry

import (
	"fmt"
	"strings"

	"memqlat/internal/sketch"
	"memqlat/internal/stats"
)

// Stage identifies one component of the end-to-end latency budget.
type Stage int

const (
	// StageQueueWait is the time a key waits at its Memcached server
	// before service starts (the W of the GI^X/M/1 queue).
	StageQueueWait Stage = iota
	// StageService is the key's own service duration (mean 1/µ_S).
	StageService
	// StageMissPenalty is the database latency of one missed key
	// (mean 1/µ_D under the paper's ρ_D ≈ 0 stage).
	StageMissPenalty
	// StageForkJoin is the per-request join overhead: the latency the
	// max over a request's N keys adds beyond the mean key latency
	// (the maximal-statistics inflation Theorem 1 prices at
	// ln(N+1)/((1−δ)(1−q)µ_S) versus a single key's sojourn).
	StageForkJoin
	// StageRetry is the extra latency a retried read pays per retry
	// (backoff wait; the re-issued attempt's own latency lands in the
	// ordinary stages). Zero observations on a healthy run.
	StageRetry
	// StageHedgeWait is the delay a hedged read waited before firing its
	// hedge — the percentile-based trigger of the resilience policy.
	StageHedgeWait
	// StageBreakerShed is observed once per operation an open circuit
	// breaker fast-failed; the value is the (near-zero) shed latency, so
	// the Count is the signal.
	StageBreakerShed
	// StageLockWait is the time a command blocked acquiring a cache
	// shard lock. The sharded store's TryLock fast path records nothing
	// when uncontended, so healthy runs keep this stage zero-elided and
	// the paper's queue_wait/service decomposition unchanged; a non-zero
	// count is direct evidence of a lock convoy the service-time model
	// does not describe.
	StageLockWait
	// StageProxyHop is the latency the proxy tier adds to a command:
	// downstream parse + route + upstream enqueue on the live proxy's
	// data plane, the extra GI^X/M/1 stage's sojourn on the model and
	// simulator planes. Zero observations on a direct (unproxied) run,
	// so existing topologies keep their decomposition unchanged.
	StageProxyHop
	// StageCoalesceWait is the time a delayed hit spent attached to
	// another request's in-flight backend fetch (single-flight miss
	// coalescing): the residual of the leader's miss penalty. Zero
	// observations with coalescing off, so naive topologies keep their
	// decomposition unchanged; under coalescing the miss cost of a
	// request is either a miss_penalty (it led the fetch) or a
	// coalesce_wait (it fanned in), never both.
	StageCoalesceWait
	// StageTenantShed is observed once per key the proxy's tenant QoS
	// layer shed before it could queue upstream (token/byte bucket
	// empty for a silver/bronze tenant); the value is the (near-zero)
	// admission-check latency, so the Count is the signal. Zero
	// observations without tenant specs, so single-tenant topologies
	// keep their decomposition unchanged.
	StageTenantShed
	// StageDiskRead is the extstore tier's service time: a RAM miss
	// that the SSD log absorbs pays one segment read instead of a
	// backend fetch. Observed per disk hit on every plane (analytic
	// mean on the model, drawn service times in the sim, measured
	// reads live); zero observations without a tiered-storage spec, so
	// RAM-only topologies keep their decomposition unchanged.
	StageDiskRead
	numStages
)

// stageNames is the one table of stage names, indexed by Stage: the
// stable snake_case names used in reports and the server's "stats
// telemetry" protocol section. Adding a stage is a const above and a
// row here; Stages and String derive from it.
var stageNames = [numStages]string{
	StageQueueWait:    "queue_wait",
	StageService:      "service",
	StageMissPenalty:  "miss_penalty",
	StageForkJoin:     "fork_join",
	StageRetry:        "retry",
	StageHedgeWait:    "hedge_wait",
	StageBreakerShed:  "breaker_shed",
	StageLockWait:     "lock_wait",
	StageProxyHop:     "proxy_hop",
	StageCoalesceWait: "coalesce_wait",
	StageTenantShed:   "tenant_shed",
	StageDiskRead:     "disk_read",
}

// Stages lists every stage in reporting order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// String returns the stage's name from stageNames.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Recorder receives per-stage latency observations. Implementations
// must be safe for concurrent use: the live server records from one
// goroutine per connection and the load generator from every worker.
type Recorder interface {
	// Observe records one latency sample (in seconds) for the stage.
	Observe(stage Stage, seconds float64)
}

// Nop is the zero-overhead Recorder used when telemetry is disabled.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Observe(Stage, float64) {}

// OrNop returns r, or Nop when r is nil, so call sites can thread an
// optional Recorder without nil checks on the hot path.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// Sharder is implemented by recorders that can hand out low-contention
// per-worker handles: a handle's observations land in the same
// aggregate, but concurrent workers holding distinct handles do not
// serialize on one mutex. The live server requests one handle per
// connection so that telemetry never becomes the cross-connection lock
// the latency model does not describe.
type Sharder interface {
	// Shard returns a Recorder handle for the worker identified by hint.
	Shard(hint uint64) Recorder
}

// Shard returns a per-worker handle of r when r supports sharding, and
// r itself otherwise — call sites thread a hint without caring.
func Shard(r Recorder, hint uint64) Recorder {
	if s, ok := r.(Sharder); ok {
		return s.Shard(hint)
	}
	return OrNop(r)
}

// Tee fans every observation out to both recorders (e.g. a server's own
// stats collector plus a harness-wide one). Nil arguments are dropped.
func Tee(a, b Recorder) Recorder {
	switch {
	case a == nil:
		return OrNop(b)
	case b == nil:
		return a
	}
	return teeRecorder{a, b}
}

type teeRecorder struct{ a, b Recorder }

func (t teeRecorder) Observe(stage Stage, seconds float64) {
	t.a.Observe(stage, seconds)
	t.b.Observe(stage, seconds)
}

// Shard implements Sharder by sharding both sides.
func (t teeRecorder) Shard(hint uint64) Recorder {
	return Tee(Shard(t.a, hint), Shard(t.b, hint))
}

// StageStats summarizes the observations of one stage.
type StageStats struct {
	// Count is the number of observations.
	Count int64
	// Mean is the sample mean latency in seconds.
	Mean float64
	// P50 / P95 / P99 are sample quantiles in seconds (0 when Count
	// is 0).
	P50 float64
	P95 float64
	P99 float64
	// Total is the summed latency in seconds.
	Total float64
}

// Breakdown is the per-stage latency decomposition of one run, indexed
// by Stage.
type Breakdown map[Stage]StageStats

// Empty reports whether no stage recorded any observation.
func (b Breakdown) Empty() bool {
	for _, st := range b {
		if st.Count > 0 {
			return false
		}
	}
	return true
}

// MeanOf returns the mean of the stage (0 when unobserved).
func (b Breakdown) MeanOf(stage Stage) float64 { return b[stage].Mean }

// StageSet returns the names of the stages that recorded at least one
// observation, in canonical stage order — the shape of a run's latency
// decomposition with the magnitudes stripped. Tests use it to assert
// that two implementations exercise identical stages.
func (b Breakdown) StageSet() []string {
	var out []string
	for _, stage := range Stages() {
		if b[stage].Count > 0 {
			out = append(out, stage.String())
		}
	}
	return out
}

// String renders the breakdown compactly for logs and CLI output.
// Resilience stages (retry, hedge_wait, breaker_shed) are elided when
// unobserved so healthy-run output stays unchanged.
func (b Breakdown) String() string {
	var sb strings.Builder
	for _, stage := range Stages() {
		st := b[stage]
		if st.Count == 0 && stage > StageForkJoin {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%s mean=%.1fµs n=%d", stage, st.Mean*1e6, st.Count)
	}
	return sb.String()
}

// shard is one of a Collector's preallocated per-worker handles: the
// stripe it maps to in every stage's sketch. It is itself a Recorder,
// so Collector.Shard hands it out without allocating.
type shard struct {
	stripes [numStages]*sketch.Stripe
}

// Observe implements Recorder.
func (s *shard) Observe(stage Stage, seconds float64) {
	if stage < 0 || stage >= numStages {
		return
	}
	s.stripes[stage].Record(seconds)
}

// numShards matches the sketch's stripe count: more handles would only
// alias the same locks.
const numShards = 8

// Collector is a thread-safe Recorder that aggregates observations into
// a Breakdown: one striped sketch per stage. Workers that obtain
// handles via Shard serialize only within their stripe, so a
// cluster-wide collector does not become a cluster-wide lock. The zero
// value is NOT ready; use NewCollector.
type Collector struct {
	stages [numStages]*sketch.Sketch
	shards [numShards]shard
}

// NewCollector constructs an empty Collector.
func NewCollector() *Collector {
	c := &Collector{}
	for i := range c.stages {
		// New cannot fail: Options has nothing to reject.
		c.stages[i], _ = sketch.New(sketch.Options{})
		for h := range c.shards {
			c.shards[h].stripes[i] = c.stages[i].Stripe(uint64(h))
		}
	}
	return c
}

// Observe implements Recorder. Unsharded callers all land in stripe 0;
// hot paths should take a per-worker handle via Shard instead.
func (c *Collector) Observe(stage Stage, seconds float64) {
	c.shards[0].Observe(stage, seconds)
}

// Shard implements Sharder: observations through the returned handle
// only contend with workers mapped to the same stripe.
func (c *Collector) Shard(hint uint64) Recorder {
	return &c.shards[hint&(numShards-1)]
}

// Breakdown summarizes the current per-stage statistics.
func (c *Collector) Breakdown() Breakdown {
	out := make(Breakdown, numStages)
	for stage, h := range c.Histograms() {
		st := StageStats{Count: h.Count()}
		if st.Count > 0 {
			st.Mean = h.Mean()
			st.Total = h.Mean() * float64(st.Count)
			st.P50 = h.MustQuantile(0.5)
			st.P95 = h.MustQuantile(0.95)
			st.P99 = h.MustQuantile(0.99)
		}
		out[stage] = st
	}
	return out
}

// Histograms snapshots the full per-stage distributions, merged across
// stripes — the export surface the Prometheus registry scrapes so its
// bucket counts agree with the Breakdown's quantiles. The returned
// histograms are private copies; callers may mutate them freely.
func (c *Collector) Histograms() map[Stage]*stats.Histogram {
	out := make(map[Stage]*stats.Histogram, numStages)
	for i, sk := range c.stages {
		out[Stage(i)] = sk.Snapshot()
	}
	return out
}

// Drain is Histograms followed by a reset of every stage: it returns
// one window's distributions and starts the next, keeping the stripes'
// bucket arrays warm. Recorders are not paused: a sample that lands
// between a stage's snapshot and its reset is in neither window
// (microseconds out of the SLO watchdog's 250 ms).
func (c *Collector) Drain() map[Stage]*stats.Histogram {
	out := make(map[Stage]*stats.Histogram, numStages)
	for i, sk := range c.stages {
		out[Stage(i)] = sk.Snapshot()
		sk.Reset()
	}
	return out
}
