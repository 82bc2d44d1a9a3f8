package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// RequestConfig parameterizes one fork-join simulation in either mode
// (see the package doc): the composition mode unless Integrated is set.
type RequestConfig struct {
	// Model is the deployment/workload description.
	Model *core.Config
	// Requests is the number of end-user requests to synthesize.
	Requests int
	// Integrated drops the §3 independence assumption: keys queue at
	// their servers instead of drawing from pre-simulated streams (see
	// queuedStage), and a request joins at its last key. Server faults
	// collapse to pure delay (fault.Injector.DelayAt); the miss path,
	// coalescing and the extstore tier run as in the composition mode.
	// It refuses a proxy, replicas, tenants, an observer and resilience
	// policies, which draw from pre-simulated streams or act on the
	// series join.
	Integrated bool
	// KeysPerServer is the per-server key-stream sample size feeding the
	// composition (default 200_000).
	KeysPerServer int
	// ReadReplicas, when > 1, hedges every key across that many replicas
	// and keeps the fastest response (the redundancy extension; see
	// core.ExpectedTSPointRedundant). The duplicated traffic is charged
	// to the servers: each per-server stream runs at ReadReplicas times
	// the configured key rate.
	ReadReplicas int
	// ProxyModel, when set, threads every key through an interposed
	// proxy tier simulated as one extra GI^X/M/1 stream receiving the
	// aggregate key rate (a single-server core.Config). Each request's
	// proxy contribution is the max of its N keys' proxy sojourns, added
	// in series to the fork-join total; per-key sojourns are recorded as
	// telemetry.StageProxyHop.
	ProxyModel *core.Config
	// Seed makes the run deterministic.
	Seed uint64
	// Recorder, when set, receives the per-stage decomposition: queue
	// wait and service per key, miss penalty per missed key, and
	// fork-join overhead (max-over-N minus mean) per composed request —
	// plus, under faults, the resilience stages (retry, hedge_wait,
	// breaker_shed).
	Recorder telemetry.Recorder
	// Faults injects the seeded fault schedule into every per-server
	// key stream (and, for Database rules, the miss path). The empty
	// schedule is the healthy run.
	Faults fault.Schedule
	// Resilience enables the composition-stage recovery policies that
	// mirror the live client's: retries, hedged reads, circuit
	// breakers. The zero value replays failures to the caller raw.
	Resilience fault.Resilience
	// Tracer, when set, emits virtual-time spans for every composed
	// request: a sim/request root on the virtual request timeline with
	// sim/proxy, sim/memcached and sim/db stage children laid out in
	// series — the simulator's counterpart of the live plane's
	// wall-clock traces. Nil disables tracing.
	Tracer *otrace.Tracer
	// Coalesce gives every miss a key identity and single-flights the
	// backend fetch per key on the virtual timeline: a miss whose key
	// already has a fetch in flight rides it as a delayed hit, paying
	// only the residual wait (recorded as StageCoalesceWait) instead of
	// issuing its own fetch. Because the exponential miss latency is
	// memoryless, the residual is itself Exp(µ_D)-distributed, so the
	// per-miss TD distribution — and the cross-plane totals — match the
	// naive draw; only the backend fetch count drops.
	Coalesce bool
	// MissKeys sizes the miss-key population the coalesced draw samples
	// from (default 2000, the live plane's loadgen keyspace). Ignored
	// without Coalesce.
	MissKeys int
	// MissZipfS skews miss-key popularity by a Zipf(s) law (0 =
	// uniform): hot keys overlap their fetch windows, which is what
	// makes coalescing collapse the herd. Ignored without Coalesce.
	MissZipfS float64
	// Extstore, when non-nil, interposes the SSD cache tier on the miss
	// path: each miss is absorbed by the disk tier with probability
	// DiskHitFraction, paying a disk read from the configured
	// service-time family instead of the Exp(µ_D) backend fetch. Disk
	// hits are local reads, so they never enter the coalescing windows
	// or the Database fault path; they are recorded as
	// telemetry.StageDiskRead and counted in DiskHits.
	Extstore *ExtstoreSim
	// Tenants arms the multi-tenant QoS admission ahead of every key
	// draw: each request draws its tenant from the Share mix (rng
	// stream 107) and each of its N keys charges one op token to that
	// tenant's bucket at the request's virtual arrival time — the same
	// tenant.Admit the live proxy runs, on virtual time. A shed key
	// skips the proxy/server/miss draws entirely (shed-before-queue)
	// and is recorded as telemetry.StageTenantShed; a request whose
	// keys all shed is excluded from the latency sample (its caller
	// saw only error lines).
	Tenants []tenant.Spec
	// OfferedKeyRate is the pre-shedding aggregate key rate Λ driving
	// the virtual request clock when Tenants is set; Model.TotalKeyRate
	// should then carry the admitted Λ' the surviving streams are
	// priced at. Zero defaults to Model.TotalKeyRate.
	OfferedKeyRate float64
	// Observer, when set, watches the request loop on its virtual
	// timeline: BeginRequest fires at each request's arrival instant
	// (before any draw), request-loop stage observations are teed to
	// its Observe, and RequestTotal reports each composed request's
	// end-to-end latency. Per-server stream stages (queue_wait,
	// service) are simulated up front outside the request timeline, so
	// they are not replayed through the observer. It draws nothing, so
	// the SLO watchdog replays deterministically through it.
	Observer RequestObserver
}

// RequestObserver receives the request loop's virtual-time events
// (see RequestConfig.Observer). slo.Watchdog implements it.
type RequestObserver interface {
	telemetry.Recorder
	// BeginRequest observes a request arriving at virtual time now.
	BeginRequest(now float64)
	// RequestTotal observes a composed request's end-to-end latency at
	// virtual time now. Requests whose keys all shed produce no sample.
	RequestTotal(now, total float64)
}

// ExtstoreSim parameterizes the simulated SSD tier.
type ExtstoreSim struct {
	// DiskHitFraction is β = P{disk hit | RAM miss}, typically the
	// mrc.TierSplit prediction the plane layer computes.
	DiskHitFraction float64
	// MuDisk is the disk read service rate (mean read 1/MuDisk).
	MuDisk float64
	// Dist selects the disk service-time family: "exp" (default) or
	// "lognormal" (mean preserved at 1/MuDisk).
	Dist string
	// Sigma is the lognormal shape parameter (default 0.5).
	Sigma float64
}

// RequestResult aggregates the measured latency decomposition, mirroring
// the paper's Table 3 columns. Servers, TP and ProxyKeys are the
// composition mode's; KeyLat and BusyTime the integrated mode's.
type RequestResult struct {
	// Total is T(N): the end-user request latency.
	Total *stats.Histogram
	// TS is T_S(N): the max Memcached processing latency per request.
	TS *stats.Histogram
	// TD is T_D(N): the max database latency per request.
	TD *stats.Histogram
	// TN is T_N(N): the max network latency per request (constant under
	// the model).
	TN float64
	// Servers exposes the per-server key-latency samples (Fig. 4 uses
	// the heaviest server's quantiles).
	Servers []*ServerResult
	// KeyLat is the integrated mode's per-key memcached sojourn sample,
	// all servers pooled (the composition's is per server, in Servers).
	KeyLat *stats.Histogram
	// BusyTime is the integrated mode's per-server busy time over the
	// virtual span Elapsed: BusyTime[j]/Elapsed is the emergent ρ_j.
	BusyTime []float64
	Elapsed  float64
	// DBLat records the per-miss penalty sample: backend fetches,
	// coalesced residual waits, and (on tiered runs) disk reads — the
	// full cost a RAM miss pays, whoever serves it.
	DBLat *stats.Histogram
	// TP is T_P(N): the max proxy-stage sojourn per request (nil when
	// the run had no proxy tier).
	TP *stats.Histogram
	// ProxyKeys is the per-key proxy sojourn sample (nil without a
	// proxy tier).
	ProxyKeys *stats.Histogram
	// MissCount is the total number of missed keys.
	MissCount int64
	// KeyCount is the total number of composed keys.
	KeyCount int64
	// Requests is the number of composed requests.
	Requests int64
	// RequestsWithMiss counts requests that suffered >= 1 miss.
	RequestsWithMiss int64
	// Replicas records the hedging degree the run used (>= 1).
	Replicas int
	// FailedKeys counts key reads that ended unanswered after the
	// resilience pipeline (injected faults the policies could not mask).
	FailedKeys int64
	// ShedKeys counts key reads fast-failed by an open circuit breaker
	// (a subset of FailedKeys).
	ShedKeys int64
	// DegradedRequests counts requests that completed with >= 1 failed
	// key — the degraded-mode fork-join outcome.
	DegradedRequests int64
	// BackendFetches counts misses that issued their own backend fetch.
	// Without coalescing or a disk tier every miss fetches, so this
	// equals MissCount.
	BackendFetches int64
	// DelayedHits counts misses that rode an already-in-flight fetch
	// for their key instead of fetching (coalesced runs only).
	// BackendFetches + DelayedHits + DiskHits == MissCount always.
	DelayedHits int64
	// DiskHits counts misses the simulated SSD tier absorbed (tiered
	// runs only; see RequestConfig.Extstore).
	DiskHits int64
	// Tenants are the run's tenants in declaration order (nil without
	// tenant specs): their buckets, counters and the latency histogram of
	// their requests with at least one admitted key, as the run left them.
	Tenants []*tenant.Tenant
	// TenantShedKeys counts keys refused by tenant admission; shed
	// keys never enter KeyCount or any queue.
	TenantShedKeys int64
	// ShedRequests counts requests whose N keys were all shed — the
	// caller saw nothing but error lines, so they contribute no
	// latency sample.
	ShedRequests int64
}

// SimulateRequests runs the fork-join experiment: one request loop over
// Requests requests (after Requests/10 unmeasured warm-up ones in the
// integrated mode), each forking N keys that are assigned to servers
// multinomially by {p_j}, pass their server's memcached stage, miss with
// probability r into the miss path, and join (paper §4.1). The mode
// only picks how a key's memcached stage is produced (see drawnStage
// and queuedStage) and how a request joins.
func SimulateRequests(cfg RequestConfig) (*RequestResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l, err := newLoop(cfg)
	if err != nil {
		return nil, err
	}
	// The launch clock is evenly spaced in the composition mode, where it
	// only places fault windows and tenant buckets, and an arrival process
	// in the integrated mode, whose queues it feeds. The span ends at the
	// last join or at the clock's final tick, whichever is later.
	var now float64
	for i := range l.warmup + cfg.Requests {
		l.request(i, now)
		if l.launches != nil {
			gap, _ := l.launches.Next()
			now += gap
		} else {
			now = float64(i+1) / l.reqRate
		}
	}
	l.out.Elapsed = max(l.out.Elapsed, now)
	l.drain()
	return l.out, nil
}

// validate checks the configuration for its mode.
func (cfg *RequestConfig) validate() error {
	if cfg.Model == nil {
		return fmt.Errorf("sim: nil model config")
	}
	if err := cfg.Model.Validate(); err != nil {
		return err
	}
	if cfg.Requests < 1 {
		return fmt.Errorf("sim: requests=%d must be >= 1", cfg.Requests)
	}
	if cfg.ReadReplicas < 0 {
		return fmt.Errorf("sim: read replicas %d must be >= 1", cfg.ReadReplicas)
	}
	if err := cfg.Resilience.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if cfg.Integrated && (cfg.ProxyModel != nil || cfg.ReadReplicas > 1 || len(cfg.Tenants) > 0 ||
		cfg.Observer != nil || cfg.Resilience.Enabled()) {
		return fmt.Errorf("sim: the integrated mode does not model a proxy tier, read replicas, tenant QoS, " +
			"a request observer or resilience policies (use the composition mode)")
	}
	return nil
}

// memcachedStage gives a key of server j arriving at virtual time
// arrival its sojourn, the instant it leaves memcached, and whether it
// ended unanswered or a breaker shed it; measured keys feed telemetry.
type memcachedStage interface {
	sojourn(j int, arrival float64, measured bool) (s, done float64, failed, shed bool)
}

// loop is one SimulateRequests run, every stage built before the first
// launch. Streams: composition assigns keys (and hedge replicas) on 101,
// samples servers on 102, the proxy on 105 and tenants on 107;
// integrated launches on 201, assigns on 202 and serves server j on
// 300+j; missPath names its own. A stage draws only when armed: runs
// without it keep their draws.
type loop struct {
	cfg       *RequestConfig
	out       *RequestResult
	rec       telemetry.Recorder
	stage     memcachedStage
	assign    *dist.Weighted
	rngAssign *rand.Rand
	launches  *dist.Arrivals // nil: launches evenly spaced
	reqRate   float64        // virtual request launches per second
	warmup    int
	tenants   *tenantAdmission
	proxy     *ServerResult // nil without a proxy tier
	rngProxy  *rand.Rand
	miss      *missPath
	// held are the launched requests that still wait on misses, and
	// pending those misses, in launch order until drain sorts them.
	held    []fork
	pending []pendingMiss
}

func newLoop(cfg RequestConfig) (*loop, error) {
	m := cfg.Model
	l := &loop{cfg: &cfg}
	var err error
	var inj *fault.Injector
	if !cfg.Faults.Empty() {
		if inj, err = fault.NewInjector(cfg.Faults, m.M()); err != nil {
			return nil, err
		}
	}
	replicas := max(cfg.ReadReplicas, 1)
	if (inj != nil || cfg.Resilience.Enabled()) && replicas > 1 {
		return nil, fmt.Errorf("sim: ReadReplicas > 1 cannot combine with faults/resilience (hedging is the Resilience knob)")
	}
	if l.tenants, err = newTenantAdmission(cfg); err != nil {
		return nil, err
	}
	if l.assign, err = dist.NewWeighted(m.LoadRatios); err != nil {
		return nil, err
	}
	if l.proxy, err = proxyStream(cfg); err != nil {
		return nil, err
	}
	l.out = &RequestResult{Total: stats.NewHistogram(), TS: stats.NewHistogram(), TD: stats.NewHistogram(),
		DBLat: stats.NewHistogram(), TN: m.NetworkLatency, Replicas: replicas}
	l.rec = telemetry.OrNop(cfg.Recorder)
	// Requests launch at the aggregate rate Λ/N, so the key rate equals
	// Λ. Under QoS the clock runs at the OFFERED rate — sheds happen at
	// arrival, before any queue, so the admission process sees the
	// pre-shedding stream.
	l.reqRate = cmp.Or(max(cfg.OfferedKeyRate, 0), m.TotalKeyRate) / float64(m.N)
	missBase := uint64(100)
	if cfg.Integrated {
		missBase, l.warmup = 200, cfg.Requests/10
		// Poisson launches, one request per epoch, whatever Xi, Q and
		// Arrival say (DESIGN §4.4); q = 0 with a law is never refused.
		l.launches, _ = dist.NewArrivals(dist.Exponential{Rate: l.reqRate}, 0, dist.SubRand(cfg.Seed, 201), nil)
		l.rngAssign = dist.SubRand(cfg.Seed, 202)
		l.out.KeyLat, l.out.BusyTime = stats.NewHistogram(), make([]float64, m.M())
		q := &queuedStage{muS: m.MuS, inj: inj, free: make([]float64, m.M()), out: l.out, rec: l.rec}
		for j := range m.M() {
			q.rng = append(q.rng, dist.SubRand(cfg.Seed, 300+uint64(j)))
		}
		l.stage = q
	} else {
		servers, err := simulateStreams(cfg, inj, replicas)
		if err != nil {
			return nil, err
		}
		l.out.Servers = servers
		l.rngAssign, l.rngProxy = dist.SubRand(cfg.Seed, 101), dist.SubRand(cfg.Seed, 105)
		if cfg.Observer != nil {
			l.rec = telemetry.Tee(l.rec, cfg.Observer)
		}
		l.stage = &drawnStage{
			servers: servers, rs: newSimResilience(cfg.Resilience, m, servers), rec: l.rec,
			assign: l.assign, rngAssign: l.rngAssign, rngSample: dist.SubRand(cfg.Seed, 102), replicas: replicas,
		}
	}
	if l.miss, err = newMissPath(cfg, inj, missBase); err != nil {
		return nil, err
	}
	if l.proxy != nil {
		l.out.TP, l.out.ProxyKeys = stats.NewHistogram(), l.proxy.Hist
	}
	if l.tenants != nil {
		l.out.Tenants = l.tenants.tenants
	}
	return l, nil
}

// simulateStreams runs stage 1: each loaded server's key stream, at
// replicas times its key rate.
func simulateStreams(cfg RequestConfig, inj *fault.Injector, replicas int) ([]*ServerResult, error) {
	m := cfg.Model
	servers := make([]*ServerResult, m.M())
	for j := range servers {
		if m.LoadRatios[j] == 0 {
			continue
		}
		var err error
		if servers[j], err = stream(m, m.ServerKeyRate(j)*float64(replicas), ServerConfig{
			Keys:     cmp.Or(cfg.KeysPerServer, 200000),
			Seed:     cfg.Seed + uint64(j)*1000003,
			Recorder: cfg.Recorder,
			Fault:    inj,
			Server:   j,
		}); err != nil {
			return nil, fmt.Errorf("server %d: %w", j, err)
		}
	}
	return servers, nil
}

// fork accumulates one request's keys until it joins: start is its
// launch, end its last completion so far, and open counts the misses it
// still waits on.
type fork struct {
	start, end, maxTS, maxTD, maxTP, sumTS float64
	misses, failed, admitted, open         int
	measured                               bool
	tenant                                 *tenant.Tenant
}

// pendingMiss is a queued key that missed: it reaches the miss path
// when it leaves memcached at done, on behalf of held[fork].
type pendingMiss struct {
	done float64
	fork int
}

// request launches request i at virtual time now, and joins it at once
// unless a key's miss is pending.
func (l *loop) request(i int, now float64) {
	if l.cfg.Observer != nil {
		l.cfg.Observer.BeginRequest(now)
	}
	f := fork{start: now, measured: i >= l.warmup, tenant: l.tenants.draw()}
	for range l.cfg.Model.N {
		if f.tenant != nil && !f.tenant.Admit(now, 1, 0) {
			// Shed before queue: the key never reaches the proxy or a
			// server, so it draws nothing downstream.
			l.out.TenantShedKeys++
			l.rec.Observe(telemetry.StageTenantShed, 0)
			continue
		}
		l.key(&f, now)
	}
	if f.open > 0 {
		l.held = append(l.held, f)
		return
	}
	l.join(&f)
}

// key runs one admitted key through the proxy, its server's memcached
// stage and, on a miss, the miss path: at once for a drawn key, and
// from drain for a queued one.
func (l *loop) key(f *fork, now float64) {
	f.admitted++
	if l.proxy != nil {
		tp := l.proxy.Sample(l.rngProxy)
		f.maxTP = max(f.maxTP, tp)
		l.rec.Observe(telemetry.StageProxyHop, tp)
	}
	j := l.assign.SampleInt(l.rngAssign)
	s, done, failed, shed := l.stage.sojourn(j, now+l.cfg.Model.NetworkLatency, f.measured)
	if shed && f.measured {
		l.out.ShedKeys++
	}
	if failed {
		f.failed++
	}
	f.maxTS = max(f.maxTS, s)
	f.sumTS += s
	// A failed key returns no value, so it cannot miss into the
	// database; the caller sees its error instead.
	if failed || !l.miss.misses() {
		f.end = max(f.end, done)
		return
	}
	f.misses++
	if l.cfg.Integrated {
		f.open++
		l.pending = append(l.pending, pendingMiss{done, len(l.held)})
		return
	}
	l.serveMiss(f, now)
}

// drain serves the queued keys' misses in the order they leave
// memcached, which interleaves servers unlike launch order, and joins
// each held request at its last one.
func (l *loop) drain() {
	slices.SortStableFunc(l.pending, func(a, b pendingMiss) int { return cmp.Compare(a.done, b.done) })
	for _, p := range l.pending {
		f := &l.held[p.fork]
		l.serveMiss(f, p.done)
		if f.open--; f.open == 0 {
			l.join(f)
		}
	}
}

// serveMiss sends one of f's misses down the miss path at time at.
func (l *loop) serveMiss(f *fork, at float64) {
	out := l.out
	d, stage, failed := l.miss.serve(at)
	if failed {
		f.failed++
	}
	f.maxTD = max(f.maxTD, d)
	f.end = max(f.end, at+d)
	if !f.measured {
		return
	}
	out.DBLat.Record(d)
	switch stage {
	case telemetry.StageDiskRead:
		out.DiskHits++
	case telemetry.StageCoalesceWait:
		out.DelayedHits++
	default:
		out.BackendFetches++
	}
	l.rec.Observe(stage, d)
}

// join closes request f. Under the §3 independence assumption (the
// composition mode) its stage maxima add in series; without it (the
// integrated mode) it ends at its last key's completion.
func (l *loop) join(f *fork) {
	out := l.out
	total := f.end - f.start
	if !l.cfg.Integrated {
		total = l.cfg.Model.NetworkLatency + f.maxTS + f.maxTD + f.maxTP
		f.end = f.start + total
	}
	out.Elapsed = max(out.Elapsed, f.end)
	if !f.measured {
		return
	}
	out.Requests++
	out.KeyCount += int64(f.admitted)
	out.MissCount += int64(f.misses)
	out.FailedKeys += int64(f.failed)
	if f.misses > 0 {
		out.RequestsWithMiss++
	}
	if f.failed > 0 {
		out.DegradedRequests++
	}
	if f.admitted == 0 {
		// Every key was shed: the caller saw only error lines, so the
		// request leaves no latency sample on any plane.
		out.ShedRequests++
		return
	}
	out.TS.Record(f.maxTS)
	out.TD.Record(f.maxTD)
	if out.TP != nil {
		out.TP.Record(f.maxTP)
	}
	out.Total.Record(total)
	if l.cfg.Observer != nil {
		l.cfg.Observer.RequestTotal(f.start, total)
	}
	if f.tenant != nil {
		f.tenant.Observe(total)
	}
	l.rec.Observe(telemetry.StageForkJoin, f.maxTS-f.sumTS/float64(f.admitted))
	if l.cfg.Tracer.Enabled() {
		emitRequestSpans(l.cfg.Tracer, f.start, total, f.maxTP, f.maxTS, f.maxTD)
	}
}

// emitRequestSpans records one composed request on the virtual request
// timeline: a sim/request root spanning the end-user latency, with the
// stage maxima laid out in series underneath it the way Theorem 1 adds
// them. Start times are virtual seconds (request index over Λ/N), so
// the exported Chrome trace shows the simulated run's own clock.
func emitRequestSpans(tr *otrace.Tracer, now, total, maxTP, maxTS, maxTD float64) {
	root := otrace.Span{
		Trace: tr.NewID(), ID: tr.NewID(), Comp: "sim", Name: "request",
		Server: -1, Start: now, Dur: total,
	}
	tr.Emit(root)
	at := now
	emit := func(name string, dur float64) {
		if dur <= 0 {
			return
		}
		tr.Emit(otrace.Span{
			Trace: root.Trace, ID: tr.NewID(), Parent: root.ID,
			Comp: "sim", Name: name, Server: -1, Start: at, Dur: dur,
		})
		at += dur
	}
	emit("proxy", maxTP)
	emit("memcached", maxTS)
	emit("db", maxTD)
}

// TDQuantileEstimate measures E[T_D(N)] the way the paper's eqs. 21–23
// do, but from empirical quantities: the measured probability of any
// miss P{K>0} times the K̄/(K̄+1)-quantile of the measured per-miss
// database latency, K̄ being the measured E[K | K>0]. The mean of
// per-request maxima (TD.Mean()) exceeds this by the same
// maximal-statistics bias as TS — see EXPERIMENTS.md.
func (r *RequestResult) TDQuantileEstimate() (float64, error) {
	if r.RequestsWithMiss == 0 {
		return 0, nil
	}
	pAny := float64(r.RequestsWithMiss) / float64(r.Requests)
	kBar := float64(r.MissCount) / float64(r.RequestsWithMiss)
	q, err := r.DBLat.Quantile(kBar / (kBar + 1))
	if err != nil {
		return 0, err
	}
	return pAny * q, nil
}

// TPQuantileEstimate measures E[T_P(N)] the way TSQuantileEstimate
// measures the memcached stage: as the N/(N+1)-quantile of the proxy
// stage's per-key sojourn distribution (a single queue, so the
// composite CDF is its own). Zero when the run had no proxy tier.
func (r *RequestResult) TPQuantileEstimate(n int) (float64, error) {
	if r.ProxyKeys == nil || r.ProxyKeys.Count() == 0 {
		return 0, nil
	}
	return r.ProxyKeys.Quantile(float64(n) / float64(n+1))
}

// TSQuantileEstimate measures E[T_S(N)] the way the paper does (§4.5):
// as the N/(N+1)-quantile of the composite per-key latency distribution
// T_S(1)(t) = Π_j [F_j(t)]^{p_j} (eq. 11), evaluated on the empirical
// per-server CDFs. This is the estimator the paper's "Experiment"
// columns report; the mean of per-request maxima (TS.Mean()) exceeds it
// by the Euler–Mascheroni bias of the maximal-statistics approximation
// (≈ γ/ln(N+1), ~11% at N=150) — see EXPERIMENTS.md. The level is
// solved by the model's own core.SolveQuantile, so a level the
// empirical CDFs never reach is an error, not a guess.
func (r *RequestResult) TSQuantileEstimate(m *core.Config) (float64, error) {
	if m == nil {
		return 0, fmt.Errorf("sim: nil model")
	}
	k := float64(m.N) / float64(m.N+1)
	logK := math.Log(k)
	// Hedged composition: every draw (primary and alternates) samples
	// the load-weighted mixture G(t) = Σ p_j F_j(t), and the key keeps
	// the fastest of d = Replicas draws: H(t) = 1 − (1−G(t))^d, identical
	// for every key.
	hedged := r.Replicas > 1
	logCDF := func(t float64) float64 {
		var g, s float64
		for j, srv := range r.Servers {
			p := m.LoadRatios[j]
			if p == 0 || srv == nil {
				continue
			}
			f := srv.Hist.CDF(t)
			switch {
			case hedged:
				g += p * f
			case f <= 0:
				return math.Inf(-1)
			default:
				s += p * math.Log(f)
			}
		}
		if !hedged {
			return s
		}
		if h := -math.Expm1(float64(r.Replicas) * math.Log1p(-g)); g > 0 && h > 0 {
			return math.Log(h)
		}
		return math.Inf(-1)
	}
	return core.SolveQuantile(logCDF, logK)
}

// stream simulates one GI^X/M/1 key stream of model m at key rate
// lambdaKeys, its batch gaps drawn from m's arrival law; cfg supplies
// the rest.
func stream(m *core.Config, lambdaKeys float64, cfg ServerConfig) (*ServerResult, error) {
	var err error
	if cfg.Interarrival, err = m.ArrivalFor(lambdaKeys); err != nil {
		return nil, err
	}
	cfg.Q, cfg.MuS = m.Q, m.MuS
	return SimulateServer(cfg)
}
