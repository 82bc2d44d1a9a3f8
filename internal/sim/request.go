package sim

import (
	"fmt"
	"math"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// RequestConfig parameterizes the fork-join composition stage: it takes
// a model configuration and measurement sizes and produces end-user
// request latencies the way the paper's testbed does (per-server key
// streams + statistical composition over each request's N keys).
type RequestConfig struct {
	// Model is the deployment/workload description.
	Model *core.Config
	// Requests is the number of end-user requests to synthesize.
	Requests int
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
	// wait and service from the per-server streams, miss penalty per
	// missed key, and fork-join overhead (max-over-N minus mean) per
	// composed request — plus, under faults, the resilience stages
	// (retry, hedge_wait, breaker_shed).
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
	// naive draw; only the backend fetch count drops. False keeps the
	// naive one-fetch-per-miss draw byte-identical to prior runs.
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
	// DiskHitFraction (rng stream 108, drawn only on tiered runs so
	// untiered runs keep their draw sequence byte-identical), paying a
	// disk read from the configured service-time family instead of the
	// Exp(µ_D) backend fetch. Disk hits are local reads, so they never
	// enter the coalescing windows or the Database fault path; they are
	// recorded as telemetry.StageDiskRead and counted in DiskHits.
	Extstore *ExtstoreSim
	// Tenants arms the multi-tenant QoS admission ahead of every key
	// draw: each request draws its tenant from the Share mix (rng
	// stream 107) and each of its N keys charges one op token to that
	// tenant's bucket at the request's virtual arrival time — the same
	// tenant.Admit the live proxy runs, on virtual time. A shed key
	// skips the proxy/server/miss draws entirely (shed-before-queue)
	// and is recorded as telemetry.StageTenantShed; a request whose
	// keys all shed is excluded from the latency sample (its caller
	// saw only error lines). Empty keeps every draw sequence
	// byte-identical to prior runs.
	Tenants []tenant.Spec
	// OfferedKeyRate is the pre-shedding aggregate key rate Λ driving
	// the virtual request clock when Tenants is set; Model.TotalKeyRate
	// should then carry the admitted Λ' the surviving streams are
	// priced at. Zero defaults to Model.TotalKeyRate.
	OfferedKeyRate float64
	// Observer, when set, watches the composition loop on its virtual
	// timeline: BeginRequest fires at each request's arrival instant
	// (before any draw), request-loop stage observations are teed to
	// its Observe, and RequestTotal reports each composed request's
	// end-to-end latency. Per-server stream stages (queue_wait,
	// service) are simulated up front outside the request timeline, so
	// they are not replayed through the observer. Nil adds no work and
	// draws nothing, keeping existing runs byte-identical — this is the
	// seam the SLO watchdog replays deterministically.
	Observer RequestObserver
}

// RequestObserver receives the composition loop's virtual-time events
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
// the paper's Table 3 columns.
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
	// Tenants carries the per-tenant QoS outcome in declaration order
	// (nil without tenant specs).
	Tenants []TenantSimResult
	// TenantShedKeys counts keys refused by tenant admission; shed
	// keys never enter KeyCount or any queue.
	TenantShedKeys int64
	// ShedRequests counts requests whose N keys were all shed — the
	// caller saw nothing but error lines, so they contribute no
	// latency sample.
	ShedRequests int64
}

// TenantSimResult is one tenant's simulated outcome: the final bucket
// and counter snapshot plus the latency histogram of its requests that
// had at least one admitted key.
type TenantSimResult struct {
	Snapshot tenant.Snapshot
	Latency  *stats.Histogram
}

// SimulateRequests runs the two-stage experiment: simulate each server's
// GI^X/M/1 key stream, then compose Requests fork-join requests whose N
// keys are assigned to servers multinomially by {p_j}, each key reading
// a latency sample from its server, missing with probability r into an
// exponential database stage, and joining at the max (paper §4.1).
func SimulateRequests(cfg RequestConfig) (*RequestResult, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("sim: nil model config")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("sim: requests=%d must be >= 1", cfg.Requests)
	}
	keysPerServer := cfg.KeysPerServer
	if keysPerServer == 0 {
		keysPerServer = 200000
	}
	replicas := cfg.ReadReplicas
	if replicas == 0 {
		replicas = 1
	}
	if replicas < 1 {
		return nil, fmt.Errorf("sim: read replicas %d must be >= 1", replicas)
	}
	m := cfg.Model

	var inj *fault.Injector
	if !cfg.Faults.Empty() {
		var err error
		inj, err = fault.NewInjector(cfg.Faults, m.M())
		if err != nil {
			return nil, err
		}
	}
	faultAware := inj != nil || cfg.Resilience.Enabled()
	if faultAware && replicas > 1 {
		return nil, fmt.Errorf("sim: ReadReplicas > 1 cannot combine with faults/resilience (hedging is the Resilience knob)")
	}

	// Stage 1: per-server key streams.
	servers := make([]*ServerResult, m.M())
	for j := 0; j < m.M(); j++ {
		if m.LoadRatios[j] == 0 {
			continue
		}
		lam := m.ServerKeyRate(j)
		if replicas > 1 {
			lam *= float64(replicas)
		}
		arrival, err := serverArrival(m, lam)
		if err != nil {
			return nil, fmt.Errorf("server %d: %w", j, err)
		}
		res, err := SimulateServer(ServerConfig{
			Interarrival: arrival,
			Q:            m.Q,
			MuS:          m.MuS,
			Keys:         keysPerServer,
			Seed:         cfg.Seed + uint64(j)*1000003,
			Recorder:     cfg.Recorder,
			Fault:        inj,
			Server:       j,
		})
		if err != nil {
			return nil, fmt.Errorf("server %d: %w", j, err)
		}
		servers[j] = res
	}

	// Optional proxy stage: one more GI^X/M/1 stream at the aggregate
	// key rate. Every key passes the proxy exactly once — replicated
	// reads fan out on the proxy's upstream side, not its queue — so the
	// stream's rate is the configured Λ regardless of ReadReplicas.
	var proxySrv *ServerResult
	if cfg.ProxyModel != nil {
		pm := cfg.ProxyModel
		if err := pm.Validate(); err != nil {
			return nil, fmt.Errorf("sim: proxy model: %w", err)
		}
		arrival, err := serverArrival(pm, pm.TotalKeyRate)
		if err != nil {
			return nil, fmt.Errorf("sim: proxy stage: %w", err)
		}
		proxySrv, err = SimulateServer(ServerConfig{
			Interarrival: arrival,
			Q:            pm.Q,
			MuS:          pm.MuS,
			Keys:         keysPerServer,
			Seed:         cfg.Seed + 777000777,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: proxy stage: %w", err)
		}
	}

	// Stage 2: fork-join composition.
	assign, err := dist.NewWeighted(m.LoadRatios)
	if err != nil {
		return nil, err
	}
	out := &RequestResult{
		Total:    stats.NewHistogram(),
		TS:       stats.NewHistogram(),
		TD:       stats.NewHistogram(),
		DBLat:    stats.NewHistogram(),
		TN:       m.NetworkLatency,
		Servers:  servers,
		Replicas: replicas,
	}
	if proxySrv != nil {
		out.TP = stats.NewHistogram()
		out.ProxyKeys = proxySrv.Hist
	}
	var (
		rngAssign = dist.SubRand(cfg.Seed, 101)
		rngSample = dist.SubRand(cfg.Seed, 102)
		rngMiss   = dist.SubRand(cfg.Seed, 103)
		rngDB     = dist.SubRand(cfg.Seed, 104)
		rngProxy  = dist.SubRand(cfg.Seed, 105)
	)
	rec := telemetry.OrNop(cfg.Recorder)
	if cfg.Observer != nil {
		rec = telemetry.Tee(rec, cfg.Observer)
	}
	rs := newSimResilience(cfg.Resilience, m, servers)
	// Tenant QoS state: the limiter runs the same bucket code the live
	// proxy runs, on the virtual request clock. The tenant rng (stream
	// 107) is drawn only when tenants are declared, so untenanted runs
	// keep their draw sequence byte-identical.
	var (
		lim       *tenant.Limiter
		tenants   []*tenant.Tenant
		tenantMix *dist.Weighted
		rngTenant = dist.SubRand(cfg.Seed, 107)
		tenantLat []*stats.Histogram
	)
	if len(cfg.Tenants) > 0 {
		lim, err = tenant.New(cfg.Tenants)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		tenants = lim.Tenants()
		tenantMix, err = dist.NewWeighted(tenant.Shares(cfg.Tenants))
		if err != nil {
			return nil, fmt.Errorf("sim: tenant shares: %w", err)
		}
		tenantLat = make([]*stats.Histogram, len(cfg.Tenants))
		for i := range tenantLat {
			tenantLat[i] = stats.NewHistogram()
		}
	}
	// Coalescing state: per-key in-flight fetch windows on the virtual
	// timeline. The key rng (stream 106) is drawn only on coalesced
	// runs, so naive runs keep their draw sequence byte-identical.
	var (
		rngMissKey    = dist.SubRand(cfg.Seed, 106)
		missZipf      *dist.Zipf
		inflightUntil []float64 // fetch window end per key (virtual s)
		inflightFail  []bool    // window's fetch failed: error fans out
	)
	if cfg.Coalesce {
		nKeys := cfg.MissKeys
		if nKeys <= 0 {
			nKeys = 2000
		}
		if cfg.MissZipfS > 0 {
			z, err := dist.NewZipf(nKeys, cfg.MissZipfS)
			if err != nil {
				return nil, err
			}
			missZipf = z
		}
		inflightUntil = make([]float64, nKeys)
		inflightFail = make([]bool, nKeys)
	}
	// Tiered miss state: the disk rng (stream 108) is drawn only on
	// tiered runs — both for the β coin and the service draw — so
	// untiered runs keep their draw sequence byte-identical.
	var (
		rngDisk  = dist.SubRand(cfg.Seed, 108)
		diskDraw func() float64
	)
	if e := cfg.Extstore; e != nil {
		if e.DiskHitFraction < 0 || e.DiskHitFraction > 1 {
			return nil, fmt.Errorf("sim: extstore disk-hit fraction %v out of [0, 1]", e.DiskHitFraction)
		}
		if e.MuDisk <= 0 {
			return nil, fmt.Errorf("sim: extstore MuDisk=%v must be positive", e.MuDisk)
		}
		switch e.Dist {
		case "", "exp":
			diskDraw = func() float64 { return rngDisk.ExpFloat64() / e.MuDisk }
		case "lognormal":
			sigma := e.Sigma
			if sigma == 0 {
				sigma = 0.5
			}
			// µ = ln(mean) − σ²/2 preserves the 1/MuDisk mean.
			ln, err := dist.NewLogNormal(math.Log(1/e.MuDisk)-sigma*sigma/2, sigma)
			if err != nil {
				return nil, fmt.Errorf("sim: extstore: %w", err)
			}
			diskDraw = func() float64 { return ln.Sample(rngDisk) }
		default:
			return nil, fmt.Errorf("sim: extstore disk dist %q unknown (exp, lognormal)", e.Dist)
		}
	}
	// Virtual request clock for Database fault windows and tenant
	// buckets: requests arrive at the aggregate rate Λ/N, matching the
	// per-server streams' own virtual timelines. Under QoS the clock
	// runs at the OFFERED rate — sheds happen at arrival, before any
	// queue, so the admission process sees the pre-shedding stream.
	offeredRate := cfg.OfferedKeyRate
	if offeredRate <= 0 {
		offeredRate = m.TotalKeyRate
	}
	reqRate := offeredRate / float64(m.N)
	// Every key read goes through the resilience pipeline (a nil
	// simResilience is one plain draw): draw samples server j's stream
	// and reports whether that sample went unanswered.
	var j int
	draw := func() (float64, bool) {
		idx := servers[j].SampleIdx(rngSample)
		return servers[j].Sojourns[idx], servers[j].FailedAt(idx)
	}
	for req := 0; req < cfg.Requests; req++ {
		var (
			maxTS, maxTD, maxTP, sumTS float64
			misses, failedKeys         int
			admittedKeys               int
		)
		now := float64(req) / reqRate
		if cfg.Observer != nil {
			cfg.Observer.BeginRequest(now)
		}
		var tn *tenant.Tenant
		tenantIdx := -1
		if lim != nil {
			tenantIdx = tenantMix.SampleInt(rngTenant)
			tn = tenants[tenantIdx]
		}
		for i := 0; i < m.N; i++ {
			if tn != nil && !tn.Admit(now, 1, 0) {
				// Shed before queue: the key never reaches the proxy or
				// a server, so it draws nothing downstream.
				out.TenantShedKeys++
				rec.Observe(telemetry.StageTenantShed, 0)
				continue
			}
			admittedKeys++
			if proxySrv != nil {
				tp := proxySrv.Sample(rngProxy)
				if tp > maxTP {
					maxTP = tp
				}
				rec.Observe(telemetry.StageProxyHop, tp)
			}
			j = assign.SampleInt(rngAssign)
			s, failed, shed := rs.resolveKey(j, draw, rec)
			if shed {
				out.ShedKeys++
			}
			if failed {
				failedKeys++
				out.FailedKeys++
			}
			// Hedged reads: fastest of `replicas` independent draws
			// (replicas live on distinct servers; with balanced load the
			// same server's distribution represents each).
			for rep := 1; rep < replicas; rep++ {
				alt := servers[assign.SampleInt(rngAssign)].Sample(rngSample)
				if alt < s {
					s = alt
				}
			}
			if s > maxTS {
				maxTS = s
			}
			sumTS += s
			out.KeyCount++
			// A failed key returns no value, so it cannot miss into the
			// database; the caller sees its error instead.
			if !failed && m.MissRatio > 0 && rngMiss.Float64() < m.MissRatio {
				var d float64
				delayed := false
				diskHit := false
				if diskDraw != nil && rngDisk.Float64() < cfg.Extstore.DiskHitFraction {
					// Disk hit: the SSD tier absorbs the RAM miss — a
					// local segment read, so no backend fetch, no
					// coalescing window and no Database fault exposure.
					d = diskDraw()
					diskHit = true
				} else {
					k := -1 // the miss's key identity, on coalesced runs
					if missZipf != nil {
						k = missZipf.SampleInt(rngMissKey)
					} else if cfg.Coalesce {
						k = rngMissKey.IntN(len(inflightUntil))
					}
					if k >= 0 && inflightUntil[k] > now {
						// Delayed hit: the key's fetch is already in
						// flight, so this miss pays only the residual
						// wait. The leader's fault delay is inside the
						// window, and a failed fetch fans its error out
						// to everyone attached.
						d = inflightUntil[k] - now
						delayed = true
						if inflightFail[k] {
							failedKeys++
							out.FailedKeys++
						}
					} else {
						// A backend fetch, naive or a coalesced leader.
						d = rngDB.ExpFloat64() / m.MuD
						fetchFailed := false
						if act := inj.At(fault.Database, now); act.Faulted() {
							d += act.Delay
							if act.Outcome != fault.OK {
								// Database outage: the fill fails after the
								// delay and the key goes unanswered.
								fetchFailed = true
								failedKeys++
								out.FailedKeys++
							}
						}
						if k >= 0 {
							inflightUntil[k] = now + d
							inflightFail[k] = fetchFailed
						}
					}
				}
				misses++
				out.MissCount++
				out.DBLat.Record(d)
				switch {
				case diskHit:
					out.DiskHits++
					rec.Observe(telemetry.StageDiskRead, d)
				case delayed:
					out.DelayedHits++
					rec.Observe(telemetry.StageCoalesceWait, d)
				default:
					out.BackendFetches++
					rec.Observe(telemetry.StageMissPenalty, d)
				}
				if d > maxTD {
					maxTD = d
				}
			}
		}
		out.Requests++
		if misses > 0 {
			out.RequestsWithMiss++
		}
		if failedKeys > 0 {
			out.DegradedRequests++
		}
		if admittedKeys == 0 {
			// Every key was shed: the caller saw only error lines, so
			// the request leaves no latency sample on any plane.
			out.ShedRequests++
			continue
		}
		out.TS.Record(maxTS)
		out.TD.Record(maxTD)
		if out.TP != nil {
			out.TP.Record(maxTP)
		}
		total := m.NetworkLatency + maxTS + maxTD + maxTP
		out.Total.Record(total)
		if cfg.Observer != nil {
			cfg.Observer.RequestTotal(now, total)
		}
		if tenantIdx >= 0 {
			tenantLat[tenantIdx].Record(total)
		}
		rec.Observe(telemetry.StageForkJoin, maxTS-sumTS/float64(admittedKeys))
		if cfg.Tracer.Enabled() {
			emitRequestSpans(cfg.Tracer, now, total, maxTP, maxTS, maxTD)
		}
	}
	if lim != nil {
		out.Tenants = make([]TenantSimResult, len(tenants))
		for i, h := range tenants {
			out.Tenants[i] = TenantSimResult{Snapshot: h.Snapshot(), Latency: tenantLat[i]}
		}
	}
	return out, nil
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
// (≈ γ/ln(N+1), ~11% at N=150) — see EXPERIMENTS.md.
func (r *RequestResult) TSQuantileEstimate(m *core.Config) (float64, error) {
	if m == nil {
		return 0, fmt.Errorf("sim: nil model")
	}
	k := float64(m.N) / float64(m.N+1)
	logK := math.Log(k)
	replicas := r.Replicas
	if replicas == 0 {
		replicas = 1
	}
	logCDF := func(t float64) float64 {
		if replicas > 1 {
			// Hedged composition: every draw (primary and alternates)
			// samples the load-weighted mixture G(t) = Σ p_j F_j(t), and
			// the key keeps the fastest of `replicas` draws:
			// H(t) = 1 − (1−G(t))^d, identical for every key.
			var g float64
			for j, srv := range r.Servers {
				p := m.LoadRatios[j]
				if p == 0 || srv == nil {
					continue
				}
				g += p * srv.Hist.CDF(t)
			}
			if g <= 0 {
				return math.Inf(-1)
			}
			h := -math.Expm1(float64(replicas) * math.Log1p(-g))
			if h <= 0 {
				return math.Inf(-1)
			}
			return math.Log(h)
		}
		var s float64
		for j, srv := range r.Servers {
			p := m.LoadRatios[j]
			if p == 0 || srv == nil {
				continue
			}
			f := srv.Hist.CDF(t)
			if f <= 0 {
				return math.Inf(-1)
			}
			s += p * math.Log(f)
		}
		return s
	}
	if logCDF(0) >= logK {
		return 0, nil
	}
	hi := 1e-6
	for i := 0; i < 200 && logCDF(hi) < logK; i++ {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if logCDF(mid) < logK {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// serverArrival builds the batch inter-arrival distribution for a
// server with the given key rate, honoring a Config override.
func serverArrival(m *core.Config, lambdaKeys float64) (dist.Interarrival, error) {
	batchRate := (1 - m.Q) * lambdaKeys
	if m.Arrival != nil {
		return m.Arrival(batchRate)
	}
	return dist.NewGeneralizedPareto(m.Xi, batchRate)
}
