package plane

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"strconv"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/extstore"
	"memqlat/internal/fault"
	"memqlat/internal/loadgen"
	"memqlat/internal/metrics"
	"memqlat/internal/mrc"
	"memqlat/internal/proxy"
	"memqlat/internal/server"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// liveExtSegmentBytes keeps live-plane segments small so modest SSD
// budgets still roll across several segments (eviction granularity is
// a whole segment).
const liveExtSegmentBytes = 16 << 10

// liveTier sizes one server's share of a tiered scenario: a RAM cache
// holding ~RAMItems/M items and an extstore budget for the SSD share,
// both converted to bytes at the loadgen's key size and the scenario's
// ValueSize (0 = the loadgen default of 100).
func liveTier(s Scenario, m int) (cache.Options, extstore.Options) {
	valueSize := s.ValueSize
	if valueSize == 0 {
		valueSize = 100
	}
	e := s.Extstore
	keyLen := len(loadgen.KeyPrefix + strconv.Itoa(s.Keys-1))
	ramPer := (e.RAMItems + m - 1) / m
	diskPer := (e.TotalItems - e.RAMItems + m - 1) / m
	copts := cache.Options{
		// One shard: a sharded cache partitions its budget per shard,
		// which blurs the item capacity this sizing is trying to pin.
		// The split it is sized from is Mattson's, exact LRU; the cache
		// evicts by second chance, which lands within ~2 % of that RAM
		// hit ratio here (DESIGN §9.1).
		MaxBytes:    int64(ramPer) * cache.ItemCost(keyLen, valueSize),
		Shards:      1,
		MaxItemSize: 1024,
	}
	eopts := extstore.Options{
		SegmentBytes: liveExtSegmentBytes,
		// One segment of slack absorbs footers and the active segment's
		// unsealed tail.
		MaxBytes: int64(diskPer)*extstore.FrameCost(keyLen, valueSize) + liveExtSegmentBytes,
	}
	return copts, eopts
}

// LivePlane evaluates a Scenario on the real TCP stack, and is the one
// place that stack is assembled: a cluster (one shaped in-process
// server per load-ratio entry, or the existing one at Servers), an
// optional proxy tier, a simulated database backend, a pooled client
// (one idle connection per worker and server), and the mutilate-like
// load generator, all sharing a single telemetry collector so the
// measured Breakdown decomposes exactly like the model's and the
// simulator's. Run is Start → Drive → Close.
//
// Every workload value comes from the Scenario; the fields here say
// only how the stack is driven. The load generator's open loop draws the
// model's own arrival process (core.Config.ArrivalFor gaps, batches of
// Q) but issues single-key gets, and consistent hashing realizes only a
// balanced split, so Start refuses N ≠ 1 or unequal LoadRatios instead
// of measuring something else. Real-time pacing cannot sustain the
// paper's 62.5 Kps per server on one machine, so live Scenarios use
// scaled rates.
type LivePlane struct {
	// Servers, when non-empty, attaches the run to the cluster already
	// listening at these addresses instead of starting one. It has its
	// own service rate, tier and failures: the model parameters are not
	// validated against it and Faults/Extstore are rejected.
	Servers []string
	// ReadThrough relays misses to a simulated database through the
	// client's GetThrough. An in-process cluster reads through anyway
	// whenever the scenario prices misses or arms the extstore tier.
	ReadThrough bool
	// Observer, when set, sees every issued key with its offset from
	// the run start (e.g. a key journal for MRC analysis or replay).
	Observer func(offset time.Duration, key string)
}

// liveGaps returns the batch-gap law the live load generator paces: the
// model's, at Λ. It first refuses, by name, a Scenario field the live
// plane would otherwise ignore: it runs single-key requests over a
// balanced split only.
func (s Scenario) liveGaps() (dist.Interarrival, error) {
	if s.N != 1 {
		return nil, fmt.Errorf("plane: scenario %q: the live plane issues single-key gets and needs N = 1, not N = %d", s.Name, s.N)
	}
	for _, p := range s.LoadRatios {
		if math.Abs(p-s.LoadRatios[0]) > 1e-9 {
			return nil, fmt.Errorf("plane: scenario %q: consistent hashing realizes only a balanced split; LoadRatios %v are unequal", s.Name, s.LoadRatios)
		}
	}
	model, err := s.modelConfig()
	if err != nil {
		return nil, err
	}
	return model.ArrivalFor(s.TotalKeyRate)
}

// Name implements Plane.
func (LivePlane) Name() string { return "live" }

// Run implements Plane.
func (p LivePlane) Run(ctx context.Context, s Scenario) (*Result, error) {
	r, err := p.Start(s)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Drive(ctx)
}

// LiveRun is a started, populated live stack; it owns its tiers until Close.
type LiveRun struct {
	s         Scenario
	began     time.Time
	collector *telemetry.Collector
	// clock is the run epoch the fault schedule, the QoS buckets and the
	// watchdog windows share: -Inf until Drive, so populate runs healthy.
	clock fault.Clock
	// inj is shared by all servers and the backend, so wall-time fault
	// windows line up with the simulator's virtual-time schedule.
	inj       *fault.Injector
	split     mrc.TierSplit
	load      loadgen.Options
	servers   []*server.Server
	caches    []*cache.Cache
	exts      []*extstore.Store
	db        *backend.DB
	px        *proxy.Proxy
	lim       *tenant.Limiter
	cl        *client.Client
	upstreams int // addresses the client dials: the cluster, or its proxy
	// closers release what Start built; Close runs them last-in first-out.
	closers []func()
}

// Start assembles the stack for s and populates the keyspace; on error
// everything built so far is released.
func (p LivePlane) Start(s Scenario) (_ *LiveRun, err error) {
	s = s.withDefaults()
	gaps, err := s.liveGaps()
	if err != nil {
		return nil, err
	}
	r := &LiveRun{s: s, began: time.Now(), collector: telemetry.NewCollector()}
	defer func() {
		if err != nil {
			r.Close()
		}
	}()
	if r.lim, err = s.validateTenants(); err != nil {
		return nil, err
	}
	// With a watchdog armed, every tier's stage observations tee into
	// its rolling-window sketches alongside the collector; the tee
	// preserves sharding, so hot-path recording stays lock-striped.
	var rec telemetry.Recorder = r.collector
	if s.SLO != nil {
		rec = telemetry.Tee(r.collector, s.SLO)
	}

	addrs := p.Servers
	if len(addrs) == 0 {
		if addrs, err = r.startServers(rec); err != nil {
			return nil, err
		}
	} else if !s.Faults.Empty() || s.Extstore != nil {
		return nil, fmt.Errorf("plane: scenario %q: faults and the extstore tier are built into in-process servers; an attached cluster runs its own", s.Name)
	}

	if err := r.startDriver(p, addrs, gaps, rec); err != nil {
		return nil, err
	}
	if err := loadgen.Populate(r.load); err != nil {
		return nil, err
	}
	for _, e := range r.exts {
		// Drain the eviction queues so the measured run starts with the
		// populate spill fully indexed on disk.
		e.Flush()
	}
	return r, nil
}

// startDriver builds what drives the cluster at addrs: the backend that
// misses read through to, the proxy tier the scenario may interpose, the
// client, and the load generator's options.
func (r *LiveRun) startDriver(p LivePlane, addrs []string, gaps dist.Interarrival, rec telemetry.Recorder) (err error) {
	s := r.s
	// A tiered run's misses are capacity misses, and whatever falls past
	// the disk tier must still read through to the backend.
	readThrough := p.ReadThrough ||
		len(p.Servers) == 0 && (s.MissRatio > 0 || s.Extstore != nil)
	clOpts := client.Options{
		FillTTL:    s.FillTTL,
		PoolSize:   s.Workers,
		Resilience: s.Resilience,
		Coalesce:   s.Coalesce,
		Recorder:   rec,
		Tracer:     s.Tracer,
		Seed:       s.Seed,
	}
	if readThrough {
		dbOpts := backend.Options{
			MuD: s.MuD, Seed: s.Seed, Recorder: rec, Tracer: s.Tracer,
			// A bounded single-worker database makes hot-key herds visible:
			// without coalescing the herd stacks up in the queue (watch
			// QueuePeak), with it the backend sees ~1 fetch per miss window.
			QueueDepth: s.DBQueueDepth,
		}
		if r.inj != nil {
			dbOpts.Fault = &fault.Point{Inj: r.inj, Server: fault.Database, Now: r.clock.Now}
		}
		if r.db, err = backend.New(dbOpts); err != nil {
			return err
		}
		r.closers = append(r.closers, r.db.Close)
		clOpts.Filler = r.db
	}
	if s.Proxy != nil {
		pol, err := proxy.ParsePolicy(s.Proxy.Policy)
		if err != nil {
			return err
		}
		r.px, err = proxy.New(proxy.Options{
			Upstreams: addrs,
			Policy:    pol,
			Replicas:  s.Proxy.Replicas,
			Recorder:  rec,
			Logger:    log.New(io.Discard, "", 0),
			Tracer:    s.Tracer,
			// The QoS buckets meter on the run clock, so populate admits
			// unthrottled and the sim's virtual timeline shares the epoch.
			Tenants:     r.lim,
			TenantClock: r.clock.Now,
		})
		if err != nil {
			return err
		}
		addr, err := r.serve(r.px.Serve, r.px.Close)
		if err != nil {
			return err
		}
		addrs = []string{addr}
	}
	clOpts.Servers, r.upstreams = addrs, len(addrs)
	if r.cl, err = client.New(clOpts); err != nil {
		return err
	}
	r.closers = append(r.closers, func() { _ = r.cl.Close() })
	r.load = loadgen.Options{
		Client:        r.cl,
		Keys:          s.Keys,
		ValueSize:     s.ValueSize,
		ValueDist:     s.ValueDist,
		ValueSigma:    s.ValueSigma,
		ZipfS:         s.ZipfS,
		Gaps:          gaps,
		Q:             s.Q,
		MissRatio:     s.MissRatio,
		Ops:           s.Ops,
		Workers:       s.Workers,
		Seed:          s.Seed,
		UseGetThrough: readThrough,
		Observer:      p.Observer,
		Tenants:       s.Tenants,
	}
	if s.SLO != nil {
		r.load.OnLatency = s.SLO.OnLatency
	}
	return nil
}

// serve puts a new server or proxy on a loopback listener. A tier that
// gets none is closed at once; Close closes the listener too, in case
// Serve never adopted it.
func (r *LiveRun) serve(serve func(net.Listener) error, closeTier func() error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = closeTier()
		return "", err
	}
	go func() { _ = serve(l) }()
	r.closers = append(r.closers, func() { _ = closeTier(); _ = l.Close() })
	return l.Addr().String(), nil
}

// startServers brings up the in-process cluster (on a tiered scenario,
// capacity-sized RAM caches over real segment files in temp dirs).
func (r *LiveRun) startServers(rec telemetry.Recorder) ([]string, error) {
	s := r.s
	m := len(s.LoadRatios)
	var err error
	if !s.Faults.Empty() {
		if r.inj, err = fault.NewInjector(s.Faults, m); err != nil {
			return nil, err
		}
	}
	if s.Extstore != nil {
		// The MRC prediction is also the Result's cross-plane surface.
		if r.split, err = s.ExtstoreSplit(); err != nil {
			return nil, err
		}
	}
	addrs := make([]string, m)
	for i := range addrs {
		copts := cache.Options{}
		var ext *extstore.Store
		if s.Extstore != nil {
			var eopts extstore.Options
			copts, eopts = liveTier(s, m)
			dir, err := os.MkdirTemp("", "memqlat-extstore-*")
			if err != nil {
				return nil, err
			}
			// The dir outlives the store and the store its server: reads
			// race a store's Close.
			r.closers = append(r.closers, func() { _ = os.RemoveAll(dir) })
			eopts.Dir = dir
			if ext, err = extstore.Open(eopts); err != nil {
				return nil, err
			}
			r.closers = append(r.closers, func() { _ = ext.Close() })
			r.exts = append(r.exts, ext)
		}
		c, err := cache.New(copts)
		if err != nil {
			return nil, err
		}
		r.caches = append(r.caches, c)
		sopts := server.Options{
			Cache:       c,
			Extstore:    ext,
			ServiceRate: s.MuS,
			Seed:        s.Seed + uint64(i),
			Logger:      log.New(io.Discard, "", 0),
			Recorder:    rec,
			Tracer:      s.Tracer,
			ID:          i,
		}
		if r.inj != nil {
			sopts.Fault = &fault.Point{Inj: r.inj, Server: i, Now: r.clock.Now}
		}
		srv, err := server.New(sopts)
		if err != nil {
			return nil, err
		}
		if addrs[i], err = r.serve(srv.Serve, srv.Close); err != nil {
			return nil, err
		}
		r.servers = append(r.servers, srv)
	}
	return addrs, nil
}

// Close releases everything Start built, newest first (so the client
// goes before the tiers it dials), once; safe on a partly started run.
func (r *LiveRun) Close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// RegisterMetrics exposes every tier of the started stack on reg;
// tiers the scenario did not ask for add nothing.
func (r *LiveRun) RegisterMetrics(reg *metrics.Registry) {
	metrics.RegisterServers(reg, r.servers)
	metrics.RegisterClient(reg, r.cl)
	metrics.RegisterCoalesce(reg, r.cl.Coalescer())
	metrics.RegisterBackend(reg, r.db)
	metrics.RegisterProxy(reg, r.px)
	metrics.RegisterTenants(reg, r.lim)
	metrics.RegisterTelemetry(reg, r.collector)
}

// Drive starts the run clock, issues the load (bounded by ctx and the
// scenario's Duration) and summarizes it on the common Result surface.
// The breakdown covers the run alone: what Start's populate recorded
// is drained when the clock starts.
func (r *LiveRun) Drive(ctx context.Context) (*Result, error) {
	s := r.s
	runCtx, cancel := context.WithTimeout(ctx, s.Duration)
	defer cancel()
	r.clock.Start()
	r.collector.Drain()
	if wd := s.SLO; wd != nil {
		// Arm only once the run clock starts: populate traffic is warmup,
		// not SLO traffic. Windows advance on the same epoch the fault
		// schedule uses, so "fault at t=1s" and "window 4" line up.
		defer wd.Start(r.clock.Now)()
	}
	lg, err := loadgen.Run(runCtx, r.load)
	if err != nil {
		return nil, err
	}
	if wd := s.SLO; wd != nil {
		wd.Advance(r.clock.Now())
		wd.Flush()
	}
	if lg.Issued == 0 {
		// A context that expired during populate yields an empty run;
		// surface it instead of reporting a zero-latency "result".
		return nil, fmt.Errorf("plane: live run issued no operations (duration %v too short?)", s.Duration)
	}
	return r.summarize(lg), nil
}

// summarize folds the run into the plane-independent Result.
func (r *LiveRun) summarize(lg *loadgen.Result) *Result {
	s := r.s
	b := r.collector.Breakdown()
	mean := lg.Latency.Mean()
	tsMean := b.MeanOf(telemetry.StageQueueWait) + b.MeanOf(telemetry.StageService)
	// The per-key miss cost is the miss stages' combined mass amortized
	// over every issued key, which matches the model's blended TD stage.
	// A miss is a fetch leader (miss_penalty) or, coalesced, a fan-in
	// (coalesce_wait); a tiered run splits the cost with disk reads.
	// Without either, the backend times exactly the fills the load
	// generator counts as misses, so this is mean(miss_penalty)·r.
	td := (b[telemetry.StageMissPenalty].Total +
		b[telemetry.StageCoalesceWait].Total +
		b[telemetry.StageDiskRead].Total) / float64(lg.Issued)
	res := &Result{
		Plane:    "live",
		Scenario: s,
		// The network stage is physically included in the sample, so TN
		// reads 0 rather than the modeled constant.
		Total:     core.Bounds{Lo: mean, Hi: mean},
		TN:        0,
		TS:        core.Bounds{Lo: tsMean, Hi: tsMean},
		TD:        td,
		Sample:    lg.Latency,
		MeanCI:    stats.HistMeanCI(lg.Latency, ci95),
		Breakdown: b,
		Elapsed:   time.Since(r.began),
		Live:      lg,
	}
	if r.db != nil {
		dbStats := r.db.Stats()
		res.DB = &dbStats
	}
	if s.SLO != nil {
		res.SLO = s.SLO.Status()
	}
	res.Extstore = r.tier()
	if g := r.cl.Coalescer(); g.Coalescing() {
		cs := g.Stats()
		res.Coalesce = &cs
	}
	if len(lg.Tenants) > 0 {
		offered, _, _ := s.tenantRates()
		handles := r.lim.Tenants()
		res.Tenants = make([]TenantResult, len(lg.Tenants))
		for i, ts := range lg.Tenants {
			admittedRate := 0.0
			if lg.Elapsed > 0 {
				admittedRate = float64(ts.Issued-ts.Sheds) / lg.Elapsed.Seconds()
			}
			res.Tenants[i] = TenantResult{
				Name:     ts.Name,
				Class:    handles[i].Snapshot().Class,
				Offered:  offered[i],
				Admitted: admittedRate,
				Issued:   ts.Issued,
				Shed:     ts.Sheds,
				Latency:  ts.Latency,
			}
		}
	}
	return res
}

// tier reports the disk tier's counters: read off the in-process
// servers next to the MRC prediction, or summed from the extstore_*
// stats rows of an attached cluster (nil when no server reports a tier
// or a proxy in front does not relay the rows).
func (r *LiveRun) tier() *ExtstoreResult {
	if len(r.servers) > 0 {
		if r.s.Extstore == nil {
			return nil
		}
		er := &ExtstoreResult{Predicted: r.split}
		for _, srv := range r.servers {
			dh, pr := srv.ExtstoreCounts()
			er.DiskHits += dh
			er.Promotions += pr
		}
		for _, c := range r.caches {
			// Populate only writes, so Misses counts the measured gets.
			er.RAMMisses += c.Stats().Misses
		}
		for _, e := range r.exts {
			st := e.Stats()
			er.SegmentBytes += st.SegmentBytes
			er.Segments += st.Segments
			er.Compactions += st.Compactions
			er.Drops += st.Drops
		}
		return er
	}
	var er *ExtstoreResult
	for i := 0; i < r.upstreams; i++ {
		m, err := r.cl.ServerStats(i)
		if _, ok := m["extstore_disk_hits"]; err != nil || !ok {
			continue
		}
		if er == nil {
			er = &ExtstoreResult{}
		}
		row := func(k string) int64 {
			v, _ := strconv.ParseInt(m[k], 10, 64)
			return v
		}
		er.DiskHits += row("extstore_disk_hits")
		er.Promotions += row("extstore_promotions")
		er.SegmentBytes += row("extstore_segment_bytes")
		er.Compactions += row("extstore_compactions")
	}
	return er
}
