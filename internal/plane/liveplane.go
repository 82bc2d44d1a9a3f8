package plane

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/coalesce"
	"memqlat/internal/core"
	"memqlat/internal/extstore"
	"memqlat/internal/fault"
	"memqlat/internal/loadgen"
	"memqlat/internal/mrc"
	"memqlat/internal/proxy"
	"memqlat/internal/server"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// liveValueSize is the loadgen payload the live plane stores (the
// loadgen default, pinned here because the tier sizing below converts
// the spec's item budgets into byte budgets at this value size).
const liveValueSize = 100

// liveExtSegmentBytes keeps live-plane segments small so modest SSD
// budgets still roll across several segments (eviction granularity is
// a whole segment).
const liveExtSegmentBytes = 16 << 10

// liveTier sizes one server's share of a tiered scenario: a RAM cache
// holding ~RAMItems/M items and an extstore budget for the SSD share,
// both converted to bytes at the loadgen's key/value sizes.
func liveTier(s Scenario, m int) (cache.Options, extstore.Options) {
	e := s.Extstore
	keyLen := len(loadgen.KeyPrefix + strconv.Itoa(s.Keys-1))
	ramPer := (e.RAMItems + m - 1) / m
	diskPer := (e.TotalItems - e.RAMItems + m - 1) / m
	copts := cache.Options{
		// One shard: a sharded LRU partitions its budget per shard,
		// which blurs the item capacity this sizing is trying to pin.
		MaxBytes:    int64(ramPer) * cache.ItemCost(keyLen, liveValueSize),
		Shards:      1,
		MaxItemSize: 1024,
	}
	eopts := extstore.Options{
		SegmentBytes: liveExtSegmentBytes,
		// One segment of slack absorbs footers and the active segment's
		// unsealed tail.
		MaxBytes: int64(diskPer)*extstore.FrameCost(keyLen, liveValueSize) + liveExtSegmentBytes,
	}
	return copts, eopts
}

// LivePlane evaluates a Scenario on the real TCP stack: it brings up
// one shaped memcached server per load-ratio entry, a simulated
// database backend, a pooled client, and the mutilate-like load
// generator, all sharing a single telemetry collector so the measured
// Breakdown decomposes exactly like the model's and the simulator's.
//
// Real-time pacing cannot sustain the paper's 62.5 Kps per server on
// one machine, so live Scenarios use scaled rates; the Sample is
// per-key latency (keys spread by consistent hashing, which realizes a
// balanced load split).
type LivePlane struct {
	// PoolSize caps client connections per server (default: Workers).
	PoolSize int
	// ConnCore selects the servers' connection core: server.CoreGoroutines
	// (the default) or server.CoreEventLoop. It belongs to this plane
	// alone — connection handling is exactly the machinery the model and
	// the simulator abstract away.
	ConnCore string
}

// Name implements Plane.
func (LivePlane) Name() string { return "live" }

// Run implements Plane.
func (p LivePlane) Run(ctx context.Context, s Scenario) (*Result, error) {
	start := time.Now()
	s = s.withDefaults()
	model, err := s.Config()
	if err != nil {
		return nil, err
	}
	lim, err := s.validateTenants()
	if err != nil {
		return nil, err
	}
	collector := telemetry.NewCollector()
	// With a watchdog armed, every tier's stage observations tee into
	// its rolling-window sketches alongside the collector; the tee
	// preserves sharding, so hot-path recording stays lock-striped.
	var rec telemetry.Recorder = collector
	if s.SLO != nil {
		rec = telemetry.Tee(collector, s.SLO)
	}

	// --- faults ---
	// One injector shared by all servers and the backend, clocked from a
	// common epoch that starts when the load does — so populate runs
	// healthy and the wall-time fault windows line up with the schedule
	// the simulator evaluates in virtual time.
	var (
		clock fault.Clock
		inj   *fault.Injector
	)
	if !s.Faults.Empty() {
		inj, err = fault.NewInjector(s.Faults, model.M())
		if err != nil {
			return nil, err
		}
	}
	pointFor := func(target int) *fault.Point {
		if inj == nil {
			return nil
		}
		return &fault.Point{Inj: inj, Server: target, Now: clock.Now}
	}

	// --- tiered storage ---
	// The MRC prediction is computed up front (it is also the Result's
	// cross-plane surface); per-server stores live in temp dirs removed
	// AFTER the servers close (defer order matters: reads race Close).
	var (
		split   mrc.TierSplit
		exts    []*extstore.Store
		extDirs []string
		caches  []*cache.Cache
	)
	defer func() {
		for _, e := range exts {
			_ = e.Close()
		}
		for _, d := range extDirs {
			_ = os.RemoveAll(d)
		}
	}()
	if s.Extstore != nil {
		split, err = s.ExtstoreSplit()
		if err != nil {
			return nil, err
		}
	}

	// --- cluster ---
	addrs := make([]string, model.M())
	var servers []*server.Server
	defer func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
	}()
	for i := range addrs {
		copts := cache.Options{}
		var ext *extstore.Store
		if s.Extstore != nil {
			var eopts extstore.Options
			copts, eopts = liveTier(s, model.M())
			dir, err := os.MkdirTemp("", "memqlat-extstore-*")
			if err != nil {
				return nil, err
			}
			extDirs = append(extDirs, dir)
			eopts.Dir = dir
			ext, err = extstore.Open(eopts)
			if err != nil {
				return nil, err
			}
			exts = append(exts, ext)
		}
		c, err := cache.New(copts)
		if err != nil {
			return nil, err
		}
		caches = append(caches, c)
		srv, err := server.New(server.Options{
			Cache:       c,
			Extstore:    ext,
			ServiceRate: s.MuS,
			Seed:        s.Seed + uint64(i),
			Logger:      log.New(io.Discard, "", 0),
			Recorder:    rec,
			Fault:       pointFor(i),
			Tracer:      s.Tracer,
			ID:          i,
			ConnCore:    p.ConnCore,
		})
		if err != nil {
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		servers = append(servers, srv)
		go func() { _ = srv.Serve(l) }()
	}
	dbOpts := backend.Options{
		MuD:      s.MuD,
		Seed:     s.Seed,
		Recorder: rec,
		Fault:    pointFor(fault.Database),
		Tracer:   s.Tracer,
	}
	if s.DBQueueDepth > 0 {
		// A bounded single-worker database makes hot-key herds visible:
		// without coalescing the herd stacks up in the queue (watch
		// QueuePeak), with it the backend sees ~1 fetch per miss window.
		dbOpts.Mode = backend.ModeSingleQueue
		dbOpts.QueueDepth = s.DBQueueDepth
	}
	db, err := backend.New(dbOpts)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	// --- proxy tier ---
	// With a ProxySpec the client talks to a single real proxy process
	// that multiplexes onto the server pool; it shares the telemetry
	// collector, so forward-path proxy work lands in StageProxyHop.
	clientAddrs := addrs
	if s.Proxy != nil {
		pol, err := proxy.ParsePolicy(s.Proxy.Policy)
		if err != nil {
			return nil, err
		}
		px, err := proxy.New(proxy.Options{
			Upstreams: addrs,
			Policy:    pol,
			Replicas:  s.Proxy.Replicas,
			Recorder:  rec,
			Logger:    log.New(io.Discard, "", 0),
			Tracer:    s.Tracer,
			// The QoS buckets meter on the shared run clock: -Inf until
			// clock.Start() fires (populate admits unthrottled), then
			// seconds from the same epoch the fault schedule and the
			// sim's virtual timeline use.
			Tenants:     lim,
			TenantClock: clock.Now,
		})
		if err != nil {
			return nil, err
		}
		pl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() { _ = px.Serve(pl) }()
		defer func() { _ = px.Close() }()
		clientAddrs = []string{pl.Addr().String()}
	}

	poolSize := p.PoolSize
	if poolSize == 0 {
		poolSize = s.Workers
	}
	clOpts := client.Options{
		Servers:    clientAddrs,
		Filler:     db,
		FillTTL:    s.FillTTL,
		PoolSize:   poolSize,
		Resilience: client.ResilienceFromSpec(s.Resilience),
		Recorder:   rec,
		Tracer:     s.Tracer,
		Seed:       s.Seed,
	}
	if s.Coalesce {
		clOpts.Coalesce = &coalesce.Policy{}
	}
	cl, err := client.New(clOpts)
	if err != nil {
		return nil, err
	}
	defer func() { _ = cl.Close() }()

	// --- drive ---
	opts := loadgen.Options{
		Client:     cl,
		Keys:       s.Keys,
		ValueSize:  liveValueSize,
		ValueDist:  s.ValueDist,
		ValueSigma: s.ValueSigma,
		ZipfS:      s.ZipfS,
		Lambda:     s.TotalKeyRate,
		Xi:         s.Xi,
		Q:          s.Q,
		MissRatio:  s.MissRatio,
		Ops:        s.Ops,
		Workers:    s.Workers,
		Seed:       s.Seed,
		// A tiered run's misses are capacity misses (the RAM cache holds
		// only RAMItems of the populated keyspace), and whatever falls
		// past the disk tier must still read through to the backend.
		UseGetThrough: s.MissRatio > 0 || s.Extstore != nil,
		Recorder:      rec,
		Tenants:       s.Tenants,
	}
	if s.SLO != nil {
		opts.OnLatency = s.SLO.OnLatency
	}
	if err := loadgen.Populate(opts); err != nil {
		return nil, err
	}
	for _, e := range exts {
		// Drain the eviction queues so the measured run starts with the
		// populate spill fully indexed on disk.
		e.Flush()
	}
	runCtx, cancel := context.WithTimeout(ctx, s.Duration)
	defer cancel()
	clock.Start()
	if wd := s.SLO; wd != nil {
		// Arm only once the run clock starts: populate traffic is warmup,
		// not SLO traffic. Windows advance on the same epoch the fault
		// schedule uses, so "fault at t=1s" and "window 4" line up.
		defer wd.Start(clock.Now)()
	}
	lg, err := loadgen.Run(runCtx, opts)
	if err != nil {
		return nil, err
	}
	if wd := s.SLO; wd != nil {
		wd.Advance(clock.Now())
		wd.Flush()
	}
	if lg.Issued == 0 {
		// A context that expired during populate yields an empty run;
		// surface it instead of reporting a zero-latency "result".
		return nil, fmt.Errorf("plane: live run issued no operations (duration %v too short?)", s.Duration)
	}

	// --- summarize on the common surface ---
	b := collector.Breakdown()
	mean := lg.Latency.Mean()
	tsMean := b.MeanOf(telemetry.StageQueueWait) + b.MeanOf(telemetry.StageService)
	var missFrac float64
	if lg.Issued > 0 {
		missFrac = float64(lg.Misses) / float64(lg.Issued)
	}
	td := b.MeanOf(telemetry.StageMissPenalty) * missFrac
	if s.Coalesce {
		// Under coalescing a miss is either a fetch leader (miss_penalty)
		// or a fan-in (coalesce_wait); the per-key database cost is the
		// combined stage mass amortized over every issued key.
		td = (b[telemetry.StageMissPenalty].Total +
			b[telemetry.StageCoalesceWait].Total) / float64(lg.Issued)
	}
	if s.Extstore != nil {
		// A tiered run splits the per-miss cost across backend fills,
		// coalesced waits and disk reads; amortizing the combined stage
		// mass over issued keys matches the model's blended TD stage.
		td = (b[telemetry.StageMissPenalty].Total +
			b[telemetry.StageCoalesceWait].Total +
			b[telemetry.StageDiskRead].Total) / float64(lg.Issued)
	}
	res := &Result{
		Plane:    "live",
		Scenario: s,
		// Live totals are per-key (the loadgen issues single-key gets);
		// the network stage is physically included in the sample, so TN
		// reads 0 rather than the modeled constant.
		Total:     core.Bounds{Lo: mean, Hi: mean},
		TN:        0,
		TS:        core.Bounds{Lo: tsMean, Hi: tsMean},
		TD:        td,
		Sample:    lg.Latency,
		MeanCI:    stats.HistMeanCI(lg.Latency, ci95),
		Breakdown: b,
		Elapsed:   time.Since(start),
		Live:      lg,
	}
	dbStats := db.Stats()
	res.DB = &dbStats
	if s.SLO != nil {
		res.SLO = s.SLO.Status()
	}
	if s.Extstore != nil {
		er := &ExtstoreResult{Predicted: split}
		for _, srv := range servers {
			dh, pr := srv.ExtstoreCounts()
			er.DiskHits += dh
			er.Promotions += pr
		}
		for _, c := range caches {
			// Populate only writes, so Misses counts the measured gets.
			er.RAMMisses += c.Stats().Misses
		}
		for _, e := range exts {
			st := e.Stats()
			er.SegmentBytes += st.SegmentBytes
			er.Segments += st.Segments
			er.Compactions += st.Compactions
			er.Drops += st.Drops
		}
		res.Extstore = er
	}
	if g := cl.Coalescer(); g.Coalescing() {
		cs := g.Stats()
		res.Coalesce = &cs
	}
	if len(lg.Tenants) > 0 {
		offered, _, _ := s.tenantRates()
		handles := lim.Tenants()
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
	return res, nil
}
