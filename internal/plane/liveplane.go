package plane

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/loadgen"
	"memqlat/internal/metrics"
	"memqlat/internal/proxy"
	"memqlat/internal/server"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

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
// Q) but issues single-key gets over a balanced split (see
// refuseUnrealizable). Real-time pacing cannot sustain the paper's
// 62.5 Kps per server on one machine, so live Scenarios use scaled
// rates.
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

// refuseUnrealizable refuses, by name, a Scenario field the live plane
// would otherwise ignore: it runs single-key requests over a balanced
// split only.
func (s Scenario) refuseUnrealizable() error {
	if s.N != 1 {
		return fmt.Errorf("plane: scenario %q: the live plane issues single-key gets and needs N = 1, not N = %d", s.Name, s.N)
	}
	for _, p := range s.LoadRatios {
		if math.Abs(p-s.LoadRatios[0]) > 1e-9 {
			return fmt.Errorf("plane: scenario %q: consistent hashing realizes only a balanced split; LoadRatios %v are unequal", s.Name, s.LoadRatios)
		}
	}
	return nil
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
	tiers     []tier
	began     time.Time
	collector *telemetry.Collector
	// rec is what every tier records to: the collector, teed into the
	// watchdog when the scenario arms one.
	rec telemetry.Recorder
	// clock is the run epoch the fault schedule, the QoS buckets and the
	// watchdog windows share: -Inf until Drive, so populate runs healthy.
	clock   fault.Clock
	load    loadgen.Options
	servers []*server.Server
	// attached is an attached cluster's server addresses (nil in process).
	attached []string
	db       *backend.DB
	px       *proxy.Proxy
	lim      *tenant.Limiter
	cl       *client.Client
	// closers release what Start built; Close runs them last-in first-out.
	closers []func()
}

// Start assembles the stack for s and populates the keyspace; on error
// everything built so far is released.
func (p LivePlane) Start(s Scenario) (_ *LiveRun, err error) {
	s = s.withDefaults()
	if err := s.refuseUnrealizable(); err != nil {
		return nil, err
	}
	model, tiers, err := s.tiers()
	if err != nil {
		return nil, err
	}
	// The load generator paces the model's own batch gaps, at Λ.
	gaps, err := model.ArrivalFor(s.TotalKeyRate)
	if err != nil {
		return nil, err
	}
	r := &LiveRun{s: s, tiers: tiers, began: time.Now(), collector: telemetry.NewCollector()}
	defer func() {
		if err != nil {
			r.Close()
		}
	}()
	// With a watchdog armed, every tier's stage observations tee into
	// its rolling-window sketches alongside the collector; the tee
	// preserves sharding, so hot-path recording stays lock-striped.
	r.rec = r.collector
	if s.SLO != nil {
		r.rec = telemetry.Tee(r.collector, s.SLO)
	}

	addrs := p.Servers
	r.attached = addrs
	for _, t := range tiers {
		if t.server != nil && len(addrs) > 0 {
			return nil, fmt.Errorf("plane: scenario %q: %s is built into in-process servers; an attached cluster runs its own", s.Name, t.name)
		}
	}
	if len(addrs) == 0 {
		if addrs, err = r.startServers(); err != nil {
			return nil, err
		}
	}

	if err := r.startDriver(p, addrs, gaps); err != nil {
		return nil, err
	}
	if err := loadgen.Populate(r.load); err != nil {
		return nil, err
	}
	for _, t := range tiers {
		if t.populated != nil {
			t.populated()
		}
	}
	return r, nil
}

// startDriver builds what drives the cluster at addrs: the proxy tier
// the scenario may interpose, the backend that misses read through to,
// the client, and the load generator's options.
func (r *LiveRun) startDriver(p LivePlane, addrs []string, gaps dist.Interarrival) (err error) {
	s := r.s
	d := &driver{
		addrs: addrs,
		db: backend.Options{
			MuD: s.MuD, Seed: s.Seed, Recorder: r.rec, Tracer: s.Tracer,
			// A bounded single-worker database makes hot-key herds visible:
			// without coalescing the herd stacks up in the queue (watch
			// QueuePeak), with it the backend sees ~1 fetch per miss window.
			QueueDepth: s.DBQueueDepth,
		},
		client: client.Options{
			FillTTL:  s.FillTTL,
			PoolSize: s.Workers,
			Recorder: r.rec,
			Tracer:   s.Tracer,
			Seed:     s.Seed,
		},
		load: loadgen.Options{
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
			UseGetThrough: p.ReadThrough || len(p.Servers) == 0 && s.MissRatio > 0,
			Observer:      p.Observer,
		},
	}
	if s.SLO != nil {
		d.load.OnLatency = s.SLO.OnLatency
	}
	for _, t := range r.tiers {
		if t.drive != nil {
			if err := t.drive(r, d); err != nil {
				return err
			}
		}
	}
	if d.load.UseGetThrough {
		if r.db, err = backend.New(d.db); err != nil {
			return err
		}
		r.closers = append(r.closers, r.db.Close)
		d.client.Filler = r.db
	}
	d.client.Servers = d.addrs
	if r.cl, err = client.New(d.client); err != nil {
		return err
	}
	r.closers = append(r.closers, func() { _ = r.cl.Close() })
	r.load = d.load
	r.load.Client = r.cl
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

// startServers brings up the in-process cluster, one shaped server per
// load-ratio entry, each with what the tiers build into it.
func (r *LiveRun) startServers() ([]string, error) {
	s := r.s
	addrs := make([]string, len(s.LoadRatios))
	for i := range addrs {
		o := server.Options{
			ServiceRate: s.MuS,
			Seed:        s.Seed + uint64(i),
			Logger:      log.New(io.Discard, "", 0),
			Recorder:    r.rec,
			Tracer:      s.Tracer,
			ID:          i,
		}
		for _, t := range r.tiers {
			if t.server != nil {
				if err := t.server(r, i, &o); err != nil {
					return nil, err
				}
			}
		}
		var err error
		if o.Cache == nil {
			if o.Cache, err = cache.New(cache.Options{}); err != nil {
				return nil, err
			}
		}
		srv, err := server.New(o)
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
	return r.summarize(lg)
}

// summarize folds the run into the plane-independent Result.
func (r *LiveRun) summarize(lg *loadgen.Result) (*Result, error) {
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
	// The network stage is physically included in the sample, so TN
	// reads 0 rather than the modeled constant.
	res := &Result{
		Plane:     "live",
		Scenario:  s,
		Total:     point(mean),
		TS:        point(tsMean),
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
	tables, err := r.clusterStats()
	if err != nil {
		return nil, err
	}
	if res.Extstore, err = diskLedger(tables); err != nil {
		return nil, err
	}
	for _, t := range r.tiers {
		if t.summarize != nil {
			t.summarize(r, lg, res)
		}
	}
	return res, nil
}

// clusterStats reads every server's general stats table: in process
// from the server itself, attached from the server's own address, since
// a proxy in front answers stats for itself.
func (r *LiveRun) clusterStats() ([]map[string]string, error) {
	var tables []map[string]string
	for _, srv := range r.servers {
		tables = append(tables, srv.Stats())
	}
	if len(r.attached) == 0 {
		return tables, nil
	}
	cl, err := client.New(client.Options{Servers: r.attached})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	for i, addr := range r.attached {
		m, err := cl.ServerStats(i)
		if err != nil {
			return nil, fmt.Errorf("plane: stats of %s: %w", addr, err)
		}
		tables = append(tables, m)
	}
	return tables, nil
}
