// Command mcbench is the mutilate-like load generator CLI: it drives a
// memcached cluster with the paper's workload shape (Generalized Pareto
// inter-arrival gaps, geometric batch concurrency, Zipf popularity) and
// reports the per-key latency distribution.
//
// Example against two local servers:
//
//	mcbench -servers 127.0.0.1:11211,127.0.0.1:11212 \
//	        -lambda 2000 -xi 0.15 -q 0.1 -ops 20000
//
// With -plane the benchmark runs against an internal evaluation plane
// instead of external servers: -plane=live brings up an in-process
// shaped TCP cluster, -plane=sim (or sim-integrated, model) evaluates
// the same scenario in virtual time. Both print the per-stage latency
// breakdown recorded by the telemetry seam.
//
//	mcbench -plane=live -lambda 1000 -mus 1000 -plane-servers 2 -ops 2000
//	mcbench -plane=sim -lambda 250000 -mus 80000 -plane-servers 4 -n 150
//
// -faults injects a deterministic fault schedule into the -plane run,
// and the resilience flags (-retries, -hedge-delay/-hedge-percentile,
// -breaker-*) arm the client/simulator recovery policies:
//
//	mcbench -plane=live -faults "reset:srv=0" -breaker-threshold 0.5 ...
//
// Observability: -trace-out records request-scoped spans across every
// tier of the run (wall-clock on live paths, virtual time on the sim
// planes) and writes them as Chrome trace-event JSON on exit; -slow
// logs the span tree of any request at least that slow; -admin serves
// /metrics, /healthz, /debug/pprof and /trace while the run is live.
//
//	mcbench -plane=live -admin 127.0.0.1:8700 -trace-out trace.json -slow 5ms ...
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/client"
	"memqlat/internal/coalesce"
	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/loadgen"
	"memqlat/internal/metrics"
	"memqlat/internal/otrace"
	"memqlat/internal/plane"
	"memqlat/internal/proxy"
	"memqlat/internal/slo"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
	"memqlat/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	var (
		servers    = fs.String("servers", "127.0.0.1:11211", "comma-separated server addresses")
		keys       = fs.Int("keys", 10000, "keyspace size")
		valueSize  = fs.Int("value-size", 100, "value size in bytes (the mean under -value-dist=lognormal)")
		valueDist  = fs.String("value-dist", "fixed", "per-key value-size law: fixed|lognormal (mixed object sizes for a disk tier)")
		valueSigma = fs.Float64("value-sigma", 0, "lognormal shape for -value-dist=lognormal (0 = default 0.5)")
		zipfS      = fs.Float64("zipf", 0, "Zipf popularity exponent (0 = uniform)")
		lambda     = fs.Float64("lambda", 2000, "target aggregate key rate (keys/s)")
		xi         = fs.Float64("xi", 0.15, "burst degree of batch gaps")
		q          = fs.Float64("q", 0.1, "concurrent probability (batching)")
		missRatio  = fs.Float64("miss-ratio", 0, "fraction of gets forced to miss")
		ops        = fs.Int("ops", 10000, "operations to issue")
		workers    = fs.Int("workers", 32, "max in-flight operations")
		seed       = fs.Uint64("seed", 1, "random seed")
		fill       = fs.Bool("fill-misses", false, "relay misses to a simulated database")
		mud        = fs.Float64("mud", 1000, "simulated database service rate for -fill-misses")
		coalesced  = fs.Bool("coalesce", false, "single-flight coalesce concurrent misses per key (needs -fill-misses on external runs)")
		hotZipf    = fs.Float64("hot-zipf", 0, "Zipf exponent for the hot-key miss keyspace (plane modes; overrides -zipf on external runs when set)")
		fillTTL    = fs.Duration("fill-ttl", 0, "write-back TTL for filled misses (negative = store already expired, keeping misses steady)")
		dbQueue    = fs.Int("db-queue", 0, "bound the simulated database to a single serving queue of this depth (0 = concurrent)")
		timeout    = fs.Duration("timeout", 10*time.Minute, "overall run timeout")
		keyTrace   = fs.String("trace", "", "journal the issued key stream to this file (mrc/replay input)")
		closed     = fs.Bool("closed-loop", false, "closed-loop mode (fixed concurrency + think time) instead of open-loop pacing")

		conns    = fs.Int("conns", 0, "connection-scaling mode: park this many mostly-idle connections on the first server while -conn-hot connections issue gets (0 = off)")
		connRamp = fs.String("conn-ramp", "", `connection-scaling ramp, e.g. "1000,5000,10000": grow the idle fleet through each tier, reporting p50/p95/p99 per connection count`)
		connHot  = fs.Int("conn-hot", 16, "hot connections issuing traffic in -conns/-conn-ramp mode")

		adminAddr = fs.String("admin", "", "observability listener address for /metrics, /healthz, /debug/pprof, /trace (empty = off)")
		traceOut  = fs.String("trace-out", "", "record request-scoped spans and write them as Chrome trace-event JSON to this file")
		traceRing = fs.Int("trace-ring", 0, "span-ring capacity for -trace-out/-slow (0 = default 16384)")
		slow      = fs.Duration("slow", 0, "log the span tree of any traced request at least this slow (enables tracing)")

		proxied      = fs.Bool("proxy", false, "interpose the proxy tier (in-process mcproxy in front of -servers, or a ProxySpec on -plane runs)")
		routePolicy  = fs.String("route", "direct", "proxy routing policy for -proxy (direct|failover|replicate)")
		routeReplica = fs.Int("replicas", 2, "replication degree for -route=replicate")
		tenantsSpec  = fs.String("tenants", "", `tenant QoS specs armed at the proxy, e.g. "acme:rate=500,share=0.5;evil:rate=200,share=0.5" (needs -proxy)`)

		planeName    = fs.String("plane", "", "run against an internal plane (model|sim|sim-integrated|live) instead of -servers")
		sloSpec      = fs.String("slo", "", `arm the model-anchored SLO watchdog on a -plane run, e.g. "window=250ms,k=2,band=2" (detector keys only; the Theorem-1 bands come from the scenario flags)`)
		extstoreSpec = fs.String("extstore", "", `arm an SSD extstore tier on -plane runs, e.g. "ram=200,total=1200,mud=2000[,dist=lognormal][,sigma=0.5]" (RAM/total item budgets, disk reads/s)`)
		mus          = fs.Float64("mus", 2000, "per-server shaped service rate for -plane modes")
		planeSrv     = fs.Int("plane-servers", 2, "server count for -plane modes")
		keysPerReq   = fs.Int("n", 10, "keys per end-user request for the model/sim planes")

		faultSpec = fs.String("faults", "", `fault schedule for -plane modes, e.g. "slow:srv=0,delay=200us;drop:srv=1,p=0.1,delay=5ms"`)

		retries          = fs.Int("retries", 0, "extra read attempts after transport failures (0 = off)")
		retryBackoff     = fs.Duration("retry-backoff", 0, "base retry backoff (0 = policy default)")
		hedgeDelay       = fs.Duration("hedge-delay", 0, "fixed hedged-read trigger (0 = use -hedge-percentile)")
		hedgePercentile  = fs.Float64("hedge-percentile", 0, "hedged-read trigger quantile in (0,1) (0 = hedging off)")
		breakerThreshold = fs.Float64("breaker-threshold", 0, "circuit-breaker failure-rate trip point (0 = off)")
		breakerWindow    = fs.Int("breaker-window", 0, "circuit-breaker outcome window (0 = policy default)")
		breakerCooldown  = fs.Duration("breaker-cooldown", 0, "circuit-breaker open duration (0 = policy default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	flagSet := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { flagSet[f.Name] = true })
	if *conns > 0 || *connRamp != "" {
		if *planeName != "" || *proxied {
			return fmt.Errorf("-conns/-conn-ramp drive an external server directly (no -plane or -proxy)")
		}
		tiers, err := parseConnRamp(*conns, *connRamp)
		if err != nil {
			return err
		}
		return runConns(out, strings.Split(*servers, ",")[0], tiers, *connHot, *ops, *valueSize, *timeout)
	}
	var tenantSpecs []tenant.Spec
	if *tenantsSpec != "" {
		if !*proxied {
			return fmt.Errorf("-tenants needs -proxy (QoS lives at the proxy tier)")
		}
		var err error
		tenantSpecs, err = tenant.ParseSpecs(*tenantsSpec)
		if err != nil {
			return err
		}
	}
	resilience := fault.Resilience{
		Retries:          *retries,
		RetryBackoff:     retryBackoff.Seconds(),
		HedgeDelay:       hedgeDelay.Seconds(),
		HedgePercentile:  *hedgePercentile,
		BreakerThreshold: *breakerThreshold,
		BreakerWindow:    *breakerWindow,
		BreakerCooldown:  breakerCooldown.Seconds(),
	}
	// Request-scoped tracing is armed by -trace-out or -slow; the ring
	// collects across every tier of the run.
	var tracer *otrace.Tracer
	if *traceOut != "" || *slow > 0 {
		tracer = otrace.New(otrace.Options{
			RingSize:   *traceRing,
			Slow:       slow.Seconds(),
			SlowWriter: os.Stderr,
		})
	}
	if *planeName != "" {
		faults, err := fault.ParseSchedule(*faultSpec)
		if err != nil {
			return err
		}
		ext, err := parseExtstoreSpec(*extstoreSpec)
		if err != nil {
			return err
		}
		ps := planeScenario{
			servers: *planeSrv, n: *keysPerReq, lambda: *lambda,
			xi: *xi, q: *q, mus: *mus, missRatio: *missRatio, mud: *mud,
			ops: *ops, workers: *workers, seed: *seed, timeout: *timeout,
			faults: faults, resilience: resilience, tracer: tracer,
			coalesce: *coalesced, zipfS: *hotZipf, fillTTL: *fillTTL,
			dbQueue: *dbQueue, tenants: tenantSpecs, extstore: ext,
			valueDist: *valueDist, valueSigma: *valueSigma,
		}
		if flagSet["keys"] {
			ps.keys = *keys
		}
		if *proxied {
			ps.proxy = &plane.ProxySpec{Policy: *routePolicy, Replicas: *routeReplica}
		}
		if *sloSpec != "" {
			// The watchdog is anchored on the Theorem-1 bands of the
			// exact scenario the flags describe; alert lines ride the
			// benchmark's own output stream.
			cfg, _, err := slo.ParseSpec(*sloSpec)
			if err != nil {
				return err
			}
			cfg.Predicted, err = plane.PredictedBands(ps.scenario())
			if err != nil {
				return err
			}
			cfg.AlertWriter = out
			if ps.slo, err = slo.NewWatchdog(cfg); err != nil {
				return err
			}
		}
		if *adminAddr != "" {
			// Plane runs build their tiers internally; the admin page
			// serves the shared span ring (plus health/pprof) while the
			// scenario executes.
			reg := metrics.NewRegistry()
			metrics.RegisterTracer(reg, tracer)
			metrics.RegisterSLO(reg, ps.slo)
			admin := metrics.NewAdmin(reg)
			if tracer.Enabled() {
				admin.AttachTracer(tracer)
			}
			if ps.slo != nil {
				admin.Handle("/debug/watch", ps.slo)
			}
			aaddr, err := admin.Start(*adminAddr)
			if err != nil {
				return err
			}
			defer func() { _ = admin.Close() }()
			fmt.Fprintf(out, "admin plane on http://%s/metrics\n", aaddr)
		}
		if err := runPlane(*planeName, ps, out); err != nil {
			return err
		}
		return writeChromeTrace(tracer, *traceOut, out)
	}
	if *faultSpec != "" {
		return fmt.Errorf("-faults needs a -plane mode (external -servers cannot be injected)")
	}
	if *sloSpec != "" {
		return fmt.Errorf("-slo needs a -plane mode (external servers arm their own watchdog via memcached-server/mcproxy -slo)")
	}
	if *extstoreSpec != "" {
		return fmt.Errorf("-extstore needs a -plane mode (external servers run their own tier via memcached-server -extstore-dir)")
	}
	addrs := strings.Split(*servers, ",")
	collector := telemetry.NewCollector()
	var px *proxy.Proxy
	var lim *tenant.Limiter
	if *proxied {
		// Interpose an in-process proxy: the client talks to it, it
		// multiplexes onto the configured servers.
		pol, err := proxy.ParsePolicy(*routePolicy)
		if err != nil {
			return err
		}
		if len(tenantSpecs) > 0 {
			if lim, err = tenant.New(tenantSpecs); err != nil {
				return err
			}
		}
		px, err = proxy.New(proxy.Options{
			Upstreams: addrs,
			Policy:    pol,
			Replicas:  *routeReplica,
			Recorder:  collector,
			Tracer:    tracer,
			Tenants:   lim,
			Logger:    log.New(io.Discard, "", 0),
		})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = px.Serve(l) }()
		defer func() { _ = px.Close() }()
		fmt.Fprintf(out, "proxying %s via %s (%s routing)\n", *servers, l.Addr(), pol)
		addrs = []string{l.Addr().String()}
	}
	clOpts := client.Options{
		Servers:    addrs,
		PoolSize:   *workers,
		FillTTL:    *fillTTL,
		Resilience: client.ResilienceFromSpec(resilience),
		Recorder:   collector,
		Tracer:     tracer,
		Seed:       *seed,
	}
	if *coalesced && !*fill {
		return fmt.Errorf("-coalesce collapses miss fills; it needs -fill-misses on external runs")
	}
	var db *backend.DB
	if *fill {
		dbOpts := backend.Options{MuD: *mud, Seed: *seed, Recorder: collector, Tracer: tracer}
		if *dbQueue > 0 {
			dbOpts.Mode = backend.ModeSingleQueue
			dbOpts.QueueDepth = *dbQueue
		}
		d, err := backend.New(dbOpts)
		if err != nil {
			return err
		}
		db = d
		defer db.Close()
		clOpts.Filler = db
		if *coalesced {
			clOpts.Coalesce = &coalesce.Policy{}
		}
	}
	cl, err := client.New(clOpts)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	if *adminAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterClient(reg, cl)
		metrics.RegisterCoalesce(reg, cl.Coalescer())
		metrics.RegisterBackend(reg, db)
		metrics.RegisterProxy(reg, px)
		metrics.RegisterTenants(reg, lim)
		metrics.RegisterTelemetry(reg, collector)
		metrics.RegisterTracer(reg, tracer)
		admin := metrics.NewAdmin(reg)
		if tracer.Enabled() {
			admin.AttachTracer(tracer)
		}
		aaddr, err := admin.Start(*adminAddr)
		if err != nil {
			return err
		}
		defer func() { _ = admin.Close() }()
		fmt.Fprintf(out, "admin plane on http://%s/metrics\n", aaddr)
	}

	popZipf := *zipfS
	if flagSet["hot-zipf"] {
		popZipf = *hotZipf
	}
	lgOpts := loadgen.Options{
		Client:        cl,
		Keys:          *keys,
		ValueSize:     *valueSize,
		ValueDist:     *valueDist,
		ValueSigma:    *valueSigma,
		ZipfS:         popZipf,
		Lambda:        *lambda,
		Xi:            *xi,
		Q:             *q,
		MissRatio:     *missRatio,
		Ops:           *ops,
		Workers:       *workers,
		Seed:          *seed,
		UseGetThrough: *fill,
		ClosedLoop:    *closed,
		Recorder:      collector,
		Tenants:       tenantSpecs,
	}
	if *keyTrace != "" {
		f, err := os.Create(*keyTrace)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		journal := trace.NewWriter(f)
		defer func() {
			if err := journal.Flush(); err != nil {
				fmt.Fprintln(out, "trace flush failed:", err)
			}
		}()
		traceFailed := false
		lgOpts.Observer = func(offset time.Duration, key string) {
			// The pacer is single-threaded; journaling inline is safe.
			// Trace-write failures must not abort the measurement run.
			if traceFailed {
				return
			}
			if err := journal.Write(trace.Record{Offset: offset, Key: key}); err != nil {
				fmt.Fprintln(out, "trace write failed:", err)
				traceFailed = true
			}
		}
	}
	fmt.Fprintf(out, "populating %d keys...\n", *keys)
	if err := loadgen.Populate(lgOpts); err != nil {
		return err
	}
	fmt.Fprintf(out, "running %d ops at %g keys/s (ξ=%g, q=%g)...\n", *ops, *lambda, *xi, *q)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := loadgen.Run(ctx, lgOpts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\nissued      %d ops in %v (%.0f keys/s achieved)\n",
		res.Issued, res.Elapsed.Round(time.Millisecond), res.AchievedRate())
	fmt.Fprintf(out, "outcomes    %d hits, %d misses, %d errors\n",
		res.Hits, res.Misses, res.Errors)
	if db != nil {
		// The fills line is the herd-protection ledger (and the smoke
		// script's parse target): with -coalesce, db fetches should sit
		// far below misses and the difference shows up as fan-ins.
		dbs := db.Stats()
		var cs coalesce.Stats
		if g := cl.Coalescer(); g.Coalescing() {
			cs = g.Stats()
		}
		fmt.Fprintf(out, "fills       %d misses, %d db fetches, %d fan-ins, %d sheds, queue peak %d\n",
			res.Misses, dbs.Lookups, cs.FanIns, cs.Sheds, dbs.QueuePeak)
	}
	printExternalExtstore(out, cl, len(addrs))
	printResilience(out, res.Shed, collector.Breakdown())
	if len(res.Tenants) > 0 {
		// One machine-parseable row per tenant: the QoS smoke script
		// greps shed= and p99us= off these lines.
		for i, ts := range res.Tenants {
			head := "           "
			if i == 0 {
				head = "tenants    "
			}
			fmt.Fprintf(out, "%s %s\n", head, tenantRow(ts.Name, ts.Issued, ts.Sheds, ts.Latency))
		}
	}
	fmt.Fprintf(out, "latency     mean %v\n", secs(res.Latency.Mean()))
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(out, "            p%-5g %v\n", p*100, secs(res.Latency.MustQuantile(p)))
	}
	return writeChromeTrace(tracer, *traceOut, out)
}

// tenantRow formats one tenant's outcome as a stable key=value row so
// shell smokes can awk the counters out: p99us is the tenant's
// admitted-traffic p99 in whole microseconds (0 when it has no
// samples).
func tenantRow(name string, issued, shed int64, lat *stats.Histogram) string {
	p99 := 0.0
	if lat != nil && lat.Count() > 0 {
		p99 = lat.MustQuantile(0.99)
	}
	return fmt.Sprintf("%s: issued=%d shed=%d p99us=%.0f", name, issued, shed, p99*1e6)
}

// printResilience is the one-line recovery summary: the loadgen's
// breaker-shed count plus the per-stage retry/hedge/shed observation
// counts, so a faulted run is legible without parsing the breakdown.
// Healthy runs (all zeros, no policies armed) stay silent.
func printResilience(out io.Writer, shed int64, b telemetry.Breakdown) {
	retries := b[telemetry.StageRetry].Count
	hedges := b[telemetry.StageHedgeWait].Count
	stageShed := b[telemetry.StageBreakerShed].Count
	if shed == 0 && retries == 0 && hedges == 0 && stageShed == 0 {
		return
	}
	fmt.Fprintf(out, "resilience  %d breaker-shed ops, %d retry waits, %d hedges fired\n",
		max64(shed, stageShed), retries, hedges)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// writeChromeTrace dumps the tracer's span ring as Chrome trace-event
// JSON and re-parses the written file, so a truncated or corrupt dump
// fails the run instead of failing later in chrome://tracing. A nil
// tracer or empty path is a no-op.
func writeChromeTrace(tr *otrace.Tracer, path string, out io.Writer) error {
	if !tr.Enabled() || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("trace-out: re-read: %w", err)
	}
	events, err := otrace.ParseChrome(data)
	if err != nil {
		return fmt.Errorf("trace-out: written file does not parse: %w", err)
	}
	_, total := tr.Stats()
	fmt.Fprintf(out, "trace       %d spans written to %s (%d recorded; load into chrome://tracing)\n",
		events, path, total)
	return nil
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}

// planeScenario carries the flag values the -plane modes consume.
type planeScenario struct {
	servers, n, ops, workers int
	lambda, xi, q            float64
	mus, missRatio, mud      float64
	seed                     uint64
	timeout                  time.Duration
	faults                   fault.Schedule
	resilience               fault.Resilience
	proxy                    *plane.ProxySpec
	tracer                   *otrace.Tracer
	coalesce                 bool
	zipfS                    float64
	fillTTL                  time.Duration
	keys, dbQueue            int
	tenants                  []tenant.Spec
	extstore                 *plane.ExtstoreSpec
	valueDist                string
	valueSigma               float64
	slo                      *slo.Watchdog
}

// scenario builds the plane.Scenario the flags describe. It is pure
// (no side effects), so run() can evaluate it once to anchor the SLO
// watchdog's bands and runPlane can rebuild it for the actual run.
func (ps planeScenario) scenario() plane.Scenario {
	s := plane.Scenario{
		Name:         "mcbench",
		N:            ps.n,
		LoadRatios:   core.BalancedLoad(ps.servers),
		TotalKeyRate: ps.lambda,
		Q:            ps.q,
		Xi:           ps.xi,
		MuS:          ps.mus,
		MissRatio:    ps.missRatio,
		MuD:          ps.mud,
		Requests:     ps.ops,
		Ops:          ps.ops,
		Workers:      ps.workers,
		Duration:     ps.timeout,
		Seed:         ps.seed,
		Faults:       ps.faults,
		Resilience:   ps.resilience,
		Proxy:        ps.proxy,
		Tracer:       ps.tracer,
		Coalesce:     ps.coalesce,
		ZipfS:        ps.zipfS,
		FillTTL:      ps.fillTTL,
		Keys:         ps.keys,
		DBQueueDepth: ps.dbQueue,
		Tenants:      ps.tenants,
		Extstore:     ps.extstore,
		SLO:          ps.slo,
		ValueDist:    ps.valueDist,
		ValueSigma:   ps.valueSigma,
	}
	if s.ValueDist == loadgen.ValueDistFixed {
		// The flag default; the Scenario treats "" as fixed.
		s.ValueDist = ""
	}
	return s
}

// parseExtstoreSpec reads the -extstore tier description:
// comma-separated key=value pairs with ram/total item budgets and the
// disk service rate, e.g. "ram=200,total=1200,mud=2000".
func parseExtstoreSpec(s string) (*plane.ExtstoreSpec, error) {
	if s == "" {
		return nil, nil
	}
	spec := &plane.ExtstoreSpec{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[1] == "" {
			return nil, fmt.Errorf("-extstore: %q is not key=value", part)
		}
		var err error
		switch kv[0] {
		case "ram":
			spec.RAMItems, err = strconv.Atoi(kv[1])
		case "total":
			spec.TotalItems, err = strconv.Atoi(kv[1])
		case "mud", "mudisk":
			spec.MuDisk, err = strconv.ParseFloat(kv[1], 64)
		case "dist":
			spec.DiskDist = kv[1]
		case "sigma":
			spec.DiskSigma, err = strconv.ParseFloat(kv[1], 64)
		default:
			return nil, fmt.Errorf("-extstore: unknown field %q (ram, total, mud, dist, sigma)", kv[0])
		}
		if err != nil {
			return nil, fmt.Errorf("-extstore: field %q: %w", kv[0], err)
		}
	}
	return spec, nil
}

// printExtstore is the one-line tier summary of a plane run: the
// measured disk-path counters next to the MRC-predicted hit fraction
// (model/sim runs leave the live-only counters at zero).
func printExtstore(out io.Writer, er *plane.ExtstoreResult) {
	if er == nil {
		return
	}
	fmt.Fprintf(out, "extstore    %d disk hits, %d promotions, %d segment bytes, %d compactions (β pred %.2f)\n",
		er.DiskHits, er.Promotions, er.SegmentBytes, er.Compactions, er.Predicted.DiskHitFraction())
}

// printExternalExtstore sums the extstore_* stats rows across external
// servers and prints the same one-line summary; servers without a disk
// tier (or a proxy that does not relay stats) stay silent.
func printExternalExtstore(out io.Writer, cl *client.Client, n int) {
	var hits, promotions, segBytes, compactions int64
	found := false
	for i := 0; i < n; i++ {
		m, err := cl.ServerStats(i)
		if err != nil {
			continue
		}
		if _, ok := m["extstore_disk_hits"]; !ok {
			continue
		}
		found = true
		hits += statInt(m, "extstore_disk_hits")
		promotions += statInt(m, "extstore_promotions")
		segBytes += statInt(m, "extstore_segment_bytes")
		compactions += statInt(m, "extstore_compactions")
	}
	if found {
		fmt.Fprintf(out, "extstore    %d disk hits, %d promotions, %d segment bytes, %d compactions\n",
			hits, promotions, segBytes, compactions)
	}
}

func statInt(m map[string]string, k string) int64 {
	v, err := strconv.ParseInt(m[k], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// runPlane evaluates the flag-described scenario on the named internal
// plane and prints the common Result surface: totals, the sampled
// percentiles (when the plane measures), and the per-stage Breakdown.
func runPlane(name string, ps planeScenario, out io.Writer) error {
	p, err := plane.ByName(name)
	if err != nil {
		return err
	}
	s := ps.scenario()
	if ps.proxy != nil {
		fmt.Fprintf(out, "interposing proxy tier (%s routing)\n", ps.proxy.Policy)
	}
	if !ps.faults.Empty() {
		fmt.Fprintf(out, "injecting faults: %s\n", ps.faults)
	}
	fmt.Fprintf(out, "running scenario on the %s plane (%d servers, λ=%g, µS=%g)...\n",
		p.Name(), ps.servers, ps.lambda, ps.mus)
	ctx, cancel := context.WithTimeout(context.Background(), ps.timeout)
	defer cancel()
	res, err := p.Run(ctx, s)
	if err != nil {
		return err
	}
	if res.Total.Lo == res.Total.Hi {
		fmt.Fprintf(out, "\nE[T(N)]     %v (TS %v, TD %v, TN %v)\n",
			secs(res.Point()), secs(res.TS.Mid()), secs(res.TD), secs(res.TN))
	} else {
		fmt.Fprintf(out, "\nE[T(N)]     %v ~ %v (TS %v ~ %v, TD %v, TN %v)\n",
			secs(res.Total.Lo), secs(res.Total.Hi),
			secs(res.TS.Lo), secs(res.TS.Hi), secs(res.TD), secs(res.TN))
	}
	if lg := res.Live; lg != nil {
		fmt.Fprintf(out, "issued      %d ops in %v (%.0f keys/s achieved)\n",
			lg.Issued, lg.Elapsed.Round(time.Millisecond), lg.AchievedRate())
		fmt.Fprintf(out, "outcomes    %d hits, %d misses, %d errors (%d breaker-shed)\n",
			lg.Hits, lg.Misses, lg.Errors, lg.Shed)
	}
	if sr := res.Sim; sr != nil && (sr.FailedKeys > 0 || sr.ShedKeys > 0) {
		fmt.Fprintf(out, "faults      %d/%d keys failed, %d shed, %d/%d requests degraded\n",
			sr.FailedKeys, sr.KeyCount, sr.ShedKeys, sr.DegradedRequests, sr.Requests)
	}
	if sr := res.Sim; sr != nil && s.Coalesce {
		fmt.Fprintf(out, "fills       %d misses, %d db fetches, %d delayed hits\n",
			sr.MissCount, sr.BackendFetches, sr.DelayedHits)
	}
	if res.DB != nil {
		var fanIns, sheds int64
		if res.Coalesce != nil {
			fanIns, sheds = res.Coalesce.FanIns, res.Coalesce.Sheds
		}
		fmt.Fprintf(out, "fills       %d misses, %d db fetches, %d fan-ins, %d sheds, queue peak %d\n",
			res.Live.Misses, res.DB.Lookups, fanIns, sheds, res.DB.QueuePeak)
	}
	printExtstore(out, res.Extstore)
	var shed int64
	if res.Live != nil {
		shed = res.Live.Shed
	}
	printResilience(out, shed, res.Breakdown)
	for i, tr := range res.Tenants {
		head := "           "
		if i == 0 {
			head = "tenants    "
		}
		fmt.Fprintf(out, "%s %s offered=%.0f admitted=%.0f\n",
			head, tenantRow(tr.Name, tr.Issued, tr.Shed, tr.Latency), tr.Offered, tr.Admitted)
	}
	if res.Sample != nil && res.Sample.Count() > 0 {
		printSample(out, res.Sample, res.MeanCI)
	}
	printSLO(out, res.SLO)
	printBreakdown(out, res.Breakdown)
	fmt.Fprintf(out, "plane run completed in %v\n", res.Elapsed.Round(time.Millisecond))
	return nil
}

// printSLO is the one-line watchdog verdict of a plane run: windows
// evaluated, alert counts, the attributed stage (if any drifted) and
// the burn-rate pair. Runs without -slo stay silent.
func printSLO(out io.Writer, st *slo.Status) {
	if st == nil {
		return
	}
	line := fmt.Sprintf("slo         %d windows, %d drift alerts, %d burn alerts",
		st.WindowsClosed, st.DriftAlerts, st.BurnAlerts)
	if st.TopDrift != "" {
		mag := 0.0
		for _, ss := range st.Stages {
			if ss.Stage == st.TopDrift {
				mag = ss.Magnitude
			}
		}
		line += fmt.Sprintf(", top drift %s (%.1fx band center)", st.TopDrift, mag)
	}
	if st.Target > 0 {
		line += fmt.Sprintf(", burn %.2f/%.2f", st.BurnShort, st.BurnLong)
	}
	fmt.Fprintln(out, line)
}

func printSample(out io.Writer, h *stats.Histogram, ci stats.Interval) {
	fmt.Fprintf(out, "latency     mean %v [%v, %v] 95%% CI\n",
		secs(h.Mean()), secs(ci.Lo), secs(ci.Hi))
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(out, "            p%-5g %v\n", p*100, secs(h.MustQuantile(p)))
	}
}

func printBreakdown(out io.Writer, b telemetry.Breakdown) {
	if b.Empty() {
		return
	}
	fmt.Fprintf(out, "breakdown   %-12s %10s %10s %10s %10s\n", "stage", "count", "mean", "p50", "p99")
	for _, st := range telemetry.Stages() {
		ss, ok := b[st]
		if !ok || ss.Count == 0 {
			continue
		}
		fmt.Fprintf(out, "            %-12s %10d %10v %10v %10v\n",
			st, ss.Count, secs(ss.Mean), secs(ss.P50), secs(ss.P99))
	}
}
