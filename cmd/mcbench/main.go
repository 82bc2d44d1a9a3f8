// Command mcbench is the mutilate-like load generator CLI: it drives a
// memcached cluster with the paper's workload shape (Generalized Pareto
// inter-arrival gaps, geometric batch concurrency, Zipf popularity) and
// reports the per-key latency distribution.
//
// Every run is one plane.Scenario on one plane through one printer. The
// live stack has a single driver, plane.LivePlane, either attached to
// the cluster already listening at -servers,
//
//	mcbench -servers 127.0.0.1:11211,127.0.0.1:11212 \
//	        -lambda 2000 -xi 0.15 -q 0.1 -ops 20000
//
// or, with -plane=live, over -plane-servers in-process servers shaped at
// -mus; -plane=sim (sim-integrated, model) runs in virtual time.
//
//	mcbench -plane=live -lambda 1000 -mus 1000 -plane-servers 2 -ops 2000
//	mcbench -plane=sim -lambda 250000 -mus 80000 -plane-servers 4 -n 150
//
// A flag a mode does not consume is refused by name (see flagModes).
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
// /metrics (every tier the run built), /healthz, /debug/pprof and
// /trace while the run is live.
//
//	mcbench -plane=live -admin 127.0.0.1:8700 -trace-out trace.json -slow 5ms ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/flagspec"
	"memqlat/internal/keylog"
	"memqlat/internal/metrics"
	"memqlat/internal/otrace"
	"memqlat/internal/plane"
	"memqlat/internal/slo"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
}

// flagModes lists the flags only some modes consume: the modes that do
// (e = external run attached to -servers, l = -plane=live, v = the
// virtual-time planes) and what the refusal elsewhere says they need.
var flagModes = []struct{ flags, modes, needs string }{
	{"servers", "e", "an external run (a -plane run starts its own cluster)"},
	{"mus plane-servers", "lv", "a -plane mode (external servers bring their own rate and count)"},
	{"n", "v", "the model or sim planes (the live stack issues single-key gets)"},
	{"faults", "lv", "a -plane mode (external -servers cannot be injected)"},
	{"slo", "lv", "a -plane mode (external servers arm their own watchdog via memcached-server/mcproxy -slo)"},
	{"extstore", "lv", "a -plane mode (external servers run their own tier via memcached-server -extstore-dir)"},
	{"value-size value-dist value-sigma workers fill-misses fill-ttl db-queue trace", "el",
		"the live stack (-servers or -plane=live; the model and sim planes price stages, not payloads or pacing)"},
}

// checkFlagModes refuses the first set flag the mode does not consume.
func checkFlagModes(set map[string]bool, mode string) error {
	for _, fm := range flagModes {
		if strings.Contains(fm.modes, mode) {
			continue
		}
		for _, name := range strings.Fields(fm.flags) {
			if set[name] {
				return fmt.Errorf("-%s needs %s", name, fm.needs)
			}
		}
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	// Flags bind straight into the Scenario, or the LivePlane driving it;
	// -n alone is read once the mode is known, since the live stack's
	// request is one key.
	s := plane.Scenario{Name: "mcbench", Config: core.Config{N: 1}}
	var live plane.LivePlane
	bindScenario(fs, &s, &live)
	var (
		servers    = fs.String("servers", "127.0.0.1:11211", "comma-separated server addresses")
		keyTrace   = fs.String("trace", "", "journal the issued key stream to this file (mrc/replay input)")
		keysPerReq = fs.Int("n", 10, "keys per end-user request for the model/sim planes (live runs issue single-key gets)")

		adminAddr = fs.String("admin", "", "observability listener address for /metrics, /healthz, /debug/pprof, /trace (empty = off)")
		traceOut  = fs.String("trace-out", "", "record request-scoped spans and write them as Chrome trace-event JSON to this file")
		traceRing = fs.Int("trace-ring", 0, "span-ring capacity for -trace-out/-slow (0 = default 16384)")
		slow      = fs.Duration("slow", 0, "log the span tree of any traced request at least this slow (enables tracing)")

		proxied      = fs.Bool("proxy", false, "interpose the proxy tier (in-process mcproxy in front of -servers, or a ProxySpec on -plane runs)")
		routePolicy  = fs.String("route", "direct", "proxy routing policy for -proxy (direct|failover|replicate)")
		routeReplica = fs.Int("replicas", 2, "replication degree for -route=replicate")
		tenantsSpec  = fs.String("tenants", "", `tenant QoS specs armed at the proxy, e.g. "acme:rate=500,share=0.5;evil:rate=200,share=0.5" (needs -proxy)`)

		planeName    = fs.String("plane", "", "run against an internal plane (model|sim|sim-integrated|live) instead of -servers")
		sloSpec      = fs.String("slo", "", `arm the model-anchored SLO watchdog on a -plane run, e.g. "window=250ms,k=2,band=2": detector keys window, k, band, target, budget (the scenario flags set the model, so its keys are refused)`)
		extstoreSpec = fs.String("extstore", "", `arm an SSD extstore tier on -plane runs, e.g. "ram=200,total=1200,mud=2000[,dist=lognormal][,sigma=0.5]" (RAM/total item budgets, disk reads/s)`)
		planeSrv     = fs.Int("plane-servers", 2, "server count for -plane modes")
		faultSpec    = fs.String("faults", "", `fault schedule for -plane modes, e.g. "slow:srv=0,delay=200us;drop:srv=1,p=0.1,delay=5ms"`)

		retryBackoff    = fs.Duration("retry-backoff", 0, "base retry backoff (0 = policy default)")
		hedgeDelay      = fs.Duration("hedge-delay", 0, "fixed hedged-read trigger (0 = use -hedge-percentile)")
		breakerCooldown = fs.Duration("breaker-cooldown", 0, "circuit-breaker open duration (0 = policy default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var p plane.Plane
	var err error
	mode := "e" // an external run: the live plane attached to -servers
	s.LoadRatios = core.BalancedLoad(*planeSrv)
	if *planeName == "" {
		live.Servers = strings.Split(*servers, ",")
		s.LoadRatios = core.BalancedLoad(len(live.Servers))
		if s.Coalesce && !live.ReadThrough {
			return fmt.Errorf("-coalesce collapses miss fills; it needs -fill-misses on external runs")
		}
	} else if p, err = plane.ByName(*planeName); err != nil {
		return err
	} else if p.Name() == "live" {
		mode = "l"
	} else {
		mode, s.N = "v", *keysPerReq
	}
	if err := checkFlagModes(set, mode); err != nil {
		return err
	}
	if mode != "e" && !set["keys"] {
		s.Keys = 0 // plane runs size their keyspace from the Scenario default
	}
	s.Requests = s.Ops
	s.Resilience.RetryBackoff = retryBackoff.Seconds()
	s.Resilience.HedgeDelay = hedgeDelay.Seconds()
	s.Resilience.BreakerCooldown = breakerCooldown.Seconds()
	if s.Faults, err = fault.ParseSchedule(*faultSpec); err != nil {
		return err
	}
	if s.Extstore, err = parseExtstoreSpec(*extstoreSpec); err != nil {
		return err
	}
	if *proxied {
		s.Proxy = &plane.ProxySpec{Policy: *routePolicy, Replicas: *routeReplica}
	}
	// Without -proxy every plane refuses tenants: QoS lives at that tier.
	if s.Tenants, err = tenant.ParseSpecs(*tenantsSpec); err != nil {
		return err
	}
	// -trace-out or -slow arm tracing; the ring collects across every tier.
	if *traceOut != "" || *slow > 0 {
		s.Tracer = otrace.New(otrace.Options{
			RingSize:   *traceRing,
			Slow:       slow.Seconds(),
			SlowWriter: os.Stderr,
		})
	}
	if s.SLO, err = plane.NewWatchdog(*sloSpec, s, out); err != nil {
		return err
	}
	if *keyTrace != "" {
		observe, flush, err := keyJournal(*keyTrace, out)
		if err != nil {
			return err
		}
		defer flush()
		live.Observer = observe
	}
	if mode != "v" {
		p = live
	}
	if err := runPlane(p, s, *adminAddr, out); err != nil {
		return err
	}
	return writeChromeTrace(s.Tracer, *traceOut, out)
}

// bindScenario binds the flags that set a field of the Scenario, or of
// the LivePlane driving it, directly.
func bindScenario(fs *flag.FlagSet, s *plane.Scenario, live *plane.LivePlane) {
	fs.IntVar(&s.Keys, "keys", 10000, "keyspace size")
	fs.IntVar(&s.ValueSize, "value-size", 100, "value size in bytes (the mean under -value-dist=lognormal)")
	fs.StringVar(&s.ValueDist, "value-dist", "fixed", "per-key value-size law: fixed|lognormal (mixed object sizes for a disk tier)")
	fs.Float64Var(&s.ValueSigma, "value-sigma", 0, "lognormal shape for -value-dist=lognormal (0 = default 0.5)")
	fs.Float64Var(&s.ZipfS, "zipf", 0, "Zipf popularity exponent (0 = uniform)")
	fs.Float64Var(&s.TotalKeyRate, "lambda", 2000, "target aggregate key rate (keys/s)")
	fs.Float64Var(&s.Xi, "xi", 0.15, "burst degree of batch gaps")
	fs.Float64Var(&s.Q, "q", 0.1, "concurrent probability (batching)")
	fs.Float64Var(&s.MissRatio, "miss-ratio", 0, "fraction of gets forced to miss")
	fs.IntVar(&s.Ops, "ops", 10000, "operations to issue")
	fs.IntVar(&s.Workers, "workers", 32, "max in-flight operations")
	fs.Uint64Var(&s.Seed, "seed", 1, "random seed")
	fs.BoolVar(&live.ReadThrough, "fill-misses", false, "relay misses to a simulated database")
	fs.Float64Var(&s.MuD, "mud", 1000, "simulated database service rate for -fill-misses")
	fs.BoolVar(&s.Coalesce, "coalesce", false, "single-flight coalesce concurrent misses per key (needs -fill-misses on external runs)")
	fs.DurationVar(&s.FillTTL, "fill-ttl", 0, "write-back TTL for filled misses (negative = store already expired, keeping misses steady)")
	fs.IntVar(&s.DBQueueDepth, "db-queue", 0, "bound the simulated database to a single serving queue of this depth (0 = concurrent)")
	fs.DurationVar(&s.Duration, "timeout", 10*time.Minute, "overall run timeout")
	fs.Float64Var(&s.MuS, "mus", 2000, "per-server shaped service rate for -plane modes")
	fs.IntVar(&s.Resilience.Retries, "retries", 0, "extra read attempts after transport failures (0 = off)")
	fs.Float64Var(&s.Resilience.HedgePercentile, "hedge-percentile", 0, "hedged-read trigger quantile in (0,1) (0 = hedging off)")
	fs.Float64Var(&s.Resilience.BreakerThreshold, "breaker-threshold", 0, "circuit-breaker failure-rate trip point (0 = off)")
	fs.IntVar(&s.Resilience.BreakerWindow, "breaker-window", 0, "circuit-breaker outcome window (0 = policy default)")
}

// keyJournal opens the -trace journal of the issued key stream: the
// loadgen observer that appends to it and the flush the caller defers.
func keyJournal(path string, out io.Writer) (observe func(time.Duration, string), flush func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	journal := keylog.NewWriter(f)
	failed := false
	observe = func(offset time.Duration, key string) {
		// The pacer is single-threaded; journaling inline is safe.
		// Trace-write failures must not abort the measurement run.
		if !failed {
			if err := journal.Write(keylog.Record{Offset: offset, Key: key}); err != nil {
				fmt.Fprintln(out, "trace write failed:", err)
				failed = true
			}
		}
	}
	flush = func() {
		if err := journal.Flush(); err != nil {
			fmt.Fprintln(out, "trace flush failed:", err)
		}
		_ = f.Close()
	}
	return observe, flush, nil
}

// runPlane evaluates s on p. A live run goes step by step, so the admin
// page carries every tier Start built before the banner prints.
func runPlane(p plane.Plane, s plane.Scenario, adminAddr string, out io.Writer) error {
	if s.Proxy != nil {
		fmt.Fprintf(out, "interposing proxy tier (%s routing)\n", s.Proxy.Policy)
	}
	if !s.Faults.Empty() {
		fmt.Fprintf(out, "injecting faults: %s\n", s.Faults)
	}
	cluster := fmt.Sprintf("%d servers, µS=%g", len(s.LoadRatios), s.MuS)
	live, isLive := p.(plane.LivePlane)
	if len(live.Servers) > 0 {
		cluster = "attached to " + strings.Join(live.Servers, ",")
	}
	fmt.Fprintf(out, "running scenario on the %s plane (%s, λ=%g)...\n", p.Name(), cluster, s.TotalKeyRate)
	reg := metrics.NewRegistry()
	drive := func(ctx context.Context) (*plane.Result, error) { return p.Run(ctx, s) }
	if isLive {
		started, err := live.Start(s)
		if err != nil {
			return err
		}
		defer started.Close()
		started.RegisterMetrics(reg)
		drive = started.Drive
	}
	if adminAddr != "" {
		admin, err := metrics.ServeAdmin(adminAddr, reg, s.Tracer, s.SLO)
		if err != nil {
			return err
		}
		defer func() { _ = admin.Close() }()
		fmt.Fprintf(out, "admin plane on http://%s/metrics\n", admin.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.Duration)
	defer cancel()
	res, err := drive(ctx)
	if err != nil {
		return err
	}
	printResult(out, res)
	return nil
}

// printResult prints the common Result surface; the fills, extstore
// and tenant rows are smoke-script parse targets.
func printResult(out io.Writer, res *plane.Result) {
	if res.Total.Lo == res.Total.Hi {
		fmt.Fprintf(out, "\nE[T(N)]     %v (TS %v, TD %v, TN %v)\n",
			secs(res.Point()), secs(res.TS.Mid()), secs(res.TD), secs(res.TN))
	} else {
		fmt.Fprintf(out, "\nE[T(N)]     %v ~ %v (TS %v ~ %v, TD %v, TN %v)\n",
			secs(res.Total.Lo), secs(res.Total.Hi),
			secs(res.TS.Lo), secs(res.TS.Hi), secs(res.TD), secs(res.TN))
	}
	var shed int64
	if lg := res.Live; lg != nil {
		shed = lg.Shed
		fmt.Fprintf(out, "issued      %d ops in %v (%.0f keys/s achieved)\n",
			lg.Issued, lg.Elapsed.Round(time.Millisecond), lg.AchievedRate())
		fmt.Fprintf(out, "outcomes    %d hits, %d misses, %d errors (%d breaker-shed)\n",
			lg.Hits, lg.Misses, lg.Errors, lg.Shed)
	}
	if sr := res.Sim; sr != nil && (sr.FailedKeys > 0 || sr.ShedKeys > 0) {
		fmt.Fprintf(out, "faults      %d/%d keys failed, %d shed, %d/%d requests degraded\n",
			sr.FailedKeys, sr.KeyCount, sr.ShedKeys, sr.DegradedRequests, sr.Requests)
	}
	printFills(out, res)
	if er := res.Extstore; er != nil {
		// The MRC prediction exists when the scenario declared the tier.
		pred := ""
		if res.Scenario.Extstore != nil {
			pred = fmt.Sprintf(" (β pred %.2f)", er.Predicted.DiskHitFraction())
		}
		fmt.Fprintf(out, "extstore    %d disk hits, %d promotions, %d segment bytes, %d compactions%s\n",
			er.DiskHits, er.Promotions, er.SegmentBytes, er.Compactions, pred)
	}
	printResilience(out, shed, res.Breakdown)
	for i, tr := range res.Tenants {
		// Stable key=value rows shell smokes can awk: p99us is the tenant's
		// admitted-traffic p99 in whole microseconds (0 with no samples).
		head, p99 := "           ", 0.0
		if i == 0 {
			head = "tenants    "
		}
		if tr.Latency != nil && tr.Latency.Count() > 0 {
			p99 = tr.Latency.MustQuantile(0.99)
		}
		fmt.Fprintf(out, "%s %s: issued=%d shed=%d p99us=%.0f offered=%.0f admitted=%.0f\n",
			head, tr.Name, tr.Issued, tr.Shed, p99*1e6, tr.Offered, tr.Admitted)
	}
	if h := res.Sample; h != nil && h.Count() > 0 {
		fmt.Fprintf(out, "latency     mean %v [%v, %v] 95%% CI\n",
			secs(h.Mean()), secs(res.MeanCI.Lo), secs(res.MeanCI.Hi))
		for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
			fmt.Fprintf(out, "            p%-5g %v\n", p*100, secs(h.MustQuantile(p)))
		}
	}
	printSLO(out, res.SLO)
	printBreakdown(out, res.Breakdown)
	fmt.Fprintf(out, "plane run completed in %v\n", res.Elapsed.Round(time.Millisecond))
}

// printFills is the herd-protection ledger: with coalescing, db fetches
// sit far below misses and the difference shows up as fan-ins (the
// sim's delayed hits). Runs with no database in play stay silent.
func printFills(out io.Writer, res *plane.Result) {
	var misses, fetches, fanIns, sheds, peak int64
	switch {
	case res.DB != nil:
		misses, fetches, peak = res.Live.Misses, res.DB.Lookups, res.DB.QueuePeak
		if cs := res.Coalesce; cs != nil {
			fanIns, sheds = cs.FanIns, cs.Sheds
		}
	case res.Sim != nil && res.Scenario.Coalesce:
		misses, fetches, fanIns = res.Sim.MissCount, res.Sim.BackendFetches, res.Sim.DelayedHits
	default:
		return
	}
	fmt.Fprintf(out, "fills       %d misses, %d db fetches, %d fan-ins, %d sheds, queue peak %d\n",
		misses, fetches, fanIns, sheds, peak)
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
		max(shed, stageShed), retries, hedges)
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

// parseExtstoreSpec reads the -extstore tier description in the
// flagspec grammar: ram/total item budgets and the disk service rate,
// e.g. "ram=200,total=1200,mud=2000". A blank spec arms no tier.
func parseExtstoreSpec(s string) (*plane.ExtstoreSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	spec := &plane.ExtstoreSpec{}
	err := flagspec.Scan(s, func(key, val string) (err error) {
		switch key {
		case "ram":
			spec.RAMItems, err = strconv.Atoi(val)
		case "total":
			spec.TotalItems, err = strconv.Atoi(val)
		case "mud", "mudisk":
			spec.MuDisk, err = strconv.ParseFloat(val, 64)
		case "dist":
			spec.DiskDist = val
		case "sigma":
			spec.DiskSigma, err = strconv.ParseFloat(val, 64)
		default:
			err = errors.New("unknown field (ram, total, mud, dist, sigma)")
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("-extstore: %w", err)
	}
	return spec, nil
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
