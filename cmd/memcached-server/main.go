// Command memcached-server runs the memqlat cache server: an in-memory
// key-value store speaking the memcached text protocol over TCP.
//
// Example:
//
//	memcached-server -addr :11211 -memory-mb 256 -shards 16
//
// The optional -service-rate flag shapes per-command service times to
// an exponential distribution (one service channel per process), which
// turns the server into a physical realization of the paper's GI^X/M/1
// model for latency experiments.
//
// -extstore-dir arms the log-structured SSD cache tier: RAM eviction
// victims spill into append-only segment files under the directory,
// GET misses read back through the tier, and reopening the same
// directory after a crash rebuilds the disk index from the segment
// log (the startup line reports how many keys were recovered).
//
// -admin exposes the observability plane on a second listener:
// /metrics (Prometheus text exposition of the command, cache-shard and
// stage-latency families), /healthz, /debug/pprof and — with
// -trace-ring — /trace, the span ring of in-band-traced requests as
// Chrome trace-event JSON.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"memqlat/internal/cache"
	"memqlat/internal/daemon"
	"memqlat/internal/extstore"
	"memqlat/internal/metrics"
	"memqlat/internal/otrace"
	"memqlat/internal/plane"
	"memqlat/internal/server"
	"memqlat/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "memcached-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("memcached-server", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:11211", "listen address")
		memoryMB    = fs.Int64("memory-mb", 64, "cache memory budget in MiB")
		shards      = fs.Int("shards", 0, "number of cache shards (lock domains; 0 = GOMAXPROCS rounded up to a power of two)")
		maxItemKB   = fs.Int("max-item-kb", 1024, "maximum item size in KiB")
		maxConns    = fs.Int("max-conns", 1024, "maximum concurrent connections")
		serviceRate = fs.Float64("service-rate", 0, "optional exponential service-rate shaping (ops/s, 0 = off)")
		seed        = fs.Uint64("seed", 1, "seed for service-time shaping")
		extDir      = fs.String("extstore-dir", "", "arm a log-structured SSD cache tier on this directory (RAM evictions spill there; empty = off)")
		extMB       = fs.Int64("extstore-mb", 64, "extstore on-disk budget in MiB")
		extSegKB    = fs.Int64("extstore-segment-kb", 0, "extstore segment size in KiB (0 = default 4096)")
		idleTimeout = fs.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
		adminAddr   = fs.String("admin", "", "observability listener address for /metrics, /healthz, /debug/pprof (empty = off)")
		traceRing   = fs.Int("trace-ring", 0, "retain this many spans of in-band-traced requests, served on <admin>/trace (0 = tracing off)")
		slow        = fs.Duration("slow", 0, "log the span tree of traced requests at least this slow (0 = off; needs -trace-ring)")
		sloSpec     = fs.String("slo", "", "arm the model-anchored SLO watchdog, e.g. 'lambda=2000,mus=4000,miss=0.2,mud=500,window=1s,k=2,band=2': model keys lambda (needed), mus (default -service-rate), mud (needed with miss), q, xi, miss, n; detector keys window, k, band, target, budget (empty = off)")
		exemplars   = fs.Bool("exemplars", false, "attach OpenMetrics exemplars (trace_id of the latest traced command) to the /metrics stage histograms; needs -trace-ring")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tracer *otrace.Tracer
	if *traceRing > 0 {
		tracer = otrace.New(otrace.Options{RingSize: *traceRing, Slow: slow.Seconds(), SlowWriter: os.Stderr})
	} else if *slow > 0 {
		return fmt.Errorf("-slow needs -trace-ring (no tracer to watch)")
	}
	var exStore *telemetry.ExemplarStore
	if *exemplars {
		if tracer == nil {
			return fmt.Errorf("-exemplars needs -trace-ring (exemplars come from traced commands)")
		}
		exStore = telemetry.NewExemplarStore()
	}
	// The watchdog judges this server's stages against the Theorem-1
	// bands of the one server its -slo model keys describe.
	wd, err := plane.NewWatchdog(*sloSpec, plane.Scenario{MuS: *serviceRate}, os.Stderr)
	if err != nil {
		return err
	}
	c, err := cache.New(cache.Options{
		MaxBytes:    *memoryMB << 20,
		Shards:      *shards,
		MaxItemSize: *maxItemKB << 10,
	})
	if err != nil {
		return err
	}
	var ext *extstore.Store
	if *extDir != "" {
		// Reopening an existing directory replays the segment log: the
		// recovered-keys line is what the smoke script greps to prove a
		// SIGKILLed tier comes back with its durable prefix intact.
		ext, err = extstore.Open(extstore.Options{
			Dir:          *extDir,
			MaxBytes:     *extMB << 20,
			SegmentBytes: *extSegKB << 10,
		})
		if err != nil {
			return err
		}
		defer func() { _ = ext.Close() }()
		log.Printf("memcached-server: extstore tier on %s (%d MiB budget, %d keys recovered in %d segments)",
			*extDir, *extMB, ext.Len(), ext.Stats().Segments)
	}
	sopts := server.Options{
		Cache:       c,
		Extstore:    ext,
		MaxConns:    *maxConns,
		ServiceRate: *serviceRate,
		Seed:        *seed,
		Tracer:      tracer,
		Exemplars:   exStore,
		IdleTimeout: *idleTimeout,
		Logger:      log.New(os.Stderr, "memcached-server: ", log.LstdFlags),
	}
	if wd != nil {
		// The server tees Options.Recorder with its own collector, so
		// the watchdog sees every queue_wait/service observation the
		// stats page sees.
		sopts.Recorder = wd
	}
	srv, err := server.New(sopts)
	if err != nil {
		return err
	}
	if *adminAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterServers(reg, []*server.Server{srv})
		metrics.RegisterTelemetryExemplars(reg, srv.Telemetry(), exStore)
		admin, err := metrics.ServeAdmin(*adminAddr, reg, tracer, wd)
		if err != nil {
			return err
		}
		defer func() { _ = admin.Close() }()
		log.Printf("memcached-server: admin plane on http://%s/metrics", admin.Addr())
	}
	return daemon.Serve("memcached-server", *addr, srv, wd, fmt.Sprintf(" (memory %d MiB, shards %d)",
		*memoryMB, c.Shards()))
}
