# Developer entry points. `make verify` is the tier-1 gate CI runs.

GO ?= go

.PHONY: build test vet race bench-module verify faults lint cover fuzz-smoke \
	microbench obs slo repro clean tier1-busy

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The live plane and loadgen are timing-sensitive; -race also shakes
# out ordering bugs in the telemetry seam and the server's conn pool.
race:
	$(GO) test -race ./...

# bench/ is a nested module pinned to the internal APIs it measures, so
# ./... never compiles it; build and test it where it lives (~8 s).
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

verify: build vet test bench-module race

# Tier 1 beside four busy-loop processes the script starts and kills
# itself (scripts/busytest.sh: no cgroup, no CPU pinning). Minutes per
# pass, so it is not a CI step. Narrow or repeat it through BUSY, e.g.
#   make tier1-busy BUSY="-n 10 -run TestLiveStack ./internal/experiments/"
BUSY ?= ./...
tier1-busy:
	./scripts/busytest.sh -k 4 $(BUSY)

# Fault-injection and resilience suite only (client recovery paths,
# sim/live fault threading, cross-plane schedule determinism). -race
# because the interesting bugs here are connection teardown races.
faults:
	$(GO) test -race -run Fault ./...

# Static analysis beyond vet. The analyzers are not vendored; CI
# installs them with `go install` (see .github/workflows/ci.yml).
lint:
	@command -v staticcheck >/dev/null || { \
		echo "staticcheck not found: go install honnef.co/go/tools/cmd/staticcheck@2024.1.1"; exit 1; }
	@command -v govulncheck >/dev/null || { \
		echo "govulncheck not found: go install golang.org/x/vuln/cmd/govulncheck@v1.1.4"; exit 1; }
	staticcheck ./...
	govulncheck ./...

# Coverage floors (package:percent under internal/) for the packages the
# hot-path rework touches most, the proxy tier's data plane and routing
# library, the model, the simulator and the load generator, the
# distributions package whose dist.Arrivals is the one arrival draw of
# the latter two, and the engine every REPRO section runs through. The
# floors are the blessed coverage levels; CI fails if any package drops
# below its floor.
COVER_FLOORS = cache:99.0 protocol:90.6 proxy:95.8 route:91.0 otrace:95.0 \
	metrics:90.0 server:77.0 coalesce:90.0 tenant:90.0 extstore:85.0 \
	sketch:90.0 slo:85.0 client:86.0 loadgen:84.2 sim:89.5 core:87.7 \
	experiments:86.5 dist:94.3

cover:
	@set -e; for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; \
		$(GO) test -coverprofile=cover_$$pkg.out ./internal/$$pkg/; \
		./scripts/coverfloor.sh cover_$$pkg.out $${pf##*:} internal/$$pkg; \
	done

# Fuzz smoke: 20s over the request framer (the same bytes fed whole,
# split, and one at a time through Parser must frame identically, and
# every Append encoder's output must parse back to its inputs), 10s over
# the reply readers (ScanReply's in-place VALUE cutter and the known-keys
# RetrievalReader against their plain reference implementations), 15s over
# the proxy's forwarding contract (every accepted command's captured
# frame must re-parse identically; a reply must relay verbatim and agree
# with the client-side reader), 15s over the Chrome trace-event
# decoder (ParseChrome must never panic and must round-trip WriteChrome
# output), 10s over the -slo flag grammar (an accepted spec re-renders
# and re-parses to itself; keys outside the grammar are errors), 7s over
# the fault-schedule grammar (an accepted schedule re-renders and
# re-parses to an equal one), 6s over the tenant grammar (accepted specs
# build a limiter that re-renders to itself), 7s over the key-journal
# reader (no input panics; what it accepts round-trips through Writer)
# and 10s over the extstore segment recovery (any frame bytes after a
# valid header: Open recovers, every recovered key reads back or is
# expired, and a second Open recovers the same keys) and 10s over the
# mcbench -extstore grammar (an accepted spec re-renders and re-parses
# to an equal one).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseCommand -fuzztime=20s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz FuzzScanReply -fuzztime=10s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz FuzzWriter -fuzztime=10s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz FuzzProxyFrame -fuzztime=15s ./internal/proxy/
	$(GO) test -run '^$$' -fuzz FuzzChromeTrace -fuzztime=15s ./internal/otrace/
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime=10s ./internal/slo/
	$(GO) test -run '^$$' -fuzz FuzzParseSchedule -fuzztime=7s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzParseSpecs -fuzztime=6s ./internal/tenant/
	$(GO) test -run '^$$' -fuzz FuzzKeylogReader -fuzztime=7s ./internal/keylog/
	$(GO) test -run '^$$' -fuzz FuzzRecoverSegment -fuzztime=10s ./internal/extstore/
	$(GO) test -run '^$$' -fuzz FuzzCacheOps -fuzztime=10s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzParseExtstoreSpec -fuzztime=10s ./cmd/mcbench/

# Micro-benchmarks, printed and gated by nothing: absolute ns/op says
# nothing portable, so speed is gated by bench/ (BENCHMARK.json: paired
# runs of parent and change on one machine) and allocation counts by
# tier-1 tests (server/proxy TestHotPathAllocs, extstore.TestHotPathAllocs,
# sketch.TestRecordZeroAlloc, telemetry.TestObserveZeroAlloc). In order:
# the model's numerics (one eq. 6 solve; Table 4's δ-threshold column,
# twenty root searches over such solves); the ext-integrated sweep (four
# request-driven integrated runs plus their composition twins); the plane
# harness (the live run is 125 ms of real-time pacing); the server, proxy
# + QoS admission, client (one Get, one 32-key MultiGet over 2 and 8
# in-process servers), extstore and SLO-watchdog hot paths;
# the cache hit under one reader and under GOMAXPROCS readers (parallel
# minus serial at -cpu 2 is what readers cost each other in shared cache
# lines); connection-count scaling, 1k -> 100k parked connections on
# each connection core, with the heap and stack each parked connection
# costs (tiers beyond the fd limit skip; the fixed -benchtime runs the
# expensive fleet setup once per scale, not once per b.N probe).
microbench:
	$(GO) test -run '^$$' -bench 'BenchmarkDelta$$|BenchmarkCliffTable' .
	$(GO) test -run '^$$' -bench 'BenchmarkExperiments/ext-integrated$$' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkSimPlane|BenchmarkLivePlane' -benchmem -benchtime 3x .
	$(GO) test -run '^$$' -benchmem \
		-bench 'ServerHotPath|ProxyHotPath|ProxyQoS|ClientGet|ClientMultiGet|ExtstoreRead|ExtstoreWrite|SketchRecord|WatchdogTick' \
		./internal/server/ ./internal/proxy/ ./internal/client/ ./internal/extstore/ ./internal/sketch/ ./internal/slo/
	$(GO) test -run '^$$' -bench BenchmarkGetInto -cpu 1,2 ./internal/cache/
	$(GO) test -run '^$$' -bench BenchmarkConnScaling -benchmem -benchtime 500000x ./internal/server/

# Observability smoke: a short live-plane run with the admin plane and
# span recording armed (mcbench re-parses the Chrome trace it wrote and
# fails the run if it is malformed) and the in-process /metrics +
# /healthz scrape test. That the hot paths stay zero-alloc with
# tracing/metrics linked in but disabled is tier 1 (TestHotPathAllocs),
# and so is the admin plane of the real binary (TestObsSmoke).
obs:
	$(GO) run ./cmd/mcbench -plane=live -plane-servers 2 -lambda 2000 \
		-mus 2000 -ops 1200 -miss-ratio 0.02 -seed 7 \
		-admin 127.0.0.1:0 -trace-ring 8192 -trace-out obs_trace.json -slow 250ms
	rm -f obs_trace.json
	$(GO) test -run TestObservabilitySmoke -count=1 ./cmd/mcbench/

# SLO watchdog smoke: the drift experiment (sim determinism + live
# detection + healthy-ramp false-alarm sweep), then the real binaries
# (server overload blamed on /debug/watch, exemplars, live-plane db
# fault; tier 1 runs it too).
slo:
	$(GO) test -run TestDrift -count=1 -v ./internal/experiments/
	$(GO) test -run TestSLOSmoke -count=1 -v .

repro:
	$(GO) run ./cmd/repro -run all

clean:
	$(GO) clean ./...
