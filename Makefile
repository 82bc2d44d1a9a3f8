# Developer entry points. `make verify` is the tier-1 gate CI runs.

GO ?= go

.PHONY: build test vet race bench-module verify faults lint cover fuzz-smoke \
	bench-plane bench-server bench-proxy bench-conns bench-extstore \
	bench-slo bench-check bench-check-server bench-check-proxy bench-check-conns \
	obs slo repro clean

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

# Coverage floors for the packages the hot-path rework touches most,
# plus the proxy tier's data plane and routing library. The floors are
# the blessed coverage levels; CI fails if any package drops below its
# floor.
cover:
	$(GO) test -coverprofile=cover_cache.out ./internal/cache/
	$(GO) test -coverprofile=cover_protocol.out ./internal/protocol/
	$(GO) test -coverprofile=cover_proxy.out ./internal/proxy/
	$(GO) test -coverprofile=cover_route.out ./internal/route/
	$(GO) test -coverprofile=cover_otrace.out ./internal/otrace/
	$(GO) test -coverprofile=cover_metrics.out ./internal/metrics/
	$(GO) test -coverprofile=cover_server.out ./internal/server/
	$(GO) test -coverprofile=cover_coalesce.out ./internal/coalesce/
	$(GO) test -coverprofile=cover_tenant.out ./internal/tenant/
	$(GO) test -coverprofile=cover_extstore.out ./internal/extstore/
	$(GO) test -coverprofile=cover_sketch.out ./internal/sketch/
	$(GO) test -coverprofile=cover_slo.out ./internal/slo/
	$(GO) test -coverprofile=cover_client.out ./internal/client/
	./scripts/coverfloor.sh cover_cache.out 95.2 internal/cache
	./scripts/coverfloor.sh cover_protocol.out 90.6 internal/protocol
	./scripts/coverfloor.sh cover_proxy.out 82.0 internal/proxy
	./scripts/coverfloor.sh cover_route.out 91.0 internal/route
	./scripts/coverfloor.sh cover_otrace.out 95.0 internal/otrace
	./scripts/coverfloor.sh cover_metrics.out 90.0 internal/metrics
	./scripts/coverfloor.sh cover_server.out 77.0 internal/server
	./scripts/coverfloor.sh cover_coalesce.out 90.0 internal/coalesce
	./scripts/coverfloor.sh cover_tenant.out 90.0 internal/tenant
	./scripts/coverfloor.sh cover_extstore.out 85.0 internal/extstore
	./scripts/coverfloor.sh cover_sketch.out 90.0 internal/sketch
	./scripts/coverfloor.sh cover_slo.out 85.0 internal/slo
	./scripts/coverfloor.sh cover_client.out 86.0 internal/client

# Fuzz smoke: 20s over the request framer (the same bytes fed whole,
# split, and one at a time through Parser must frame identically, and
# every Append encoder's output must parse back to its inputs), 10s over
# the reply readers (ScanReply's in-place VALUE cutter and the known-keys
# RetrievalReader against their plain reference implementations), 15s over
# the proxy's forwarding contract (every accepted command's captured
# frame must re-parse identically; a reply must relay verbatim and agree
# with the client-side reader), 15s over the Chrome trace-event
# decoder (ParseChrome must never panic and must round-trip WriteChrome
# output) and 10s over the -slo flag grammar (an accepted spec re-renders
# and re-parses to itself; keys outside the grammar are errors).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseCommand -fuzztime=20s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz FuzzScanReply -fuzztime=10s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz FuzzProxyFrame -fuzztime=15s ./internal/proxy/
	$(GO) test -run '^$$' -fuzz FuzzChromeTrace -fuzztime=15s ./internal/otrace/
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime=10s ./internal/slo/

# Plane-harness benchmarks, printed not gated: the live run is 125 ms of
# real-time pacing, so its ns/op says nothing portable.
bench-plane:
	$(GO) test -run '^$$' -bench 'BenchmarkSimPlane|BenchmarkLivePlane' -benchmem -benchtime 3x .

# Server hot-path benchmarks (get/set/multiget at 1/4/16 connections;
# BENCH_server.json records the last blessed numbers), then the client
# against real in-process servers: one Get, and one 32-key MultiGet over
# 2 and over 8 servers, per op, whose allocs/op are the client's own.
# Last, printed not gated, the cache hit underneath both: one reader, and
# GOMAXPROCS readers at once; parallel minus serial at -cpu 2 is what
# readers cost each other in shared cache lines.
bench-server:
	$(GO) test -run '^$$' -bench BenchmarkServerHotPath -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkClientGet|BenchmarkClientMultiGet' -benchmem ./internal/client/
	$(GO) test -run '^$$' -bench BenchmarkGetInto -cpu 1,2 ./internal/cache/

# Proxy hot-path benchmarks (pipelined get/set passthrough, the
# multiget fork-join through a real proxy + server, and the tenant QoS
# admission check, which must stay zero-alloc on both the admitted and
# the shed path). BENCH_proxy.json records the last blessed numbers.
bench-proxy:
	$(GO) test -run '^$$' -bench 'BenchmarkProxyHotPath|BenchmarkProxyQoS' -benchmem ./internal/proxy/

# Connection-count scaling (1k -> 100k parked connections on the
# event-loop core; tiers beyond the fd limit skip). The fixed -benchtime
# runs the expensive fleet setup once per scale instead of once per b.N
# probe. BENCH_conns.json records the last blessed numbers.
bench-conns:
	$(GO) test -run '^$$' -bench BenchmarkConnScaling -benchmem \
		-benchtime 500000x ./internal/server/

# Extstore disk-tier benchmarks (indexed read path against a populated
# segment log, and the bounded sync write path), printed not gated: the
# allocation bounds are a tier-1 test, extstore.TestHotPathAllocs.
bench-extstore:
	$(GO) test -run '^$$' -bench 'BenchmarkExtstoreRead|BenchmarkExtstoreWrite' -benchmem ./internal/extstore/

# SLO watchdog benchmarks, printed not gated: the striped recorder's
# per-observation cost (its zero-alloc property is a tier-1 test,
# sketch.TestRecordZeroAlloc / telemetry.TestObserveZeroAlloc) and the
# per-window watchdog tick.
bench-slo:
	$(GO) test -run '^$$' -bench 'BenchmarkSketchRecord|BenchmarkWatchdogTick' -benchmem \
		./internal/sketch/ ./internal/slo/

# Compare current benchmark runs against the checked-in baselines the
# way CI does, one target per baseline: >20% ns/op regression or any
# allocation appearing on a zero-alloc path fails.
bench-check: bench-check-server bench-check-proxy bench-check-conns

bench-check-server:
	$(GO) test -run '^$$' -bench BenchmarkServerHotPath -benchmem ./internal/server/ \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_server.json

bench-check-proxy:
	$(GO) test -run '^$$' -bench 'BenchmarkProxyHotPath|BenchmarkProxyQoS' -benchmem ./internal/proxy/ \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_proxy.json

bench-check-conns:
	$(GO) test -run '^$$' -bench BenchmarkConnScaling -benchmem \
		-benchtime 500000x ./internal/server/ \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_conns.json

# Observability smoke: the benchdiff gates that prove the server and
# proxy hot paths stay zero-alloc while tracing/metrics are compiled in
# but disabled, then a short live-plane run with the admin plane and
# span recording armed (mcbench re-parses the Chrome trace it wrote and
# fails the run if it is malformed) and the in-process /metrics +
# /healthz scrape test.
obs: bench-check-server bench-check-proxy
	$(GO) run ./cmd/mcbench -plane=live -plane-servers 2 -lambda 2000 \
		-mus 2000 -n 10 -ops 1200 -miss-ratio 0.02 -seed 7 \
		-admin 127.0.0.1:0 -trace-ring 8192 -trace-out obs_trace.json -slow 250ms
	rm -f obs_trace.json
	$(GO) test -run TestObservabilitySmoke -count=1 ./cmd/mcbench/

# SLO watchdog smoke: the drift experiment (sim determinism + live
# detection + healthy-ramp false-alarm sweep), the shell smoke (server
# overload attribution on /debug/watch, exemplars, live-plane db fault).
slo:
	$(GO) test -run TestDrift -count=1 -v ./internal/experiments/
	./scripts/slo_smoke.sh

repro:
	$(GO) run ./cmd/repro -run all

clean:
	$(GO) clean ./...
