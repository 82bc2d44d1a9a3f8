#!/usr/bin/env bash
# slo_smoke.sh — end-to-end check of the model-anchored SLO watchdog.
#
# Leg 1 boots memcached-server with a watchdog anchored at λ=100/s and
# drives 4x that load through mcbench: the queue_wait stage must leave
# its Theorem-1 band, the "slo alert kind=drift" line must land on the
# server's stderr, and /debug/watch must attribute the drift to
# queue_wait. The same leg arms -exemplars and asserts the /metrics
# stage histograms carry a trace_id exemplar.
#
# Leg 2 runs mcbench's live plane with its own watchdog and a db-slow
# fault injected mid-run: the alert line and the top-drift attribution
# (miss_penalty) must appear in the benchmark output.
#
# Used by the CI verify job; runnable locally from the repo root.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
srv=$(build_bin memcached-server)
mcb=$(build_bin mcbench)
errlog=$smoke_tmp/server.err

addr=127.0.0.1:18311
admin=127.0.0.1:18312
"$srv" -addr "$addr" -admin "$admin" -service-rate 500 -trace-ring 1024 -exemplars \
    -slo 'lambda=100,mus=500,q=0.1,xi=0.15,window=0.5s,k=2,band=3' 2>"$errlog" &
pid=$!
smoke_pids+=("$pid")
wait_ready curl -fsS "http://$admin/healthz"

# 4x the anchored arrival rate: the server queues far past the λ=100
# band, which is exactly the drift the watchdog must catch.
# -slow arms the client tracer so commands carry in-band trace IDs,
# which is what feeds the server's exemplar store.
"$mcb" -servers "$addr" -keys 200 -value-size 64 -lambda 400 -ops 1200 \
    -workers 32 -seed 7 -trace-ring 1024 -slow 10s >/dev/null

watch=$(curl -fsS "http://$admin/debug/watch")
case $watch in
*'"top_drift": "queue_wait"'*) ;;
*)
    echo "FAIL: /debug/watch did not attribute drift to queue_wait:" >&2
    printf '%s\n' "$watch" >&2
    exit 1
    ;;
esac

if ! grep -q 'slo alert kind=drift.*stage=queue_wait' "$errlog"; then
    echo "FAIL: no queue_wait drift alert line on server stderr:" >&2
    cat "$errlog" >&2
    exit 1
fi

metrics=$(curl -fsS "http://$admin/metrics")
for family in memqlat_slo_armed memqlat_slo_windows_closed_total \
    memqlat_slo_stage_drifting memqlat_slo_drift_alerts_total \
    memqlat_server_latency_sample_every; do
    case $metrics in
    *"$family"*) ;;
    *)
        echo "FAIL: /metrics missing family $family" >&2
        exit 1
        ;;
    esac
done
if ! printf '%s\n' "$metrics" | grep -q 'memqlat_slo_stage_drifting{stage="queue_wait"} 1'; then
    echo "FAIL: /metrics does not show queue_wait drifting" >&2
    exit 1
fi
if ! printf '%s\n' "$metrics" | grep -q 'trace_id="'; then
    echo "FAIL: /metrics carries no exemplars despite -exemplars and traced load" >&2
    exit 1
fi

kill "$pid" 2>/dev/null || true

# Leg 2: the live plane with a mid-run db slowdown; the watchdog rides
# the run and must name miss_penalty.
bench_out=$("$mcb" -plane=live -plane-servers 2 -lambda 300 -mus 500 -n 1 \
    -ops 900 -workers 32 -miss-ratio 0.2 -mud 500 -seed 7 \
    -faults 'slow:srv=db,from=1s,delay=50ms' \
    -slo 'window=0.5s,k=2,band=3')
case $bench_out in
*'slo alert kind=drift'*) ;;
*)
    echo "FAIL: mcbench live run fired no drift alert:" >&2
    printf '%s\n' "$bench_out" >&2
    exit 1
    ;;
esac
case $bench_out in
*'top drift miss_penalty'*) ;;
*)
    echo "FAIL: mcbench live run did not attribute drift to miss_penalty:" >&2
    printf '%s\n' "$bench_out" >&2
    exit 1
    ;;
esac

echo "slo smoke OK: queue_wait overload attributed on /debug/watch + stderr, exemplars exposed, live-plane db fault attributed to miss_penalty"
