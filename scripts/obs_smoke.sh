#!/usr/bin/env bash
# obs_smoke.sh — boot memcached-server with the admin plane and check
# that /healthz, /metrics and /trace answer with the expected content.
# Used by the CI verify job; runnable locally from the repo root.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
bin=$(build_bin memcached-server)

addr=127.0.0.1:18211
admin=127.0.0.1:18212
"$bin" -addr "$addr" -admin "$admin" -trace-ring 1024 &
smoke_pids+=("$!")
wait_ready curl -fsS "http://$admin/healthz"

healthz=$(curl -fsS "http://$admin/healthz")
case $healthz in
*'"status":"ok"'*) ;;
*)
    echo "FAIL: unexpected /healthz body: $healthz" >&2
    exit 1
    ;;
esac

metrics=$(curl -fsS "http://$admin/metrics")
for family in memqlat_server_connections_current memqlat_cache_shard_items \
    memqlat_stage_latency_seconds memqlat_trace_spans_kept; do
    case $metrics in
    *"$family"*) ;;
    *)
        echo "FAIL: /metrics missing family $family" >&2
        exit 1
        ;;
    esac
done

trace=$(curl -fsS "http://$admin/trace")
case $trace in
*'"traceEvents"'*) ;;
*)
    echo "FAIL: unexpected /trace body: $trace" >&2
    exit 1
    ;;
esac

echo "obs smoke OK: /healthz, /metrics ($(printf '%s\n' "$metrics" | wc -l) lines), /trace all answered on $admin"
