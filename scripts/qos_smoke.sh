#!/usr/bin/env bash
# qos_smoke.sh — boot a live memcached-server with a standalone mcproxy
# enforcing tenant quotas in front of it, overload one tenant via
# mcbench, and assert the QoS layer held end to end over real TCP: the
# aggressor shed, the victim did not, the victim's p99 stayed bounded,
# and the proxy's /metrics ledger agrees. Used by the CI verify job;
# runnable locally from the repo root.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
srv=$(build_bin memcached-server)
prx=$(build_bin mcproxy)
mcb=$(build_bin mcbench)
out=$smoke_tmp/mcbench.out

addr=127.0.0.1:18217
paddr=127.0.0.1:18218
admin=127.0.0.1:18219

"$srv" -addr "$addr" &
smoke_pids+=("$!")
# The proxy enforces the quotas: the victim is unlimited, the
# aggressor's 150 ops/s is far under the ~800/s mcbench offers it. The
# 80-op burst absorbs the populate sets so only the run sheds.
"$prx" -listen "$paddr" -servers "$addr" -admin "$admin" \
    -tenants "victim;aggressor:rate=150,burst=80" &
smoke_pids+=("$!")
wait_ready curl -fsS "http://$admin/healthz"
wait_ready "$mcb" -servers "$paddr" -keys 8 -ops 1 -lambda 100

# mcbench's own specs carry no rates: they only shape the offered mix
# (50/50 prefixed key streams through its pass-through proxy). The
# standalone mcproxy is the enforcement point under test.
"$mcb" -servers "$paddr" -proxy \
    -tenants "victim:share=0.5;aggressor:share=0.5" \
    -keys 64 -ops 8000 -lambda 1600 -workers 32 -timeout 60s | tee "$out"

victim=$(grep -Eo 'victim: issued=[0-9]+ shed=[0-9]+ p99us=[0-9]+' "$out")
aggr=$(grep -Eo 'aggressor: issued=[0-9]+ shed=[0-9]+ p99us=[0-9]+' "$out")
if [ -z "$victim" ] || [ -z "$aggr" ]; then
    echo "FAIL: mcbench reported no tenant rows" >&2
    exit 1
fi
vshed=$(echo "$victim" | sed -E 's/.*shed=([0-9]+).*/\1/')
ashed=$(echo "$aggr" | sed -E 's/.*shed=([0-9]+).*/\1/')
vp99=$(echo "$victim" | sed -E 's/.*p99us=([0-9]+).*/\1/')
if [ "$vshed" -ne 0 ]; then
    echo "FAIL: victim shed $vshed ops (want 0)" >&2
    exit 1
fi
if [ "$ashed" -le 0 ]; then
    echo "FAIL: aggressor shed nothing at 5x quota" >&2
    exit 1
fi
# Generous fixed bound: an unshaped server answers in microseconds;
# triple-digit ms means admitted traffic queued behind the aggressor.
if [ "$vp99" -ge 100000 ]; then
    echo "FAIL: victim p99 ${vp99}us >= 100ms" >&2
    exit 1
fi

metrics=$(curl -fsS "http://$admin/metrics")
mshed_aggr=$(echo "$metrics" | awk '/^memqlat_tenant_shed_total\{tenant="aggressor"\}/ {print $2}')
mshed_victim=$(echo "$metrics" | awk '/^memqlat_tenant_shed_total\{tenant="victim"\}/ {print $2}')
if [ -z "$mshed_aggr" ] || [ "${mshed_aggr%.*}" -le 0 ]; then
    echo "FAIL: proxy /metrics shows no aggressor sheds (got '$mshed_aggr')" >&2
    echo "$metrics" | grep memqlat_tenant || true
    exit 1
fi
if [ -z "$mshed_victim" ] || [ "${mshed_victim%.*}" -ne 0 ]; then
    echo "FAIL: proxy /metrics shows victim sheds (got '$mshed_victim')" >&2
    exit 1
fi

echo "OK: aggressor shed $ashed (ledger $mshed_aggr), victim shed 0, victim p99 ${vp99}us"
