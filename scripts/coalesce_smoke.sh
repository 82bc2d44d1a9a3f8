#!/usr/bin/env bash
# coalesce_smoke.sh — boot a live memcached-server, drive a hot-key
# steady-miss workload through mcbench with single-flight coalescing,
# and assert the backend fetch count sits far below the miss count
# (the thundering-herd protection working end to end over real TCP).
# Used by the CI verify job; runnable locally from the repo root.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
srv=$(build_bin memcached-server)
bench=$(build_bin mcbench)

addr=127.0.0.1:18213
"$srv" -addr "$addr" &
smoke_pids+=("$!")
wait_ready "$bench" -servers "$addr" -keys 8 -ops 1 -lambda 100

# Hot-key herd: every get forced to miss on a tiny Zipf keyspace, fills
# held in flight ~10ms each (mud=100), negative fill TTL so write-backs
# never mask later misses. 32 workers pile onto the same key, so with
# -coalesce most misses must fan in to an existing fetch.
out=$("$bench" -servers "$addr" -keys 8 -hot-zipf 4 -ops 3000 -lambda 1500 \
    -miss-ratio 1 -fill-misses -mud 100 -fill-ttl -1s -coalesce -workers 32)
echo "$out"

fills=$(echo "$out" | grep '^fills')
misses=$(echo "$fills" | awk '{print $2}')
fetches=$(echo "$fills" | awk '{print $4}')
fanins=$(echo "$fills" | awk '{print $7}')

if [ -z "$misses" ] || [ -z "$fetches" ]; then
    echo "FAIL: could not parse the fills line: $fills" >&2
    exit 1
fi
if [ "$misses" -lt 1000 ]; then
    echo "FAIL: expected a steady miss stream, got $misses misses" >&2
    exit 1
fi
# The herd-protection assertion: coalescing must save the vast majority
# of backend fetches (>= 5x reduction) and account for the rest as
# fan-ins.
if [ $((fetches * 5)) -gt "$misses" ]; then
    echo "FAIL: $fetches db fetches for $misses misses — coalescing saved too little" >&2
    exit 1
fi
if [ $((fetches + fanins)) -ne "$misses" ]; then
    echo "FAIL: fetches($fetches) + fan-ins($fanins) != misses($misses)" >&2
    exit 1
fi

echo "PASS: coalesce smoke ($fetches db fetches for $misses misses, $fanins fanned in)"
