#!/usr/bin/env bash
# extstore_smoke.sh — boot a live memcached-server with a 1 MiB RAM
# cache and a tmpdir extstore tier, drive a lognormal-value workload
# whose keyspace overflows RAM (so LRU victims spill into segment
# files), and assert (a) the disk tier actually serves reads and
# (b) a SIGKILLed server recovers its disk index from the segment log
# on restart and keeps serving disk hits.
# Used by the CI verify job; runnable locally from the repo root. On
# failure the segment directory and server logs stay behind in
# ./extstore_smoke_dir for artifact upload.
set -euo pipefail

dir=${EXTSTORE_SMOKE_DIR:-extstore_smoke_dir}
rm -rf "$dir"
mkdir -p "$dir"

. "$(dirname "$0")/lib.sh"
srv=$(build_bin memcached-server)
bench=$(build_bin mcbench)

addr=127.0.0.1:18214
pid=
start_server() {
    # One shard and a small item cap: the per-shard budget floor is
    # MaxItemSize, so many shards would silently inflate the 1 MiB
    # budget past the keyspace and nothing would ever spill.
    "$srv" -addr "$addr" -memory-mb 1 -shards 1 -max-item-kb 64 \
        -extstore-dir "$dir/segments" -extstore-segment-kb 64 >>"$dir/$1" 2>&1 &
    pid=$!
    smoke_pids+=("$pid")
    disown "$pid" 2>/dev/null || true # silence bash's job-kill notice on SIGKILL
    wait_ready "$bench" -servers "$addr" -keys 8 -ops 1 -lambda 100 || {
        echo "server log: $dir/$1" >&2
        exit 1
    }
}

start_server server1.log

# ~12k keys of lognormal values (mean 100 B) cost ~2 MiB against a
# 1 MiB RAM cache: populate evicts the early (Zipf-hot) keys to disk,
# so the measured gets must come back through the extstore tier.
drive() {
    "$bench" -servers "$addr" -keys 12000 -value-dist lognormal -zipf 1 \
        -ops "$1" -lambda 30000 -workers 32
}
out=$(drive 6000)
echo "$out"
ext=$(echo "$out" | grep '^extstore' || true)
hits=$(echo "$ext" | awk '{print $2}')
if [ -z "$hits" ]; then
    echo "FAIL: no extstore summary line in the mcbench output" >&2
    exit 1
fi
if [ "$hits" -le 0 ]; then
    echo "FAIL: the disk tier served no reads: $ext" >&2
    exit 1
fi

# Crash: no shutdown path runs, the active segment keeps its torn
# tail. Recovery must rebuild the index from the durable prefix.
kill -9 "$pid"
while kill -0 "$pid" 2>/dev/null; do sleep 0.05; done
start_server server2.log

recovered=$(grep -o '[0-9]* keys recovered' "$dir/server2.log" | head -1 | awk '{print $1}')
if [ -z "$recovered" ] || [ "$recovered" -le 0 ]; then
    echo "FAIL: restart recovered no keys from the segment log" >&2
    cat "$dir/server2.log" >&2
    exit 1
fi

# The reopened tier must still serve reads (the restart emptied RAM,
# so the re-populated keyspace spills and reads back again).
out2=$(drive 3000)
ext2=$(echo "$out2" | grep '^extstore' || true)
hits2=$(echo "$ext2" | awk '{print $2}')
if [ -z "$hits2" ] || [ "$hits2" -le 0 ]; then
    echo "FAIL: no disk hits after crash recovery: $ext2" >&2
    exit 1
fi

kill -9 "$pid" 2>/dev/null || true
rm -rf "$dir"
echo "PASS: extstore smoke ($hits disk hits before the crash, $recovered keys recovered, $hits2 disk hits after)"
