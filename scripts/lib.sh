# lib.sh — the plumbing every *_smoke.sh shares; sourced, not run.
#
#   srv=$(build_bin memcached-server)   build ./cmd/<name> into the run's temp dir
#   "$srv" -addr "$addr" & smoke_pids+=("$!")
#   wait_ready <probe command...>       poll it up to 50 x 0.1 s
#
# Sourcing creates the temp dir ($smoke_tmp, also the place for scratch
# output files) and traps cleanup, which kills every pid in smoke_pids
# and removes the dir, however the script exits.

smoke_tmp=$(mktemp -d -t memqlat-smoke.XXXXXX)
smoke_pids=()

cleanup() {
    if [ "${#smoke_pids[@]}" -gt 0 ]; then
        kill "${smoke_pids[@]}" 2>/dev/null || true
    fi
    rm -rf "$smoke_tmp"
}
trap cleanup EXIT INT TERM

# build_bin <name>: build ./cmd/<name> and print the binary's path.
build_bin() {
    go build -o "$smoke_tmp/$1" "./cmd/$1"
    echo "$smoke_tmp/$1"
}

# wait_ready <command...>: succeed as soon as the probe does, fail after
# 5 s of it failing.
wait_ready() {
    local i=0
    while [ "$i" -lt 50 ]; do
        if "$@" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
        i=$((i + 1))
    done
    echo "FAIL: not ready after 5s: $*" >&2
    return 1
}
