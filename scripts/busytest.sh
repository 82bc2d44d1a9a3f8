#!/usr/bin/env bash
# busytest.sh [-k K] [-n N] [-run REGEXP] [PACKAGE...] — run tests on a
# busy machine. Starts K busy-loop child processes of its own (default
# 4), runs `go test -count=1` on the packages (default ./...) N times
# (default 1) beside them, and kills the children on exit. It uses no
# cgroup and no CPU pinning, and writes nothing under /proc or /sys: the
# load is ordinary processes competing for the CPUs. The test binaries
# are built before the children start, so the passes time the tests,
# not the compiler. Exits 1 if any pass failed. Too slow for CI; run it
# by hand (make tier1-busy).
set -euo pipefail

k=4
n=1
run=
while [ $# -gt 0 ]; do
    case $1 in
        -k) k=$2; shift 2 ;;
        -n) n=$2; shift 2 ;;
        -run) run=$2; shift 2 ;;
        -*) echo "busytest: unknown flag $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if [ $# -eq 0 ]; then
    set -- ./...
fi
# A busy loop per child: a small, fixed number, never one per CPU asked.
if ! [[ $k =~ ^[0-9]+$ ]] || [ "$k" -gt 16 ]; then
    echo "busytest: -k must be 0..16, got $k" >&2
    exit 2
fi
if ! [[ $n =~ ^[1-9][0-9]*$ ]]; then
    echo "busytest: -n must be a positive count, got $n" >&2
    exit 2
fi

args=(-count=1)
if [ -n "$run" ]; then
    args+=(-run "$run")
fi

go build ./...
go test -count=1 -run '^$' "$@" >/dev/null

children=()
stop() {
    if [ ${#children[@]} -gt 0 ]; then
        kill "${children[@]}" 2>/dev/null || true
        wait "${children[@]}" 2>/dev/null || true
    fi
}
trap stop EXIT
trap 'exit 130' INT TERM
for ((i = 0; i < k; i++)); do
    bash -c 'while :; do :; done' &
    children+=($!)
done

failed=0
for ((i = 1; i <= n; i++)); do
    echo "== busytest pass $i/$n: k=$k go test ${args[*]} $*"
    start=$SECONDS
    if go test "${args[@]}" "$@"; then
        echo "== pass $i ok ($((SECONDS - start)) s)"
    else
        echo "== pass $i FAILED ($((SECONDS - start)) s)"
        failed=$((failed + 1))
    fi
done
echo "== busytest: $((n - failed))/$n passes ok at k=$k"
[ "$failed" -eq 0 ]
