#!/usr/bin/env bash
# conns_smoke.sh — boot memcached-server on the epoll event-loop core
# and park 5000 mostly-idle connections on it with mcbench -conns while
# a hot subset issues gets: proves the multiplexed core serves real
# traffic at a connection count goroutine-per-connection CI settings
# never exercise. Used by the CI verify job; runnable locally from the
# repo root (needs a few thousand spare fds; mcbench raises its own
# soft limit, the server side is raised here with ulimit when allowed).
set -euo pipefail

ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

. "$(dirname "$0")/lib.sh"
srv=$(build_bin memcached-server)
mcb=$(build_bin mcbench)

conns=5000
addr=127.0.0.1:18213
"$srv" -addr "$addr" -conn-core eventloop -max-conns $((conns + 64)) &
smoke_pids+=("$!")
wait_ready "$mcb" -servers "$addr" -conns 16 -conn-hot 1 -ops 1

out=$("$mcb" -servers "$addr" -conns "$conns" -ops 20000 -timeout 2m)
printf '%s\n' "$out"
case $out in
*"conns=$conns"*) ;;
*)
    echo "FAIL: mcbench never reported the conns=$conns tier" >&2
    exit 1
    ;;
esac
echo "conns smoke OK: event-loop server held $conns connections"
