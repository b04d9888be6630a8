#!/usr/bin/env sh
# Two-process daemon loopback smoke: a receiver and a sender daemon
# exchange ESP frames over a UNIX-datagram socket pair, the receiver
# is SIGKILLed mid-run, then restarted on the same durable store. The
# restarted receiver's own convergence gate (recovered edge, leap
# within 2k, no cross-incarnation replay, zero duplicates) is the
# verdict: its exit code propagates as this script's exit code.
#
# Usage: scripts/daemon_loopback.sh [path-to-ipsec_resets.exe]
# With no argument the binary is built and located via dune.
# BATCH=<n> selects the wire batch depth (recvmmsg/sendmmsg frames per
# syscall) for both daemons; default 32, BATCH=1 runs unbatched.
# IMPAIR=<spec> puts the sender's frames through an impaired wire
# (serve --impair, e.g. drop=0.05,dup=0.02,reorder=0.02:10ms); default
# none, a clean wire.
# STORE_FAULTS=<spec> puts both receiver incarnations' file store under
# a seeded fault plan (serve --store-faults, e.g.
# write_fail=0.05,torn=0.03,corrupt=0.02,stale=0.02); default none, a
# reliable store.
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -ge 1 ]; then
  BIN=$1
else
  dune build bin/ipsec_resets.exe
  BIN=_build/default/bin/ipsec_resets.exe
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/daemon-loopback.XXXXXX")
SENDER_PID=
RECV_PID=
cleanup() {
  [ -n "$SENDER_PID" ] && kill "$SENDER_PID" 2>/dev/null || true
  [ -n "$RECV_PID" ] && kill -9 "$RECV_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT INT TERM

SOCK="$work/recv.sock"
STORE="$work/store"
STATS="$work/recv.stats"
SAS=2
K=8
RATE=400
BATCH=${BATCH:-32}
IMPAIR=${IMPAIR:-}
STORE_FAULTS=${STORE_FAULTS:-}

# Spawn a receiver incarnation and wait for it to bind, retrying on a
# bind failure: a stale socket file left by a killed receiver (or a
# path collision with a concurrent run) makes the bind fail fast, and
# a retry after cleaning the path is the correct response — not a
# script failure. Extra flags ($@) select the incarnation.
start_recv() {
  attempt=0
  while :; do
    attempt=$((attempt + 1))
    # a dead receiver cannot unlink its own socket; clean it before
    # the bind instead of failing on the leftover
    [ -e "$SOCK" ] && rm -f "$SOCK"
    "$BIN" serve --role recv --bind "unix:$SOCK" \
      --sas "$SAS" -k "$K" --batch "$BATCH" \
      --store "$STORE" --stats "$STATS" \
      --store-faults "$STORE_FAULTS" --fault-seed 1 "$@" &
    RECV_PID=$!
    i=0
    while [ ! -S "$SOCK" ]; do
      # died before binding: address in use or transient — retry
      kill -0 "$RECV_PID" 2>/dev/null || break
      i=$((i + 1))
      [ "$i" -gt 50 ] && break
      sleep 0.1
    done
    [ -S "$SOCK" ] && return 0
    kill -9 "$RECV_PID" 2>/dev/null || true
    wait "$RECV_PID" 2>/dev/null || true
    RECV_PID=
    if [ "$attempt" -ge 3 ]; then
      echo "receiver never bound $SOCK after $attempt attempts" >&2
      return 1
    fi
    echo "receiver bind attempt $attempt failed, cleaning and retrying" >&2
    sleep 0.2
  done
}

# Incarnation 1: receiver daemon, generously long duration — it will
# not die of old age, we kill it.
start_recv --duration 30 --quiet

# Sender runs across the whole experiment, including the receiver's
# downtime, so the restarted receiver must leap over the gap.
"$BIN" serve --role send --peer "unix:$SOCK" \
  --sas "$SAS" -k "$K" --rate "$RATE" --duration 8 --batch "$BATCH" \
  --impair "$IMPAIR" --quiet &
SENDER_PID=$!

sleep 2
echo "killing receiver (pid $RECV_PID) mid-run"
kill -9 "$RECV_PID"
wait "$RECV_PID" 2>/dev/null || true
RECV_PID=
rm -f "$SOCK"

# Let traffic flow into the void for a moment: the sender keeps
# advancing sequence numbers while the receiver is down.
sleep 1

# Incarnation 2: same store, same stats journal, recovery expected.
# Its gate checks: edge recovered from the store, deliveries resumed,
# fresh rejections <= 2k, zero duplicates, zero ICV failures, and the
# minimum delivered sequence number strictly above the previous
# incarnation's maximum (no cross-incarnation replay).
start_recv --duration 6 --expect-recovery --json "$work/recv2.json"
rc=0
wait "$RECV_PID" || rc=$?
RECV_PID=

wait "$SENDER_PID" 2>/dev/null || true
SENDER_PID=

if [ "$rc" -eq 0 ]; then
  echo "daemon loopback: kill/recover converged (gate passed)"
else
  echo "daemon loopback: recovery gate FAILED (exit $rc)" >&2
  [ -f "$work/recv2.json" ] && cat "$work/recv2.json" >&2
fi
exit "$rc"
