#!/usr/bin/env sh
# Smoke gate: build, full test suite, and a quick bench pass that
# exercises the JSON artifact pipeline end to end. Run from anywhere;
# artifacts land in a throwaway directory.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

# odoc is optional in the dev image; build the docs only when present.
if command -v odoc >/dev/null 2>&1; then
  echo "== dune build @doc =="
  dune build @doc
else
  echo "== dune build @doc skipped (odoc not installed) =="
fi

echo "== dune runtest =="
dune runtest

echo "== codec and crypto suites on the OCaml reference (RESETS_NO_ACCEL=1) =="
# The ESP kernel, SHA-256 and ChaCha20 each have a C path and an OCaml
# reference; RESETS_NO_ACCEL=1 selects the reference. Dune's test cache
# does not key on the environment, so these two suites run directly.
for suite in test_codec test_crypto; do
  RESETS_NO_ACCEL=1 dune exec ./test/$suite.exe -- --compact --color=never \
    || { echo "$suite failed on the OCaml reference" >&2; exit 1; }
  echo
done

echo "== wire suite on the portable path (RESETS_NO_MMSG=1) =="
# Batch_io has an mmsg path (recvmmsg/sendmmsg, GSO runs and GRO on UDP)
# and a portable one (one Unix.recv/sendto per frame); RESETS_NO_MMSG=1
# selects the portable one, for this suite and the daemons it spawns.
# There no socket may take GSO or GRO: the portable path cannot split a
# coalesced datagram. Run directly, as above.
RESETS_NO_MMSG=1 dune exec ./test/test_net.exe -- --compact --color=never \
  || { echo "test_net failed on the portable path" >&2; exit 1; }
echo

# The experiments whose artifacts are pinned byte-for-byte below. Most
# run in well under a second; E7, E8, E15 and E16 take a few seconds
# each (together about 15 s on a 2-vCPU x86-64 VM).
pinned="E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E15 E16"

echo "== bench smoke ($pinned E14, JSON artifacts) =="
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# E1-E6, E9 and E13 run the single-SA harness over Endpoint's link
# wiring, E7 the multi-SA host under all three recovery disciplines,
# E8 the SAVE-overhead trade, E10 the bidirectional scheme, E12 SA
# rollover, E11 the APN explorer over the eight Section 5 models, E15
# the chaos batch, E16 the adaptive-K frontier, E14 the unified
# Endpoint/Multi_sa datapath plus the domain sweep: the same workloads
# at 1 and 2 domains. Smoke sizes keep the sweep fast; the committed
# artifact uses the full 256/1024/4096 sweep and the full 100k/1M scale
# sweep. The smoke's 10^5-SA scale row (about 5 s at 1 and 2 domains)
# runs the 1-vs-2-domain determinism check over 1,563 blocks. Every
# gate on these artifacts is a check in the section that measures it,
# and the bench exits 2 when one fails (naming it on stderr): E14's
# protocol outcomes identical across domain counts and its speedup
# (>= 1.3x at 1024 SAs on 2 domains, checked only on a machine with
# >= 2 cores; otherwise it prints a [skip] line), E16's frontier.
dune exec bench/main.exe -- $pinned E14 --json="$out" \
  --domains=1,2 --sweep-sizes=64,256,1024 --scale-sizes=512,2048,100000

echo "== committed-artifact gate ($pinned identity) =="
# The simulated paths must stay byte-identical: every artifact
# regenerated by the bench smoke above has to match the committed one
# on every protocol field. E1 pins the Static K policy path, E6 the
# SAVE-interval rule, E2-E5, E9 and E13 the sender and receiver wired
# to the link through Endpoint (and with them the replay window), E7
# Multi_sa under all three recovery disciplines, E8 the SAVE overhead,
# E10 the bidirectional scheme, E12 SA rollover, E15 the chaos batch
# and its shrinker, E16 the adaptive-K frontier. E11 pins the
# explorer: every model's verdict, its state count and the
# combined-reset counterexample. verify ignores only the
# machine-dependent fields (wall clock, throughput, speedup, E7's
# measured IKE operation) and names the first differing path.
dune exec bench/main.exe -- verify "$out" $pinned

echo "== chaos smoke gate (fixed seeds, invariant monitor) =="
# A small fixed batch of random fault schedules (resets, burst loss,
# disk faults, adversary) under the invariant monitor. Three binds:
# the stock protocol must hold on every seed (exit 0), the run must be
# deterministic (same seeds, same JSON report minus nothing — the
# whole report is re-diffed), and the deliberately weakened --weak-leap
# receiver must yield a violation the shrinker minimizes (exit 2).
dune exec bin/ipsec_resets.exe -- chaos --seeds 25 --quiet \
  --json "$out/chaos-a.json" \
  || { echo "stock chaos batch reported violations" >&2; exit 1; }
dune exec bin/ipsec_resets.exe -- chaos --seeds 25 --quiet \
  --json "$out/chaos-b.json" \
  || { echo "stock chaos batch reported violations on re-run" >&2; exit 1; }
cmp -s "$out/chaos-a.json" "$out/chaos-b.json" \
  || { echo "chaos batch is not deterministic across re-runs" >&2; exit 1; }
echo "stock: 25 seeds clean, re-run byte-identical"
if dune exec bin/ipsec_resets.exe -- chaos --seeds 25 --weak-leap --quiet \
    --json "$out/chaos-weak.json"; then
  echo "weak-leap chaos batch found no violation (expected one)" >&2; exit 1
fi
grep -q '"shrink_runs"' "$out/chaos-weak.json" \
  || { echo "weak-leap report carries no shrunk counterexample" >&2; exit 1; }
grep -q '"replay_identical": true' "$out/chaos-weak.json" \
  || { echo "weak-leap counterexample did not replay identically" >&2; exit 1; }
echo "weak leap: violation found, shrunk, replay-identical"
# Stealth mode judges each schedule against a paired attack-free
# oracle: slow disks plus phase-locked forced resets must degrade
# goodput somewhere in 15 seeds, and the shrinker must minimize the
# degradation to a replay-identical counterexample (exit 2).
if dune exec bin/ipsec_resets.exe -- chaos --seeds 15 --stealth --quiet \
    --json "$out/chaos-stealth.json"; then
  echo "stealth chaos batch found no degradation (expected some)" >&2; exit 1
fi
grep -q '"shrink_runs"' "$out/chaos-stealth.json" \
  || { echo "stealth report carries no shrunk counterexample" >&2; exit 1; }
grep -q '"replay_identical": true' "$out/chaos-stealth.json" \
  || { echo "stealth counterexample did not replay identically" >&2; exit 1; }
grep -q '"goodput-degraded"' "$out/chaos-stealth.json" \
  || { echo "stealth report carries no goodput-degraded violation" >&2; exit 1; }
echo "stealth: degradation found, shrunk, replay-identical"

echo "== K-floor CLI gate =="
# --kp auto and the safety-floor rejection on the run CLI. The stealth
# paired run is a test_net case.
if dune exec bin/ipsec_resets.exe -- run --kp 3 --save-latency 200 --gap 4 \
    >/dev/null 2>&1; then
  echo "run accepted --kp 3 below the derived floor (expected rejection)" >&2
  exit 1
fi
dune exec bin/ipsec_resets.exe -- run --kp auto --kq auto \
  --save-latency 200 --gap 4 --json >"$out/run-auto.json" \
  || { echo "run --kp auto failed" >&2; exit 1; }
echo "floor rejection and --kp auto behave"

echo "== explore CLI gate (--print-model, argument checks) =="
# --print-model prints the processes the explorer runs, in the paper's
# notation: for the robust model, q's extra branch (r > pst + leap).
# Out-of-range arguments are refused with cmdliner's usage exit (124)
# and the flag's name, not an uncaught exception.
for model in robust augmented; do
  rc=0
  dune exec bin/ipsec_resets.exe -- explore --model $model --print-model \
    >"$out/explore-$model.txt" 2>&1 || rc=$?
  case $rc in
    0|2) ;;
    *) echo "explore --model $model --print-model errored (exit $rc)" >&2; exit 1 ;;
  esac
  grep -q "process q" "$out/explore-$model.txt" \
    || { echo "explore --model $model --print-model printed no process q" >&2; exit 1; }
done
grep -q "r > pst + leap" "$out/explore-robust.txt" \
  || { echo "explore --model robust --print-model does not print q's robust branch" >&2; exit 1; }
rc=0
dune exec bin/ipsec_resets.exe -- explore -k 0 >"$out/explore-k0.txt" 2>&1 || rc=$?
if [ "$rc" -ne 124 ]; then
  echo "explore -k 0 exited $rc (expected 124)" >&2; exit 1
fi
grep -q -- "-k" "$out/explore-k0.txt" \
  || { echo "explore -k 0 does not name -k" >&2; exit 1; }
echo "robust and augmented --print-model print their processes; -k 0 refused"

echo "== MICRO (allocation budgets, wire sweep, engine determinism) =="
# MICRO's own checks: ten allocation budgets on the per-packet, engine
# and explorer paths; a wire sweep at batch 1, 8 and 32 that loses no
# frame silently, delivers every frame at a flush depth <= 8 and runs
# batch 8 at >= 0.9x the unbatched pps; and the wheel and the legacy
# heap firing a fixed-seed schedule in the same order. The bench exits
# 2 when one fails.
dune exec bench/main.exe -- MICRO --json="$out" >/dev/null

echo "== E17 fleet smoke (supervised kill/recover at --batch 32 and 1) =="
# Daemon pairs over a real wire under the fault-injecting fleet
# supervisor: the receiver is SIGKILLed mid-run and respawned on the
# same store (wiped for the disk-lost scope) while the sender keeps
# transmitting. One cell per reset scope (single-SA / whole-SADB /
# disk-lost), then two faulty cells: the receiver's file store under
# E17's fault plan (failed and torn writes, corrupt and stale reads),
# and the sender behind E17's impaired wire (loss, duplication, 10 ms
# reordering, bursts). A cell holds when the restarted daemon's own
# --expect-recovery gate exits 0 and the heartbeat JSONL shows it
# converged with at most 2k fresh messages lost. Run at serve's default
# batch depth and unbatched: convergence must not depend on the wire
# batching mode. fleet exits 2 when a check fails (named on stderr);
# the wall-clock cap keeps a hung daemon pair from wedging the gate.
cap=
command -v timeout >/dev/null 2>&1 && cap="timeout 300"
for batch in "" "--batch 1"; do
  echo "-- fleet --smoke $batch --"
  rc=0
  $cap dune exec bin/ipsec_resets.exe -- fleet --smoke $batch \
    --workdir "$out/fleet" --json "$out/fleet-smoke.json" --quiet || rc=$?
  case $rc in
    0) ;;
    124) echo "E17 smoke $batch: wall-clock timeout — hung daemon pair?" >&2; exit 1 ;;
    *) echo "E17 smoke $batch failed (exit $rc)" >&2; exit 1 ;;
  esac
done
echo "E17 smoke: every cell converged within the 2k bound at both depths"

echo "== mutants (each patch in mutants/ must fail its Killed-by section) =="
# A gate counts only once it has been seen to go red. Each patch in
# mutants/ breaks one paper clause, named in its header (the text
# before its first ---, which patch skips), together with the one bench
# section that must kill it (a "Killed-by: <section>" line). Each is
# applied in turn to one copy of the tree, the copy's bench is built
# (about 6 s with a warm dune cache) and the section must exit 2, the
# status of a failed check: 0 is a missed mutant, anything else a
# crash or a usage error. The patch is then reverted.
mutant="$out/mutant"
mkdir -p "$mutant"
tar --exclude=./_build --exclude=./.bench_build --exclude=./.git -cf - . \
  | (cd "$mutant" && tar -xf -)
for patch in mutants/*.patch; do
  section=$(sed -n '/^---/q; s/^Killed-by: *\([A-Z0-9]*\)$/\1/p' "$patch")
  case $section in
    ''|*[!A-Z0-9]*) echo "$patch: no single Killed-by: <section> line in its header" >&2; exit 1 ;;
  esac
  (cd "$mutant" && patch -p1 --quiet <"$patch") \
    || { echo "$patch: does not apply" >&2; exit 1; }
  (cd "$mutant" && dune build --root . bench/main.exe 2>&1) \
    || { echo "$patch: the patched copy does not build" >&2; exit 1; }
  rc=0
  "$mutant/_build/default/bench/main.exe" "$section" --no-json >/dev/null \
    2>"$out/mutant.err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    cat "$out/mutant.err" >&2
    echo "$patch: $section exited $rc (expected 2)" >&2
    exit 1
  fi
  (cd "$mutant" && patch -p1 -R --quiet <"$patch") \
    || { echo "$patch: does not revert" >&2; exit 1; }
  echo "$patch: $section fails, as it must"
done

echo "OK"
