#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the `ipsec-resets`
executable and the benchmark (perfbench/main.exe) with dune into
.bench_build, runs the workload in its own process group under a
wall-clock cap, reaps every process it started, removes the run's
scratch directory (sockets, stores, heartbeat files) whatever the
outcome, and relays the benchmark's output. A traced run leaves its
spans in .bench_build/spans/WORKLOAD-SEED.tsv. The last line printed is
the result object; without one the exit status is non-zero.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("wire-steady", "sim-scale", "apn-explore")
BUILD_DIR = ".bench_build"
SOURCES = ("dune-project", "bin/dune", "bin/ipsec_resets.ml", "lib/net/daemon.ml",
           "perfbench/dune", "perfbench/main.ml")
RUN_CAP_S = 170.0  # a run must end within 180 s
FIRST_RUN_CAP_S = 880.0  # ... or 900 s when it has to build


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def group_members(pgid):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def stop_group(pgid):
    """SIGKILL whatever is left of the run's process group and wait
    until every member is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if not group_members(pgid):
            return True
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        time.sleep(0.05)
    return not group_members(pgid)


def build(deadline):
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
           "./bin/ipsec_resets.exe", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    missing = [s for s in SOURCES if not os.path.isfile(s)]
    if missing:
        fail("not a source checkout (missing %s)" % ", ".join(missing))

    first_build = not os.path.exists(os.path.join(BUILD_DIR, "default", "perfbench", "main.exe"))
    deadline = start + (FIRST_RUN_CAP_S if first_build else RUN_CAP_S)
    build(deadline)
    if first_build:
        # the build had the long allowance; the run itself keeps the short one
        deadline = min(deadline, time.monotonic() + RUN_CAP_S)

    root = os.path.abspath(".")
    exe = os.path.join(root, BUILD_DIR, "default", "bin", "ipsec_resets.exe")
    bench = os.path.join(root, BUILD_DIR, "default", "perfbench", "main.exe")
    run_dir = os.path.join(root, BUILD_DIR, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-{args.seed}.tsv")
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--exe", exe, "--dir", run_dir, "--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    pgid = proc.pid
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic() - 8))
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(pgid, signal.SIGKILL)
        out, _ = proc.communicate()
    finally:
        reaped = stop_group(pgid)
        shutil.rmtree(run_dir, ignore_errors=True)

    text = out.decode(errors="replace")
    lines = [l for l in text.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line)
    if timed_out:
        fail(f"{args.workload} exceeded its wall-clock cap and was killed")
    if not reaped:
        fail("a process of the run could not be stopped")
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line is not a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result object has unexpected keys")
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
