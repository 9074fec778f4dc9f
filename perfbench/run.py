#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py [--workload tune|svc-hot|svc-cold|fleet-sweep|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  It builds the harness and the tilo
libraries from the checkout's own sources (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
harness self-test, then runs each requested workload in its own process.

--trace 0 (default) is the timed run: it prints every end-to-end metric
of BENCHMARK.json per workload, with its unit, plus the figures that are
reported but not gated (perfbench/ledger.json).  --trace 1 is the traced
run: every per-layer metric, each with the end-to-end metric and workload
the ledger says it should move.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit status is 0 only
when every correctness gate and counter reconciliation held.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["tune", "svc-hot", "svc-cold", "fleet-sweep"]
RUN_TIMEOUT_S = 175
EXTRA = ["sim_events_per_s", "max_rate_rps", "latency_tail_pct",
         "latency_samples"]


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the harness; returns the build dir."""
    if not (ROOT / "src" / "tilo").is_dir():
        die(f"no tilo sources under {ROOT / 'src'}", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(bdir / "build.lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(bdir), "-j4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (full log: {log})", 3)
    return bdir


def run_workload(bdir, name, seed, seconds, trace):
    """Runs one workload process; returns its parsed result line."""
    work = Path(".bench_run") / f"{name}-{os.getpid()}"
    traces = Path(".bench_run") / "traces" / f"{name}-seed{seed}"
    cmd = [str(bdir / "perfbench"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--trace-dir", str(traces)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{name}: no result within {RUN_TIMEOUT_S} s", 4)
    for line in proc.stderr.splitlines():
        print(f"  [{name}] {line}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{name}: exited {proc.returncode} without a result line", 4)
    result["wall_s"] = time.monotonic() - start
    return result


def select(result, declared, name):
    """The declared metrics of one result, every one present and finite."""
    out = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(
                got["value"]):
            die(f"{name}: metric {m['name']} missing or not finite", 5)
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def report(name, result, declared, ledger, trace):
    attempted = max(1, result["attempted"])
    print(f"== {name}: correct={result['correct']} attempted="
          f"{result['attempted']} failed={result['failed']} "
          f"error_rate={result['failed'] / attempted:.6g} "
          f"({result['wall_s']:.1f} s wall)")
    for m in declared:
        v = result["metrics"][m["name"]]
        line = f"  {m['name']:<28} {v['value']:>16.6g} {m['unit']}"
        if trace:
            info = ledger["per_layer"].get(m["name"], {})
            line += (f"   moves {info.get('moves', '?')} on "
                     f"{', '.join(info.get('on', []))}")
        print(line)
    if not trace:
        for extra in EXTRA:
            if extra in result["metrics"]:
                v = result["metrics"][extra]
                print(f"  {extra:<28} {v['value']:>16.6g} {v['unit']}"
                      "   (reported, not gated)")
    for f in result.get("failures", []):
        print(f"  FAILED: {f}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = json.loads((HERE / "ledger.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(m["name"] for m in spec["per_layer"]) != set(ledger["per_layer"]):
        die("BENCHMARK.json per_layer and ledger.json disagree", 5)

    bdir = build()
    selftest = subprocess.run([str(bdir / "perfbench_selftest")], cwd=ROOT,
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        print(selftest.stdout + selftest.stderr, file=sys.stderr)
        die("harness self-test failed", 6)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(bdir, name, args.seed, args.seconds, args.trace)
        selected = select(result, declared, name)
        report(name, result, declared, ledger, args.trace)
        final["correct"] = final["correct"] and bool(result["correct"])
        final["attempted"] += int(result["attempted"])
        final["failed"] += int(result["failed"])
        prefix = "" if len(names) == 1 else f"{name}."
        for k, v in selected.items():
            final["metrics"][prefix + k] = v
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
