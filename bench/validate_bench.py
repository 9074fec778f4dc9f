#!/usr/bin/env python3
"""Schema check for the perf-trajectory bench records.

Usage: validate_bench.py path/to/BENCH_*.json

Dispatches on the document's "bench" field:
  sweep_throughput  BENCH_sweep.json (bench_sweep_throughput --json)
  svc_load          BENCH_svc.json   (bench_svc_load --json)
  fleet_scale       BENCH_fleet.json (bench_fleet_scale --json)
  model             BENCH_model.json (bench_overlap_levels --json)
  dag               BENCH_dag.json   (bench_dag_makespan --json)
  sched             BENCH_sched.json (bench_sched_fairness --json)
  store             BENCH_store.json (bench_store_replication --json)

Fails (exit 1) when the file is missing, is not valid JSON, or does not
match the schema the perf-trajectory tooling expects.

Beyond schema, full-mode records (doc["quick"] is false) must also clear
the perf-regression thresholds:
  sweep_throughput  the analytically pruned selection reaches >= 5x the
                    exhaustive-select throughput with a bit-identical
                    recommendation, and the serial sweep's events/s is at
                    least RUN_HOST_MIN_RATIO of a fixed integer loop's
                    iterations/s measured in the same process (a
                    host-normalized floor on the timed run path's cost
                    per event; unoptimized or sanitized builds are held
                    to RUN_ENGINE_MIN_RATIO of the bare sim::Engine
                    chain rate instead);
  fleet_scale       tolerance-monotonic worker scaling — every point's
                    units/s stays within 15% of the best seen at fewer
                    workers (adding workers must never buy a real
                    slowdown, while absolute throughput remains
                    host-dependent; the margin absorbs the per-thread
                    overhead a core-starved host charges 8 workers).
Quick-mode records (CI smoke, tiny grids dominated by fixed costs) keep
the correctness checks — byte-identical merges, bit-identical verdicts —
but relax the throughput floors.
"""
import json
import os
import sys


def fail(msg):
    print("bench record schema violation:", msg, file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_report(rep, name):
    require(isinstance(rep, dict), f"{name} must be an object")
    for key in (
        "makespan_ns",
        "total_cpu_ns",
        "total_comm_ns",
        "critical_rank",
        "critical_bound_ns",
        "ranks",
    ):
        require(key in rep, f"{name}.{key} missing")
    for key in (
        "critical_path_share",
        "overlap_efficiency",
        "mean_compute_utilization",
        "min_compute_utilization",
        "max_compute_utilization",
    ):
        require(isinstance(rep.get(key), (int, float)), f"{name}.{key} missing")
    require(rep["makespan_ns"] > 0, f"{name}.makespan_ns must be positive")
    require(isinstance(rep["ranks"], list) and rep["ranks"], f"{name}.ranks empty")
    for r in rep["ranks"]:
        for key in ("rank", "compute_ns", "wire_ns", "cpu_ns", "comm_ns", "end_ns"):
            require(key in r, f"{name}.ranks[].{key} missing")
        require(r["end_ns"] <= rep["makespan_ns"], f"{name} rank ends after makespan")


# Full-mode thresholds (see module docstring).
PRUNE_MIN_SPEEDUP = 5.0
# Serial sweep events/s over the iterations/s of a fixed xorshift loop
# timed in the same process (bench_sweep_throughput's host_loop_per_sec).
# The floor used to divide by the bare sim::Engine chain rate, but work on
# the event path speeds the engine up along with the runs, so that ratio
# could not rise; the loop runs no simulator code.  Over 14 interleaved
# full runs on a shared 4-core host the ratio read 0.026-0.045 (median
# 0.038) with request ids and 0.022-0.037 (median 0.035) at the shared_ptr
# handles before them.  The old 0.10 engine floor sat at 0.83 of its lowest
# quiet reading; 0.020 sits at 0.76 of this one's, a little lower because
# the 0.19 s serial sweep spreads wider than the engine ratio did.
RUN_HOST_MIN_RATIO = 0.020
# Records from -O0 or sanitized builds (optimized_build false) slow the
# simulator tens of times more than the register-only loop (asan-ubsan:
# 0.0035 per loop iteration), so they keep the old reference: serial sweep
# events/s over the bare sim::Engine chain, which slows with them (0.35
# there), against the old 0.10 floor.
RUN_ENGINE_MIN_RATIO = 0.10
FLEET_SCALING_TOLERANCE = 0.15


def check_sweep(doc):
    require(isinstance(doc.get("space"), str), "space missing")
    quick = bool(doc.get("quick", False))

    configs = doc.get("configs")
    require(isinstance(configs, list) and len(configs) >= 4,
            "need >= 4 configs (serial, parallel, select-exhaustive, "
            "pruned)")
    for c in configs:
        for key in ("mode", "threads", "points", "events",
                    "wall_seconds", "points_per_sec", "events_per_sec"):
            require(key in c, f"configs[].{key} missing")
        require(c["points"] > 0 and c["events"] > 0, "empty measurement")
        require(c["wall_seconds"] > 0, "non-positive wall time")
    modes = {c["mode"] for c in configs}
    for mode in ("serial", "parallel", "select-exhaustive", "pruned"):
        require(mode in modes, f"config mode {mode!r} missing")
    for key in ("engine_events_per_sec", "host_loop_per_sec"):
        require(isinstance(doc.get(key), (int, float)) and doc[key] > 0,
                f"{key} missing")
    require(isinstance(doc.get("optimized_build"), bool),
            "optimized_build missing")
    serial = next(c for c in configs if c["mode"] == "serial")
    run_host_ratio = serial["events_per_sec"] / doc["host_loop_per_sec"]
    run_engine_ratio = serial["events_per_sec"] / doc["engine_events_per_sec"]
    if not quick and doc["optimized_build"]:
        require(run_host_ratio >= RUN_HOST_MIN_RATIO,
                f"serial sweep runs at {run_host_ratio:.4f} events per host "
                f"loop iteration, below the {RUN_HOST_MIN_RATIO} floor")
    elif not quick:
        require(run_engine_ratio >= RUN_ENGINE_MIN_RATIO,
                f"unoptimized build: serial sweep runs at "
                f"{run_engine_ratio:.3f} of the bare engine's events/s, "
                f"below the {RUN_ENGINE_MIN_RATIO} floor")

    prune = doc.get("prune")
    require(isinstance(prune, dict), "prune missing")
    for key in ("slack", "simulated_runs", "total_runs", "speedup",
                "verdict_identical", "V_overlap", "V_nonoverlap",
                "V_analytic_overlap", "V_analytic_nonoverlap"):
        require(key in prune, f"prune.{key} missing")
    require(prune["slack"] >= 1.0, "prune slack below 1 cannot be certified")
    require(prune["verdict_identical"] is True,
            "pruned recommendation diverged from exhaustive")
    require(0 < prune["simulated_runs"] <= prune["total_runs"],
            "prune run counts inconsistent")
    if not quick:
        require(prune["simulated_runs"] < prune["total_runs"],
                "full-mode prune simulated every run (no pruning happened)")
        require(prune["speedup"] >= PRUNE_MIN_SPEEDUP,
                f"pruned selection speedup {prune['speedup']:.2f}x below "
                f"the {PRUNE_MIN_SPEEDUP:.0f}x floor")

    require(isinstance(doc.get("V_opt_overlap"), int), "V_opt_overlap missing")
    require(isinstance(doc.get("V_opt_nonoverlap"), int), "V_opt_nonoverlap missing")
    check_report(doc.get("overlap"), "overlap")
    check_report(doc.get("nonoverlap"), "nonoverlap")

    counters = doc.get("counters")
    require(isinstance(counters, dict), "counters missing")
    require(counters.get("run.runs", 0) >= 2, "expected >= 2 instrumented runs")
    require(counters.get("engine.events", 0) > 0, "engine.events missing")

    print("BENCH_sweep.json schema OK:",
          f"{len(configs)} configs,",
          f"prune {prune['speedup']:.1f}x"
          f" ({prune['simulated_runs']}/{prune['total_runs']} runs),",
          f"run events per host loop iteration {run_host_ratio:.4f},",
          f"{len(doc['overlap']['ranks'])} ranks,",
          f"{len(counters)} counters")


def check_svc_load(doc):
    for key in ("address", "workers", "queue_capacity", "client_threads",
                "wall_seconds", "requests", "responses", "unanswered",
                "ok", "overloaded", "throughput_rps", "latency_p50_ms",
                "latency_p99_ms", "shed_rate", "cache_hit_rate", "server"):
        require(key in doc, f"{key} missing")
    require(doc["wall_seconds"] > 0, "non-positive wall time")
    require(doc["requests"] > 0, "empty measurement")
    # The service's core contract: every request sent was answered.
    require(doc["unanswered"] == 0, "requests went unanswered")
    require(doc["responses"] == doc["requests"], "responses != requests")
    require(doc["ok"] + doc["overloaded"] == doc["responses"],
            "ok + overloaded != responses")
    require(doc["throughput_rps"] > 0, "non-positive throughput")
    require(0 <= doc["latency_p50_ms"] <= doc["latency_p99_ms"],
            "latency percentiles out of order")
    require(0.0 <= doc["shed_rate"] <= 1.0, "shed_rate out of [0, 1]")
    require(0.0 <= doc["cache_hit_rate"] <= 1.0,
            "cache_hit_rate out of [0, 1]")

    srv = doc["server"]
    require(isinstance(srv, dict), "server must be an object")
    for key in ("connections", "requests", "completed", "shed", "timed_out",
                "failed", "rejected", "batched", "compiles", "cache_hits",
                "cache_misses", "max_queue_depth"):
        require(key in srv, f"server.{key} missing")
    # Outcome accounting: every server-side request is answered exactly once
    # (quota_denied joined the vocabulary with the admission-quota tier;
    # absent in records from benches that run without quotas).
    require(srv["requests"] == srv["completed"] + srv["shed"] +
            srv["timed_out"] + srv["failed"] + srv["rejected"] +
            srv.get("quota_denied", 0),
            "server outcome counters do not sum to requests")
    require(srv["compiles"] >= 1, "no compiles executed")
    require(srv["cache_hits"] + srv["cache_misses"] >= srv["compiles"],
            "cache counters inconsistent with compiles")

    print("BENCH_svc.json schema OK:",
          f"{doc['responses']} responses,",
          f"{doc['throughput_rps']:.0f} req/s,",
          f"{100.0 * doc['cache_hit_rate']:.1f}% cache hits")


# Rehydrated serving is the same in-memory read path as warm serving (one
# map lookup instead of a plan-cache hit), so a healthy rehydrated tier
# lands near warm throughput; the floor leaves slack for noisy hosts.
STORE_REHYDRATED_MIN_RATIO = 0.5


def check_store(doc):
    for key in ("quick", "replicas", "keys", "byte_identical", "warm",
                "rehydrated"):
        require(key in doc, f"{key} missing")
    require(doc["replicas"] >= 2, "a replicated tier needs >= 2 replicas")
    require(doc["keys"] >= 1, "no keys measured")
    # The content-addressed contract: every replica answered every key
    # with byte-identical result bytes.
    require(doc["byte_identical"] is True,
            "replicas disagreed on result bytes")
    for name in ("warm", "rehydrated"):
        phase = doc[name]
        require(isinstance(phase, dict), f"{name} must be an object")
        for key in ("seconds", "requests", "throughput_rps", "compiles"):
            require(key in phase, f"{name}.{key} missing")
        require(phase["seconds"] > 0, f"{name} measured no time")
        require(phase["requests"] > 0, f"{name} measured no requests")
        require(phase["throughput_rps"] > 0, f"{name} throughput not positive")
    re = doc["rehydrated"]
    for key in ("store_hits", "rehydrated_records"):
        require(key in re, f"rehydrated.{key} missing")
    # A restarted replica serves warm keys from the rehydrated store: zero
    # compiles, every request a store hit, every key recovered from disk.
    require(re["compiles"] == 0, "the rehydrated tier recompiled")
    require(re["store_hits"] >= re["requests"],
            "rehydrated requests were not served from the store")
    require(re["rehydrated_records"] >= doc["keys"] * doc["replicas"],
            "replicas rehydrated fewer records than they stored")
    if not doc.get("quick", False):
        ratio = re["throughput_rps"] / doc["warm"]["throughput_rps"]
        require(ratio >= STORE_REHYDRATED_MIN_RATIO,
                f"rehydrated throughput ratio {ratio:.2f} below "
                f"{STORE_REHYDRATED_MIN_RATIO}")

    print("BENCH_store.json schema OK:",
          f"{doc['replicas']} replicas, {doc['keys']} keys,",
          f"warm {doc['warm']['throughput_rps']:.0f} req/s,",
          f"rehydrated {re['throughput_rps']:.0f} req/s,",
          "byte-identical")


def check_fleet_scale(doc):
    for key in ("units", "heights", "single_node_seconds", "determinism_ok",
                "scaling", "kill"):
        require(key in doc, f"{key} missing")
    quick = bool(doc.get("quick", False))
    require(doc["units"] > 0, "empty unit plan")
    require(doc["single_node_seconds"] > 0, "non-positive single-node time")
    # Determinism is the fleet's core contract: every merged document must
    # be byte-identical to the single-node sweep.
    require(doc["determinism_ok"] is True, "fleet merge diverged")

    scaling = doc["scaling"]
    require(isinstance(scaling, list) and len(scaling) >= 4,
            "need >= 4 scaling points (1, 2, 4, 8 workers)")
    for p in scaling:
        for key in ("workers", "wall_seconds", "units_per_sec", "identical"):
            require(key in p, f"scaling[].{key} missing")
        require(p["workers"] >= 1, "non-positive worker count")
        require(p["wall_seconds"] > 0, "non-positive wall time")
        require(p["identical"] is True,
                f"merge diverged at {p['workers']} worker(s)")
    workers = [p["workers"] for p in scaling]
    require(workers == sorted(workers), "scaling points out of order")
    if not quick:
        # Tolerance-monotonic throughput: adding workers must never cost
        # more than FLEET_SCALING_TOLERANCE of the best seen so far.
        best = 0.0
        for p in scaling:
            floor = (1.0 - FLEET_SCALING_TOLERANCE) * best
            require(p["units_per_sec"] >= floor,
                    f"units/s regressed at {p['workers']} worker(s): "
                    f"{p['units_per_sec']:.1f} < {floor:.1f} "
                    f"(best so far {best:.1f})")
            best = max(best, p["units_per_sec"])

    kill = doc["kill"]
    require(isinstance(kill, dict), "kill must be an object")
    for key in ("units", "completed", "requeued", "speculated", "evicted",
                "duplicates", "recovery_seconds", "identical"):
        require(key in kill, f"kill.{key} missing")
    # Exactly-once under SIGKILL: no unit lost, no unit double-counted.
    require(kill["completed"] == kill["units"], "kill run lost units")
    require(kill["requeued"] + kill["speculated"] >= 1,
            "the victim's leases were never recovered")
    require(kill["recovery_seconds"] > 0, "non-positive recovery time")
    require(kill["identical"] is True, "kill-run merge diverged")

    print("BENCH_fleet.json schema OK:",
          f"{doc['units']} units,",
          f"{len(scaling)} scaling points,",
          f"{kill['recovery_seconds']:.2f}s kill recovery")


def check_model(doc):
    """BENCH_model.json: every mach::Model swept over one shared V grid.

    The hard contract (quick mode included): the beta = 1 interference
    curve is bit-for-bit the ideal curve — the machine-model redesign's
    backward-compatibility guarantee — and imperfect overlap (beta < 1)
    never shrinks the tuned V_optimal.
    """
    require(isinstance(doc.get("space"), str), "space missing")
    grid = doc.get("grid")
    require(isinstance(grid, list) and len(grid) >= 5,
            "need a >= 5 point V grid")
    require(grid == sorted(grid) and grid[0] >= 1, "V grid not ascending")

    models = doc.get("models")
    require(isinstance(models, list) and len(models) >= 4,
            "need >= 4 model records")
    by_name = {}
    for m in models:
        for key in ("model", "kind", "V_opt", "t_opt", "curve"):
            require(key in m, f"models[].{key} missing")
        require(isinstance(m["curve"], list) and
                len(m["curve"]) == len(grid),
                f"model {m['model']!r} curve length != grid length")
        require(all(isinstance(t, (int, float)) and t > 0
                    for t in m["curve"]),
                f"model {m['model']!r} has non-positive completion times")
        require(m["V_opt"] in grid, f"model {m['model']!r} V_opt off-grid")
        require(min(m["curve"]) == m["t_opt"],
                f"model {m['model']!r} t_opt is not the curve minimum")
        by_name[m["model"]] = m
    for name in ("ideal", "interference-beta1", "interference-beta0.7"):
        require(name in by_name, f"model record {name!r} missing")

    # The deprecation contract: beta = 1 degenerates to the ideal model
    # exactly — %.17g round-trips doubles, so == here is bit-for-bit.
    require(by_name["interference-beta1"]["curve"] ==
            by_name["ideal"]["curve"],
            "beta=1 interference curve diverged from the ideal curve")
    require(doc.get("ideal_identical") is True,
            "bench-side bit-identity check failed")
    # Direction: imperfect overlap favors taller tiles, never shorter.
    require(by_name["interference-beta0.7"]["V_opt"] >=
            by_name["ideal"]["V_opt"],
            "beta<1 shrank V_opt (wrong direction)")
    require(doc.get("beta_direction_ok") is True,
            "bench-side direction check failed")

    print("BENCH_model.json schema OK:",
          f"{len(models)} models over {len(grid)} heights,",
          "beta=1 bit-identical to ideal")


def check_dag(doc):
    """BENCH_dag.json: tile-DAG makespans vs the ALAP lower bound.

    The hard contract (quick mode included): achieved_makespan >=
    alap_lower_bound for every configuration — a sub-1.0 ratio means the
    bound or the scheduler is wrong, never that the schedule is fast —
    plus run-to-run byte determinism and at least one configuration
    within 1.25x of its bound (one rank meets ceil(work/1) exactly).
    """
    require(doc.get("generator") == "cholesky", "generator missing")
    require(isinstance(doc.get("tile_side"), int) and doc["tile_side"] >= 1,
            "tile_side missing")

    configs = doc.get("configs")
    require(isinstance(configs, list) and len(configs) >= 3,
            "need >= 3 DAG configs")
    min_ratio = None
    for c in configs:
        for key in ("nt", "ranks", "tasks", "edges", "critical_path_ns",
                    "work_bound_ns", "alap_lower_bound_ns",
                    "achieved_makespan_ns", "bound_ratio", "deterministic"):
            require(key in c, f"configs[].{key} missing")
        tag = f"nt={c['nt']} ranks={c['ranks']}"
        require(c["ranks"] >= 1 and c["tasks"] >= 1 and c["edges"] >= 1,
                f"{tag}: empty DAG")
        require(c["alap_lower_bound_ns"] >=
                max(c["critical_path_ns"], c["work_bound_ns"]),
                f"{tag}: bound below its own components")
        # The soundness contract: a lower bound may never exceed what a
        # real schedule achieved.
        require(c["achieved_makespan_ns"] >= c["alap_lower_bound_ns"],
                f"{tag}: achieved makespan {c['achieved_makespan_ns']} ns "
                f"below the ALAP lower bound {c['alap_lower_bound_ns']} ns "
                "(sub-1.0 ratio = correctness bug)")
        ratio = c["achieved_makespan_ns"] / c["alap_lower_bound_ns"]
        require(abs(ratio - c["bound_ratio"]) < 1e-9,
                f"{tag}: recorded bound_ratio disagrees with the ns fields")
        require(c["deterministic"] is True, f"{tag}: reruns diverged")
        min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
    ranks = {c["ranks"] for c in configs}
    require(1 in ranks, "need a 1-rank config (its ratio is exactly 1.0)")
    require(len(ranks) >= 2, "need >= 2 distinct rank counts")

    require(doc.get("bound_respected") is True,
            "bench-side soundness check failed")
    require(doc.get("deterministic") is True,
            "bench-side determinism check failed")
    require(isinstance(doc.get("min_bound_ratio"), (int, float)) and
            abs(doc["min_bound_ratio"] - min_ratio) < 1e-9,
            "min_bound_ratio disagrees with the configs")
    require(min_ratio <= 1.25,
            f"no config within 1.25x of its ALAP bound "
            f"(best ratio {min_ratio:.3f})")

    print("BENCH_dag.json schema OK:",
          f"{len(configs)} configs over ranks {sorted(ranks)},",
          f"best achieved/bound ratio {min_ratio:.3f}")


FAIRNESS_MIN_JAIN = 0.85


def check_sched(doc):
    """BENCH_sched.json: tenant-mix fairness + preemption latency.

    The hard contract (quick mode included — the mix phase runs on a
    synthetic clock, so it is deterministic): Jain's index over
    share-normalized service >= FAIRNESS_MIN_JAIN for every fair mix, no
    tenant starves inside a fair window, the fair flood beats the fifo
    flood, and every preemption iteration requeued its victim and
    delivered the drop notice.  Only the latency percentiles are
    wall-clock, and their ordering (p50 <= p99) must still hold.
    """
    mixes = doc.get("mixes")
    require(isinstance(mixes, list) and len(mixes) >= 4,
            "need >= 4 tenant mixes")
    by_name = {}
    for m in mixes:
        for key in ("name", "policy", "window_units", "tenants", "jain"):
            require(key in m, f"mixes[].{key} missing")
        require(0.0 <= m["jain"] <= 1.0 + 1e-9,
                f"mix {m['name']!r} Jain index out of [0, 1]")
        require(isinstance(m["tenants"], list) and m["tenants"],
                f"mix {m['name']!r} has no tenants")
        total = 0
        for t in m["tenants"]:
            for key in ("name", "share", "completed", "normalized"):
                require(key in t, f"mix {m['name']!r} tenants[].{key} missing")
            require(t["share"] > 0, f"mix {m['name']!r} non-positive share")
            total += t["completed"]
        require(total == m["window_units"],
                f"mix {m['name']!r} tenant completions do not sum to the "
                "window")
        by_name[m["name"]] = m
    for name in ("uniform-fair", "flood-fifo", "flood-fair",
                 "weighted-fair"):
        require(name in by_name, f"mix record {name!r} missing")

    for m in mixes:
        if m["policy"] != "fair":
            continue
        require(m["jain"] >= FAIRNESS_MIN_JAIN,
                f"fair mix {m['name']!r} Jain {m['jain']:.3f} below the "
                f"{FAIRNESS_MIN_JAIN} floor")
        for t in m["tenants"]:
            require(t["completed"] >= 1,
                    f"fair mix {m['name']!r} starved tenant {t['name']!r}")
    # The contrast the flood mix exists for: fifo lets the flood own the
    # window, fair does not.
    require(by_name["flood-fair"]["jain"] > by_name["flood-fifo"]["jain"],
            "fair did not beat fifo on the flood mix")

    pre = doc.get("preemption")
    require(isinstance(pre, dict), "preemption missing")
    for key in ("samples", "p50_ns", "p99_ns", "preempted",
                "drops_delivered"):
        require(key in pre, f"preemption.{key} missing")
    require(pre["samples"] >= 10, "need >= 10 preemption samples")
    require(0 < pre["p50_ns"] <= pre["p99_ns"],
            "preemption percentiles out of order")
    # Exactly-once: every iteration preempted its one victim lease and
    # the drop notice reached the holder.
    require(pre["preempted"] >= pre["samples"],
            "an iteration lost its preemption")
    require(pre["drops_delivered"] is True,
            "a drop notice was never delivered")
    require(doc.get("fairness_ok") is True,
            "bench-side fairness check failed")

    print("BENCH_sched.json schema OK:",
          f"{len(mixes)} mixes,",
          f"flood fair/fifo Jain {by_name['flood-fair']['jain']:.3f}/"
          f"{by_name['flood-fifo']['jain']:.3f},",
          f"preempt p99 {pre['p99_ns'] / 1e3:.0f} us")


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_bench.py FILE")
    path = sys.argv[1]
    if not os.path.exists(path):
        print(f"error: {path} does not exist.\n"
              "Generate it first, e.g.:\n"
              "  ./build/bench/bench_sweep_throughput --json\n"
              "  ./build/bench/bench_svc_load --json",
              file=sys.stderr)
        sys.exit(1)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(str(e))

    kind = doc.get("bench")
    if kind == "sweep_throughput":
        check_sweep(doc)
    elif kind == "svc_load":
        check_svc_load(doc)
    elif kind == "fleet_scale":
        check_fleet_scale(doc)
    elif kind == "model":
        check_model(doc)
    elif kind == "dag":
        check_dag(doc)
    elif kind == "sched":
        check_sched(doc)
    elif kind == "store":
        check_store(doc)
    else:
        fail(f"unknown bench kind {kind!r} "
             "(expected sweep_throughput, svc_load, fleet_scale, model, "
             "dag, sched or store)")


if __name__ == "__main__":
    main()
