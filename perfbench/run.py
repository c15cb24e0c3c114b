#!/usr/bin/env python3
"""scarflab benchmark: closed-loop CLI workloads, one fresh interpreter per operation.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-n6 --seed 1 --seconds 30 --trace 0

A workload is a fixed list of `scarflab` CLI invocations (perfbench/workloads.json).
One client runs one operation at a time; each operation is a new interpreter
(child.py), so every call pays cold caches as a CLI user does.  A pass runs
every operation once, in an order drawn from --seed; passes repeat until
--seconds have elapsed (at least one pass).  Every operation's exit code and
stdout sha256 are checked against the values pinned in workloads.json.

--trace 0 reports the end-to-end metrics as medians over passes; their times
are net of child.py's speed probe and scaled to its reference speed.
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of the median traced pass, plus the tracing overhead.

Stdout: one JSON line with the run's facts (seed, pass orders, machine,
failures), then, as the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
OP_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Most are read from a traced pass's totals (spans.aggregate); layer_metrics
# derives the ratios, other.self_s and the trace.* values.
PER_LAYER = {
    "graphs.enumerate_connected.calls": "count",
    "graphs.enumerate_connected.self_s": "s",
    "graphs.enumerate_trees.calls": "count",
    "graphs.enumerate_trees.self_s": "s",
    "graphs.enumerate.candidates_per_class": "ratio",
    "graphs.canonical_form.calls": "count",
    "graphs.canonical_form.self_s": "s",
    "graphs.contains.calls": "count",
    "graphs.contains.self_s": "s",
    "ideals.build_ideal.calls": "count",
    "ideals.build_ideal.self_s": "s",
    "ideals.build_ideal.generators": "count",
    "complexes.scarf_complex.calls": "count",
    "complexes.scarf_complex.self_s": "s",
    "complexes.scarf_complex.faces": "count",
    "complexes.lcm_lattice.calls": "count",
    "complexes.lcm_lattice.self_s": "s",
    "complexes.lcm_lattice.points": "count",
    "complexes.restrict.calls": "count",
    "complexes.restrict.self_s": "s",
    "homology.boundary_matrix.calls": "count",
    "homology.boundary_matrix.self_s": "s",
    **{
        f"homology.matrix_rank.{field}.{key}": unit
        for field in spans.RANK_FIELDS
        for key, unit in (("calls", "count"), ("self_s", "s"), ("entries", "count"))
    },
    "homology.reduced_betti.calls": "count",
    "homology.reduced_betti.self_s": "s",
    "homology.reduced_betti.acyclic_ratio": "ratio",
    "analysis.is_scarf.calls": "count",
    "analysis.is_scarf.self_s": "s",
    "analysis.is_scarf.scan_ratio": "ratio",
    "analysis.sweep.self_s": "s",
    "analysis.derive_obstructions.self_s": "s",
    "cli.main.self_s": "s",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Span names; their self times partition every traced cli.main call.
SELF_TIMED = tuple(
    key[: -len(".self_s")] for key in PER_LAYER
    if key.endswith(".self_s") and key != "other.self_s"
)


def load_workloads() -> dict:
    with open(os.path.join(BENCH_DIR, "workloads.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_op(op: dict, op_id: int, traced: bool) -> dict:
    """Run one operation in a fresh interpreter and check its exit code and stdout."""
    command = [sys.executable, "-I", CHILD, ROOT, str(int(traced)), str(op_id),
               json.dumps(op["argv"])]
    spawned = _now()
    try:
        proc = subprocess.run(command, capture_output=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"op {op_id}: timed out after {OP_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"ok": False, "reason": f"op {op_id}: interpreter exited {proc.returncode}"}
    try:
        record = json.loads(proc.stderr.splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "reason": f"op {op_id}: no record on stderr"}
    digest = hashlib.sha256(proc.stdout).hexdigest()
    reason = None
    if record["error"] is not None:
        reason = f"op {op_id}: raised {record['error']}"
    elif record["exit"] != op["exit"]:
        reason = f"op {op_id}: exit {record['exit']}, pinned {op['exit']}"
    elif digest != op["sha256"]:
        reason = f"op {op_id}: stdout sha256 {digest}, pinned {op['sha256']}"
    # Net of the speed probe's own time; *_s are scaled to the probe's
    # reference speed, raw_main_s is not.
    raw_main = record["main_s"] - record["probe_main_s"]
    return {
        "ok": reason is None,
        "reason": reason,
        "sha256": digest,
        "setup_s": (record["ready"] - spawned - record["probe_setup_s"]) * record["speed"],
        "main_s": raw_main * record["speed"],
        "raw_main_s": raw_main,
        "speed": record["speed"],
        "wall_s": record["end"] - spawned,
        "rss_mb": record["maxrss_kb"] / 1024,
        "layers": record["layers"],
    }


def _sum(results: list[dict], key: str) -> float:
    return sum(r.get(key, 0.0) for r in results)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_totals(results: list[dict]) -> dict:
    """Per-layer totals of one traced pass, summed over its operations."""
    totals: dict[str, float] = {}
    for result in results:
        for key, value in (result.get("layers") or {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def layer_metrics(totals: dict, trace_wall: float, overhead: float) -> dict[str, float]:
    """The PER_LAYER metrics of one traced pass."""
    names = {key.rsplit(".", 1)[0] for key in totals if key.endswith(".self_s")}
    unknown = names - set(SELF_TIMED)
    if unknown:
        raise ValueError(f"spans without a declared self_s metric: {sorted(unknown)}")
    values = {
        "graphs.enumerate.candidates_per_class": _ratio(
            totals.get("graphs.enumerate.candidates", 0), totals.get("graphs.enumerate.classes", 0)),
        "homology.reduced_betti.acyclic_ratio": _ratio(
            totals.get("homology.reduced_betti.acyclic", 0),
            totals.get("homology.reduced_betti.calls", 0)),
        "analysis.is_scarf.scan_ratio": _ratio(
            totals.get("analysis.is_scarf.scanned_restricts", 0),
            totals.get("analysis.is_scarf.scanned_points", 0)),
        "other.self_s": trace_wall - sum(totals.get(f"{n}.self_s", 0.0) for n in SELF_TIMED),
        "trace.wall_s": trace_wall,
        "trace.overhead_s": overhead,
    }
    return {name: values[name] if name in values else totals.get(name, 0) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run passes of one workload for `seconds`; return (result, facts)."""
    workload = load_workloads()[name]
    ops = workload["ops"]
    rng = random.Random(seed)
    # Untimed warm-up: writes the bytecode caches a user's installation would have.
    run_op({"argv": ["--help"], "exit": 0, "sha256": ""}, -1, trace)
    modes = (True, False) if trace else (False,)
    passes: dict[bool, list[list[dict]]] = {mode: [] for mode in modes}
    orders = []
    # Start another round of passes only while it should end within `seconds`.
    rounds: list[float] = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start + statistics.median(rounds) <= seconds:
        began = time.monotonic()
        for traced in modes:
            order = list(range(len(ops)))
            rng.shuffle(order)
            orders.append(order)
            passes[traced].append([run_op(ops[i], i, traced) for i in order])
        rounds.append(time.monotonic() - began)
    results = [r for runs in passes.values() for run in runs for r in run]
    failures = [r["reason"] for r in results if not r["ok"]]
    failed = len(failures)
    walls = [_sum(run, "main_s") for run in passes[False]]
    raw_walls = [_sum(run, "raw_main_s") for run in passes[False]]
    facts = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "orders": orders,
        "pass_wall_s": walls,
        "pass_raw_wall_s": raw_walls,
        "pass_speed": [_sum(run, "speed") / len(run) for run in passes[False]],
        "failures": failures,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }
    correct = not failures
    if trace:
        traced_runs = passes[True]
        totals = [pass_totals(run) for run in traced_runs]
        counts = [{k: v for k, v in t.items() if not k.endswith(".self_s")} for t in totals]
        if any(c != counts[0] for c in counts):
            correct = False
            failures.append("per-layer counts differ between traced passes")
        trace_walls = [_sum(run, "wall_s") for run in traced_runs]
        median_pass = trace_walls.index(statistics.median_low(trace_walls))
        overhead = (statistics.median(_sum(run, "main_s") for run in traced_runs)
                    - statistics.median(raw_walls))
        values = layer_metrics(totals[median_pass], trace_walls[median_pass], overhead)
        units = PER_LAYER
        facts["traced_pass_wall_s"] = trace_walls
    else:
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "items_per_s": workload["items"] / wall if wall else 0.0,
            "setup_s": statistics.median(_sum(run, "setup_s") for run in passes[False]),
            "peak_rss_mb": max((r.get("rss_mb", 0.0) for r in results), default=0.0),
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "scarflab", "cli.py")):
        print(f"error: no scarflab sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    result, facts = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
