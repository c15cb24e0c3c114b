"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

The traced-run tests run every workload once per seed and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import run
import spans

COUNT_UNITS = ("count", "ratio")


def _span(name, start, end, parent, work=0):
    return (0, name, start, end, parent, work)


def test_self_time_of_nested_spans():
    trace = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("graphs.enumerate_trees", 1.0, 4.0, 0, work=2),
        _span("graphs.canonical_form", 2.0, 3.0, 1),
        _span("analysis.is_scarf", 5.0, 9.0, 0),
        _span("complexes.lcm_lattice", 5.0, 5.5, 3, work=7),
        _span("complexes.restrict", 6.0, 6.5, 3),
        _span("complexes.restrict", 7.0, 7.25, 3),
        _span("graphs.canonical_form", 9.5, 9.75, 0),
    ]
    totals = spans.aggregate(trace)
    assert totals["cli.main.self_s"] == pytest.approx(10 - 3 - 4 - 0.25)
    assert totals["graphs.enumerate_trees.self_s"] == pytest.approx(2.0)
    assert totals["graphs.canonical_form.self_s"] == pytest.approx(1.25)
    assert totals["graphs.canonical_form.calls"] == 2
    assert totals["analysis.is_scarf.self_s"] == pytest.approx(4 - 0.5 - 0.5 - 0.25)
    assert totals["complexes.restrict.calls"] == 2
    assert totals["complexes.lcm_lattice.points"] == 7
    self_total = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(10.0)
    # only the canonical_form call made by the enumeration is a candidate
    assert totals["graphs.enumerate.candidates"] == 1
    assert totals["graphs.enumerate.classes"] == 2
    assert totals["analysis.is_scarf.scanned_restricts"] == 2
    assert totals["analysis.is_scarf.scanned_points"] == 7


def test_probe_speed_is_the_time_mean_of_sample_speeds():
    probe = child.SpeedProbe()
    assert probe.speed() == 1.0
    probe.durations = [child.PROBE_REF_S, child.PROBE_REF_S / 2, child.PROBE_REF_S * 2]
    assert probe.speed() == pytest.approx((1 + 2 + 0.5) / 3)


def test_metric_declarations_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.load_workloads())


CHEAP_OP = ["ideal", "--graph", "path:4", "--spec", "connected:3"]


def test_corrupted_digest_counts_as_failed(monkeypatch):
    good = run.run_op({"argv": CHEAP_OP, "exit": 0, "sha256": ""}, 0, False)
    pinned = {"argv": CHEAP_OP, "exit": 0, "sha256": good["sha256"]}
    assert run.run_op(pinned, 0, False)["ok"]
    corrupted = dict(pinned, sha256="0" * 64)
    assert not run.run_op(corrupted, 0, False)["ok"]
    assert not run.run_op(dict(pinned, exit=1), 0, False)["ok"]
    monkeypatch.setattr(run, "load_workloads",
                        lambda: {"tiny": {"items": 1, "ops": [pinned, corrupted]}})
    for trace in (False, True):
        result, facts = run.run_workload("tiny", 1, 0, trace)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] // 2 > 0
        assert any("sha256" in reason for reason in facts["failures"])


@pytest.mark.parametrize("workload", list(run.load_workloads()))
def test_traced_and_untraced_digests_identical(workload):
    op = run.load_workloads()[workload]["ops"][0]
    untraced = run.run_op(op, 0, False)
    traced = run.run_op(op, 0, True)
    assert untraced["ok"] and traced["ok"]
    assert untraced["sha256"] == traced["sha256"] == op["sha256"]


@pytest.mark.parametrize("workload", list(run.load_workloads()))
def test_traced_counts_repeat_across_runs_and_seeds(workload):
    runs = [run.run_workload(workload, seed, 0, True)[0] for seed in (1, 2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(metrics) == set(run.PER_LAYER)
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
        assert metrics["cli.main.self_s"] > 0
        if workload != "sweep-n6":
            assert metrics["graphs.enumerate_connected.calls"] == 0
        if workload == "scarf-spider":
            assert metrics["graphs.canonical_form.calls"] == 0
            assert metrics["analysis.is_scarf.scan_ratio"] == 1.0
    counts = [
        {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}
        for result in runs
    ]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derive-trees", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
