"""Smoke tests of the benchmark at tiny scale factors.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.measure import PER_LAYER, layer_metrics, self_seconds
from perfbench.workloads import END_TO_END, WORKLOADS, run_workload

ROOT = Path(__file__).resolve().parents[2]
TINY_SF = 0.003


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload to a tiny scale factor, one unit per run
    and the minimum number of set-ups."""
    for cls in WORKLOADS.values():
        monkeypatch.setattr(cls, "scale_factor", TINY_SF)
        monkeypatch.setattr(cls, "min_units", 1)
    monkeypatch.setattr(workloads, "SETUP_SECONDS", 0.0)


def _tiny(name, seed=1, trace=False):
    return run_workload(name, seed, seconds=0.5, trace=trace)


def _assert_complete(result, expected):
    assert set(result.metrics) == set(expected)
    for name, unit in expected.items():
        assert result.units[name] == unit
        assert math.isfinite(result.metrics[name]), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_emitted(name):
    result = _tiny(name)
    _assert_complete(result, END_TO_END)
    assert result.failed == 0, result.failures
    assert result.attempted > 0
    assert all(result.metrics[m] > 0 for m in END_TO_END)


#: per workload: layer metrics it must load (nonzero) and bypass (zero)
LAYERS = {
    "tpch-sf0.1-serial": (
        ("execution.execute_ms_total", "planner.lower_ms_total", "schemes.bdcc.build_s"),
        ("parallel.fragment_ms_total", "updates.commit_ms_p50", "planner.plan_cache_hit_ratio"),
    ),
    "tpch-sf0.02-process2": (
        ("backend.execute_ms_p50", "backend.worker_busy_ratio", "parallel.fragment_ms_total"),
        ("schemes.plain.build_s", "updates.commit_ms_p50"),
    ),
    "refresh-mix-sf0.01": (
        ("updates.commit_ms_p50", "tpch.refresh_gen_ms_total", "planner.plan_cache_lookups"),
        ("parallel.fragment_ms_total", "backend.execute_ms_p50"),
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_per_layer_metric_is_emitted_and_rereadable(name):
    result = _tiny(name, trace=True)
    _assert_complete(result, PER_LAYER)
    assert result.failed == 0, result.failures
    loads, bypasses = LAYERS[name]
    assert all(result.metrics[m] > 0 for m in loads)
    assert all(result.metrics[m] == 0 for m in bypasses)
    # the artifact alone reproduces every per-layer figure
    reloaded = json.loads(json.dumps(result.artifact))
    assert layer_metrics(reloaded) == result.metrics


def test_a_second_seed_runs_clean():
    for name in sorted(WORKLOADS):
        result = _tiny(name, seed=2)
        assert result.failed == 0, (name, result.failures)


def test_injected_wrong_result_fails_the_run(monkeypatch, capsys):
    calls = {"n": 0}
    honest = workloads.result_rows

    def every_other_result_gains_a_row(relation):
        calls["n"] += 1
        rows = honest(relation)
        return rows + [("bogus",)] if calls["n"] % 2 else rows

    monkeypatch.setattr(workloads, "result_rows", every_other_result_gains_a_row)
    result = _tiny("tpch-sf0.1-serial")
    assert result.failed > 0
    assert result.extras["failed_ratio"] > 0

    status = run.main(["--workload", "tpch-sf0.1-serial", "--seed", "1", "--seconds", "0.5"])
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert status == 1
    assert summary["correct"] is False and summary["failed"] > 0


def test_process_workload_leaves_no_process_behind(capsys):
    status = run.main(["--workload", "tpch-sf0.02-process2", "--seed", "1", "--seconds", "0.5"])
    assert status == 0, capsys.readouterr().out
    from multiprocessing import resource_tracker

    assert resource_tracker._resource_tracker._pid is None
    # every child this process started has ended and been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sim_speedup_matches_run_suite():
    from repro import tpch
    from repro.tpch.environment import make_environment
    from repro.tpch.harness import build_schemes, run_suite

    seed = 5
    result = _tiny("tpch-sf0.1-serial", seed=seed)
    env = make_environment(TINY_SF)
    suite = run_suite(build_schemes(tpch.generate(TINY_SF, seed=seed), env), env)
    assert result.extras["sim_bdcc_speedup"] == suite.speedup("plain", "bdcc")


def test_self_time_subtracts_covered_child_time():
    def node(start, end, *children):
        return {"start_seconds": start, "end_seconds": end, "clock": "wall",
                "children": list(children)}

    parent = node(0.0, 10.0, node(1.0, 3.0), node(2.0, 4.0), node(8.0, 12.0))
    assert self_seconds(parent) == pytest.approx(10.0 - 3.0 - 2.0)


def test_tree_without_engine_sources_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refresh-mix-sf0.01",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
