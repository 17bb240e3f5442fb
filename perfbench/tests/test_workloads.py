"""Each workload runs, checks its outputs and traces its layers, also
after the layers that the roadmap plans to delete are gone."""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]

#: Public names the one-plan-cache and one-dispatch-engine changes may
#: delete.  The benchmark must neither call them nor need their spans.
OPTIONAL = [
    ("repro.core", "TableCache"),
    ("repro.core", "PlanStore"),
    ("repro.core", "CensusDelta"),
    ("repro.core", "rebind_plan"),
    ("repro.core.cache", "TableCache"),
    ("repro.sim", "ArrayTracer"),
    ("repro.sim", "ArrayMachine"),
]


def small(cls, tmp_path, seed=7):
    """``cls`` shrunk to a few seconds of work."""
    workload = cls(seed, tmp_path)
    workload.sim_seconds = 120.0
    workload.census_max = 52
    return workload


@pytest.fixture
def shrunk(monkeypatch):
    monkeypatch.setattr(workloads.Fig6Campaign, "duration_s", 0.05)


@pytest.fixture
def without_optional(monkeypatch):
    for module, attr in OPTIONAL:
        owner = importlib.import_module(module)
        if hasattr(owner, attr):
            monkeypatch.delattr(owner, attr)


def run(workload, tracer, reps=2):
    if tracer is not None:
        layers.instrument(tracer)
    try:
        for index in range(reps):
            workload.rep(index, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    return workload.finish()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_is_correct(name, tmp_path, shrunk):
    report = run(small(workloads.WORKLOADS[name], tmp_path), None)
    assert report.mismatches == []
    assert set(report.metrics) == {"ops_per_s", "op_ms_p50"}
    assert all(value > 0 for value, _unit in report.metrics.values())
    assert report.attempted >= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_without_optional_layers(name, tmp_path, shrunk, without_optional):
    tracer = Tracer()
    report = run(small(workloads.WORKLOADS[name], tmp_path), tracer)
    assert report.mismatches == []
    assert "core.table_cache" in tracer.absent
    values = layers.layer_metrics(tracer, 2, report.work_s, report.work_s)
    assert set(values) == set(layers.PER_LAYER_UNITS)
    assert values["core.table_cache.calls"] == 0
    assert values["trace.overhead_ratio"] == pytest.approx(1.0)


def test_instrumentation_is_undone(tmp_path, shrunk):
    daemon = importlib.import_module("repro.xen.daemon").PlannerDaemon
    before = daemon.replan
    run(small(workloads.Fig3Mixed, tmp_path), Tracer(), reps=1)
    assert daemon.replan is before


def test_mismatching_census_is_reported(tmp_path, shrunk, monkeypatch):
    monkeypatch.setattr(workloads, "tables_match", lambda staged, planned: False)
    report = run(small(workloads.Fig3Mixed, tmp_path), None, reps=1)
    assert any("staged table differs" in m for m in report.mismatches)


def test_workloads_avoid_entry_points_the_roadmap_removes():
    source = inspect.getsource(workloads)
    for name in ("engine=", "CensusDelta", "ArrayTracer", "TableCache", "PlanStore"):
        assert name not in source


def test_fig3_counts_failures_by_goal(tmp_path, shrunk):
    workload = small(workloads.Fig3Mixed, tmp_path)
    workload.census_max = 176
    tracer = Tracer()
    report = run(workload, tracer, reps=1)
    assert report.failed == sum(workload.failures_by_goal.values())
    assert tracer.counters.get("core.plan.fail.L1", 0) == workload.failures_by_goal[1]


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_runner_prints_every_end_to_end_metric():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_benchmark_json_declares_every_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.PER_LAYER_UNITS
