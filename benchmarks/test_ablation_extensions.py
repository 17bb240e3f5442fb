"""Benchmarks for the paper's suggested extensions (Secs. 5, 7.1, 7.5).

Quantifies what each optional pass buys: the peephole pass's preemption
reduction, the per-core shape cache's reuse for tier-based clouds, and
the cost of split compensation.
"""

import pytest

from conftest import publish

import repro.core.edfcore as edfcore
from repro.core import MS, Planner, make_vm
from repro.topology import uniform, xeon_16core


def mixed_latency_vms():
    """Mixed latency goals -> mixed periods -> EDF preemptions to remove."""
    vms = []
    for i in range(4):
        vms.append(make_vm(f"tight{i}", 0.2, 2 * MS))
        vms.append(make_vm(f"loose{i}", 0.5, 100 * MS))
    return vms


def test_ablation_peephole_pass(benchmark):
    vms = mixed_latency_vms()

    def run():
        return Planner(uniform(4), peephole=True).plan(vms)

    result = benchmark(run)
    report = result.stats.peephole
    publish(
        "ablation_peephole",
        f"preemptions per table cycle: {report.preemptions_before} -> "
        f"{report.preemptions_after} ({report.swaps_applied} swaps applied, "
        f"{report.swaps_rejected} rejected by deadline validation)",
        benchmark,
    )
    assert report.preemptions_after <= report.preemptions_before


def test_ablation_shape_cache_reuse(benchmark, monkeypatch):
    """A tier-based cloud replans same-shape censuses constantly; every
    renamed census misses the name-keyed core memo, but the name-free
    shape cache serves its cores without re-running EDF (Sec. 7.1)."""
    planner = Planner(xeon_16core())
    shapes = [
        [make_vm(f"gen{g}vm{i}", 0.25, 20 * MS) for i in range(48)]
        for g in range(6)
    ]
    planner.plan(shapes[0])  # warm the shape cache
    kernel = edfcore._edf_kernel
    runs = []

    def counted_kernel(*args):
        runs.append(1)
        return kernel(*args)

    monkeypatch.setattr(edfcore, "_edf_kernel", counted_kernel)
    misses_before = planner.core_cache_misses

    def churn():
        for census in shapes[1:]:
            planner.plan(census)

    benchmark(churn)
    materialized = planner.core_cache_misses - misses_before
    shape_hit_rate = 1 - len(runs) / materialized
    publish(
        "ablation_shape_cache",
        f"shape-cache hit rate over a 6-generation renamed churn: "
        f"{shape_hit_rate:.0%} of {materialized} core materializations "
        f"ran no EDF simulation",
        benchmark,
    )
    assert shape_hit_rate > 0.5


def test_ablation_split_compensation_cost(benchmark):
    """Compensating a split vCPU costs the pool a few percent of one
    core — the price Sec. 7.5 says makes migration overhead fair."""
    vms = [make_vm(f"vm{i}", 0.6, 100 * MS) for i in range(3)]

    def run():
        plain = Planner(uniform(2)).plan(vms)
        compensated = Planner(uniform(2), split_compensation=0.05).plan(vms)
        return plain, compensated

    plain, compensated = benchmark.pedantic(run, rounds=1, iterations=1)
    victim = compensated.stats.compensated_vcpus[0]
    extra = (
        compensated.vcpus[victim].utilization - plain.vcpus[victim].utilization
    )
    publish(
        "ablation_split_compensation",
        f"split vCPU {victim} compensated by {extra:.3f} of a core "
        f"(5% of its reservation)",
        benchmark,
    )
    assert extra == pytest.approx(0.03, abs=0.005)
