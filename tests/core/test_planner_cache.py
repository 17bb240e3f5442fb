"""Tests for the planner's incremental core-table memo and parallel path.

The memo and the process pool are pure wall-clock optimizations: every
plan they produce must be indistinguishable from a cold, serial plan.
These tests pin that equivalence down, plus the cache-management
behavior (hit accounting, size bound).  The memo is process-wide, so
tests that count hits and misses plan censuses whose vCPU names no
other test uses.
"""

import pytest

import repro.core.edfcore as edfcore
import repro.core.planner as planner_mod
from repro.core import MS, Planner, cache, make_vm
from repro.topology import xeon_16core


def census(n, util=0.25, latency_ms=20, prefix="vm"):
    return [make_vm(f"{prefix}{i:02d}", util, latency_ms * MS) for i in range(n)]


def table_layout(result):
    return {
        cpu: [(a.start, a.end, a.vcpu) for a in table.allocations]
        for cpu, table in result.table.cores.items()
    }


class TestCoreTableMemo:
    def test_replan_same_census_is_all_hits(self):
        planner = Planner(xeon_16core())
        first = planner.plan(census(40, prefix="allhit"))
        misses = planner.core_cache_misses
        second = planner.plan(census(40, prefix="allhit"))
        assert planner.core_cache_misses == misses  # no new simulations
        assert planner.core_cache_hits > 0
        assert table_layout(first) == table_layout(second)

    def test_cached_plan_matches_cold_planner(self):
        warm = Planner(xeon_16core())
        warm.plan(census(40))
        cached = warm.plan(census(41))
        cold = Planner(xeon_16core()).plan(census(41))
        assert table_layout(cached) == table_layout(cold)

    def test_incremental_census_only_resimulates_changed_cores(self):
        planner = Planner(xeon_16core())
        planner.plan(census(40, prefix="incr"))
        before = planner.core_cache_misses
        planner.plan(census(41, prefix="incr"))
        new_misses = planner.core_cache_misses - before
        # Adding one VM at the census tail only changes the cores that
        # received it; all others must hit.
        assert 0 < new_misses < before

    def test_cached_tables_pass_guarantee_audit(self):
        planner = Planner(xeon_16core())
        planner.plan(census(48))
        result = planner.plan(census(48))  # fully cached replan
        for spec in result.vcpus.values():
            assert result.table.max_blackout_ns(spec.name) <= spec.latency_ns
        result.table.validate()

    def test_memo_respects_size_bound(self, monkeypatch):
        monkeypatch.setattr(cache, "CORE_MEMO_SIZE", 4)
        monkeypatch.setattr(cache, "CORE_MEMO", {})
        planner = Planner(xeon_16core())
        for n in (33, 36, 39, 42):
            planner.plan(census(n, prefix="bound"))
        assert 0 < len(cache.CORE_MEMO) <= 4

    def test_whole_plan_memo_hit_has_fresh_stats(self):
        planner = Planner(xeon_16core())
        first = planner.plan(census(40, prefix="regen"))
        again = planner.plan(census(40, prefix="regen"))
        assert again.table is first.table  # served by the whole-plan memo
        assert again.stats is not first.stats
        first.stats.plan_cache_hit = True
        first.stats.compensated_vcpus.append("regen00.vcpu0")
        assert not again.stats.plan_cache_hit
        assert again.stats.compensated_vcpus == []

    def test_memo_is_shared_across_planners(self):
        Planner(xeon_16core()).plan(census(40, prefix="shared"))
        fresh = Planner(xeon_16core())
        fresh.plan(census(40, prefix="shared"))
        assert fresh.core_cache_misses == 0
        assert fresh.core_cache_hits == len(xeon_16core().guest_cores)

    def test_clear_empties_both_in_memory_layers(self):
        layout = table_layout(Planner(xeon_16core()).plan(census(40, prefix="cold")))
        cache.clear()
        assert not cache.CORE_MEMO and not edfcore._SHAPE_CACHE
        replanned = Planner(xeon_16core())
        assert table_layout(replanned.plan(census(40, prefix="cold"))) == layout
        assert replanned.core_cache_hits == 0

    def test_distinct_knobs_do_not_share_entries(self):
        # The coalesce threshold participates in the memo key: changing
        # it must not resurrect tables built under the old threshold.
        sparse = Planner(xeon_16core(), coalesce_threshold_ns=10_000)
        sparse.plan(census(40))
        tight = Planner(xeon_16core(), coalesce_threshold_ns=200_000)
        layout_a = table_layout(tight.plan(census(40)))
        layout_b = table_layout(Planner(xeon_16core(), coalesce_threshold_ns=200_000).plan(census(40)))
        assert layout_a == layout_b


class TestParallelMaterialization:
    def test_pool_result_identical_to_serial(self, monkeypatch):
        serial = Planner(xeon_16core(), parallel=False).plan(census(48))
        monkeypatch.setattr(planner_mod, "PARALLEL_MIN_JOBS", 0)
        pooled = Planner(xeon_16core(), parallel=True).plan(census(48))
        assert table_layout(pooled) == table_layout(serial)

    def test_parallel_disabled_never_pools(self, monkeypatch):
        def boom(self, pending):  # pragma: no cover - must not run
            raise AssertionError("process pool engaged with parallel=False")

        monkeypatch.setattr(planner_mod, "PARALLEL_MIN_JOBS", 0)
        monkeypatch.setattr(Planner, "_materialize_parallel", boom)
        Planner(xeon_16core(), parallel=False).plan(census(40))

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(planner_mod, "PARALLEL_MIN_JOBS", 0)
        monkeypatch.setattr(
            Planner, "_materialize_parallel", lambda self, pending: None
        )
        result = Planner(xeon_16core(), parallel=True).plan(census(40))
        cold = Planner(xeon_16core(), parallel=False).plan(census(40))
        assert table_layout(result) == table_layout(cold)
