"""Plan reuse across the experiment drivers.

``experiments.scenarios.plan_for`` and the Fig. 3/4 scaling sweeps
route through the content-addressed :class:`PlanStore`; both expose
cache-hit counters so campaigns and tests can verify planning work was
actually skipped.  Without a store, repeated censuses are cheap through
the planner's process-wide per-core memo, and every call still returns
a plan of its own.
"""

from repro.core import PlanStore
from repro.core.table import CoreTable
from repro.experiments import scenarios
from repro.experiments.planner_scaling import (
    full_sweep,
    measure_point,
    scaling_curve,
)
from repro.topology import uniform


class TestPlanFor:
    def test_repeat_census_shares_no_mutable_state(self):
        first = scenarios.plan_for(uniform(4), 8, False)
        second = scenarios.plan_for(uniform(4), 8, False)
        assert first is not second
        assert first.stats is not second.stats
        assert first.table is not second.table
        assert first.table.cores is not second.table.cores
        assert first.tasks is not second.tasks
        assert first.vcpus is not second.vcpus

        layout = {
            cpu: list(core.allocations) for cpu, core in second.table.cores.items()
        }
        first.stats.plan_cache_hit = True
        first.stats.compensated_vcpus.append("vm00.vcpu0")
        first.table.cores[0] = CoreTable(cpu=0, length_ns=first.table.length_ns)
        first.tasks.clear()
        first.vcpus.clear()
        assert not second.stats.plan_cache_hit
        assert second.stats.compensated_vcpus == []
        assert {
            cpu: list(core.allocations) for cpu, core in second.table.cores.items()
        } == layout
        assert len(second.tasks) == len(second.vcpus) == 8

    def test_distinct_censuses_do_not_collide(self):
        a = scenarios.plan_for(uniform(4), 8, False)
        b = scenarios.plan_for(uniform(4), 8, True)
        c = scenarios.plan_for(uniform(4), 8, False, latency_ns=1_000_000)
        assert all(v.capped for v in b.vcpus.values())
        assert not any(v.capped for v in a.vcpus.values())
        assert all(v.latency_ns == 1_000_000 for v in c.vcpus.values())

    def test_store_serves_a_fresh_process(self, tmp_path):
        store = PlanStore(tmp_path / "cache")
        scenarios.plan_for(uniform(4), 8, False, store=store)
        assert store.stats.misses == 1

        reopened = PlanStore(tmp_path / "cache")  # new process, same disk
        result = scenarios.plan_for(uniform(4), 8, False, store=reopened)
        assert reopened.stats.hits == 1
        assert result.stats.plan_cache_hit


class TestScalingSweepStore:
    def test_measure_point_reports_store_hit(self, tmp_path):
        store = PlanStore(tmp_path / "cache")
        topo = uniform(4)
        cold = measure_point(8, 30, topo, store=store)
        assert not cold.cache_hit
        warm = measure_point(8, 30, topo, store=store)
        assert warm.cache_hit
        assert warm.table_bytes == cold.table_bytes

    def test_repetitions_hit_within_one_point(self, tmp_path):
        store = PlanStore(tmp_path / "cache")
        point = measure_point(
            8, 30, uniform(4), repetitions=3, store=store
        )
        assert point.cache_hit  # reps 2..3 were served by the store
        assert store.stats.hits == 2 and store.stats.misses == 1

    def test_curve_and_sweep_thread_the_store(self, tmp_path):
        store = PlanStore(tmp_path / "cache")
        topo = uniform(4)
        scaling_curve(30, vm_counts=(4, 8), topology=topo, store=store)
        again = scaling_curve(
            30, vm_counts=(4, 8), topology=topo, store=store
        )
        assert all(p.cache_hit for p in again)

        sweep = full_sweep(topology=topo, vm_counts=(4,), store=store)
        assert len(sweep) == 4  # one point per latency goal

    def test_without_store_nothing_is_cached(self):
        point = measure_point(8, 30, uniform(4))
        assert not point.cache_hit
