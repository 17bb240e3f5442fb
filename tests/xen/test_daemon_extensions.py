"""Tests for the daemon's plan-store and split-rotation extensions."""

import pytest

from repro.core import MS, PlanStore, make_vm
from repro.topology import uniform
from repro.xen import PlannerDaemon


def specs(prefix, count=8, utilization=0.25):
    return [make_vm(f"{prefix}{i}", utilization, 20 * MS) for i in range(count)]


class TestDaemonStore:
    def test_same_shape_census_hits_store(self, tmp_path):
        daemon = PlannerDaemon(uniform(2), store=PlanStore(tmp_path / "plans"))
        daemon.replan(specs("web"), reason="boot")
        daemon.replan(specs("db"), reason="rename-churn")
        assert daemon.store.stats.hits == 1
        assert daemon.current_plan.stats.plan_cache_hit

    def test_stored_plan_covers_new_names(self, tmp_path):
        daemon = PlannerDaemon(uniform(2), store=PlanStore(tmp_path / "plans"))
        daemon.replan(specs("web"), reason="boot")
        result = daemon.replan(specs("db"), reason="swap")
        assert set(result.vcpus) == {f"db{i}.vcpu0" for i in range(8)}
        for name in result.vcpus:
            assert result.table.utilization_of(name) == pytest.approx(
                0.25, abs=1e-3
            )

    def test_without_store_plans_directly(self):
        daemon = PlannerDaemon(uniform(2))
        assert daemon.store is None
        daemon.replan(specs("web"), reason="boot")
        assert not daemon.current_plan.stats.plan_cache_hit


class TestSplitRotation:
    def _split_specs(self):
        # Three 0.6 VMs on two cores: one must be split.
        return [make_vm(f"vm{i}", 0.6, 100 * MS) for i in range(3)]

    def test_rotation_moves_the_split_victim(self):
        daemon = PlannerDaemon(uniform(2))
        victims = set()
        plan = daemon.replan(self._split_specs(), reason="boot")
        victims.add(next(n for n in plan.vcpus if plan.table.is_split(n)))
        for _ in range(4):
            plan = daemon.rotate_table(self._split_specs())
            victims.add(next(n for n in plan.vcpus if plan.table.is_split(n)))
        # Over a few rotations, more than one VM takes the penalty.
        assert len(victims) >= 2

    def test_rotation_preserves_guarantees(self):
        daemon = PlannerDaemon(uniform(2))
        daemon.replan(self._split_specs(), reason="boot")
        plan = daemon.rotate_table(self._split_specs())
        for name in plan.vcpus:
            assert plan.table.utilization_of(name) == pytest.approx(
                0.6, abs=1e-3
            )
            assert plan.table.max_blackout_ns(name) <= 100 * MS

    def test_rotation_recorded_in_history(self):
        daemon = PlannerDaemon(uniform(2))
        daemon.replan(self._split_specs(), reason="boot")
        daemon.rotate_table(self._split_specs())
        assert daemon.history[-1].reason == "rotate split victim"
