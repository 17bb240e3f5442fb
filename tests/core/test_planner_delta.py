"""Differential suite: incremental replans must equal from-scratch plans.

A live planner replanning an edited census reuses the core tables WFD
did not repack (the per-core memo).  The contract pinned here: for every
create/reconfigure/destroy sequence, the live planner's plan of the
edited census and a cold planner's plan of the same census are *equal*
— same method, same allocations, identical plan fingerprint — across
all four schedulers' census flavors and three seeds (including
replanning on top of a service recovered by journal replay).
"""

import hashlib
import random

import pytest

from repro.core import (
    METHOD_PARTITIONED,
    METHOD_SEMI_PARTITIONED,
    MS,
    Planner,
    make_vm,
)
from repro.experiments.scenarios import SCHEDULERS
from repro.topology import uniform

#: Capping mode per scheduler (rtds is capped-only, credit2 uncapped;
#: the flag flows into every VCpuSpec and thus into planning).
CAPPED = {"tableau": False, "credit": True, "credit2": False, "rtds": True}
SEEDS = (101, 202, 303)

UTILS = (0.1, 0.15, 0.2, 0.25)
LATENCIES = (10 * MS, 20 * MS, 50 * MS)


def plan_fingerprint(result) -> str:
    """sha256 over every allocation, core-sorted (matches benchmarks)."""
    hasher = hashlib.sha256()
    for cpu in sorted(result.table.cores):
        for alloc in result.table.cores[cpu].allocations:
            hasher.update(f"{cpu}:{alloc.start}:{alloc.end}:{alloc.vcpu};".encode())
    return hasher.hexdigest()


def base_census(scheduler, seed, count=10):
    rng = random.Random(seed)
    return [
        make_vm(
            f"{scheduler}-s{seed}-vm{i:02d}",
            rng.choice(UTILS),
            rng.choice(LATENCIES),
            capped=CAPPED[scheduler],
        )
        for i in range(count)
    ]


def mutation_steps(census, scheduler, seed, steps=6):
    """A deterministic create/reconfigure/destroy sequence.

    Yields the census after each step; ``census`` is edited in place
    (creates append, a reconfigured VM keeps its position).
    """
    rng = random.Random(seed * 7919 + 13)
    capped = CAPPED[scheduler]
    serial = 0
    for step in range(steps):
        op = rng.choice(("create", "reconfigure", "destroy"))
        if op == "destroy" and len(census) <= 4:
            op = "create"
        if op == "create":
            vm = make_vm(
                f"{scheduler}-s{seed}-new{serial}",
                rng.choice(UTILS),
                rng.choice(LATENCIES),
                capped=capped,
            )
            serial += 1
            census.append(vm)
        elif op == "reconfigure":
            index = rng.randrange(len(census))
            old = census[index]
            vm = make_vm(
                old.name, rng.choice(UTILS), rng.choice(LATENCIES), capped=capped
            )
            census[index] = vm
        else:
            census.pop(rng.randrange(len(census)))
        yield census


def assert_plans_equal(live, scratch):
    assert live.stats.method == scratch.stats.method
    assert live.table.length_ns == scratch.table.length_ns
    assert set(live.table.cores) == set(scratch.table.cores)
    for cpu, core in scratch.table.cores.items():
        assert live.table.cores[cpu].allocations == core.allocations
    assert set(live.vcpus) == set(scratch.vcpus)
    assert plan_fingerprint(live) == plan_fingerprint(scratch)


class TestIncrementalEqualsScratch:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_census_edit_sequence(self, scheduler, seed):
        topo = uniform(4)
        census = base_census(scheduler, seed)
        live_planner = Planner(topo)
        previous = live_planner.plan(list(census))
        for full in mutation_steps(census, scheduler, seed):
            live = live_planner.plan(list(full))
            scratch = Planner(topo).plan(list(full))
            assert_plans_equal(live, scratch)
            # A core whose table the memo reissued unchanged is the
            # previous plan's object — the zero-copy contract the
            # daemon's delta push builds on.
            for cpu, core in live.table.cores.items():
                old = previous.table.cores.get(cpu)
                if old is not None and core.allocations is old.allocations:
                    assert core is old
            previous = live

    def test_combined_edit_matches_scratch(self):
        topo = uniform(4)
        census = base_census("tableau", 7)
        planner = Planner(topo)
        planner.plan(list(census))
        created = make_vm("combo-new", 0.2, 20 * MS)
        reconf = make_vm(census[3].name, 0.25, 10 * MS)
        edited = [reconf if vm.name == reconf.name else vm for vm in census[1:]]
        edited.append(created)
        live = planner.plan(edited)
        scratch = Planner(topo).plan(list(edited))
        assert_plans_equal(live, scratch)

    def test_semi_partitioned_replan_matches_scratch(self):
        # Splits couple cores; the delta path must still land on the
        # exact from-scratch plan when the method escalates.
        topo = uniform(2)
        census = [make_vm(f"vm{i}", 0.6, 100 * MS) for i in range(2)]
        planner = Planner(topo)
        planner.plan(list(census))
        census.append(make_vm("vm2", 0.6, 100 * MS))
        live = planner.plan(list(census))
        scratch = Planner(topo).plan(list(census))
        assert live.stats.method == METHOD_SEMI_PARTITIONED
        assert_plans_equal(live, scratch)

    def test_peephole_replan_matches_scratch(self):
        topo = uniform(4)
        census = base_census("tableau", 11)
        planner = Planner(topo, peephole=True)
        planner.plan(list(census))
        census.append(make_vm("peep-new", 0.25, 20 * MS))
        live = planner.plan(list(census))
        scratch = Planner(topo, peephole=True).plan(list(census))
        assert_plans_equal(live, scratch)


class TestRecoveredServiceReplan:
    def test_replan_on_recovered_daemon_matches_scratch(self, tmp_path):
        """Journal-replay path: a recovered daemon's planner (warm from
        replay) must replan an edited census to the same table a cold
        planner produces from scratch."""
        from repro.core.params import vms_from_tiers
        from repro.crashpoints import CRASH_SERVICE_FLUSH_POST_PUSH
        from repro.faults import CrashPlan
        from repro.service import ChurnConfig, ServiceConfig, crash_recover_resume
        from repro.topology import uniform as uniform_topo

        outcome = crash_recover_resume(
            uniform_topo(8),
            20.0,
            tmp_path / "wal.bin",
            CrashPlan.at(CRASH_SERVICE_FLUSH_POST_PUSH, call=2, seed=42),
            churn=ChurnConfig(seed=42, arrival_rate_per_s=6.0, target_population=10),
            config=ServiceConfig(batch_window_ms=1000.0),
        )
        service = outcome.service
        assert outcome.crash_count == 1
        census = vms_from_tiers(
            sorted(service.committed.items()), tiers=service.config.tiers
        )
        if not census:
            pytest.skip("churn drained the census; nothing to replan")
        recovered_planner = service.daemon.planner
        recovered_planner.plan(list(census))
        census.append(make_vm("post-recovery", 0.125, 100 * MS))
        live = recovered_planner.plan(list(census))
        scratch = Planner(uniform_topo(8)).plan(list(census))
        assert_plans_equal(live, scratch)
        assert live.stats.method == METHOD_PARTITIONED
