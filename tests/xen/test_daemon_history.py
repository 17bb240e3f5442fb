"""Bounded daemon history: memory-flat audit rings, exact counters.

Regression tests for the unbounded-growth fix: before it,
``PlannerDaemon.history`` and ``push_backoffs_ns`` were plain lists that
grew one entry per replan forever — a persistent scheduler-as-a-service
control plane replanning every couple of simulated seconds would leak
without bound.  These tests fail on that code (``len(history)`` equals
the replan count instead of the ring limit).
"""

import sys

import pytest

from repro.core import MS, Planner, make_vm
from repro.errors import TablePushError
from repro.faults import FaultPlan
from repro.schedulers import TableauScheduler
from repro.topology import uniform
from repro.xen import STATUS_COMMITTED, TableHypercall
from repro.xen.daemon import PlannerDaemon


def census(n=4, utilization=0.2):
    return [make_vm(f"vm{i}", utilization, 20 * MS) for i in range(n)]


def canned_daemon(**kwargs):
    """A daemon whose planning step is a canned constant-time result.

    Lets the tests drive tens of thousands of replans without paying for
    real table generation; the daemon's bookkeeping paths are exercised
    unchanged.
    """
    daemon = PlannerDaemon(uniform(2), **kwargs)
    result = daemon.planner.plan(census())
    daemon.planner.plan = lambda specs: result  # type: ignore[method-assign]
    return daemon


class TestBoundedHistory:
    def test_history_is_capped_at_limit(self):
        daemon = canned_daemon(history_limit=64)
        for i in range(1_000):
            daemon.replan(census(), reason=f"churn {i}")
        assert len(daemon.history) == 64
        assert daemon.total_replans == 1_000
        assert daemon.committed_replans == 1_000
        assert daemon.failed_replans == 0

    def test_ring_keeps_most_recent_episodes(self):
        daemon = canned_daemon(history_limit=8)
        for i in range(20):
            daemon.replan(census(), reason=f"churn {i}")
        assert [r.reason for r in daemon.history] == [
            f"churn {i}" for i in range(12, 20)
        ]

    def test_counters_exact_across_eviction_with_failures(self):
        faults = FaultPlan.persistent_push_failure()
        topo = uniform(2)
        boot = Planner(topo).plan(census())
        sched = TableauScheduler(boot.table)
        hypercall = TableHypercall(sched)
        daemon = PlannerDaemon(topo, hypercall, history_limit=4, push_retries=0)
        result = daemon.planner.plan(census())
        daemon.planner.plan = lambda specs: result  # type: ignore[method-assign]
        for i in range(30):
            if i % 3 == 2:
                hypercall.faults = faults
                with pytest.raises(TablePushError):
                    daemon.replan(census(), reason=f"churn {i}")
                hypercall.faults = None
            else:
                daemon.replan(census(), reason=f"churn {i}")
        assert daemon.total_replans == 30
        assert daemon.committed_replans == 20
        assert daemon.failed_replans == 10
        assert len(daemon.history) == 4

    def test_memory_footprint_flat_across_100k_replans(self):
        """The audit rings do not grow with the replan count.

        Byte-level check: after 100k replans the containers' allocated
        sizes are no larger than right after the ring first filled (a
        rotating deque may *consolidate* blocks, never accrete them) —
        flat memory, not merely "less than unbounded".  On the pre-fix
        list-backed daemon, ``len(history)`` is 100_000 here and the
        byte size is ~400x the warm size.
        """
        daemon = canned_daemon(history_limit=256)
        for i in range(256):
            daemon.replan(census(), reason="warm")
        warm_history = sys.getsizeof(daemon.history)
        warm_backoffs = sys.getsizeof(daemon.push_backoffs_ns)
        for i in range(100_000 - 256):
            daemon.replan(census(), reason="steady")
        assert daemon.total_replans == 100_000
        assert len(daemon.history) == 256
        assert sys.getsizeof(daemon.history) <= warm_history
        assert sys.getsizeof(daemon.push_backoffs_ns) <= warm_backoffs
        assert daemon.history[-1].status == STATUS_COMMITTED
