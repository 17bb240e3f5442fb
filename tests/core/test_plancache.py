"""Tests for the content-addressed on-disk plan store.

Covers the fault paths the campaign engine depends on: corrupt
entries, truncated writes, concurrent writers, and cache-version
mismatches must all fall back to regeneration without raising.
"""

import os
import pickle
import struct
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import (
    MS,
    CACHE_VERSION,
    Planner,
    PlanStore,
    make_vm,
    plan_key,
    shape_plan_key,
)
from repro.core.params import flatten_vcpus
from repro.core.plancache import MAGIC, topology_token
from repro.core.table import SystemTable
from repro.topology import uniform, xeon_16core


def census(n=8, latency_ms=30, capped=False):
    return [
        make_vm(f"vm{i:02d}", 0.25, latency_ms * MS, capped=capped)
        for i in range(n)
    ]


def table_layout(result):
    return [
        (cpu, alloc.start, alloc.end, alloc.vcpu)
        for cpu in sorted(result.table.cores)
        for alloc in result.table.cores[cpu].allocations
    ]


@pytest.fixture
def store(tmp_path):
    return PlanStore(tmp_path / "cache")


class TestPlanKey:
    def test_same_inputs_same_key(self):
        planner = Planner(uniform(4))
        assert plan_key(planner, census()) == plan_key(
            Planner(uniform(4)), census()
        )

    def test_key_covers_planning_inputs(self):
        planner = Planner(uniform(4))
        base = plan_key(planner, census())
        assert plan_key(planner, census(n=9)) != base
        assert plan_key(planner, census(latency_ms=60)) != base
        assert plan_key(planner, census(capped=True)) != base
        assert plan_key(Planner(uniform(8)), census()) != base

    def test_topology_token_distinguishes_machines(self):
        assert topology_token(uniform(4)) != topology_token(uniform(8))
        assert topology_token(xeon_16core()) == topology_token(xeon_16core())


class TestRoundTrip:
    def test_miss_then_hit(self, store):
        planner = Planner(uniform(4))
        first = store.plan(planner, census())
        assert not first.stats.plan_cache_hit
        assert store.stats.misses == 1 and store.stats.stores == 1

        second = store.plan(Planner(uniform(4)), census())
        assert second.stats.plan_cache_hit
        assert store.stats.hits == 1
        # Entries carry segment columns only; allocations are rebuilt
        # on first use.
        assert all(
            "allocations" not in core.__dict__
            for core in second.table.cores.values()
        )
        assert table_layout(second) == table_layout(first)

    def test_hit_rate(self, store):
        planner = Planner(uniform(4))
        store.plan(planner, census())
        store.plan(planner, census())
        store.plan(planner, census())
        assert store.stats.hit_rate == pytest.approx(2 / 3)

    def test_get_missing_key_is_none(self, store):
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1


def tier(prefix, count=8, utilization=0.25, latency_ms=20):
    """A single-tier census whose vCPU names all start with ``prefix``."""
    return flatten_vcpus(
        [make_vm(f"{prefix}{i}", utilization, latency_ms * MS) for i in range(count)]
    )


class TestShapedPlans:
    """``plan_shaped``: Sec. 7.1's reuse of a stored plan across renames."""

    def test_shape_key_ignores_order_and_names(self):
        planner = Planner(uniform(2))
        key = shape_plan_key(planner, tier("a"))
        assert shape_plan_key(planner, list(reversed(tier("a")))) == key
        assert shape_plan_key(planner, tier("web")) == shape_plan_key(
            planner, tier("db")
        )

    def test_shape_key_covers_reservations(self):
        planner = Planner(uniform(2))
        key = shape_plan_key(planner, tier("a"))
        assert shape_plan_key(planner, tier("a", utilization=0.5)) != key
        assert shape_plan_key(planner, tier("a", latency_ms=30)) != key

    def test_same_shape_hits_under_new_names(self, store):
        first = store.plan_shaped(Planner(uniform(2)), tier("web"))
        assert not first.stats.plan_cache_hit
        second = store.plan_shaped(Planner(uniform(2)), tier("db"))
        assert second.stats.plan_cache_hit
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_rename_covers_every_allocation(self, store):
        store.plan_shaped(Planner(uniform(2)), tier("web"))
        result = store.plan_shaped(Planner(uniform(2)), tier("db"))
        names = {
            a.vcpu
            for t in result.table.cores.values()
            for a in t.allocations
            if a.vcpu is not None
        }
        assert names == {f"db{i}.vcpu0" for i in range(8)}
        assert set(result.vcpus) == names

    def test_renamed_plan_keeps_guarantees(self, store):
        store.plan_shaped(Planner(uniform(2)), tier("web"))
        result = store.plan_shaped(Planner(uniform(2)), tier("db"))
        for name in result.vcpus:
            assert result.table.utilization_of(name) == pytest.approx(
                0.25, abs=1e-3
            )
            assert result.table.max_blackout_ns(name) <= 20 * MS

    def test_renamed_tasks_reference_new_specs(self, store):
        store.plan_shaped(Planner(uniform(2)), tier("web"))
        result = store.plan_shaped(Planner(uniform(2)), tier("db"))
        task = result.task_of("db0.vcpu0")
        assert task.vcpu is result.vcpus["db0.vcpu0"]
        assert all(
            piece is result.tasks[piece.name]
            for pieces in result.assignment.values()
            for piece in pieces
        )

    def test_split_plan_renames_and_keeps_guarantees(self, store):
        # Three 0.6 vCPUs on two cores: one is split across both.
        store.plan_shaped(Planner(uniform(2)), tier("a", count=3, utilization=0.6))
        result = store.plan_shaped(
            Planner(uniform(2)), tier("b", count=3, utilization=0.6)
        )
        assert result.stats.plan_cache_hit
        assert any(result.table.is_split(name) for name in result.vcpus)
        result.table.validate()
        for name in result.vcpus:
            assert result.table.utilization_of(name) == pytest.approx(
                0.6, abs=1e-3
            )

    def test_renamed_name_index_matches_a_rebuilt_one(self, store):
        store.plan_shaped(Planner(uniform(2)), tier("a", count=3, utilization=0.6))
        result = store.plan_shaped(
            Planner(uniform(2)), tier("b", count=3, utilization=0.6)
        )
        rebuilt = SystemTable(
            length_ns=result.table.length_ns, cores=result.table.cores
        )
        assert result.table.vcpu_names == rebuilt.vcpu_names
        assert result.table.home_cores == rebuilt.home_cores

    def test_dedicated_vcpus_rename(self, store):
        full = tier("a", count=1, utilization=1.0) + tier("b", count=4)
        store.plan_shaped(Planner(uniform(4)), full)
        renamed = tier("c", count=1, utilization=1.0) + tier("d", count=4)
        result = store.plan_shaped(Planner(uniform(4)), renamed)
        assert result.stats.plan_cache_hit
        assert result.table.utilization_of("c0.vcpu0") == pytest.approx(1.0)
        assert set(result.vcpus) == {v.name for v in renamed}

    def test_hits_do_not_share_stats(self, store):
        store.plan_shaped(Planner(uniform(2)), tier("web"))
        a = store.plan_shaped(Planner(uniform(2)), tier("db"))
        b = store.plan_shaped(Planner(uniform(2)), tier("db"))
        assert a.stats is not b.stats
        a.stats.compensated_vcpus.append("x")
        assert b.stats.compensated_vcpus == []


class TestFaultPaths:
    """Every corruption mode degrades to a regeneration, never a raise."""

    def setup_entry(self, store):
        planner = Planner(uniform(4))
        vms = census()
        result = store.plan(planner, vms)
        key = plan_key(planner, vms)
        return planner, vms, key, store.path_for(key), table_layout(result)

    def test_corrupt_payload_regenerates(self, store):
        planner, vms, key, path, layout = self.setup_entry(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

        again = store.plan(planner, vms)
        assert store.stats.invalid == 1
        assert not again.stats.plan_cache_hit
        assert table_layout(again) == layout
        # The bad entry was replaced by the regeneration.
        assert store.get(key) is not None

    def test_corrupt_digest_regenerates(self, store):
        planner, vms, key, path, _ = self.setup_entry(store)
        blob = bytearray(path.read_bytes())
        blob[8] ^= 0xFF  # inside the stored sha256
        path.write_bytes(bytes(blob))
        assert store.get(key) is None
        assert store.stats.invalid == 1

    def test_truncated_write_regenerates(self, store):
        planner, vms, key, path, layout = self.setup_entry(store)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        again = store.plan(planner, vms)
        assert not again.stats.plan_cache_hit
        assert table_layout(again) == layout

    def test_header_shorter_than_fixed_part(self, store):
        planner, vms, key, path, _ = self.setup_entry(store)
        path.write_bytes(b"TP")
        assert store.get(key) is None
        assert store.stats.invalid == 1

    def test_bad_magic_regenerates(self, store):
        planner, vms, key, path, _ = self.setup_entry(store)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        assert store.get(key) is None
        assert store.stats.invalid == 1

    def test_version_mismatch_regenerates(self, store):
        planner, vms, key, path, _ = self.setup_entry(store)
        blob = bytearray(path.read_bytes())
        # Rewrite the header's version field in place.
        blob[0:40] = struct.pack(
            "<4sHH32s", MAGIC, CACHE_VERSION + 1, 0, bytes(blob[8:40])
        )
        path.write_bytes(bytes(blob))
        assert store.get(key) is None
        assert store.stats.invalid == 1

    def test_new_store_version_uses_fresh_namespace(self, tmp_path):
        old = PlanStore(tmp_path / "cache")
        planner = Planner(uniform(4))
        vms = census()
        old.plan(planner, vms)

        newer = PlanStore(tmp_path / "cache", version=CACHE_VERSION + 1)
        result = newer.plan(planner, vms)
        assert not result.stats.plan_cache_hit
        assert newer.stats.misses == 1

    def test_valid_header_pickle_garbage(self, store):
        planner, vms, key, path, _ = self.setup_entry(store)
        payload = b"not a pickle"
        import hashlib

        header = struct.pack(
            "<4sHH32s", MAGIC, CACHE_VERSION, 0,
            hashlib.sha256(payload).digest(),
        )
        path.write_bytes(header + payload)
        assert store.get(key) is None
        assert store.stats.invalid == 1

    def test_payload_wrong_type(self, store):
        planner, vms, key, path, _ = self.setup_entry(store)
        payload = pickle.dumps({"not": "a PlanResult"})
        import hashlib

        header = struct.pack(
            "<4sHH32s", MAGIC, CACHE_VERSION, 0,
            hashlib.sha256(payload).digest(),
        )
        path.write_bytes(header + payload)
        assert store.get(key) is None

    def test_unwritable_root_degrades_to_planning(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        store = PlanStore(root)
        planner = Planner(uniform(4))
        vms = census()
        os.chmod(root, 0o500)
        try:
            result = store.plan(planner, vms)  # must not raise
        finally:
            os.chmod(root, 0o700)
        assert not result.stats.plan_cache_hit


def _concurrent_put(args):
    root, n = args
    store = PlanStore(root)
    planner = Planner(uniform(4))
    vms = [make_vm(f"vm{i:02d}", 0.25, 30 * MS) for i in range(8)]
    for _ in range(n):
        result = planner.plan(vms)
        store.put(plan_key(planner, vms), result)
    return store.path_for(plan_key(planner, vms)).exists()


class TestConcurrentWriters:
    def test_racing_writers_leave_a_valid_entry(self, tmp_path):
        """Writers use per-pid temp files + atomic rename: no torn reads."""
        root = str(tmp_path / "cache")
        with ProcessPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(_concurrent_put, [(root, 5)] * 4))

        store = PlanStore(root)
        planner = Planner(uniform(4))
        vms = census()
        cached = store.get(plan_key(planner, vms))
        assert cached is not None
        assert table_layout(cached) == table_layout(planner.plan(vms))
        # No stray temp files survive the rename dance.
        leftovers = [
            p for p in store.path_for(plan_key(planner, vms)).parent.iterdir()
            if ".tmp." in p.name
        ]
        assert leftovers == []


def _dead_pid() -> int:
    """A pid guaranteed not to name a live process."""
    import subprocess

    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


class TestOrphanSweep:
    """Startup reclamation of ``*.plan.tmp.<pid>`` crash debris."""

    def _plant(self, root, pid, name="deadbeef"):
        shard = root / f"v{CACHE_VERSION}" / name[:2]
        shard.mkdir(parents=True, exist_ok=True)
        tmp = shard / f"{name}.plan.tmp.{pid}"
        tmp.write_bytes(b"partial write")
        return tmp

    def test_startup_sweep_reclaims_orphans(self, tmp_path):
        root = tmp_path / "cache"
        own = self._plant(root, os.getpid(), "aa" * 4)
        dead = self._plant(root, _dead_pid(), "bb" * 4)
        junk = self._plant(root, "notapid", "cc" * 4)
        store = PlanStore(root)
        assert store.stats.tmp_reclaimed == 3
        assert not own.exists() and not dead.exists() and not junk.exists()

    def test_live_foreign_writer_left_alone(self, tmp_path):
        root = tmp_path / "cache"
        # pid 1 is always alive; a live foreign pid may be mid-write.
        live = self._plant(root, 1, "dd" * 4)
        store = PlanStore(root)
        assert store.stats.tmp_reclaimed == 0
        assert live.exists()

    def test_sweep_can_be_disabled(self, tmp_path):
        root = tmp_path / "cache"
        orphan = self._plant(root, _dead_pid(), "ee" * 4)
        store = PlanStore(root, sweep=False)
        assert store.stats.tmp_reclaimed == 0
        assert orphan.exists()

    def test_startup_sweep_is_bounded(self, tmp_path):
        root = tmp_path / "cache"
        pid = _dead_pid()
        count = PlanStore.SWEEP_LIMIT + 10
        for i in range(count):
            self._plant(root, pid, f"{i:08x}")
        store = PlanStore(root)
        assert store.stats.tmp_reclaimed == PlanStore.SWEEP_LIMIT
        # The remainder is an fsck job (unbounded scan).
        report = store.fsck()
        assert report.tmp_seen == count - PlanStore.SWEEP_LIMIT
        assert report.tmp_reclaimed == count - PlanStore.SWEEP_LIMIT


class TestFsck:
    def _entry(self, store):
        planner = Planner(uniform(4))
        vms = census()
        store.plan(planner, vms)
        return store.path_for(plan_key(planner, vms))

    def test_clean_store(self, tmp_path):
        store = PlanStore(tmp_path / "cache")
        self._entry(store)
        report = store.fsck()
        assert report.scanned == 1
        assert report.valid == 1
        assert report.corrupt == 0
        assert report.tmp_seen == 0
        assert report.clean
        assert report.as_dict()["clean"] is True

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = PlanStore(tmp_path / "cache")
        path = self._entry(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = store.fsck()
        assert report.corrupt == 1
        assert report.quarantined == 1
        assert not report.clean
        assert not path.exists()
        quarantined = tmp_path / "cache" / "quarantine" / path.name
        assert quarantined.exists()
        # A second pass over the repaired store is clean.
        assert store.fsck().clean

    def test_no_repair_reports_only(self, tmp_path):
        store = PlanStore(tmp_path / "cache")
        path = self._entry(store)
        path.write_bytes(b"garbage")
        orphan = path.with_name(path.name + f".tmp.{_dead_pid()}")
        orphan.write_bytes(b"partial")
        report = store.fsck(repair=False)
        assert report.corrupt == 1
        assert report.quarantined == 0
        assert report.tmp_seen == 1
        assert report.tmp_reclaimed == 0
        assert path.exists() and orphan.exists()
