"""The three benchmark workloads.

Each workload is a class whose constructor is the set-up (imports and
the objects the program needs before the first timed operation) and
whose :meth:`rep` runs one repetition: the unit the run repeats until
its time is up.  Inputs come only from the benchmark seed; the program
receives the generated inputs, never the seed's meaning.

* ``serve-churn`` — open loop on the simulated clock: one repetition is
  one diurnal day (1800 simulated seconds) of the default ``serve``
  churn against ``run_service`` with a write-ahead journal.
* ``fig3-mixed`` — closed loop: four planner daemons (Fig. 3's latency
  goals) grow a mixed-U census from 44 to 176 VMs and tear it back down,
  each replan waiting for the previous one.
* ``fig6-campaign`` — closed loop: one Fig. 6 campaign (credit, credit2,
  tableau; 48 VMs at 20 ms on 16 cores) per repetition, in-process.

Host times come from ``time.perf_counter`` around calls into the
program.  Values read from the simulated clock carry the unit
``sim_ms``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import stats
from perfbench.tracer import Tracer

#: The seed whose output digests are recorded in ``expected.json``.
DEFAULT_SEED = 1

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Report:
    """What one workload run hands back to the runner."""

    #: End-to-end metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]]
    #: The workload's own metrics for the human-readable report:
    #: (name, value, unit, note).
    detail: List[Tuple[str, float, str, str]]
    attempted: int
    failed: int
    #: Output-check failures; any entry makes the run incorrect.
    mismatches: List[str]
    work_s: float


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def expected_digest(workload: str) -> Optional[str]:
    """The digest recorded for ``workload`` at :data:`DEFAULT_SEED`."""
    recorded = json.loads(EXPECTED_PATH.read_text())
    return recorded.get(workload)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serve_inputs(seed: int, rep: int) -> Any:
    """serve-churn's input for repetition ``rep``: one diurnal day of the
    default ``serve`` churn (Poisson arrivals, 4 req/s mean, target
    population 32, the four default tiers).  Repetition 1 replays
    repetition 0's stream, so the run can compare their reports; every
    later repetition gets a stream of its own."""
    stream = max(rep - 1, 0)
    churn_seed = random.Random(f"serve-churn/{seed}/{stream}").getrandbits(32)
    return importlib.import_module("repro.service").ChurnConfig(seed=churn_seed)


def fig3_inputs(seed: int, rep: int, count: int = 176) -> List[float]:
    """fig3-mixed's input for repetition ``rep``: per-VM utilizations
    drawn in [0.1, 0.3] at 1% granularity.  Each repetition draws
    afresh, so its grow pass plans shapes the process has not seen."""
    rng = random.Random(f"fig3-mixed/{seed}/{rep}")
    return [round(rng.uniform(0.1, 0.3), 2) for _ in range(count)]


def fig6_inputs(seed: int, duration_s: float = 0.5) -> Any:
    """fig6-campaign's input: Fig. 6 on 16 cores, 48 VMs at 20 ms,
    uncapped, I/O background, ping probe, one shard per scheduler
    (credit, credit2, tableau), every shard seeded with the benchmark
    seed."""
    campaign = importlib.import_module("repro.campaign")
    return campaign.fig6_matrix(
        duration_s=duration_s, seeds=(seed,), vm_counts=(48,)
    )


def count_delta_fallbacks(tracer: Tracer, daemons: List[Any]) -> None:
    """Add the daemons' bounced-delta counts, or report them absent."""
    counts = [getattr(daemon, "delta_fallbacks", None) for daemon in daemons]
    if any(count is None for count in counts):
        tracer.mark_absent("xen.delta_fallbacks")
        return
    tracer.count("xen.delta_fallbacks", sum(counts))


class _ReplanTimer:
    """Times every ``PlannerDaemon.replan`` call made inside the program.

    ``run_service`` builds its daemon internally, so the only way to see
    one replan's host wall from outside is to wrap the public method.
    The wrapper appends one ``(seconds, succeeded)`` pair per call.
    """

    def __init__(self) -> None:
        daemon = importlib.import_module("repro.xen.daemon")
        self._owner = daemon.PlannerDaemon
        self._original = self._owner.replan
        self.samples: List[Tuple[float, bool]] = []
        original, samples = self._original, self.samples

        def replan(*args, **kwargs):
            started = time.perf_counter()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                samples.append((time.perf_counter() - started, ok))

        self._owner.replan = replan

    def close(self) -> None:
        self._owner.replan = self._original


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------


class ServeChurn:
    """The crash-safe served path: admit -> journal -> flush -> replan."""

    name = "serve-churn"
    #: Two repetitions at least, so the same-seed report comparison runs.
    min_reps = 2
    trace_reps = 2
    #: One full diurnal cycle of the default churn (``diurnal_period_s``).
    sim_seconds = 1800.0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.service = importlib.import_module("repro.service")
        self.metrics_mod = importlib.import_module("repro.metrics")
        topology = importlib.import_module("repro.topology")
        self.seed = seed
        self.topology = topology.xeon_16core()
        self.scratch = scratch
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.timer = _ReplanTimer()
        #: Canonical report text by repetition.
        self.reports: Dict[int, str] = {}
        self.requests = 0
        self.failed = 0
        self.errors: List[str] = []
        self.work_s = 0.0
        self.replans: List[Tuple[float, bool]] = []

    def rep(self, index: int, tracer: Optional[Tracer]) -> None:
        journal_path = self.scratch / f"rep{index}.wal"
        journal = self.service.ServiceJournal(journal_path)
        first_sample = len(self.timer.samples)
        started = time.perf_counter()
        try:
            service = self.service.run_service(
                self.topology,
                self.sim_seconds,
                churn=serve_inputs(self.seed, index),
                journal=journal,
            )
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            self.work_s += time.perf_counter() - started
            journal.close()
            self.requests += 1
            self.failed += 1
            self.errors.append(f"rep {index}: {type(error).__name__}: {error}")
            return
        self.work_s += time.perf_counter() - started
        journal.close()
        journal_bytes = journal_path.stat().st_size
        journal_path.unlink()
        self.replans.extend(self.timer.samples[first_sample:])

        report = self.metrics_mod.service_report(service)
        text = self.metrics_mod.service_report_json(report)
        self.reports[index] = text
        total = sum(service.requests_by_kind.values())
        plan_failed = service.rejected.get("plan-failed", 0)
        self.requests += total
        self.failed += plan_failed
        self._check_accounting(index, service, total)
        if tracer is not None:
            count_delta_fallbacks(tracer, [service.daemon])
            tracer.count("service.journal.bytes", journal_bytes)
            tracer.count("service.mutations_committed", service.mutations_committed)
            tracer.count("service.table_pushes", service.table_pushes)
            tracer.count("service.rejected.admission", service.rejected["admission"])
            sojourn_ns = report["sojourn_ns"]["p99"]
            tracer.count("service.sojourn_sim_ms_p99", sojourn_ns / 1e6)
            model_ns = report["replan_latency_ns"]["p50"]
            tracer.count("service.replan_model_ms_p50", model_ns / 1e6)

    def _check_accounting(self, index: int, service: Any, total: int) -> None:
        """submitted = answered queries + committed + each rejection
        reason + still pending (queued or in the in-flight batch)."""
        answered = service.queries_fresh + service.queries_stale
        settled = (
            answered + service.mutations_committed + sum(service.rejected.values())
        )
        pending = total - settled - len(service.queue)
        if not 0 <= pending <= service.config.queue_limit:
            self.errors.append(
                f"rep {index}: request accounting does not close: {total} "
                f"submitted, {settled} settled, {len(service.queue)} queued"
            )

    def finish(self) -> Report:
        self.timer.close()
        shutil.rmtree(self.scratch, ignore_errors=True)
        mismatches = list(self.errors)
        if 1 in self.reports and self.reports[0] != self.reports[1]:
            mismatches.append("service_report_json differs between runs of a stream")
        if 0 in self.reports and self.seed == DEFAULT_SEED:
            want = expected_digest(self.name)
            if sha256(self.reports[0]) != want:
                mismatches.append(
                    f"service report digest {sha256(self.reports[0])} != recorded {want}"
                )
        walls = [s * 1e3 for s, ok in self.replans if ok]
        metrics: Dict[str, Tuple[float, str]] = {}
        detail: List[Tuple[str, float, str, str]] = []
        if walls and self.work_s > 0:
            rate = self.requests / self.work_s
            p50 = stats.median(walls)
            metrics["ops_per_s"] = (rate, "1/s")
            metrics["op_ms_p50"] = (p50, "ms")
            detail += [
                ("requests_per_s", rate, "1/s", "host"),
                ("replan_ms_p50", p50, "ms", f"host, n={len(walls)}"),
            ]
            tail = stats.tail(walls)
            if tail is not None:
                detail.append(
                    (f"replan_ms_p{tail[0]:g}", tail[1], "ms", f"host, n={len(walls)}")
                )
        detail.append((
            "error_ratio", self.failed / max(self.requests, 1), "ratio",
            f"{self.failed}/{self.requests} requests plan-failed or raised",
        ))
        return Report(
            metrics=metrics,
            detail=detail,
            attempted=max(self.requests, 1),
            failed=self.failed,
            mismatches=mismatches,
            work_s=self.work_s,
        )


# ----------------------------------------------------------------------
# fig3-mixed
# ----------------------------------------------------------------------

#: Fig. 3's latency goals, in ms.
LATENCY_GOALS_MS = (1, 30, 60, 100)

#: Census sizes: 44 guest cores, one to four VMs per core, grown and
#: torn down four VMs per step.
CENSUS_MIN = 44
CENSUS_STEP = 4


def table_digest(table: Any) -> str:
    """A digest of ``table`` that ignores vCPU names: each name becomes
    the order in which it first appears, scanning cores in cpu order."""
    ids: Dict[Optional[str], int] = {None: -1}
    hasher = hashlib.sha256(str(table.length_ns).encode())
    for cpu in sorted(table.cores):
        parts = [f"|{cpu}"]
        for allocation in table.cores[cpu].allocations:
            vcpu = ids.setdefault(allocation.vcpu, len(ids) - 1)
            parts.append(f"{allocation.start},{allocation.end},{vcpu}")
        hasher.update(";".join(parts).encode())
    return hasher.hexdigest()


def tables_match(staged: Any, planned: Any) -> bool:
    """Allocation-for-allocation equality of two system tables."""
    if staged is None or staged.length_ns != planned.length_ns:
        return False
    if set(staged.cores) != set(planned.cores):
        return False
    return all(
        staged.cores[cpu].allocations == planned.cores[cpu].allocations
        for cpu in planned.cores
    )


class Fig3Mixed:
    """Toolstack-style replanning of mixed-U censuses at Fig. 3's goals."""

    name = "fig3-mixed"
    #: Three census draws at least: peak memory is read after them, when
    #: the process-wide core cache holds enough draws that its size no
    #: longer swings with one draw's table sizes.
    min_reps = 3
    trace_reps = 1
    census_max = 176

    def __init__(self, seed: int, scratch: Path) -> None:
        self.core = importlib.import_module("repro.core")
        self.table_mod = importlib.import_module("repro.core.table")
        self.daemon_mod = importlib.import_module("repro.xen.daemon")
        self.hypercall_mod = importlib.import_module("repro.xen.hypercall")
        self.tableau = importlib.import_module("repro.schedulers.tableau")
        topology = importlib.import_module("repro.topology")
        self.seed = seed
        self.topology = topology.xeon_48core()
        self.daemons = self._daemons()
        #: One (latency goal, phase, seconds, succeeded) per replan.
        self.replans: List[Tuple[int, str, float, bool]] = []
        self.failures_by_goal = {goal: 0 for goal in LATENCY_GOALS_MS}
        self.rep_digests: List[str] = []
        self.errors: List[str] = []
        self.work_s = 0.0

    def _daemons(self) -> Dict[int, Tuple[Any, Any]]:
        """One (daemon, hypercall) pair per latency goal, each pushing to
        its own Tableau dispatcher that starts from an empty table."""
        pairs = {}
        for goal in LATENCY_GOALS_MS:
            empty = self.table_mod.SystemTable(length_ns=self.core.MS, cores={})
            hypercall = self.hypercall_mod.TableHypercall(
                self.tableau.TableauScheduler(empty)
            )
            daemon = self.daemon_mod.PlannerDaemon(
                self.topology, hypercall=hypercall
            )
            pairs[goal] = (daemon, hypercall)
        return pairs

    def rep(self, index: int, tracer: Optional[Tracer]) -> None:
        if index > 0:
            self.daemons = self._daemons()
        utilizations = fig3_inputs(self.seed, index, self.census_max)
        sizes = list(range(CENSUS_MIN, self.census_max + 1, CENSUS_STEP))
        digests: Dict[Tuple[int, int, str], str] = {}
        for goal in LATENCY_GOALS_MS:
            daemon, hypercall = self.daemons[goal]
            vms = [
                self.core.make_vm(f"vm{i:03d}", u, goal * self.core.MS)
                for i, u in enumerate(utilizations)
            ]
            passes = [("grow", n) for n in sizes]
            passes += [("teardown", n) for n in reversed(sizes[:-1])]
            for phase, count in passes:
                digests[(goal, count, phase)] = self._replan(
                    daemon, hypercall, vms[:count], goal, phase, tracer
                )
        for (goal, count, phase), digest in digests.items():
            if phase == "teardown" and digests[(goal, count, "grow")] != digest:
                self.errors.append(
                    f"rep {index}: L={goal} ms, {count} VMs: teardown table "
                    "differs from the grow table of the same census"
                )
        if tracer is not None:
            count_delta_fallbacks(tracer, [pair[0] for pair in self.daemons.values()])
        self.rep_digests.append(sha256(json.dumps(sorted(
            f"{goal}/{count}/{phase}/{digest}"
            for (goal, count, phase), digest in digests.items()
        ))))

    def _replan(self, daemon, hypercall, census, goal, phase, tracer) -> str:
        started = time.perf_counter()
        try:
            result = daemon.replan(census, reason=f"{phase} to {len(census)}")
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            wall = time.perf_counter() - started
            self.work_s += wall
            self.replans.append((goal, phase, wall, False))
            self.failures_by_goal[goal] += 1
            if tracer is not None:
                tracer.count(f"core.plan.fail.L{goal}")
            return f"error:{type(error).__name__}"
        wall = time.perf_counter() - started
        self.work_s += wall
        self.replans.append((goal, phase, wall, True))
        if not tables_match(hypercall.staged_table, result.table):
            self.errors.append(
                f"L={goal} ms, {len(census)} VMs ({phase}): staged table "
                "differs from the planned table"
            )
        return table_digest(result.table)

    def finish(self) -> Report:
        mismatches = list(self.errors)
        if self.rep_digests and self.seed == DEFAULT_SEED:
            want = expected_digest(self.name)
            if self.rep_digests[0] != want:
                mismatches.append(
                    f"census table digest {self.rep_digests[0]} != recorded {want}"
                )
        attempted = len(self.replans)
        failed = sum(self.failures_by_goal.values())
        cold = [s * 1e3 for _, ph, s, ok in self.replans if ok and ph == "grow"]
        warm = [s * 1e3 for _, ph, s, ok in self.replans if ok and ph != "grow"]
        metrics: Dict[str, Tuple[float, str]] = {}
        detail: List[Tuple[str, float, str, str]] = []
        if cold and warm and self.work_s > 0:
            rate = attempted / self.work_s
            # Per-curve rates, combined by geometric mean so that the
            # L = 1 ms curve, whose cost swings with which censuses it
            # fails, weighs as one curve of four rather than most of
            # the wall.
            per_goal = {
                goal: [s for g, _, s, _ in self.replans if g == goal]
                for goal in LATENCY_GOALS_MS
            }
            curve_rate = stats.geometric_mean(
                len(walls) / sum(walls) for walls in per_goal.values()
            )
            metrics["ops_per_s"] = (curve_rate, "1/s")
            metrics["op_ms_p50"] = (stats.median(cold), "ms")
            for goal, walls in per_goal.items():
                detail.append((
                    f"replans_per_s.L{goal}", len(walls) / sum(walls), "1/s",
                    "host, failed replans included",
                ))
            detail += [
                ("replans_per_s.geomean", curve_rate, "1/s", "host, the four curves"),
                ("replans_per_s", rate, "1/s", "host, failed replans included"),
                ("replan_ms_p50", stats.median(cold), "ms",
                 f"host, cold grow pass, n={len(cold)}"),
                ("replan_warm_ms_p50", stats.median(warm), "ms",
                 f"host, warm teardown pass, n={len(warm)}"),
            ]
        detail.append(("error_ratio", failed / max(attempted, 1), "ratio",
                       f"{failed}/{attempted} replans raised"))
        for goal, count in self.failures_by_goal.items():
            detail.append((f"core.plan.fail.L{goal}", count, "count", "replans raised"))
        return Report(
            metrics=metrics,
            detail=detail,
            attempted=max(attempted, 1),
            failed=failed,
            mismatches=mismatches,
            work_s=self.work_s,
        )


# ----------------------------------------------------------------------
# fig6-campaign
# ----------------------------------------------------------------------


class Fig6Campaign:
    """The figure-reproduction path: plan -> build -> simulate -> aggregate."""

    name = "fig6-campaign"
    min_reps = 2
    trace_reps = 3
    #: Simulated seconds per shard (the ``fig6_matrix`` default).
    duration_s = 0.5

    def __init__(self, seed: int, scratch: Path) -> None:
        self.campaign = importlib.import_module("repro.campaign")
        self.seed = seed
        self.matrix = fig6_inputs(seed, self.duration_s)
        self.aggregates: List[str] = []
        self.walls: List[float] = []
        self.events = 0
        self.shards = 0
        self.failed = 0
        self.errors: List[str] = []
        self.work_s = 0.0

    def rep(self, index: int, tracer: Optional[Tracer]) -> None:
        started = time.perf_counter()
        try:
            result = self.campaign.run_campaign(self.matrix, workers=1)
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            self.work_s += time.perf_counter() - started
            self.shards += 1
            self.failed += 1
            self.errors.append(f"rep {index}: {type(error).__name__}: {error}")
            return
        wall = time.perf_counter() - started
        self.work_s += wall
        self.walls.append(wall)
        self.aggregates.append(self.campaign.aggregate_json(result.aggregate))
        self.shards += len(result.records)
        self.failed += len(result.failures)
        for record in result.records:
            if record.get("status") == "ok":
                self.events += int(record["metrics"]["events"])
                if tracer is not None:
                    scheduler = record["spec"]["scheduler"]
                    for key in ("events", "context_switches", "migrations"):
                        tracer.count(f"sim.{key}", record["metrics"][key])
                    events = record["metrics"]["events"]
                    tracer.count(f"sim.{scheduler}.events", events)

    def finish(self) -> Report:
        mismatches = list(self.errors)
        if len(set(self.aggregates)) > 1:
            mismatches.append("aggregate_json differs between runs of one seed")
        if self.aggregates and self.seed == DEFAULT_SEED:
            want = expected_digest(self.name)
            if sha256(self.aggregates[0]) != want:
                mismatches.append(
                    f"aggregate digest {sha256(self.aggregates[0])} != recorded {want}"
                )
        metrics: Dict[str, Tuple[float, str]] = {}
        detail: List[Tuple[str, float, str, str]] = []
        if self.walls and self.work_s > 0:
            rate = self.events / self.work_s
            wall_ms = stats.median([w * 1e3 for w in self.walls])
            metrics["ops_per_s"] = (rate, "1/s")
            metrics["op_ms_p50"] = (wall_ms, "ms")
            detail += [
                ("sim_events_per_s", rate, "1/s", "simulated events per host second"),
                ("campaign_ms_p50", wall_ms, "ms", f"host, n={len(self.walls)}"),
            ]
        detail.append((
            "error_ratio", self.failed / max(self.shards, 1), "ratio",
            f"{self.failed}/{self.shards} shards failed",
        ))
        return Report(
            metrics=metrics,
            detail=detail,
            attempted=max(self.shards, 1),
            failed=self.failed,
            mismatches=mismatches,
            work_s=self.work_s,
        )


WORKLOADS = {cls.name: cls for cls in (ServeChurn, Fig3Mixed, Fig6Campaign)}
