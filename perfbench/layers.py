"""Where the traced run opens spans, and how spans become layer metrics.

Every instrumentation point is a public entry point of one layer of
``repro``.  A point whose module or attribute no longer exists (a later
change deleted the layer) is skipped and its span reported absent; its
metrics then read 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracer import AfterHook, Tracer, self_times


def _push_bytes(tracer: Tracer, _instance: Any, _args, _kwargs, record: Any) -> None:
    """Add the pushed payload's size to the span that just closed."""
    name = tracer.spans[-1][2]
    tracer.count(f"{name}.bytes", getattr(record, "table_bytes", 0))


def _simulated_by(tracer: Tracer, scenario: Any, _args, _kwargs, _result) -> None:
    """Charge the span that just closed to the scenario's scheduler."""
    _span_id, _parent, _name, start, end, _op = tracer.spans[-1]
    tracer.count(f"sim.{scenario.scheduler_name}.s", end - start)


def _plan_for_hit(tracer: Tracer, _instance, _args, _kwargs, result: Any) -> None:
    if getattr(result.stats, "plan_cache_hit", False):
        tracer.count("experiments.plan_for.hits")


#: (target, span name, operation root, after-call hook or None).
INSTRUMENTS: List[Tuple[str, str, bool, Optional[AfterHook]]] = [
    # repro.service
    ("repro.service:run_service", "service.run", False, None),
    ("repro.service.control:SchedulerService.submit", "service.submit", True, None),
    ("repro.service.journal:ServiceJournal.append_request", "service.journal.append",
     False, None),
    ("repro.service.journal:ServiceJournal.append_commit", "service.journal.append",
     False, None),
    ("repro.service.churn:encode_rng_state", "service.checkpoint.encode", False, None),
    # repro.xen
    ("repro.xen.daemon:PlannerDaemon.replan", "xen.replan", True, None),
    ("repro.xen.hypercall:TableHypercall.push_system_table", "xen.push_full",
     False, _push_bytes),
    ("repro.xen.hypercall:TableHypercall.push_system_table_delta", "xen.push_delta",
     False, _push_bytes),
    # repro.core caches
    ("repro.core.cache:TableCache.plan", "core.table_cache", False, None),
    ("repro.core.cache:rebind_plan", "core.rebind", False, None),
    # repro.core planner
    ("repro.core.planner:Planner.plan", "core.plan", False, None),
    ("repro.core.planner:admit_or_raise", "core.admission", False, None),
    ("repro.core.planner:worst_fit_decreasing", "core.wfd", False, None),
    ("repro.core.planner:semi_partition", "core.split", False, None),
    ("repro.core.planner:dp_wrap_schedule", "core.optimal", False, None),
    ("repro.core.planner:materialize_core_columns", "core.edf", False, None),
    ("repro.core.table:CoreTable.build_slices", "core.slices", False, None),
    ("repro.xen.hypercall:serialize", "core.serialize", False, None),
    ("repro.xen.hypercall:serialize_delta", "core.serialize", False, None),
    ("repro.xen.hypercall:deserialize", "core.deserialize", False, None),
    ("repro.xen.hypercall:deserialize_delta", "core.deserialize", False, None),
    # repro.sim + repro.schedulers
    ("repro.sim.machine:Machine.run", "sim.run", False, None),
    # repro.campaign + repro.experiments
    ("repro.campaign:run_campaign", "campaign.run", False, None),
    ("repro.campaign.runner:run_shard", "campaign.shard", True, None),
    ("repro.experiments.scenarios:plan_for", "campaign.plan", False, _plan_for_hit),
    ("repro.experiments.scenarios:build_scenario", "campaign.build", False, None),
    ("repro.experiments.scenarios:Scenario.run_seconds", "campaign.simulate",
     False, _simulated_by),
    ("repro.campaign.runner:aggregate_records", "campaign.aggregate", False, None),
]


def instrument(tracer: Tracer) -> None:
    """Wrap every instrumentation point; a span name is reported absent
    only when none of its targets exists."""
    installed: Dict[str, bool] = {}
    for target, name, op_root, after in INSTRUMENTS:
        ok = tracer.wrap(target, name, op_root=op_root, after=after)
        installed[name] = installed.get(name, False) or ok
    tracer.absent = [name for name, ok in installed.items() if not ok]


#: Per-layer metrics: name -> unit.  Values are per traced repetition.
PER_LAYER_UNITS: Dict[str, str] = {
    "service.run.self_ms": "ms",
    "service.submit.calls": "count",
    "service.submit.self_ms": "ms",
    "service.journal.appends": "count",
    "service.journal.append_ms": "ms",
    "service.journal.bytes": "B",
    "service.checkpoint.encode_ms": "ms",
    "service.mutations_per_push": "ratio",
    "service.rejected.admission": "count",
    "service.sojourn_sim_ms_p99": "sim_ms",
    "service.replan_model_ms_p50": "sim_ms",
    "xen.replan.calls": "count",
    "xen.replan.self_ms": "ms",
    "xen.push_full.calls": "count",
    "xen.push_full.ms": "ms",
    "xen.push_full.bytes": "B",
    "xen.push_delta.calls": "count",
    "xen.push_delta.ms": "ms",
    "xen.push_delta.bytes": "B",
    "xen.delta_fallbacks": "count",
    "core.table_cache.calls": "count",
    "core.table_cache.hit_ratio": "ratio",
    "core.rebind.calls": "count",
    "core.rebind.ms": "ms",
    "core.plan.calls": "count",
    "core.plan.self_ms": "ms",
    "core.admission.ms": "ms",
    "core.wfd.ms": "ms",
    "core.split.calls": "count",
    "core.optimal.calls": "count",
    "core.edf.calls": "count",
    "core.edf.ms": "ms",
    "core.edf.per_plan": "ratio",
    "core.slices.calls": "count",
    "core.slices.ms": "ms",
    "core.serialize.ms": "ms",
    "core.deserialize.ms": "ms",
    "core.plan.fail.L1": "count",
    "core.plan.fail.L30": "count",
    "core.plan.fail.L60": "count",
    "core.plan.fail.L100": "count",
    "sim.events": "count",
    "sim.run.ms": "ms",
    "sim.tableau.events_per_s": "1/s",
    "sim.credit.events_per_s": "1/s",
    "sim.credit2.events_per_s": "1/s",
    "sim.context_switches": "count",
    "sim.migrations": "count",
    "campaign.plan_ms": "ms",
    "campaign.build_ms": "ms",
    "campaign.simulate_ms": "ms",
    "campaign.aggregate_ms": "ms",
    "experiments.plan_for.hit_ratio": "ratio",
    "trace.wall_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms": "ms",
}


def layer_metrics(
    tracer: Tracer, reps: int, traced_s: float, untraced_s: float
) -> Dict[str, float]:
    """Per-layer values, each per traced repetition.

    ``traced_s`` and ``untraced_s`` are the work walls of the same
    repetitions with and without tracing.
    """
    totals = self_times(tracer.spans)
    counters = tracer.counters

    def calls(name: str) -> float:
        entry = totals.get(name)
        return entry.calls if entry else 0

    def total_ms(name: str) -> float:
        entry = totals.get(name)
        return entry.total_s * 1e3 if entry else 0.0

    def self_ms(name: str) -> float:
        entry = totals.get(name)
        return entry.self_s * 1e3 if entry else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def counter(name: str) -> float:
        return counters.get(name, 0)

    values: Dict[str, float] = {
        "service.run.self_ms": self_ms("service.run"),
        "service.submit.calls": calls("service.submit"),
        "service.submit.self_ms": self_ms("service.submit"),
        "service.journal.appends": calls("service.journal.append"),
        "service.journal.append_ms": total_ms("service.journal.append"),
        "service.journal.bytes": counter("service.journal.bytes"),
        "service.checkpoint.encode_ms": total_ms("service.checkpoint.encode"),
        "service.rejected.admission": counter("service.rejected.admission"),
        "service.sojourn_sim_ms_p99": counter("service.sojourn_sim_ms_p99"),
        "service.replan_model_ms_p50": counter("service.replan_model_ms_p50"),
        "xen.replan.calls": calls("xen.replan"),
        "xen.replan.self_ms": self_ms("xen.replan"),
        "xen.push_full.calls": calls("xen.push_full"),
        "xen.push_full.ms": total_ms("xen.push_full"),
        "xen.push_full.bytes": counter("xen.push_full.bytes"),
        "xen.push_delta.calls": calls("xen.push_delta"),
        "xen.push_delta.ms": total_ms("xen.push_delta"),
        "xen.push_delta.bytes": counter("xen.push_delta.bytes"),
        "xen.delta_fallbacks": counter("xen.delta_fallbacks"),
        "core.table_cache.calls": calls("core.table_cache"),
        "core.rebind.calls": calls("core.rebind"),
        "core.rebind.ms": total_ms("core.rebind"),
        "core.plan.calls": calls("core.plan"),
        "core.plan.self_ms": self_ms("core.plan"),
        "core.admission.ms": total_ms("core.admission"),
        "core.wfd.ms": total_ms("core.wfd"),
        "core.split.calls": calls("core.split"),
        "core.optimal.calls": calls("core.optimal"),
        "core.edf.calls": calls("core.edf"),
        "core.edf.ms": total_ms("core.edf"),
        "core.slices.calls": calls("core.slices"),
        "core.slices.ms": total_ms("core.slices"),
        "core.serialize.ms": total_ms("core.serialize"),
        "core.deserialize.ms": total_ms("core.deserialize"),
        "sim.events": counter("sim.events"),
        "sim.run.ms": total_ms("sim.run"),
        "sim.context_switches": counter("sim.context_switches"),
        "sim.migrations": counter("sim.migrations"),
        "campaign.plan_ms": total_ms("campaign.plan"),
        "campaign.build_ms": total_ms("campaign.build"),
        "campaign.simulate_ms": total_ms("campaign.simulate"),
        "campaign.aggregate_ms": total_ms("campaign.aggregate"),
    }
    for goal in (1, 30, 60, 100):
        values[f"core.plan.fail.L{goal}"] = counter(f"core.plan.fail.L{goal}")
    # Per repetition: every count and time above is a run total.
    values = {name: value / reps for name, value in values.items()}

    # Ratios of run totals need no per-repetition scaling.
    values["service.mutations_per_push"] = ratio(
        counter("service.mutations_committed"), counter("service.table_pushes")
    )
    values["core.table_cache.hit_ratio"] = ratio(
        calls("core.rebind"), calls("core.table_cache")
    )
    values["core.edf.per_plan"] = ratio(calls("core.edf"), calls("core.plan"))
    values["experiments.plan_for.hit_ratio"] = ratio(
        counter("experiments.plan_for.hits"), calls("campaign.plan")
    )
    for scheduler in ("tableau", "credit", "credit2"):
        values[f"sim.{scheduler}.events_per_s"] = ratio(
            counter(f"sim.{scheduler}.events"), counter(f"sim.{scheduler}.s")
        )

    attributed_s = sum(entry.self_s for entry in totals.values())
    values["trace.wall_ms"] = traced_s * 1e3 / reps
    values["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
    values["trace.unattributed_ms"] = (traced_s - attributed_s) * 1e3 / reps
    return values

