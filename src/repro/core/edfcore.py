"""Columnar per-core table materialization (the planner's hot kernel).

This is the planning-side mirror of :mod:`repro.sim.arraycore`: the
per-core pipeline (EDF simulation, budget validation, piece renaming,
adjacent merging, threshold coalescing) rewritten over flat ``array('q')``
columns with integer task handles.  No ``_Job`` objects, no tuple heap —
the ready queue holds packed integers (``deadline * total_jobs + seq``)
and job state lives in three parallel columns indexed by release
sequence number.

The output is bit-identical to the object pipeline in
:func:`repro.core.edf.simulate_edf` + :func:`repro.core.planner`'s rename
and :func:`repro.core.postprocess.coalesce` — the differential suite in
``tests/core/test_columnar_edf.py`` holds both paths equal — but it
builds the final :class:`~repro.core.table.CoreTable` segment columns
directly in the :meth:`~repro.core.table.CoreTable.as_arrays` layout, so
the dispatcher's array engine and the ``'TBLD'`` delta serializer consume the
planner's own columns with no re-derivation.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.postprocess import CoalesceReport
from repro.core.table import Allocation, CoreTable
from repro.core.tasks import PeriodicTask
from repro.errors import ConfigurationError, PlanningError
from repro.hotpath import coldpath, hotpath

#: Structural memo for :func:`materialize_core_columns`.  The segment
#: columns are a pure function of the task *shape* — the per-task
#: (period, cost, deadline, offset) columns plus the piece->base-vCPU
#: grouping — never of the vCPU names or the core id, which only label
#: the result.  Cores across a census (and across planner instances)
#: overwhelmingly share shapes: a VM-create burst of identical tiers
#: differs core-to-core only in names, so one EDF simulation serves all
#: of them.  Cached per shape: the final allocation columns, the shared
#: (immutable-by-contract) ``as_arrays`` segment arrays, and the
#: coalesce accounting keyed by base-vCPU *index* so a hit can replay it
#: under the core's actual names.  Only successful materializations are
#: cached — failures re-run so diagnostics carry the right task names.
_SHAPE_CACHE: Dict[tuple, tuple] = {}
_SHAPE_CACHE_SIZE = 1024


@coldpath
def _raise_deadline_miss(
    cpu: int, name: str, deadline: int, now: int, remaining: int
) -> None:
    """Deadline-miss diagnostics, matching :func:`repro.core.edf.simulate_edf`."""
    if remaining == 0:
        raise PlanningError(
            f"cpu{cpu}: {name} missed deadline {deadline} (completed {now})"
        )
    raise PlanningError(
        f"cpu{cpu}: {name} cannot meet deadline "
        f"{deadline} ({remaining} ns left at {now})"
    )


@hotpath
def _edf_kernel(
    packed_releases: List[int],
    costs: List[int],
    deadlines: List[int],
    num_tasks: int,
    horizon: int,
    names: Sequence[str],
    cpu: int,
    seg_ends: array,
    seg_ids: array,
) -> None:
    """EDF simulation over packed-integer columns.

    ``packed_releases`` holds ``release * num_tasks + task_index`` in
    ascending order; the ready heap holds ``deadline * total + seq``.
    Both encodings preserve the object simulator's exact tie-breaking
    ((release, task_index) admission order, (deadline, seq) dispatch
    order) while keeping every heap element a plain integer.  Segments
    merged per task index are appended to ``seg_ends``/``seg_ids`` with
    the start implied by the previous end (gaps carry id -1), which is
    already the ``as_arrays()`` layout the dispatcher plays back.
    """
    total = len(packed_releases)
    job_task = array("q", bytes(8 * total))
    job_rem = array("q", bytes(8 * total))
    job_dl = array("q", bytes(8 * total))
    ready: List[int] = []
    now = 0
    cursor = 0  # end of the last emitted segment (0 = nothing emitted)
    release_index = 0
    seq = 0
    nseg = 0
    while release_index < total or ready:
        while release_index < total:
            packed = packed_releases[release_index]
            release = packed // num_tasks
            if release > now:
                break
            task_index = packed - release * num_tasks
            release_index += 1
            deadline = release + deadlines[task_index]
            job_task[seq] = task_index
            job_rem[seq] = costs[task_index]
            job_dl[seq] = deadline
            heappush(ready, deadline * total + seq)
            seq += 1
        if not ready:
            now = packed_releases[release_index] // num_tasks
            continue
        top = ready[0]
        job = top - (top // total) * total
        if release_index < total:
            next_release = packed_releases[release_index] // num_tasks
        else:
            next_release = horizon
        remaining = job_rem[job]
        run_until = now + remaining
        if next_release < run_until:
            run_until = next_release
        if run_until > now:
            task_index = job_task[job]
            if nseg and seg_ids[nseg - 1] == task_index and cursor == now:
                seg_ends[nseg - 1] = run_until
            else:
                if now > cursor:
                    seg_ends.append(now)
                    seg_ids.append(-1)
                    nseg += 1
                seg_ends.append(run_until)
                seg_ids.append(task_index)
                nseg += 1
            cursor = run_until
        job_rem[job] = remaining - (run_until - now)
        now = run_until
        if job_rem[job] == 0:
            heappop(ready)
            if now > job_dl[job]:
                _raise_deadline_miss(cpu, names[job_task[job]], job_dl[job], now, 0)
        elif now >= job_dl[job]:
            _raise_deadline_miss(
                cpu, names[job_task[job]], job_dl[job], now, job_rem[job]
            )
    if cursor < horizon:
        seg_ends.append(horizon)
        seg_ids.append(-1)


def _packed_releases(
    tasks: Sequence[PeriodicTask], horizon: int
) -> Tuple[List[int], List[int], List[int]]:
    """Per-task columns plus the sorted packed release list."""
    num_tasks = len(tasks)
    costs: List[int] = []
    deadlines: List[int] = []
    packed: List[int] = []
    for index, task in enumerate(tasks):
        if horizon % task.period != 0:
            raise ConfigurationError(
                f"horizon {horizon} is not a multiple of {task.name}'s "
                f"period {task.period}"
            )
        costs.append(task.cost)
        deadlines.append(task.deadline or task.period)
        period = task.period
        offset = task.offset
        for k in range(horizon // period):
            packed.append((k * period + offset) * num_tasks + index)
    packed.sort()
    return packed, costs, deadlines


def _validate_columns(
    seg_ends: array,
    seg_ids: array,
    tasks: Sequence[PeriodicTask],
    horizon: int,
    cpu: int,
) -> None:
    """Columnar twin of :func:`repro.core.table.validate_against_tasks`.

    Splits the gap-free segment columns into per-task interval lists
    (already time-ordered and per-task merged, exactly like
    ``service_intervals``) and runs the identical pointer sweep.
    """
    per_task: List[List[Tuple[int, int]]] = [[] for _ in tasks]
    cursor = 0
    for k in range(len(seg_ends)):
        end = seg_ends[k]
        task_index = seg_ids[k]
        if task_index >= 0:
            per_task[task_index].append((cursor, end))
        cursor = end
    for task_index, task in enumerate(tasks):
        intervals = per_task[task_index]
        job_count = horizon // task.period
        count = len(intervals)
        cursor = 0
        deadline_rel = task.deadline or task.period
        for k in range(job_count):
            release = k * task.period + task.offset
            deadline = release + deadline_rel
            while cursor < count and intervals[cursor][1] <= release:
                cursor += 1
            served = 0
            index = cursor
            while index < count:
                start, end = intervals[index]
                if start >= deadline:
                    break
                lo = release if start < release else start
                hi = deadline if end > deadline else end
                if hi > lo:
                    served += hi - lo
                index += 1
            if served < task.cost:
                raise PlanningError(
                    f"cpu{cpu}: job {k} of {task.name} got {served} ns "
                    f"of {task.cost} ns before its deadline at {deadline}"
                )


def _rename_merge(
    seg_ends: array,
    seg_ids: array,
    base_of: List[int],
    report: CoalesceReport,
) -> Tuple[List[int], List[int], List[int]]:
    """Rename piece ids to base-vCPU ids and merge touching same-id runs.

    Equivalent to the planner's piece-suffix rename followed by the
    first ``merge_adjacent`` pass inside ``coalesce`` (merges are
    counted identically).  Returns mutable parallel lists (idle gaps
    dropped — idle is implicit between allocations).
    """
    starts: List[int] = []
    ends: List[int] = []
    ids: List[int] = []
    cursor = 0
    for k in range(len(seg_ends)):
        end = seg_ends[k]
        piece = seg_ids[k]
        if piece >= 0:
            base = base_of[piece]
            if ids and ids[-1] == base and ends[-1] == cursor:
                ends[-1] = end
                report.merged_count += 1
            else:
                starts.append(cursor)
                ends.append(end)
                ids.append(base)
        cursor = end
    return starts, ends, ids


def _coalesce_columns(
    starts: List[int],
    ends: List[int],
    ids: List[int],
    base_names: List[str],
    threshold_ns: int,
    report: CoalesceReport,
) -> Tuple[List[int], List[int], List[int]]:
    """Columnar replica of :func:`repro.core.postprocess.coalesce`.

    The fixed-point structure (merge pass, first sub-threshold victim,
    absorb/donate/drop, restart) is replicated literally so merge and
    transfer accounting — and therefore the final table — match the
    object pass bit for bit.  The caller is expected to have run the
    first merge pass already (:func:`_rename_merge`).
    """
    while True:
        changed = False
        for index in range(len(starts)):
            if ends[index] - starts[index] >= threshold_ns:
                continue
            length = ends[index] - starts[index]
            vcpu = ids[index]
            prev_touches = index > 0 and ends[index - 1] == starts[index]
            next_touches = (
                index + 1 < len(starts) and starts[index + 1] == ends[index]
            )
            if prev_touches and ids[index - 1] == vcpu:
                ends[index - 1] = ends[index]
            elif next_touches and ids[index + 1] == vcpu:
                starts[index + 1] = starts[index]
            elif prev_touches and next_touches:
                # Donate to the longer neighbour (least relative impact).
                prev_len = ends[index - 1] - starts[index - 1]
                next_len = ends[index + 1] - starts[index + 1]
                if prev_len >= next_len:
                    ends[index - 1] = ends[index]
                    report.record_transfer(
                        base_names[vcpu], base_names[ids[index - 1]], length
                    )
                else:
                    starts[index + 1] = starts[index]
                    report.record_transfer(
                        base_names[vcpu], base_names[ids[index + 1]], length
                    )
            elif prev_touches:
                ends[index - 1] = ends[index]
                report.record_transfer(
                    base_names[vcpu], base_names[ids[index - 1]], length
                )
            elif next_touches:
                starts[index + 1] = starts[index]
                report.record_transfer(
                    base_names[vcpu], base_names[ids[index + 1]], length
                )
            else:
                report.record_transfer(base_names[vcpu], None, length)
                report.dropped_count += 1
            del starts[index]
            del ends[index]
            del ids[index]
            changed = True
            break  # restart the scan on the mutated list
        if not changed:
            return starts, ends, ids
        # Re-merge: an absorption can make two same-vCPU runs adjacent.
        merged_s: List[int] = []
        merged_e: List[int] = []
        merged_i: List[int] = []
        for k in range(len(starts)):
            if merged_i and merged_i[-1] == ids[k] and merged_e[-1] == starts[k]:
                merged_e[-1] = ends[k]
                report.merged_count += 1
            else:
                merged_s.append(starts[k])
                merged_e.append(ends[k])
                merged_i.append(ids[k])
        starts, ends, ids = merged_s, merged_e, merged_i


def _segment_columns(
    starts: List[int],
    ends: List[int],
    ids: List[int],
    horizon: int,
) -> Tuple[array, array, array]:
    """Gap-free ``as_arrays`` columns from the final allocation lists."""
    seg_starts = array("q")
    seg_ends = array("q")
    seg_ids = array("q")
    cursor = 0
    for k in range(len(starts)):
        start = starts[k]
        if start > cursor:
            seg_starts.append(cursor)
            seg_ends.append(start)
            seg_ids.append(-1)
        seg_starts.append(start)
        seg_ends.append(ends[k])
        seg_ids.append(ids[k])
        cursor = ends[k]
    if cursor < horizon:
        seg_starts.append(cursor)
        seg_ends.append(horizon)
        seg_ids.append(-1)
    return seg_starts, seg_ends, seg_ids


def base_names_of(tasks: Sequence[PeriodicTask]) -> Tuple[List[str], List[int]]:
    """Base-vCPU name table + per-task base-id column (piece suffix stripped)."""
    base_names: List[str] = []
    base_index = {}
    base_of: List[int] = []
    for task in tasks:
        base = task.name.split("#")[0]
        existing = base_index.get(base)
        if existing is None:
            existing = len(base_names)
            base_index[base] = existing
            base_names.append(base)
        base_of.append(existing)
    return base_names, base_of


def materialize_core_columns(
    core: int,
    tasks: Sequence[PeriodicTask],
    horizon: int,
    threshold_ns: int,
) -> Tuple[CoreTable, CoalesceReport]:
    """The full columnar per-core pipeline.

    EDF simulation, budget validation, piece renaming and coalescing all
    run over integer columns; :class:`Allocation` objects are built once,
    from the final columns.  The returned table carries its segment
    columns (``_seg_*``) so ``as_arrays()`` and the ``'TBLD'`` delta serializer
    are zero-copy.
    """
    base_names, base_of = base_names_of(tasks)
    shape = (
        horizon,
        threshold_ns,
        tuple(base_of),
        tuple(
            (task.period, task.cost, task.deadline or task.period, task.offset)
            for task in tasks
        ),
    )
    cached = _SHAPE_CACHE.get(shape)
    if cached is not None:
        starts, ends, ids, seg_columns, lost, gained, merged, dropped = cached
        report = CoalesceReport(
            lost_ns={base_names[k]: v for k, v in lost},
            gained_ns={base_names[k]: v for k, v in gained},
            merged_count=merged,
            dropped_count=dropped,
        )
        allocations = [
            Allocation(starts[k], ends[k], base_names[ids[k]])
            for k in range(len(starts))
        ]
        table = CoreTable(cpu=core, length_ns=horizon, allocations=allocations)
        # Layout was validated when the shape was first materialized.
        table.attach_columns(*seg_columns, base_names)
        return table, report

    names = [task.name for task in tasks]
    packed, costs, deadlines = _packed_releases(tasks, horizon)
    seg_ends = array("q")
    seg_ids = array("q")
    _edf_kernel(
        packed, costs, deadlines, len(tasks), horizon, names, core,
        seg_ends, seg_ids,
    )
    _validate_columns(seg_ends, seg_ids, tasks, horizon, core)
    # Run rename + coalesce with base *indices* standing in for names, so
    # the transfer accounting is name-free and replayable on shape hits.
    index_report = CoalesceReport()
    starts, ends, ids = _rename_merge(seg_ends, seg_ids, base_of, index_report)
    starts, ends, ids = _coalesce_columns(
        starts, ends, ids, list(range(len(base_names))), threshold_ns, index_report
    )
    report = CoalesceReport(
        lost_ns={base_names[k]: v for k, v in index_report.lost_ns.items()},
        gained_ns={base_names[k]: v for k, v in index_report.gained_ns.items()},
        merged_count=index_report.merged_count,
        dropped_count=index_report.dropped_count,
    )
    allocations = [
        Allocation(starts[k], ends[k], base_names[ids[k]])
        for k in range(len(starts))
    ]
    table = CoreTable(cpu=core, length_ns=horizon, allocations=allocations)
    table.validate_layout()
    seg_columns = _segment_columns(starts, ends, ids, horizon)
    table.attach_columns(*seg_columns, base_names)
    if len(_SHAPE_CACHE) >= _SHAPE_CACHE_SIZE:
        _SHAPE_CACHE.clear()
    _SHAPE_CACHE[shape] = (
        tuple(starts),
        tuple(ends),
        tuple(ids),
        seg_columns,
        tuple(index_report.lost_ns.items()),
        tuple(index_report.gained_ns.items()),
        index_report.merged_count,
        index_report.dropped_count,
    )
    return table, report


def core_table_from_columns(
    cpu: int,
    length_ns: int,
    ends: array,
    handles: array,
    names: Sequence[str],
) -> CoreTable:
    """Rebuild a :class:`CoreTable` from gap-free ``(ends, handles)`` columns.

    The inverse of :meth:`CoreTable.as_arrays` for planner-produced
    tables (which never contain explicit idle allocation records):
    every segment with a non-negative handle becomes one allocation.
    Used by the delta table push and the columnar process-pool workers.
    """
    allocations: List[Allocation] = []
    seg_starts = array("q")
    local_names: List[str] = []
    local_ids = {}
    seg_ids = array("q")
    cursor = 0
    for k in range(len(ends)):
        end = ends[k]
        handle = handles[k]
        seg_starts.append(cursor)
        if handle >= 0:
            name = names[handle]
            local = local_ids.get(name)
            if local is None:
                local = len(local_names)
                local_ids[name] = local
                local_names.append(name)
            seg_ids.append(local)
            allocations.append(Allocation(cursor, end, name))
        else:
            seg_ids.append(-1)
        cursor = end
    table = CoreTable(cpu=cpu, length_ns=length_ns, allocations=allocations)
    table.validate_layout()
    table.attach_columns(seg_starts, array("q", ends), seg_ids, local_names)
    return table


def estimate_jobs(tasks: Sequence[PeriodicTask], horizon: int) -> int:
    """Release count of one hyperperiod (the materialization cost driver)."""
    jobs = 0
    for task in tasks:
        jobs += horizon // task.period
    return jobs


__all__ = [
    "base_names_of",
    "core_table_from_columns",
    "estimate_jobs",
    "materialize_core_columns",
]
