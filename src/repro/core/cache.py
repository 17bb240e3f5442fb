"""The planner's in-memory plan reuse (Sec. 7.1).

Sec. 7.1: "it is trivially possible to centrally cache tables for common
configurations that are frequently reused."  The planner does that per
core, in two process-wide layers:

* :mod:`repro.core.edfcore`'s shape cache, keyed name-free by a core's
  task shape, so EDF runs once per shape however the vCPUs are named;
* the core memo here, keyed by the exact named task set plus every knob
  the materialization reads (:meth:`repro.core.planner.Planner._core_key`),
  so a core any planner in the process has finished is reissued with no
  renaming, validation or audit work.

Across processes and runs, :class:`repro.core.plancache.PlanStore`
persists whole plans on disk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.core import edfcore

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.planner import _CoreRecord

#: Core key -> finished core record.  Cleared wholesale when full
#: rather than kept as an LRU: on the perfbench serve-churn workload
#: (2-CPU host) an ``OrderedDict`` LRU of 4096 entries raised peak RSS
#: from ~98 MB to ~139 MB, while clearing at 4096 stays at ~98 MB.
CORE_MEMO: Dict[Tuple, "_CoreRecord"] = {}
CORE_MEMO_SIZE = 4096


def remember(key: Tuple, record: "_CoreRecord") -> None:
    """Memoize one finished core record."""
    if len(CORE_MEMO) >= CORE_MEMO_SIZE:
        CORE_MEMO.clear()
    CORE_MEMO[key] = record


def clear() -> None:
    """Empty both in-memory layers, for cold-start measurements."""
    CORE_MEMO.clear()
    edfcore._SHAPE_CACHE.clear()
