"""In-memory span tracer that instruments the program from outside.

The benchmark never edits the program to trace it.  Instead
:meth:`Tracer.wrap` replaces a public function or method with a thin
wrapper that opens a span around each call.  A span records its name,
start, end, parent span and operation id; all spans opened while an
operation root (one request, one replan, one shard) is on the stack
share that root's operation id.  Spans stay in memory until the run
ends, when :meth:`Tracer.dump` writes them once.

A layer's *self time* is its span's duration minus the time its child
spans cover (:func:`self_times`).  On one host thread child spans nest
strictly inside their parent, so that is the parent's duration minus
the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One span: (span id, parent id or -1, name, start_s, end_s, op id).
Span = Tuple[int, int, str, float, float, int]

#: Called as ``after(tracer, instance_or_None, args, kwargs, result)``
#: when a wrapped call returns; used to count bytes, hits and the like.
AfterHook = Callable[["Tracer", Any, tuple, dict, Any], None]


@dataclass
class _Patch:
    owner: Any
    attr: str
    original: Any


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: Span names whose entry point is missing from the program.
        self.absent: List[str] = []
        self._stack: List[Tuple[int, float, str, int]] = []
        self._next_span = 0
        self._next_op = 0
        self._patches: List[_Patch] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin(self, name: str, op_root: bool = False) -> None:
        stack = self._stack
        if stack and stack[-1][3]:
            op = stack[-1][3]
        elif op_root:
            self._next_op += 1
            op = self._next_op
        else:
            op = 0
        stack.append((self._next_span, self.clock(), name, op))
        self._next_span += 1

    def end(self) -> None:
        span_id, start, name, op = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, parent, name, start, self.clock(), op))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def wrap(
        self,
        target: str,
        name: str,
        op_root: bool = False,
        after: Optional[AfterHook] = None,
    ) -> bool:
        """Open span ``name`` around every call of ``target``.

        ``target`` is ``"package.module:attr"`` or
        ``"package.module:Class.method"``.  Returns False, and records
        ``name`` as absent, when the module or attribute does not exist.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            self.mark_absent(name)
            return False
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                self.mark_absent(name)
                return False
        original = getattr(owner, attr, None)
        if original is None:
            self.mark_absent(name)
            return False
        is_method = isinstance(owner, type)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.begin(name, op_root)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                instance = args[0] if is_method and args else None
                after(tracer, instance, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append(_Patch(owner, attr, original))
        return True

    def mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.attr, patch.original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
            "spans": self.spans,
            "counters": self.counters,
            "absent": self.absent,
        }
        path.write_text(json.dumps(document, separators=(",", ":")))


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: List[Span]) -> Dict[str, SpanTotals]:
    """Per span name: call count, total duration and self time."""
    child_time: Dict[int, float] = {}
    for _span_id, parent, _name, start, end, _op in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, SpanTotals] = {}
    for span_id, _parent, name, start, end, _op in spans:
        entry = totals.setdefault(name, SpanTotals())
        duration = end - start
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += duration - child_time.get(span_id, 0.0)
    return totals
