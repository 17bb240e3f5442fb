"""Deterministic replan-cost model for the service control plane.

The daemon's measured ``generation_seconds`` is wall-clock — useful
observability, but it depends on the host machine and the plan cache's
temperature, so it must never drive the simulated clock (byte-identical
service reports are an acceptance invariant).  This model is the
simulation-side stand-in: replan cost as a pure integer function of the
census size and whether the service has planned the census shape
before, calibrated to the paper's Fig. 3 table-generation curve
(hundreds of milliseconds for dense censuses, amortized to almost
nothing by Sec. 7.1 caching).  In the code that caching is the
planner's two in-memory layers: :mod:`repro.core.edfcore`'s name-free
per-core shape cache, which runs EDF once per core task shape, and the
planner's per-core memo over it, keyed by the exact named task set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import MS, US, Nanoseconds
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PlannerLatencyModel:
    """Affine simulated replan cost: ``base + per_vcpu * n``, or a flat
    cache-hit cost when the census shape recurs (its cores' task shapes
    are then already in the planner's shape cache, so EDF is not re-run).

    The defaults model the Tableau planner.  Dynamic schedulers
    (credit, credit2, rtds) reconfigure runqueues instead of generating
    tables; :meth:`for_scheduler` gives them a flat microsecond-scale
    cost with no cache dependence — which is exactly why the batching
    sweep is interesting: batching buys Tableau an order of magnitude
    and buys credit almost nothing.
    """

    base_ns: int = 150 * MS
    per_vcpu_ns: int = 2 * MS
    cache_hit_ns: int = 4 * MS

    def __post_init__(self) -> None:
        if self.base_ns < 0 or self.per_vcpu_ns < 0 or self.cache_hit_ns < 0:
            raise ConfigurationError("latency-model costs must be >= 0")

    def cost_ns(self, num_vcpus: int, cache_hit: bool) -> Nanoseconds:
        if cache_hit:
            return Nanoseconds(self.cache_hit_ns)
        return Nanoseconds(self.base_ns + self.per_vcpu_ns * num_vcpus)

    @classmethod
    def for_scheduler(cls, scheduler: str) -> "PlannerLatencyModel":
        """The model matching a scheduler axis value."""
        if scheduler == "tableau":
            return cls()
        # Runqueue reconfiguration: flat, cheap, cache-indifferent.
        return cls(base_ns=200 * US, per_vcpu_ns=0, cache_hit_ns=200 * US)
