"""Import-layering rules (``lay-*``).

The dependency direction the architecture relies on::

    errors, topology          (leaves: import nothing from repro)
        ^
    core (planner, tables)    never imports sim/schedulers/xen/health
        ^
    sim (engine, machine)     never imports xen or schedulers (runtime)
        ^
    schedulers                never imports xen
        ^
    xen (daemon, toolstack)   control plane; may use core + schedulers
        ^
    faults / health / metrics / experiments
        ^
    campaign                  orchestration; nothing below imports it

``repro.health`` reaches the planner *only* through
:class:`repro.xen.daemon.PlannerDaemon` — importing
``repro.core.planner`` (or ``Planner`` from ``repro.core``) from
health code bypasses the daemon's transactional replan path.
Imports under ``if TYPE_CHECKING:`` are annotation-only and exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: (importing package, forbidden import prefix, why).
FORBIDDEN_EDGES: Tuple[Tuple[str, str, str], ...] = (
    (
        "repro.schedulers",
        "repro.xen",
        "schedulers are hypervisor-agnostic policies; the xen control "
        "plane plugs into them, never the reverse",
    ),
    (
        "repro.core",
        "repro.sim",
        "the planner is a pure table compiler; it must not depend on "
        "the runtime simulator",
    ),
    (
        "repro.core",
        "repro.schedulers",
        "the planner emits tables; dispatch policy lives above it",
    ),
    (
        "repro.core",
        "repro.xen",
        "the planner must stay usable without the control plane",
    ),
    (
        "repro.core",
        "repro.health",
        "core is a leaf layer; supervision sits on top",
    ),
    (
        "repro.sim",
        "repro.xen",
        "the machine model knows schedulers only through the Scheduler "
        "interface; the xen layer is above it",
    ),
    (
        "repro.sim",
        "repro.schedulers",
        "the machine calls policy through repro.schedulers.base's "
        "interface at runtime; only annotations may name concrete "
        "schedulers (use `if TYPE_CHECKING:`)",
    ),
    (
        "repro.health",
        "repro.core.planner",
        "health talks to the planner only via PlannerDaemon so every "
        "recovery replan stays transactional and audited",
    ),
    (
        "repro.faults",
        "repro.health",
        "fault injection is consulted by the health layer, never the "
        "reverse",
    ),
    (
        "repro.core",
        "repro.campaign",
        "the campaign engine orchestrates experiments from above; the "
        "deterministic core must stay independent of it",
    ),
    (
        "repro.sim",
        "repro.campaign",
        "the machine model must not know about campaign orchestration",
    ),
    (
        "repro.schedulers",
        "repro.campaign",
        "dispatch policy must not depend on the experiment harness",
    ),
    (
        "repro.xen",
        "repro.campaign",
        "the control plane runs under campaigns, never the reverse",
    ),
    (
        "repro.experiments",
        "repro.campaign",
        "experiment drivers are the campaign engine's building blocks; "
        "importing campaign back would create a cycle",
    ),
    (
        "repro.core",
        "repro.service",
        "the planner must stay usable without the service control plane",
    ),
    (
        "repro.sim",
        "repro.service",
        "the machine model must not know about the tenant-facing "
        "service layer",
    ),
    (
        "repro.schedulers",
        "repro.service",
        "dispatch policy is below the control plane",
    ),
    (
        "repro.xen",
        "repro.service",
        "the service wraps PlannerDaemon from above; the daemon must "
        "not depend back on it",
    ),
    (
        "repro.faults",
        "repro.service",
        "fault plans are injected into the service, never imported by "
        "the fault layer",
    ),
    (
        "repro.health",
        "repro.service",
        "machine-level supervision and the tenant service are sibling "
        "consumers of the daemon",
    ),
    (
        "repro.experiments",
        "repro.service",
        "experiment drivers measure machines; the service scenario is "
        "driven from the campaign layer above",
    ),
)

#: Names that, imported from ``repro.core`` into health code, smuggle a
#: direct planner dependency past the module-level edge check.
_PLANNER_NAMES = {"Planner"}


@register
class ImportLayeringRule(Rule):
    id = "lay-import"
    family = "layering"
    description = (
        "imports must respect the layer diagram (schedulers!->xen, "
        "core!->sim, health->planner only via PlannerDaemon, ...)."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.module.startswith("repro"):
            return
        is_package = ctx.path.replace("\\", "/").endswith("/__init__.py")
        for node in ast.walk(ctx.tree):
            imports = _imported_modules(node, ctx.module, is_package)
            if not imports:
                continue
            if ctx.in_type_checking(node):
                continue
            for imported, names in imports:
                yield from self._check_edge(ctx, node, imported, names)

    def _check_edge(
        self, ctx: ModuleContext, node: ast.AST, imported: str, names: List[str]
    ) -> Iterable[Finding]:
        for source, forbidden, why in FORBIDDEN_EDGES:
            if not ctx.in_package(source):
                continue
            if imported == forbidden or imported.startswith(forbidden + "."):
                yield self.finding(
                    ctx,
                    node,
                    f"{ctx.module} imports {imported}, but {source} must "
                    f"not depend on {forbidden}: {why}",
                )
        if ctx.in_package("repro.health") and imported == "repro.core":
            smuggled = sorted(set(names) & _PLANNER_NAMES)
            if smuggled:
                yield self.finding(
                    ctx,
                    node,
                    f"{ctx.module} imports {', '.join(smuggled)} from "
                    "repro.core; health drives planning only through "
                    "repro.xen.daemon.PlannerDaemon",
                )


def _imported_modules(
    node: ast.AST, current_module: str, is_package: bool
) -> List[Tuple[str, List[str]]]:
    """(imported module, imported names) pairs for an import node."""
    if isinstance(node, ast.Import):
        return [(alias.name, []) for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [alias.name for alias in node.names]
        if node.level == 0:
            return [(node.module or "", names)]
        # Relative import: resolve against the containing package (the
        # module's own package for ``__init__``, its parent otherwise).
        parts = current_module.split(".")
        drop = node.level - 1 if is_package else node.level
        base = parts[: len(parts) - drop] if drop else parts
        prefix = ".".join(base)
        module = f"{prefix}.{node.module}" if node.module else prefix
        return [(module, names)]
    return []
