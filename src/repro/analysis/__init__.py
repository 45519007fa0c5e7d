"""`repro-check`: AST-based static analysis for the project's invariants.

Each layer built onto the flat table/imprint engine came with an
invariant nothing used to enforce; one rule checks each:

* all persistence routes through :mod:`repro.engine.durable` (R1),
* :class:`~repro.engine.durable.InjectedCrash` — a ``BaseException`` —
  is never silently absorbed (R2),
* shared state is mutated under its lock, and locks are acquired in a
  consistent order (R3),
* ``struct`` format strings agree with their size constants and
  pack/unpack call shapes (R4),
* hot-path modules time themselves through :mod:`repro.obs` helpers (R5),
* every metric name is declared in :mod:`repro.obs.names` (R6),
* an acquired slot, pin or file handle is released in the ``finally``
  of the ``try`` that directly follows the acquire (R7),
* typed exceptions reaching ``serve/*`` map to an HTTP status (R8),
* no fsync/socket/sleep/subprocess while a lock is held (R9),
* segment scan loops reach a cooperative deadline check (R11).

Stdlib ``ast`` only: rules register in a global registry and run over
one shared module walk, findings can be grandfathered into a committed
baseline with a justification, and reports render as text or JSON.
Run it as ``repro-gis check`` or ``python -m repro.analysis``; see
``docs/static_analysis.md``.
"""

from .engine import AnalysisContext, Config, Project, run_check
from .findings import Finding, Severity
from .registry import Rule, all_rules, get_rule, register

# Importing the rule modules registers them.
from .rules import (  # noqa: F401
    blocking_under_lock,
    cancellation_coverage,
    counter_registry,
    crash_transparency,
    durable_write,
    exception_status,
    lock_discipline,
    resource_leak,
    span_discipline,
    struct_format,
)

__all__ = [
    "AnalysisContext",
    "Config",
    "Finding",
    "Project",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "register",
    "run_check",
]
