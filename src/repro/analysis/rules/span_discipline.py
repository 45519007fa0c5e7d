"""R5 ``span-discipline``: hot paths time themselves through ``obs``.

The observability layer promises that disabled tracing costs one
attribute check; that only holds while hot-path code takes its wall
clock through :mod:`repro.obs` (``maybe_span``, ``obs.timing.now``)
rather than scattering raw ``time.time()`` / ``time.perf_counter()``
calls that the tracer can never see.  This rule flags direct clock
calls in the configured hot-path modules; the obs modules themselves
are exempt because they *are* the helpers.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..astutil import dotted_name
from ..findings import Finding
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import AnalysisContext, ModuleInfo

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "_time.time",
        "_time.perf_counter",
        "_time.monotonic",
    }
)


@register
class SpanDisciplineRule(Rule):
    id = "span-discipline"
    code = "R5"
    doc = (
        "direct time.time/perf_counter calls in hot-path modules "
        "(use repro.obs timing helpers)"
    )

    def check_module(
        self, module: "ModuleInfo", ctx: "AnalysisContext"
    ) -> Iterator[Finding]:
        hot = ctx.config.hotpath_modules
        exempt = ctx.config.obs_modules
        if module.relpath not in hot or module.relpath in exempt:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _CLOCK_CALLS:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"hot-path module calls {name}() directly: use "
                    "repro.obs.timing.now() (or maybe_span) "
                    "so timing stays observable and consistent",
                )
