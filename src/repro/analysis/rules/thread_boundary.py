"""R10 ``thread-boundary``: hot-path threads must carry their context.

Deadlines and trace ids are ambient: they live in contextvars,
which is the only reason ``check_deadline()`` fires inside a segment
probe and spans nest under the right query.  A raw
``threading.Thread(target=...)`` starts with an **empty** context — the
deadline silently never fires, the spans orphan, and the query-registry
accounting loses the work.  None of that shows up in tests that do not
race a timeout.

So in the configured modules a ``threading.Thread`` construction is
flagged unless the surrounding function visibly carries the context
across the boundary: a ``contextvars.copy_context()`` call in the same
scope (the thread target running under ``ctx.run`` is the sanctioned
form).  Nested function bodies are separate scopes — a ``Thread`` in a
closure does not inherit its parent's exemption.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Sequence

from ..astutil import dotted_name
from ..findings import Finding
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import AnalysisContext, ModuleInfo

_THREAD_FACTORIES = frozenset({"threading.Thread", "Thread"})

_SCOPE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _local_walk(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_STMTS):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _scopes(tree: ast.Module) -> Iterator[Sequence[ast.stmt]]:
    """Every statement scope in the module: the module body plus each
    function body (class bodies fold into their module/function)."""
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


@register
class ThreadBoundaryRule(Rule):
    id = "thread-boundary"
    code = "R10"
    doc = (
        "raw threading.Thread in hot-path/serve modules without "
        "copy_context()"
    )

    def check_module(
        self, module: "ModuleInfo", ctx: "AnalysisContext"
    ) -> Iterator[Finding]:
        if module.relpath not in ctx.config.thread_modules:
            return
        for body in _scopes(module.tree):
            spawns: List[ast.Call] = []
            carries_context = False
            for node in _local_walk(body):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name in _THREAD_FACTORIES:
                    spawns.append(node)
                elif name is not None:
                    last = name.rsplit(".", 1)[-1]
                    if last == "copy_context":
                        carries_context = True
            if carries_context:
                continue
            for spawn in spawns:
                yield self.finding(
                    module,
                    spawn.lineno,
                    spawn.col_offset,
                    "raw threading.Thread starts with an empty contextvars "
                    "context: the ambient deadline/trace state does not "
                    "propagate — run the target under "
                    "contextvars.copy_context()",
                )
