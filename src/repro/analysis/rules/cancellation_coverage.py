"""R11 ``cancellation-coverage``: scan loops must see the deadline.

Cooperative cancellation (PR 7) only works if every long-running loop
actually cooperates: the 408-with-partial-progress contract, the
admission drain on SIGTERM and the serve smoke test's "nothing hung"
assertion all assume a fired deadline is *noticed* within one segment.
The failure mode is a new scan loop that simply never calls
:func:`repro.obs.queries.check_deadline` — it works, it is fast, and it
ignores timeouts forever.

In the configured hot-path modules this rule looks at every ``for`` /
``while`` loop whose body performs **scan work** — a call whose name
matches the probe/decode/encode/take/classify/candidate-style kernels
(comprehensions are exempt: they are allocation-bounded assembly, not
segment iteration).  Such a loop must reach a deadline check:

* a ``check_deadline(...)`` call in the loop body, or
* a call to a same-module function that transitively reaches one (the
  module call graph is closed over ``check_deadline``).

``__init__``/``__post_init__``/``__new__`` bodies are exempt: builders
run before a query exists, so there is no deadline to check.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Union

from ..astutil import dotted_name, walk_functions
from ..findings import Finding
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import AnalysisContext, ModuleInfo

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_Loop = Union[ast.For, ast.AsyncFor, ast.While]

#: Calls that *are* a deadline check.
_CHECK_NAMES = frozenset({"check_deadline"})

#: Loop-body callee names (last dotted component only, so a receiver
#: called ``probes`` or a ``str.encode()`` never match) that mark the
#: loop as scan work over segments rather than cheap assembly.
#: Zone-map verdict loops are deliberately absent: they are per-segment
#: header checks, not data access, and always feed a probe stage that
#: is itself covered.
_SCAN_CALL_RE = re.compile(
    r"(probe|decode_|encode_|candidat|range_mask|match_vectors"
    r"|build_segment|^take$|^unpack_)",
)

_EXEMPT_FUNCTIONS = frozenset({"__init__", "__post_init__", "__new__"})

_SCOPE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _local_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Calls lexically in ``node``'s scope (not nested def/class)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _SCOPE_STMTS):
            continue
        if isinstance(child, ast.Call):
            yield child
        stack.extend(ast.iter_child_nodes(child))


def _callee_key(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


def _checking_functions(tree: ast.Module) -> Set[str]:
    """Names of module functions/methods that transitively reach a
    deadline check through same-module calls (fixpoint)."""
    bodies: Dict[str, ast.AST] = {}
    calls: Dict[str, Set[str]] = {}
    checks: Set[str] = set()
    for _class_name, func in walk_functions(tree):
        bodies.setdefault(func.name, func)
        callees = {
            key
            for call in _local_calls(func)
            if (key := _callee_key(call)) is not None
        }
        calls.setdefault(func.name, set()).update(callees)
        if callees & _CHECK_NAMES:
            checks.add(func.name)
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if name not in checks and callees & checks:
                checks.add(name)
                changed = True
    return checks


@register
class CancellationCoverageRule(Rule):
    id = "cancellation-coverage"
    code = "R11"
    doc = (
        "segment scan loops in hot-path modules must reach a "
        "deadline check (check_deadline)"
    )

    def check_module(
        self, module: "ModuleInfo", ctx: "AnalysisContext"
    ) -> Iterator[Finding]:
        if module.relpath not in ctx.config.cancellation_scan_modules():
            return
        reaches_check = _checking_functions(module.tree)
        for _class_name, func in walk_functions(module.tree):
            if func.name in _EXEMPT_FUNCTIONS:
                continue
            yield from self._check_loops(module, func, reaches_check)

    def _check_loops(
        self, module: "ModuleInfo", func: _FuncDef, reaches_check: Set[str]
    ) -> Iterator[Finding]:
        for node in self._local_loops(func.body):
            body_callees: Set[str] = set()
            scan_call: Optional[str] = None
            for call in self._body_calls(node):
                name = dotted_name(call.func)
                if name is None:
                    continue
                callee = name.rsplit(".", 1)[-1]
                body_callees.add(callee)
                if scan_call is None and _SCAN_CALL_RE.search(callee):
                    scan_call = name
            if scan_call is None:
                continue  # assembly/bookkeeping loop: not scan work
            if body_callees & _CHECK_NAMES:
                continue
            if body_callees & reaches_check:
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"scan loop calls {scan_call}() but no deadline check is "
                "reachable from its body: a fired timeout is never "
                "noticed — call _queries.check_deadline() in the loop",
            )

    @staticmethod
    def _local_loops(body: Sequence[ast.stmt]) -> Iterator[_Loop]:
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPE_STMTS):
                continue
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _body_calls(loop: _Loop) -> Iterator[ast.Call]:
        stack: List[ast.AST] = list(loop.body)
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPE_STMTS):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))
