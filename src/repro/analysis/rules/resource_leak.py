"""R7 ``resource-leak``: an acquire is released by the ``try`` after it.

Admission slots, snapshot pins and file handles all leak the same way:
an early ``return`` or an escaping exception between the acquire and
the release.  A leaked slot shrinks the daemon's concurrency by one
forever; a leaked pin keeps a superseded snapshot generation alive.

Rather than proving release on every path, the rule asks for the one
shape that makes every path safe — the shape ``AdmissionController.admit``
and ``SnapshotManager.pin`` use: the acquire statement is directly
followed by a ``try`` whose ``finally`` calls the release.  It applies
to each configured method pair (``acquire``/``release``, ``pin``/
``unpin``, ...) whose two halves one function calls on the same
receiver expression — cross-function protocols (the ``acquire`` method
itself) are left to the runtime tests — and to each ``fh = open(...)``
that the function closes and never hands on (``fh`` is only ever the
receiver of a method call).  ``with``-managed acquisition never flags:
there is no acquire statement.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Container, Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import SCOPES, dotted_name, local_calls, walk_functions
from ..findings import Finding
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import AnalysisContext, ModuleInfo

#: ``(receiver source, method name)`` of one method call.
_Method = Tuple[str, str]


def _blocks(node: ast.AST) -> Iterator[List[ast.stmt]]:
    """Every statement list in ``node``'s scope (not nested def/class)."""
    for _field, value in ast.iter_fields(node):
        if not isinstance(value, list):
            continue
        for item in value:
            if isinstance(item, (ast.excepthandler, ast.match_case)):
                yield from _blocks(item)
        if value and isinstance(value[0], ast.stmt):
            yield value
            for stmt in value:
                if not isinstance(stmt, SCOPES):
                    yield from _blocks(stmt)


def _method_call(call: ast.Call, names: Container[str]) -> Optional[_Method]:
    """``(receiver, method)`` of a call to one of the ``names`` methods."""
    if isinstance(call.func, ast.Attribute) and call.func.attr in names:
        return ast.unparse(call.func.value), call.func.attr
    return None


def _opened_handle(func: ast.AST, stmt: ast.stmt) -> Optional[str]:
    """``fh`` for ``fh = open(...)`` when ``func`` uses ``fh`` only as a
    method receiver (never returns, stores or passes it on), else None."""
    if not (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Call)
        and dotted_name(stmt.value.func) in ("open", "io.open")
    ):
        return None
    name = stmt.targets[0].id
    receivers = {id(n.value) for n in ast.walk(func) if isinstance(n, ast.Attribute)}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
            and id(node) not in receivers
        ):
            return None
    return name


def _acquires(
    func: ast.AST, stmt: ast.stmt, pairs: Dict[str, str], called: Set[_Method]
) -> Iterator[Tuple[str, _Method]]:
    """``(what, release call)`` for each resource the simple statement
    ``stmt`` acquires whose release ``func`` also calls."""
    if hasattr(stmt, "body") or isinstance(stmt, ast.Match):
        return  # compound: its own blocks are visited separately
    for call in local_calls(stmt):
        method = _method_call(call, pairs)
        if method is not None:
            release = (method[0], pairs[method[1]])
            if release in called:
                yield f"{method[0]}.{method[1]}()", release
    handle = _opened_handle(func, stmt)
    if handle is not None and (handle, "close") in called:
        yield f"file handle {handle!r}", (handle, "close")


def _finally_calls(stmt: Optional[ast.stmt], release: _Method) -> bool:
    return isinstance(stmt, ast.Try) and any(
        _method_call(call, {release[1]}) == release
        for part in stmt.finalbody
        for call in local_calls(part)
    )


@register
class ResourceLeakRule(Rule):
    id = "resource-leak"
    code = "R7"
    doc = (
        "acquired slot/pin/handle not released in the finally of the "
        "try that directly follows the acquire"
    )

    def check_module(
        self, module: "ModuleInfo", ctx: "AnalysisContext"
    ) -> Iterator[Finding]:
        pairs = dict(ctx.config.resource_pairs)
        releases = {*pairs.values(), "close"}
        if not re.search(rf"\.\s*({'|'.join(releases)})\s*\(", module.source):
            return  # no release call anywhere: nothing to check
        for _class_name, func in walk_functions(module.tree):
            called = {m for c in local_calls(func) if (m := _method_call(c, releases))}
            for block in _blocks(func):
                for index, stmt in enumerate(block):
                    after = block[index + 1] if index + 1 < len(block) else None
                    for what, release in _acquires(func, stmt, pairs, called):
                        if _finally_calls(after, release):
                            continue
                        yield self.finding(
                            module,
                            stmt.lineno,
                            stmt.col_offset,
                            f"{what} is not directly followed by a try whose "
                            f"finally calls {'.'.join(release)}(): an exception "
                            "or early return in between leaks it; use "
                            "try/finally or a with block",
                        )
