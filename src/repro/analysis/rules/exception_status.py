"""R8 ``exception-status``: serve-layer exceptions must map to a status.

``serve/http.py`` owns the typed-exception → HTTP-status contract that
``docs/service.md`` documents (400/403/404/408/413/429/500/503).  The
contract's failure mode is silent: add a new exception class to the
service layer, forget the ``except`` arm, and clients start seeing the
generic 500 fallback — which the ``except Exception`` handler exists
for *bugs*, not for typed conditions.

The rule inventories, across the configured serve modules:

* every exception class **defined** there (a ``ClassDef`` whose base
  looks like an exception — a builtin exception name or ``*Error`` /
  ``*Exception`` / ``*Rejected`` / ``*Cancelled`` suffix),
* every class **raised** there (``raise Name(...)``),
* every class name appearing in an ``except`` clause anywhere in the
  serve layer.

A class both defined and raised but never explicitly caught gets a
finding at its definition.  Catching anywhere *inside* the serve layer
counts — ``service.py`` catching ``wire.WireFormatError`` and
re-raising ``BadRequest`` is a mapping, just a transitive one — but the
broad ``Exception``/``BaseException`` fallbacks never do, because
falling through to them is exactly the bug.  The engine cancellation
path and the SQL function errors ride along via
``extra_status_exceptions`` (``repro/obs/queries.py::QueryCancelled``
and ``repro/sql/errors.py::SqlFunctionError`` by default): those classes
must be caught in the serve layer whether or not serve raises them.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..astutil import dotted_name
from ..findings import Finding
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import AnalysisContext, ModuleInfo

_BUILTIN_EXCEPTIONS = frozenset(
    {
        "Exception",
        "BaseException",
        "RuntimeError",
        "ValueError",
        "TypeError",
        "KeyError",
        "LookupError",
        "OSError",
        "IOError",
        "ArithmeticError",
        "AttributeError",
        "NotImplementedError",
        "StopIteration",
        "ConnectionError",
        "TimeoutError",
    }
)

_EXC_NAME_RE = re.compile(
    r"(Error|Exception|Rejected|Cancelled|Exceeded|TooLarge)$"
)

#: Catch-all names that never count as an explicit status mapping.
_GENERIC_CATCHES = frozenset({"Exception", "BaseException"})


def _looks_like_exception_base(base: ast.expr) -> bool:
    name = dotted_name(base)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1]
    return last in _BUILTIN_EXCEPTIONS or bool(_EXC_NAME_RE.search(last))


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if exc is None:
        return None
    name = dotted_name(exc)
    return name.rsplit(".", 1)[-1] if name else None


def _caught_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return []
    exprs = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: List[str] = []
    for expr in exprs:
        name = dotted_name(expr)
        if name:
            names.append(name.rsplit(".", 1)[-1])
    return names


@register
class ExceptionStatusRule(Rule):
    id = "exception-status"
    code = "R8"
    doc = (
        "typed exceptions raised in serve/* (and the cancellation path) "
        "need an explicit status mapping in serve/http.py"
    )

    def prepare(self, ctx: "AnalysisContext") -> None:
        ctx.state[self.id] = {
            # class name -> (module, ClassDef) at the definition site
            "defined": {},
            # class names appearing in raise statements in serve/*
            "raised": set(),
            # class names explicitly caught anywhere in serve/*
            "caught": set(),
            # "relpath::Name" extras found at their definition site
            "extras": {},
        }

    def check_module(
        self, module: "ModuleInfo", ctx: "AnalysisContext"
    ) -> Iterator[Finding]:
        state = ctx.state[self.id]
        extra_here = {
            spec.split("::", 1)[1]
            for spec in ctx.config.extra_status_exceptions
            if spec.split("::", 1)[0] == module.relpath
        }
        in_serve = module.relpath in ctx.config.serve_modules
        if not in_serve and not extra_here:
            return iter(())
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                if not any(_looks_like_exception_base(b) for b in node.bases):
                    continue
                if in_serve:
                    state["defined"].setdefault(node.name, (module, node))
                if node.name in extra_here:
                    state["extras"][f"{module.relpath}::{node.name}"] = (
                        module,
                        node,
                    )
            elif in_serve and isinstance(node, ast.Raise):
                name = _raised_name(node)
                if name:
                    state["raised"].add(name)
            elif in_serve and isinstance(node, ast.ExceptHandler):
                for name in _caught_names(node):
                    if name not in _GENERIC_CATCHES:
                        state["caught"].add(name)
        return iter(())

    def finish(self, ctx: "AnalysisContext") -> Iterator[Finding]:
        state = ctx.state[self.id]
        status_module = ctx.config.status_module
        defined: Dict[str, Tuple["ModuleInfo", ast.ClassDef]] = state["defined"]
        for name in sorted(defined):
            module, node = defined[name]
            if name not in state["raised"]:
                continue  # declared but inert: nothing reaches a client
            if name in state["caught"]:
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"exception {name!r} is raised in the serve layer but "
                f"never explicitly caught there: clients get the generic "
                f"500 fallback — add a status arm for it in "
                f"{status_module}",
            )
        extras: Dict[str, Tuple["ModuleInfo", ast.ClassDef]] = state["extras"]
        for spec in sorted(ctx.config.extra_status_exceptions):
            name = spec.split("::", 1)[1]
            if name in state["caught"]:
                continue
            found = extras.get(spec)
            if found is None:
                continue  # extra module not in this scan's file set
            module, node = found
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"{name!r} reaches the serve layer from {module.relpath} "
                f"but has no explicit status mapping in {status_module}: "
                "clients get the generic 500 fallback",
            )
