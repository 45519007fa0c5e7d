"""Rule base class and the global rule registry.

A rule subclasses :class:`Rule`, sets ``id``/``code``/``severity``/
``doc`` and implements some of the three phases the shared module walk
drives:

* :meth:`Rule.prepare` — once per run, before any module; initialise
  cross-module scratch state in ``ctx.state[self.id]``.
* :meth:`Rule.check_module` — once per parsed module, in path order;
  yield per-file findings and/or accumulate into the scratch state.
* :meth:`Rule.finish` — once per run, after all modules; yield findings
  that needed the whole project (lock-order cycles, the metric-name
  registry, exception-status exhaustiveness).

Because rule instances are process-global singletons, per-run state
must live on the :class:`~repro.analysis.engine.AnalysisContext`, never
on ``self`` — that is what keeps back-to-back :func:`run_check` calls
(and the test suite's fixture trees) independent.

Decorating the class with :func:`register` adds one instance to the
registry that :func:`repro.analysis.engine.run_check` runs by default.
Rules are addressable by long id (``resource-leak``) or short code
(``R7``) everywhere a rule id is accepted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Type

from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import AnalysisContext, ModuleInfo

_REGISTRY: Dict[str, "Rule"] = {}
_BY_CODE: Dict[str, "Rule"] = {}


class Rule:
    """One named invariant check."""

    #: Stable identifier (``durable-write``...): baseline entries and
    #: ``--select`` refer to it.
    id: str = ""
    #: Short alias (``R1``...) used by the docs and ``--rule``.
    code: str = ""
    severity: Severity = Severity.ERROR
    #: One-line description shown by ``repro-gis check --list-rules``.
    doc: str = ""

    def prepare(self, ctx: "AnalysisContext") -> None:
        """Initialise per-run state in ``ctx.state[self.id]``."""

    def check_module(
        self, module: "ModuleInfo", ctx: "AnalysisContext"
    ) -> Iterator[Finding]:
        """Findings for one parsed module (default: none)."""
        return iter(())

    def finish(self, ctx: "AnalysisContext") -> Iterator[Finding]:
        """Findings needing the whole project (default: none)."""
        return iter(())

    # -- helpers shared by concrete rules ----------------------------------

    def finding(
        self,
        module: "ModuleInfo",
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build a finding at ``line`` with the source snippet filled in."""
        snippet = ""
        if 1 <= line <= len(module.lines):
            snippet = module.lines[line - 1].strip()
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add the rule to the registry."""
    rule = cls()
    if not rule.id or not rule.code:
        raise ValueError(f"{cls.__name__} needs a rule id and an R code")
    if rule.id in _REGISTRY or rule.code.upper() in _BY_CODE:
        raise ValueError(f"duplicate rule {rule.id!r} / {rule.code!r}")
    _REGISTRY[rule.id] = rule
    _BY_CODE[rule.code.upper()] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code number (R1, R2, ...)."""
    return sorted(_REGISTRY.values(), key=lambda rule: int(rule.code[1:]))


def get_rule(rule_id: str) -> Rule:
    """Look up a rule by long id or short code (``R7`` etc.)."""
    rule = _REGISTRY.get(rule_id) or _BY_CODE.get(rule_id.upper())
    if rule is None:
        known = ", ".join(f"{r.code}={r.id}" for r in all_rules())
        raise KeyError(f"unknown rule {rule_id!r}; known: {known}")
    return rule


def select_rules(ids: Optional[Iterable[str]]) -> List[Rule]:
    """The rules for an optional ``--select``/``--rule`` list (None =
    all); duplicates collapse, registry order is preserved."""
    if ids is None:
        return all_rules()
    picked = {id(rule): rule for rule in (get_rule(i) for i in ids)}
    return [rule for rule in all_rules() if id(rule) in picked]
