"""Project model, the analysis context and the check driver.

:func:`run_check` walks a source tree, parses every ``.py`` file once,
then drives every selected rule through one shared module walk:
``prepare`` once, ``check_module`` per file, ``finish`` once.  The
walk owns an :class:`AnalysisContext` that carries the configuration,
per-rule scratch state and a lazy per-module CFG cache, so a module's
control-flow graphs are built at most once no matter how many
flow-aware rules ask for them.  Everything a rule needs — source, AST,
per-line text, CFG facts, project-level lookups — lives on
:class:`ModuleInfo` / :class:`Project` / :class:`AnalysisContext`, so
rules never touch the filesystem themselves (which is what makes them
trivially testable on synthetic fixture trees).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .baseline import Baseline
from .cfg import CFG, function_cfgs
from .findings import Finding, Report
from .registry import Rule, select_rules


def _default_metric_names() -> Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]:
    from ..obs import names

    return (names.COUNTERS, names.GAUGES, names.HISTOGRAMS)


#: Modules the service layer contributes to the concurrency-sensitive
#: scan sets (R8/R9/R10 defaults below).
_SERVE_MODULES = (
    "repro/serve/admission.py",
    "repro/serve/http.py",
    "repro/serve/quotas.py",
    "repro/serve/service.py",
    "repro/serve/sessions.py",
    "repro/serve/snapshot.py",
    "repro/serve/wire.py",
)


@dataclass
class Config:
    """Tunable rule configuration.

    Paths are posix, relative to the scan root's *parent* (so for the
    real tree they read ``repro/engine/durable.py``).  Tests point these
    at fixture trees.
    """

    #: R1: the only modules allowed to open files for writing / rename.
    durable_allowed: FrozenSet[str] = frozenset({"repro/engine/durable.py"})
    #: R3: modules included in the lock-graph analysis.
    lock_modules: FrozenSet[str] = frozenset(
        {
            "repro/obs/metrics.py",
            "repro/obs/trace.py",
            "repro/obs/context.py",
            "repro/obs/queries.py",
            "repro/core/imprints/manager.py",
        }
    )
    #: R5: hot-path modules that must use obs timing helpers.
    hotpath_modules: FrozenSet[str] = frozenset(
        {
            "repro/core/query.py",
            "repro/core/imprints/manager.py",
            "repro/engine/select.py",
            "repro/engine/aggregate.py",
            "repro/engine/join.py",
            "repro/engine/compression.py",
            "repro/engine/compressed.py",
            "repro/engine/kernels.py",
            "repro/engine/scan.py",
            "repro/sql/executor.py",
        }
    )
    #: R5/R6: obs modules themselves are exempt (they *are* the helpers).
    #: Deliberately narrow: ``repro/obs/queries.py`` is *not* here, so
    #: the lifecycle counters it emits stay subject to the R6 registry.
    obs_modules: FrozenSet[str] = frozenset(
        {
            "repro/obs/__init__.py",
            "repro/obs/trace.py",
            "repro/obs/metrics.py",
            "repro/obs/timing.py",
            "repro/obs/names.py",
            "repro/obs/_context_state.py",
            "repro/obs/context.py",
        }
    )
    #: R6: declared metric names; ``None`` loads :mod:`repro.obs.names`.
    metric_names: Optional[
        Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]
    ] = None

    #: R7: acquire-method -> release-method pairs the leak analysis
    #: tracks (the admission slot, snapshot pin, session checkout and
    #: hand-driven context-manager protocols, plus bare Lock.acquire).
    resource_pairs: Tuple[Tuple[str, str], ...] = (
        ("acquire", "release"),
        ("pin", "unpin"),
        ("_pin", "_unpin"),
        ("checkout", "checkin"),
        ("__enter__", "__exit__"),
    )
    #: R8: modules whose typed exceptions must be status-mapped, and the
    #: front-end module whose handlers define the mapping.
    serve_modules: FrozenSet[str] = frozenset(_SERVE_MODULES)
    status_module: str = "repro/serve/http.py"
    #: R8: exception classes defined elsewhere that the serve layer must
    #: still map (``relpath::ClassName``) — the cancellation path.
    extra_status_exceptions: FrozenSet[str] = frozenset(
        {"repro/obs/queries.py::QueryCancelled"}
    )
    #: R9: modules scanned for blocking calls under a held lock (the
    #: R3 set plus the service layer's lock-owning modules).
    blocking_scan_modules: FrozenSet[str] = frozenset(
        {
            "repro/obs/metrics.py",
            "repro/obs/trace.py",
            "repro/obs/context.py",
            "repro/obs/queries.py",
            "repro/core/imprints/manager.py",
        }
        | set(_SERVE_MODULES)
    )
    #: R10: modules where a raw ``threading.Thread`` spawn must copy
    #: contextvars.
    thread_modules: FrozenSet[str] = frozenset(
        {
            "repro/core/query.py",
            "repro/core/imprints/manager.py",
            "repro/engine/select.py",
            "repro/engine/aggregate.py",
            "repro/engine/join.py",
            "repro/engine/compression.py",
            "repro/engine/compressed.py",
            "repro/engine/kernels.py",
            "repro/engine/scan.py",
            "repro/sql/executor.py",
        }
        | set(_SERVE_MODULES)
    )
    #: R11: modules whose segment scan loops must reach a
    #: cooperative deadline check (the hot-path set plus the imprint
    #: segment store, which is where the scan loops actually live).
    cancellation_modules: Optional[FrozenSet[str]] = None

    def metrics(self) -> Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]:
        if self.metric_names is not None:
            return self.metric_names
        return _default_metric_names()

    def cancellation_scan_modules(self) -> FrozenSet[str]:
        if self.cancellation_modules is not None:
            return self.cancellation_modules
        return self.hotpath_modules | {"repro/core/imprints/segments.py"}


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path  # absolute
    relpath: str  # posix, relative to scan root's parent
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, relpath: str) -> "ModuleInfo":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )


class Project:
    """All parsed modules plus the rule configuration."""

    def __init__(
        self, modules: Sequence[ModuleInfo], config: Optional[Config] = None
    ) -> None:
        self.modules = list(modules)
        self.config = config if config is not None else Config()
        self._by_relpath: Dict[str, ModuleInfo] = {
            m.relpath: m for m in self.modules
        }

    def module(self, relpath: str) -> Optional[ModuleInfo]:
        return self._by_relpath.get(relpath)

    @classmethod
    def load(
        cls,
        root: Path,
        config: Optional[Config] = None,
        paths: Optional[Sequence[Path]] = None,
    ) -> "Project":
        """Parse ``root``'s tree (or an explicit file list).

        ``relpath`` is computed against ``root.parent`` so the root
        directory's own name leads every path (``repro/...``).
        """
        root = Path(root).resolve()
        if paths is None:
            files = sorted(p for p in root.rglob("*.py") if p.is_file())
        else:
            files = sorted(Path(p).resolve() for p in paths)
        modules = []
        for path in files:
            try:
                rel = path.relative_to(root.parent).as_posix()
            except ValueError:
                rel = path.name
            modules.append(ModuleInfo.parse(path, rel))
        return cls(modules, config=config)


class AnalysisContext:
    """Shared state for one :func:`run_check` run.

    ``state`` is per-rule scratch keyed by rule id — rule instances are
    global singletons, so anything accumulated across modules (lock
    edges, raised-exception inventories) must live here, not on the
    rule.  ``cfgs``/``cfg`` expose the lazily built, cached control-flow
    graphs; the first flow-aware rule to ask pays the construction cost
    for a module, everyone after reads the cache.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        self.config = project.config
        self.state: Dict[str, Any] = {}
        self._cfg_cache: Dict[str, Dict[int, CFG]] = {}

    def cfgs(self, module: ModuleInfo) -> Dict[int, CFG]:
        """Every function CFG in ``module``, keyed by ``id(func_node)``."""
        cached = self._cfg_cache.get(module.relpath)
        if cached is None:
            cached = function_cfgs(module.tree)
            self._cfg_cache[module.relpath] = cached
        return cached

    def cfg(self, module: ModuleInfo, func: ast.AST) -> Optional[CFG]:
        """The CFG of one function node in ``module`` (None for nodes
        that are not function definitions of this module)."""
        return self.cfgs(module).get(id(func))


def default_root() -> Path:
    """The installed ``repro`` package directory (the default scan root)."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_baseline_path(root: Optional[Path] = None) -> Path:
    """``repro-check.baseline.json`` next to the source tree.

    For a ``src/repro`` layout that is the repository root; for an
    installed package it degrades to a path that simply does not exist,
    which the loader treats as an empty baseline.
    """
    root = Path(root) if root is not None else default_root()
    return root.parent.parent / "repro-check.baseline.json"


def run_check(
    root: Optional[Path] = None,
    *,
    config: Optional[Config] = None,
    baseline: Optional[Baseline] = None,
    baseline_path: Optional[Path] = None,
    rule_ids: Optional[Iterable[str]] = None,
    paths: Optional[Sequence[Path]] = None,
) -> Report:
    """Run the registered rules over one shared module walk and fold in
    the baseline.

    ``rule_ids`` accepts long ids and short codes (``R7``).  ``paths``
    restricts the scan to an explicit file list (the CLI's ``--path``
    filter resolves directories to their ``.py`` files first).
    ``baseline`` wins over ``baseline_path``; passing neither loads the
    committed default (missing file = empty baseline).
    """
    root = Path(root) if root is not None else default_root()
    project = Project.load(root, config=config, paths=paths)
    if baseline is None:
        path = (
            Path(baseline_path)
            if baseline_path is not None
            else default_baseline_path(root)
        )
        baseline = Baseline.load(path)

    rules = select_rules(rule_ids)
    ctx = AnalysisContext(project)
    findings: List[Finding] = []
    for rule in rules:
        rule.prepare(ctx)
    for module in project.modules:
        for rule in rules:
            findings.extend(rule.check_module(module, ctx))
    for rule in rules:
        findings.extend(rule.finish(ctx))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report = Report(files_scanned=len(project.modules))
    for finding in findings:
        if baseline.matches(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    if paths is None:
        # Stale-entry detection only means something on a full-tree
        # scan; a --path run legitimately never touches most entries.
        report.unused_baseline = baseline.unused()
    return report
