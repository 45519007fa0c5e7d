"""Finding records and severities shared by every rule and reporter."""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Any, Dict


class Severity(str, enum.Enum):
    """How bad a finding is; ``ERROR`` findings fail the check."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``snippet`` is the stripped source line the finding points at; the
    baseline keys on ``(rule, path, snippet)`` rather than the line
    number, so unrelated edits that shift lines do not invalidate
    grandfathered findings.
    """

    rule: str
    severity: Severity
    path: str  # posix path relative to the scan root's parent
    line: int
    col: int
    message: str
    snippet: str = ""

    @property
    def key(self) -> str:
        """Stable identity used for baseline matching."""
        return f"{self.rule}::{self.path}::{self.snippet}"

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "severity": self.severity.value}


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: list = field(default_factory=list)  # unsuppressed, sorted
    suppressed: list = field(default_factory=list)  # matched the baseline
    unused_baseline: list = field(default_factory=list)  # stale entries
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        """True when no unsuppressed ERROR finding remains."""
        return not any(f.severity is Severity.ERROR for f in self.findings)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)
