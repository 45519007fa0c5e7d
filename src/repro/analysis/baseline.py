"""Committed baseline of grandfathered findings.

A baseline entry names a finding by ``(rule, path, snippet)`` — the
stripped source line, not the line number, so surrounding edits do not
invalidate it — plus a human ``justification`` explaining why the
violation is deliberate.  ``repro-gis check --update-baseline`` rewrites
the file from the current findings, preserving justifications of
entries that survive.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Union

from .findings import Finding

PathLike = Union[str, Path]

FORMAT_VERSION = 1


@dataclass
class BaselineEntry:
    rule: str
    path: str
    snippet: str
    justification: str = ""

    @property
    def key(self) -> str:
        return f"{self.rule}::{self.path}::{self.snippet}"

    def to_dict(self) -> Dict[str, str]:
        return asdict(self)


class Baseline:
    """Lookup table from finding key to baseline entry."""

    def __init__(
        self, entries: Optional[Iterable[BaselineEntry]] = None
    ) -> None:
        self._entries: Dict[str, BaselineEntry] = {}
        self._hits: Dict[str, int] = {}
        for entry in entries or ():
            self._entries[entry.key] = entry
            self._hits[entry.key] = 0

    def __len__(self) -> int:
        return len(self._entries)

    def matches(self, finding: Finding) -> bool:
        """True (and counted) when the finding is grandfathered."""
        entry = self._entries.get(finding.key)
        if entry is None:
            return False
        self._hits[entry.key] += 1
        return True

    def unused(self) -> List[BaselineEntry]:
        """Entries no current finding matched — stale, safe to delete."""
        return [
            self._entries[key]
            for key in sorted(self._entries)
            if self._hits.get(key, 0) == 0
        ]

    def justification(self, finding: Finding) -> str:
        entry = self._entries.get(finding.key)
        return entry.justification if entry is not None else ""

    # -- persistence -------------------------------------------------------

    @classmethod
    def load(cls, path: PathLike) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.is_file():
            return cls()
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or "findings" not in doc:
            raise ValueError(f"{path}: not a repro-check baseline file")
        entries = [
            BaselineEntry(
                rule=str(e["rule"]),
                path=str(e["path"]),
                snippet=str(e.get("snippet", "")),
                justification=str(e.get("justification", "")),
            )
            for e in doc["findings"]
        ]
        return cls(entries)

    def save(self, path: PathLike) -> None:
        """Atomically write the baseline (it is a persistence artifact)."""
        from ..engine.durable import atomic_write_text

        entries = [self._entries[k] for k in sorted(self._entries)]
        doc = {
            "version": FORMAT_VERSION,
            "findings": [e.to_dict() for e in entries],
        }
        atomic_write_text(
            path, json.dumps(doc, indent=2) + "\n", label="check-baseline"
        )

    @classmethod
    def from_findings(
        cls, findings: Iterable[Finding], previous: Optional["Baseline"] = None
    ) -> "Baseline":
        """A new baseline covering ``findings``, keeping justifications
        from ``previous`` where the entry survives."""
        entries: List[BaselineEntry] = []
        seen: Set[str] = set()
        for finding in findings:
            if finding.key in seen:
                continue
            seen.add(finding.key)
            justification = (
                previous.justification(finding) if previous is not None else ""
            )
            entries.append(
                BaselineEntry(
                    rule=finding.rule,
                    path=finding.path,
                    snippet=finding.snippet,
                    justification=justification,
                )
            )
        return cls(entries)
