"""Text and JSON reporters for a check run."""

from __future__ import annotations

import json
from typing import Any, Dict

from .findings import Report


def to_text(report: Report) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = []
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.severity.value}[{finding.rule}] {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    for entry in report.unused_baseline:
        lines.append(
            f"note: stale baseline entry [{entry.rule}] {entry.path}: "
            f"{entry.snippet!r} no longer matches anything"
        )
    lines.append(
        f"repro-check: {report.files_scanned} files, "
        f"{report.errors} errors, {report.warnings} warnings, "
        f"{len(report.suppressed)} baselined"
    )
    return "\n".join(lines)


def to_json(report: Report, indent: int = 2) -> str:
    """Machine-readable report (the CI artifact format)."""
    doc: Dict[str, Any] = {
        "ok": report.ok,
        "files_scanned": report.files_scanned,
        "errors": report.errors,
        "warnings": report.warnings,
        "findings": [f.to_dict() for f in report.findings],
        "baselined": [f.to_dict() for f in report.suppressed],
        "unused_baseline": [e.to_dict() for e in report.unused_baseline],
    }
    return json.dumps(doc, indent=indent)
