"""Command-line driver shared by ``repro-gis check`` and
``python -m repro.analysis``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import Baseline
from .engine import default_baseline_path, default_root, run_check
from .registry import all_rules
from .report import to_json, to_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gis check",
        description=(
            "AST-based invariant linter: durable writes, crash "
            "transparency, lock discipline, struct formats, span "
            "discipline, metric-name registry, resource release, "
            "exception-status mapping, blocking-under-lock, "
            "cancellation coverage (R1-R9, R11)"
        ),
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="source tree to scan (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json is the CI artifact shape)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: repro-check.baseline.json at the "
        "repo root; missing file = empty baseline)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to cover every current finding "
        "(keeps justifications of surviving entries)",
    )
    parser.add_argument(
        "--select",
        "--rule",
        action="append",
        dest="select",
        metavar="RULE",
        help="run only these rules, by id or code: --rule R7 "
        "--rule lock-discipline (repeatable)",
    )
    parser.add_argument(
        "--path",
        action="append",
        metavar="PATH",
        help="restrict the scan to these files/directories under the "
        "root (repeatable): --path src/repro/serve",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    parser.add_argument("--out", default=None, help="write the report here")
    return parser


def _resolve_paths(root: Path, raw: List[str]) -> List[Path]:
    """Expand ``--path`` operands (files or directories) to .py files."""
    files: List[Path] = []
    for text in raw:
        path = Path(text)
        candidates = [path, root / text] if not path.is_absolute() else [path]
        resolved = next((c for c in candidates if c.exists()), None)
        if resolved is None:
            raise FileNotFoundError(f"--path {text}: no such file or directory")
        if resolved.is_dir():
            files.extend(sorted(p for p in resolved.rglob("*.py") if p.is_file()))
        else:
            files.append(resolved)
    return files


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code:4s} {rule.id:24s} [{rule.severity.value}] {rule.doc}")
        return 0

    root = Path(args.root) if args.root else default_root()
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline_path(root)
    )
    baseline = Baseline.load(baseline_path)
    paths = None
    if args.path:
        try:
            paths = _resolve_paths(root, args.path)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = run_check(
        root, baseline=baseline, rule_ids=args.select, paths=paths
    )

    if args.update_baseline:
        updated = Baseline.from_findings(
            report.findings + report.suppressed, previous=baseline
        )
        updated.save(baseline_path)
        print(
            f"baseline: {len(updated)} entries written to {baseline_path} "
            f"(fill in the justification fields)",
            file=sys.stderr,
        )
        return 0

    rendered = to_json(report) if args.format == "json" else to_text(report)
    if args.out:
        from ..engine.durable import atomic_write_text

        atomic_write_text(args.out, rendered + "\n", label="check-report")
        print(f"wrote report to {args.out}", file=sys.stderr)
    else:
        print(rendered)
    return 0 if report.ok else 1
