"""Docs name files and modules that exist.

Every path in backticks ending ``.py`` / ``.json`` / ``.md`` / ``.yml``
in the prose docs must be a tracked file (or the tail of one:
``engine/scan.py`` for ``src/repro/engine/scan.py``), and every
``python -m repro.<module>`` command must name an importable module.
"""

import importlib.util
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

#: Written by a documented command or into a store directory, or the
#: ``--compare A.json B.json`` placeholders: never tracked.
GENERATED = re.compile(
    r"benchmarks/e2e/results/.*|(.*\.manifest|_?catalog|schema|A|B)\.json"
)

_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"[\w./-]*\w\.(?:py|json|md|yml)\b")
_MODULE = re.compile(r"python3? -m (repro(?:\.\w+)*)")


@pytest.fixture(scope="module")
def tracked():
    try:
        listed = subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split("\n")
    except (OSError, subprocess.CalledProcessError):  # an export without .git
        listed = [str(p.relative_to(ROOT)) for p in ROOT.rglob("*") if p.is_file()]
    return [name for name in listed if name and (ROOT / name).exists()]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_named_files_and_modules_exist(doc, tracked):
    text = doc.read_text()
    named = {path for span in _SPAN.findall(text) for path in _PATH.findall(span)}
    missing = sorted(
        path
        for path in named
        if not GENERATED.fullmatch(path)
        and not any(f == path or f.endswith("/" + path) for f in tracked)
    )
    assert not missing, f"{doc.name} names files that are not in the repo: {missing}"
    modules = sorted(
        {m for m in _MODULE.findall(text) if importlib.util.find_spec(m) is None}
    )
    assert not modules, f"{doc.name} runs modules that do not import: {modules}"
