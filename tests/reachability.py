"""Reachability report: the ``src/`` functions that nothing but a test calls.

    python tests/reachability.py     # Python 3.11+ (reads co_qualname)

Runs tier-1 (``tests/``) and ``benchmarks/e2e/test_smoke.py`` under a
``sys.setprofile`` / ``threading.setprofile`` profiler.  A generated
``sitecustomize`` on ``PYTHONPATH`` installs the same profiler in every
subprocess those suites start (the CLI daemons, ``benchmarks/e2e/run.py``
and its children), and each process appends what it enters to its own
file, one line per function, so a process ended by a signal loses
nothing.

A function counts as **reached** when

* it is entered in a consumer process: an ``examples/`` or
  ``benchmarks/`` script, or ``python -m repro.cli``;
* it is entered below an ``examples/`` script's frame: the example
  smoke tests run each example in-process as ``__main__``;
* it is entered in any other process and its outermost ``src/`` caller
  frame (a thread inherits its starter's) is in a surface module:
  :data:`SURFACE`;
* ``benchmarks/`` or ``examples/`` name it in their source (the
  E-series ``Report`` classes, which the smoke runs skip).

Every other function prints as ``file::qualname  lines  (tests-only |
never)``.  The report exits 1 on any such function that is not in
``tests/reachability_allow.txt``, whose lines read ``file::qualname
surface``: the surface a user reaches it through that no suite
exercises, or the safety role that keeps it (crash handlers, reference
implementations).  The allow-list only shrinks.  Stdlib only: no
``coverage``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"
ALLOW = Path(__file__).resolve().parent / "reachability_allow.txt"

#: Modules (files, or directories ending ``/``) relative to ``src/repro``
#: that are public surfaces: a call from a test into one of them is a
#: user's call.
SURFACE = (
    "api.py",
    "cli.py",
    "sql/executor.py",
    "serve/",
    "obs/server.py",
    "analysis/",
)

#: Consumer scripts live here; everything they enter is reached.
CONSUMERS = (ROOT / "examples", ROOT / "benchmarks")

#: Stands in for the outermost ``src/`` caller of code an example runs.
_EXAMPLE = "<example>"

SUITES = ["tests", "benchmarks/e2e/test_smoke.py"]

_ORIGIN = "_reachability_origin"


class Function(NamedTuple):
    file: str  # relative to src/repro
    qualname: str
    lines: int

    @property
    def key(self) -> str:
        return f"{self.file}::{self.qualname}"


# -- the profiler (runs inside every profiled process) -------------------------


def _is_consumer(argv: List[str]) -> bool:
    """Whether the interpreter command line runs a consumer: an example,
    a ``benchmarks/`` script, or ``-m repro.cli``."""
    args = iter(argv[1:])
    for arg in args:
        if arg == "-m":
            return next(args, "") == "repro.cli"
        if arg == "-c":
            return False
        if arg in ("-X", "-W"):
            next(args, None)
        elif not arg.startswith("-"):
            script = Path(arg).resolve()
            return any(base in script.parents for base in CONSUMERS)
    return False


def _is_surface(relative: str) -> bool:
    return any(
        relative.startswith(s) if s.endswith("/") else relative == s for s in SURFACE
    )


def install(out_dir: str, shim_dir: str) -> None:
    """Profile this process into ``out_dir/<pid>.txt``; make every child
    Python process load the ``sitecustomize`` in ``shim_dir`` too."""
    src = str(PKG) + os.sep
    examples = str(ROOT / "examples") + os.sep
    consumer = _is_consumer(list(sys.orig_argv))
    fd = os.open(
        os.path.join(out_dir, f"{os.getpid()}.txt"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
    )
    done: Set[object] = set()  # not in src/, or already reached
    entered: Set[object] = set()

    def note(tag: str, code) -> None:
        relative = code.co_filename[len(src):].replace(os.sep, "/")
        os.write(fd, f"{tag}\t{relative}\t{code.co_qualname}\n".encode())

    def outermost(frame) -> Optional[str]:
        origin = getattr(threading.current_thread(), _ORIGIN, None)
        if origin is not None:
            return origin
        found = None
        while frame is not None:
            name = frame.f_code.co_filename
            if name.startswith(src):
                found = name[len(src):].replace(os.sep, "/")
            elif name.startswith(examples):
                return _EXAMPLE
            frame = frame.f_back
        return found

    def profile(frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code in done:
            return
        if not code.co_filename.startswith(src):
            done.add(code)
            return
        if code not in entered:
            entered.add(code)
            note("E", code)
        origin = outermost(frame) or ""
        if consumer or origin == _EXAMPLE or _is_surface(origin):
            done.add(code)
            note("R", code)

    start = threading.Thread.start

    def start_with_origin(thread: threading.Thread) -> None:
        setattr(thread, _ORIGIN, outermost(sys._getframe(1)))
        start(thread)

    threading.Thread.start = start_with_origin  # type: ignore[method-assign]

    popen_init = subprocess.Popen.__init__

    def popen_with_shim(self, *args, env=None, **kwargs) -> None:
        if env is not None:
            env = dict(env)
            inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
            env["PYTHONPATH"] = os.pathsep.join([shim_dir, *inherited])
        popen_init(self, *args, env=env, **kwargs)

    subprocess.Popen.__init__ = popen_with_shim  # type: ignore[method-assign]
    threading.setprofile(profile)
    sys.setprofile(profile)


_SITECUSTOMIZE = """\
import importlib.util

_spec = importlib.util.spec_from_file_location("_reachability", {module!r})
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.install({out!r}, {shim!r})
"""


def run_suites(work: Path) -> int:
    """Run the suites with every process profiled into ``work/profiles``."""
    shim, profiles = work / "shim", work / "profiles"
    shim.mkdir(parents=True, exist_ok=True)
    profiles.mkdir(exist_ok=True)
    (shim / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(
            module=str(Path(__file__).resolve()), out=str(profiles), shim=str(shim)
        )
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(shim), str(ROOT / "src")])
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *SUITES]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


def read_profiles(profiles: Path) -> Tuple[Set[str], Set[str]]:
    """``(reached, entered)`` keys over every process's profile."""
    reached: Set[str] = set()
    entered: Set[str] = set()
    for path in profiles.glob("*.txt"):
        for line in path.read_text().splitlines():
            tag, file, qualname = line.split("\t")
            (reached if tag == "R" else entered).add(f"{file}::{qualname}")
    return reached, entered


# -- the static side ------------------------------------------------------------


def src_functions() -> List[Function]:
    """Every ``def`` under ``src/repro``, keyed as ``co_qualname`` names it
    (a getter and its setter share a key, and their lines add up)."""
    found: Dict[str, Function] = {}

    def visit(node: ast.AST, file: str, prefix: str) -> Iterator[Function]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                assert child.end_lineno is not None
                yield Function(file, qualname, child.end_lineno - child.lineno + 1)
                yield from visit(child, file, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, file, prefix + child.name + ".")
            else:
                yield from visit(child, file, prefix)

    for path in sorted(PKG.rglob("*.py")):
        file = path.relative_to(PKG).as_posix()
        for fn in visit(ast.parse(path.read_text()), file, ""):
            old = found.get(fn.key)
            found[fn.key] = fn._replace(lines=fn.lines + (old.lines if old else 0))
    return sorted(found.values())


def _module_of(file: str) -> str:
    parts = ["repro", *file[: -len(".py")].split("/")]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def consumer_files() -> Iterator[Tuple[Set[Tuple[str, str]], Set[str]]]:
    """Per ``benchmarks/`` and ``examples/`` file: the ``(module, name)``
    pairs it imports by name or reads off an imported module, and every
    identifier and attribute name it uses."""
    for base in CONSUMERS:
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text())
            pairs: Set[Tuple[str, str]] = set()
            words: Set[str] = set()
            aliases: Dict[str, str] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        pairs.add((node.module, alias.name))
                        words.add(alias.name)
                        name = alias.asname or alias.name
                        aliases[name] = f"{node.module}.{alias.name}"
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = alias.name
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    words.add(node.id)
                elif isinstance(node, ast.Attribute):
                    words.add(node.attr)
                    if isinstance(node.value, ast.Name) and node.value.id in aliases:
                        pairs.add((aliases[node.value.id], node.attr))
            yield pairs, words


def named_by_consumers(functions: List[Function]) -> Set[str]:
    """Keys of the functions some ``benchmarks/`` or ``examples/`` file
    names: a module-level function imported from its module (or a
    package above it) or read off it; a method when the file names both
    its class and the method."""
    files = list(consumer_files())
    named: Set[str] = set()
    for fn in functions:
        if ".<locals>." in fn.qualname:
            continue
        module = _module_of(fn.file)
        owners = [module.rsplit(".", n)[0] for n in range(module.count(".") + 1)]
        *classes, name = fn.qualname.split(".")
        for pairs, words in files:
            if classes:
                hit = classes[0] in words and name in words
            else:
                hit = any((owner, name) in pairs for owner in owners)
            if hit:
                named.add(fn.key)
                break
    return named


def read_allow(path: Path = ALLOW) -> List[Tuple[str, str]]:
    """``(file::qualname, surface)`` per non-comment line; none when the
    file is missing (a checkout older than the allow-list)."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, surface = line.partition(" ")
            entries.append((key, surface.strip()))
    return entries


# -- the report -----------------------------------------------------------------


def report(profiles: Path) -> int:
    functions = src_functions()
    reached, entered = read_profiles(profiles)
    reached |= named_by_consumers(functions)
    allowed = {key for key, _ in read_allow()}
    unreached = [fn for fn in functions if fn.key not in reached]
    failing = [fn for fn in unreached if fn.key not in allowed]
    for fn in unreached:
        kind = "tests-only" if fn.key in entered else "never"
        mark = "" if fn.key in allowed else "  NOT ALLOW-LISTED"
        print(f"{fn.key}  {fn.lines}  ({kind}){mark}")
    for key in sorted(allowed & (reached & {fn.key for fn in functions})):
        print(f"note: {key} is reached now; its allow-list line can go")
    print(
        f"{len(functions)} functions, {len(functions) - len(unreached)} reached, "
        f"{len(unreached)} unreached ({sum(fn.lines for fn in unreached)} lines), "
        f"{len(unreached) - len(failing)} allow-listed, {len(failing)} not"
    )
    return 1 if failing else 0


def main() -> int:
    if sys.version_info < (3, 11):
        print("reachability.py needs Python 3.11+: the profiler reads co_qualname")
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        status = run_suites(Path(scratch))
        if status != 0:
            print(f"the profiled suites failed (exit {status}); no report")
            return status
        return report(Path(scratch) / "profiles")


if __name__ == "__main__":
    sys.exit(main())
