"""Crash-safe write primitives shared by every persistence path.

The paper's operational headline — bulk-loading AHN2's 640 Gpoints in
under a day (Section 3.2) — is a multi-hour ingest.  A store that can be
torn apart by a crash in hour five is not reproducing that claim, so
every artifact the engine persists (``.col`` columns, ``.imprint``
indexes, ``schema.json``, the catalog, load manifests) goes through the
same protocol:

1. write the full payload to a sibling temp file,
2. flush + ``fsync`` it,
3. ``os.replace`` it over the destination (atomic on POSIX and NTFS),
4. best-effort ``fsync`` the directory so the rename itself is durable.

A reader therefore sees either the complete old file or the complete new
file, never a torn hybrid; payload CRC32 checksums (embedded in the
``.col`` v2 and ``.imprint`` v3 headers) catch the remaining failure
modes — media corruption and torn writes on filesystems without atomic
rename.

Fault injection
---------------

The write path is instrumented with **crash points**: named no-op hooks
(:func:`crash_point`) at every state transition that matters for
recovery.  ``tests/faults.py`` installs a hook that raises
:class:`InjectedCrash` — a ``BaseException``, so no recovery code can
accidentally swallow it — to simulate the process dying at exactly that
instant, and patches :data:`_open` / :data:`_replace` to kill a write
after N bytes.  The durability suite drives every registered crash point
and requires that ``Database.verify()`` passes after recovery.

Transient-error policy
----------------------

:func:`with_retries` retries ``OSError`` with bounded exponential
backoff (NFS hiccups, ``EINTR``, overloaded disks) but never retries
typed corruption errors (``StorageError`` and friends subclass
``IOError`` — corrupt bytes do not heal on retry) and never touches
:class:`InjectedCrash`.  Retries increment the ``durability.retries``
counter; checksum failures and quarantines have counters of their own
(see ``docs/durability.md``).
"""

from __future__ import annotations

import os
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Type, TypeVar, Union

PathLike = Union[str, Path]
#: What the write and checksum helpers take: raw bytes or a byte view of
#: an existing buffer (e.g. a column's array), never copied by them.
Buffer = Union[bytes, bytearray, memoryview]

# Patch points for the fault-injection harness: tests replace these to
# tear writes at byte N or fail the rename.  Production code must open
# temp files and rename through them, never through the builtins.
_open = open
_replace = os.replace


class InjectedCrash(BaseException):
    """A simulated process kill, raised by fault-injection hooks.

    Derives from ``BaseException`` so that no ``except Exception`` in a
    write or recovery path can swallow it — a real ``kill -9`` cannot be
    caught either.
    """


# -- crash points -----------------------------------------------------------

#: Every crash-point name that has ever fired (or been declared) in this
#: process.  The fault harness enumerates this to prove coverage.
KNOWN_CRASH_POINTS: set[str] = set()

_crash_hook: Optional[Callable[[str, Dict[str, object]], None]] = None


def set_crash_hook(hook: Optional[Callable[[str, Dict[str, object]], None]]) -> None:
    """Install (or clear, with ``None``) the process-wide crash hook.

    The hook receives ``(name, context)`` at every crash point; raising
    :class:`InjectedCrash` from it simulates dying right there.
    """
    global _crash_hook
    _crash_hook = hook


def crash_point(name: str, **context: object) -> None:
    """A named no-op the fault harness can turn into a simulated crash."""
    KNOWN_CRASH_POINTS.add(name)
    if _crash_hook is not None:
        _crash_hook(name, context)


def declare_crash_points(names: Iterable[str]) -> None:
    """Pre-register crash-point names so coverage tools see them before
    the code path first runs."""
    KNOWN_CRASH_POINTS.update(names)


# -- atomic writes ----------------------------------------------------------


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory (makes the rename durable)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform/filesystem without directory handles
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, *parts: Buffer, label: str = "file") -> int:
    """Atomically replace ``path`` with ``parts`` written back to back;
    returns bytes written.

    The parts are written one after another, never joined, so a caller
    can hand over a header and a view of a column's own buffer without
    building one copy of the whole file.  ``label`` names the artifact
    class in crash points (``durable.<label>.written`` / ``.replaced``)
    and keeps different write sites distinguishable to the fault harness.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    crash_point(f"durable.{label}.begin", path=str(path))
    try:
        with _open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        crash_point(f"durable.{label}.written", path=str(path))
        _replace(tmp, path)
    except Exception:
        # Real failures clean up their temp file; InjectedCrash is a
        # BaseException and deliberately leaves the wreckage behind.
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    crash_point(f"durable.{label}.replaced", path=str(path))
    _fsync_directory(path.parent)
    return sum(memoryview(part).nbytes for part in parts)


def atomic_write_text(path: PathLike, text: str, label: str = "file") -> int:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    return atomic_write_bytes(path, text.encode("utf-8"), label=label)


def atomic_append_text(path: PathLike, text: str, label: str = "log") -> int:
    """Durably append UTF-8 ``text`` to a log file; returns bytes written.

    Append is the one write shape rename-based atomicity cannot give
    (replacing the whole log per record would be O(n²) in log size), so
    the contract here is weaker and explicitly line-oriented: the bytes
    are flushed and fsynced before returning, and a crash mid-append
    tears at most the *final line* — which is why the slow-query log is
    JSONL and its readers skip unparseable trailing lines.  Goes through
    the :data:`_open` patch point so the fault harness can tear appends
    at byte N like any other write.
    """
    path = Path(path)
    data = text.encode("utf-8")
    crash_point(f"durable.{label}.append_begin", path=str(path))
    with _open(path, "ab") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    crash_point(f"durable.{label}.appended", path=str(path))
    return len(data)


# -- checksums --------------------------------------------------------------


def checksum(*parts: Buffer) -> int:
    """The CRC32 embedded in the v2 column / v3 imprint headers.

    Covers ``parts`` as if concatenated, with a running CRC instead of
    the concatenation, so "header with the CRC zeroed + payload" is
    checksummed in place.
    """
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc & 0xFFFFFFFF


def record_checksum_failure(path: PathLike) -> None:
    """Count a checksum mismatch in the metrics registry."""
    from ..obs.metrics import get_registry

    get_registry().counter("durability.checksum_failures").inc()


def record_quarantine(path: PathLike) -> None:
    """Count a quarantined artifact in the metrics registry."""
    from ..obs.metrics import get_registry

    get_registry().counter("durability.quarantines").inc()


# -- bounded retries --------------------------------------------------------


_R = TypeVar("_R")


def with_retries(
    fn: Callable[[], _R],
    *,
    retries: int = 3,
    backoff: float = 0.01,
    max_backoff: float = 1.0,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    no_retry: Tuple[Type[BaseException], ...] = (),
    label: str = "",
) -> _R:
    """Call ``fn`` retrying transient errors with bounded backoff.

    ``retry_on`` exceptions are retried up to ``retries`` times with
    exponential backoff capped at ``max_backoff`` seconds.  ``no_retry``
    carves typed corruption errors (``StorageError`` subclasses
    ``IOError``) out of the retry set — corrupt bytes do not heal.
    :class:`InjectedCrash` always propagates.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except InjectedCrash:
            raise
        except retry_on as exc:
            if isinstance(exc, no_retry) or attempt >= retries:
                raise
            from ..obs.metrics import get_registry

            get_registry().counter("durability.retries").inc()
            delay = min(backoff * (2 ** attempt), max_backoff)
            attempt += 1
            crash_point("durable.retry", label=label, attempt=attempt)
            if delay > 0:
                time.sleep(delay)


def quarantine_file(path: PathLike, reason: str = "") -> Optional[Path]:
    """Move a corrupt artifact aside as ``<name>.quarantined``.

    Returns the quarantine path, or ``None`` when the rename itself
    failed (the caller then leaves the file in place — degradation must
    never raise).  Counts ``durability.quarantines``.
    """
    path = Path(path)
    target = path.with_name(path.name + ".quarantined")
    try:
        _replace(path, target)
    except OSError:
        return None
    record_quarantine(path)
    return target
