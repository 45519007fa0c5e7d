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
file, never a torn hybrid; CRC32 checksums (embedded in the ``.col`` v4,
``.colz`` v3 and ``.imprint`` v3 headers) catch the remaining failure
modes — media corruption and torn writes on filesystems without atomic
rename.

File framing
------------

The three binary file kinds share one codec, kept here: a 4-byte magic
and a u16 version open every header (:data:`PREFIX`); a CRC32 field in
the header covers the header, with that field zeroed, plus everything
after it (:func:`write_checksummed`, :func:`read_checked`); strings are
a u16 length plus UTF-8 bytes (:func:`frame_str`, :func:`read_str`);
and any malformed byte is a :class:`StorageError`.  A corrupt *derived*
file (a ``.colz`` sidecar or an ``.imprint``) is moved aside by
:func:`quarantine` and rebuilt from the column it was derived from.

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
typed corruption errors (:class:`StorageError` and friends subclass
``IOError`` — corrupt bytes do not heal on retry) and never touches
:class:`InjectedCrash`.  Retries increment the ``durability.retries``
counter; checksum failures and quarantines have counters of their own
(see ``docs/durability.md``).
"""

from __future__ import annotations

import os
import struct
import time
import warnings
import zlib
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Type, TypeVar, Union

PathLike = Union[str, Path]
#: What the write and checksum helpers take: raw bytes or a byte view of
#: an existing buffer (e.g. a column's array), never copied by them.
Buffer = Union[bytes, bytearray, memoryview]

# Patch points for the fault-injection harness: tests replace these to
# tear writes at byte N or fail the rename.  Production code must open
# temp files and rename through them, never through the builtins.
_open = open
_replace = os.replace


class StorageError(IOError):
    """Raised when a store file is missing, corrupt, or truncated."""


class InjectedCrash(BaseException):
    """A simulated process kill, raised by fault-injection hooks.

    Derives from ``BaseException`` so that no ``except Exception`` in a
    write or recovery path can swallow it — a real ``kill -9`` cannot be
    caught either.
    """


# -- crash points -----------------------------------------------------------

#: Every crash-point name that has fired in this process.  The fault
#: harness enumerates this to prove coverage.
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


# -- file framing -----------------------------------------------------------

#: Magic + version: the first six bytes of every checksummed store file.
PREFIX = struct.Struct("<4sH")


def checksum(*parts: Buffer) -> int:
    """The CRC32 embedded in the ``.col``, ``.colz`` and ``.imprint``
    headers.

    Covers ``parts`` as if concatenated, with a running CRC instead of
    the concatenation, so "header with the CRC zeroed + payload" is
    checksummed in place.
    """
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc & 0xFFFFFFFF


def write_checksummed(
    path: PathLike, pack: Callable[[int], bytes], *body: Buffer, label: str
) -> int:
    """Atomically write the header ``pack(crc)`` followed by ``body``;
    returns bytes written.

    ``crc`` is the :func:`checksum` of ``pack(0)`` and the body, so a
    bit flip anywhere in the file fails verification, header fields
    included.  The body parts are written as given, never joined.
    """
    crc = checksum(pack(0), *body)
    return atomic_write_bytes(path, pack(crc), *body, label=label)


def check_prefix(
    raw: bytes, path: PathLike, magic: bytes, version: int, size: int
) -> None:
    """Raise :class:`StorageError` unless ``raw`` opens with ``magic``
    and ``version`` and holds at least ``size`` header bytes."""
    if len(raw) < PREFIX.size:
        raise StorageError(f"{path}: truncated header")
    got_magic, got_version = PREFIX.unpack_from(raw)
    if got_magic != magic:
        raise StorageError(f"{path}: bad magic {got_magic!r}")
    if got_version != version:
        raise StorageError(f"{path}: unsupported version {got_version}")
    if len(raw) < size:
        raise StorageError(f"{path}: truncated header")


def read_checked(
    raw: bytes, path: PathLike, magic: bytes, version: int, size: int
) -> None:
    """Check a whole file read into ``raw``: :func:`check_prefix`, then
    the CRC32 in the last four bytes of its ``size``-byte header against
    the file with those bytes zeroed.  A mismatch counts
    ``durability.checksum_failures`` and raises :class:`StorageError`."""
    check_prefix(raw, path, magic, version, size)
    crc = int.from_bytes(raw[size - 4 : size], "little")
    if checksum(raw[: size - 4], bytes(4), memoryview(raw)[size:]) != crc:
        record_checksum_failure(path)
        raise StorageError(f"{path}: checksum mismatch")


def read_file(path: Path, what: str) -> bytes:
    """Every byte of ``path``, read with one open.  A missing file raises
    :class:`StorageError` naming it as ``what``, and so does any other
    ``OSError`` (unreadable, a directory), so a caller that quarantines
    bad derived files contains both."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise StorageError(f"no {what} at {path}") from None
    except OSError as exc:
        raise StorageError(f"{path}: cannot read {what} ({exc})") from None


def frame_str(text: str) -> bytes:
    """``text`` as stored: a u16 byte length, then its UTF-8 bytes."""
    raw = text.encode("utf-8")
    return len(raw).to_bytes(2, "little") + raw


def read_str(raw: bytes, pos: int, path: PathLike) -> Tuple[str, int]:
    """The :func:`frame_str` string at ``pos`` and the offset after it."""
    start = pos + 2
    end = start + int.from_bytes(raw[pos:start], "little")
    if end > len(raw):
        raise StorageError(f"{path}: truncated string at byte {pos}")
    try:
        return raw[start:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise StorageError(
            f"{path}: corrupt string at byte {pos} ({exc})"
        ) from None


def record_checksum_failure(path: PathLike) -> None:
    """Count a checksum mismatch in the metrics registry."""
    from ..obs.metrics import get_registry

    get_registry().counter("durability.checksum_failures").inc()


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


def quarantine(
    path: Path, error: Exception, kind: str, note: str = "", stacklevel: int = 2
) -> Tuple[str, Path]:
    """Move a corrupt derived file aside as ``<name>.quarantined`` and
    warn; returns the issue line and where the file now is.

    The caller rebuilds the file's contents from the column it was
    derived from; ``note`` ends the warning with what that rebuild is.
    ``stacklevel`` is the warning's frame counted from the caller, as
    :func:`warnings.warn` counts it there (2: the caller's caller).
    A failed rename leaves the file in place: degradation never raises.
    Counts ``durability.quarantines`` when the file moved.
    """
    where = path.with_name(path.name + ".quarantined")
    try:
        _replace(path, where)
    except OSError:
        where = path
    else:
        from ..obs.metrics import get_registry

        get_registry().counter("durability.quarantines").inc()
    issue = f"quarantined corrupt {kind} {path.name}: {error}"
    warnings.warn(
        f"{issue} (moved to {where.name}{note})",
        RuntimeWarning,
        stacklevel=stacklevel + 1,
    )
    return issue, where
