"""Reusable fault-injection harness for the durability suite.

Builds on the crash-point instrumentation in :mod:`repro.engine.durable`:
every state transition that matters for recovery calls
``crash_point(name, **context)``, and this module installs hooks that
turn those no-ops into a simulated ``kill -9`` (:class:`InjectedCrash`,
a ``BaseException`` nothing may swallow).  It also patches the module's
``_open`` / ``_replace`` seams to tear a write at byte N or fail the
final rename — the failure modes atomic replace + checksums exist for.

Typical use::

    from tests import faults

    events = faults.crash_points_hit(run_the_save)      # rehearse
    for step in range(len(events)):
        with faults.crash_at_step(step):
            with pytest.raises(InjectedCrash):
                run_the_save()                           # die mid-flight
        ...recover and verify...
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple

from repro.engine import durable
from repro.engine.durable import InjectedCrash


@contextlib.contextmanager
def crash_at(name: str, hits: int = 1) -> Iterator[dict]:
    """Raise :class:`InjectedCrash` at the ``hits``-th firing of ``name``.

    Yields a state dict whose ``"seen"`` counts how often the point fired
    (useful to assert the point was actually reached).
    """
    state = {"seen": 0}

    def hook(point: str, context: dict) -> None:
        if point == name:
            state["seen"] += 1
            if state["seen"] == hits:
                raise InjectedCrash(f"injected crash at {point} (hit {hits})")

    durable.set_crash_hook(hook)
    try:
        yield state
    finally:
        durable.set_crash_hook(None)


@contextlib.contextmanager
def crash_at_step(step: int) -> Iterator[dict]:
    """Raise at the ``step``-th crash-point firing overall (0-based).

    Enumerating every step of a rehearsed run simulates dying at every
    instant the write path distinguishes — stronger than per-name
    injection, which only covers each point's first firing.
    """
    state = {"fired": 0}

    def hook(point: str, context: dict) -> None:
        if state["fired"] == step:
            state["fired"] += 1
            raise InjectedCrash(f"injected crash at step {step} ({point})")
        state["fired"] += 1

    durable.set_crash_hook(hook)
    try:
        yield state
    finally:
        durable.set_crash_hook(None)


@contextlib.contextmanager
def record_crash_points(out: List[str]) -> Iterator[List[str]]:
    """Append every crash-point name fired inside the block to ``out``."""

    def hook(point: str, context: dict) -> None:
        out.append(point)

    durable.set_crash_hook(hook)
    try:
        yield out
    finally:
        durable.set_crash_hook(None)


def crash_points_hit(fn) -> List[str]:
    """The ordered crash-point names a call to ``fn()`` fires."""
    events: List[str] = []
    with record_crash_points(events):
        fn()
    return events


class _TornFile:
    """A binary file wrapper that dies after ``budget`` written bytes.

    The partial prefix is flushed to disk first, so the temp file holds
    exactly the bytes a real torn write would leave behind.
    """

    def __init__(self, fh, state: dict) -> None:
        self._fh = fh
        self._state = state

    def write(self, data: bytes) -> int:
        budget = self._state["budget"]
        if budget is not None and len(data) > budget:
            self._fh.write(data[:budget])
            self._fh.flush()
            self._state["budget"] = 0
            raise InjectedCrash(
                f"torn write: died after {self._state['at_byte']} bytes"
            )
        if budget is not None:
            self._state["budget"] = budget - len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self) -> "_TornFile":
        self._fh.__enter__()
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        return self._fh.__exit__(*exc)


@contextlib.contextmanager
def torn_write(at_byte: int) -> Iterator[None]:
    """Kill the next binary write through ``durable._open`` at byte N.

    Only the first ``at_byte`` bytes reach the temp file; the crash fires
    before ``os.replace``, so the destination must survive untouched.
    """
    real_open = durable._open
    state = {"budget": at_byte, "at_byte": at_byte}

    def opener(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode and "b" in mode:
            return _TornFile(fh, state)
        return fh

    durable._open = opener
    try:
        yield
    finally:
        durable._open = real_open


@contextlib.contextmanager
def failing_replace(
    exc_factory=lambda: InjectedCrash("died before rename"),
    calls: int = 1,
) -> Iterator[None]:
    """Make the next ``calls`` renames through ``durable._replace`` fail.

    The default simulates dying between fsync and rename; pass
    ``exc_factory=lambda: OSError(...)`` to simulate a transient
    filesystem error instead.
    """
    real_replace = durable._replace
    state = {"left": calls}

    def replace(src, dst):
        if state["left"] > 0:
            state["left"] -= 1
            raise exc_factory()
        return real_replace(src, dst)

    durable._replace = replace
    try:
        yield
    finally:
        durable._replace = real_replace


# -- service-layer faults ---------------------------------------------------
#
# The PR 8 query daemon extends the harness upward: the crash-point
# seams inside request handling (``serve.request.received`` /
# ``admitted`` / ``executed``) compose with :func:`crash_at` and
# :func:`stall_at` below, and the raw-socket clients simulate the two
# client-side failure modes an HTTP front end must shrug off — a slow
# writer and a mid-response disconnect.


@contextlib.contextmanager
def stall_at(name: str, release) -> Iterator[dict]:
    """Block every firing of crash point ``name`` until ``release`` is set.

    Turns a crash-point seam into a deterministic latency injector: a
    request parked on ``serve.request.admitted`` holds its admission
    slot until the test releases it — the only reliable way to fill the
    daemon's slots and queue without racing on real query durations.

    ``release`` is a :class:`threading.Event`.  The yielded state's
    ``"stalled"`` counts how many firings blocked.
    """
    state = {"stalled": 0}

    def hook(point: str, context: dict) -> None:
        if point == name:
            state["stalled"] += 1
            release.wait(timeout=30.0)

    durable.set_crash_hook(hook)
    try:
        yield state
    finally:
        durable.set_crash_hook(None)


def raw_post(
    host: str,
    port: int,
    path: str,
    body: bytes,
    headers: Optional[dict] = None,
    send_chunk: Optional[int] = None,
    send_delay_s: float = 0.0,
    read_limit: Optional[int] = None,
    reset: bool = False,
    recv_buffer: Optional[int] = None,
    timeout_s: float = 10.0,
) -> bytes:
    """A raw-socket POST with injectable client misbehaviour.

    ``send_chunk``/``send_delay_s`` drip the body out slowly (a slow
    client); ``read_limit`` stops reading the response after N bytes and
    ``reset=True`` then closes with RST via ``SO_LINGER 0`` (a
    mid-response disconnect).  ``recv_buffer`` pins the client's
    ``SO_RCVBUF`` before connecting, which turns off receive-window
    autotuning: the server can then push no more than that plus its own
    send buffer before its write blocks.  Returns whatever response
    bytes were read (possibly empty).
    """
    import socket
    import struct
    import time

    request_headers = {
        "Host": f"{host}:{port}",
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    request_headers.update(headers or {})
    head = f"POST {path} HTTP/1.1\r\n" + "".join(
        f"{k}: {v}\r\n" for k, v in request_headers.items()
    ) + "\r\n"
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        if recv_buffer is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, recv_buffer)
        sock.settimeout(timeout_s)
        sock.connect((host, port))
        sock.sendall(head.encode("ascii"))
        if send_chunk is None:
            sock.sendall(body)
        else:
            for start in range(0, len(body), send_chunk):
                sock.sendall(body[start:start + send_chunk])
                if send_delay_s:
                    time.sleep(send_delay_s)
        received = b""
        while read_limit is None or len(received) < read_limit:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
        if reset:
            # RST instead of FIN: the server's next write dies with
            # ECONNRESET / EPIPE instead of quietly buffering.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        return received
    finally:
        sock.close()


def counter_value(name: str) -> int:
    """Current value of a metrics-registry counter (0 if never touched)."""
    from repro.obs.metrics import get_registry

    return get_registry().counter(name).value


def rehearse_and_enumerate(fn, sample_every: int = 1) -> List[Tuple[int, str]]:
    """Rehearse ``fn`` once, then pick the crash steps worth injecting.

    Returns ``(step, name)`` pairs: every first and last occurrence of
    each distinct crash point, plus every ``sample_every``-th step in
    between — full coverage of the distinct points at a bounded cost for
    long event streams.
    """
    events = crash_points_hit(fn)
    chosen = set()
    first_seen = {}
    last_seen = {}
    for i, name in enumerate(events):
        first_seen.setdefault(name, i)
        last_seen[name] = i
    chosen.update(first_seen.values())
    chosen.update(last_seen.values())
    chosen.update(range(0, len(events), max(1, sample_every)))
    return [(i, events[i]) for i in sorted(chosen)]
