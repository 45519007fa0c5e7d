"""A pool of SQL sessions keyed by snapshot generation.

Building a :class:`~repro.sql.executor.Session` is not free: every
registered point table snapshots its columns into a relation.  Under the
admission limit the daemon runs at most ``max_concurrency`` SQL requests
at once, so a small pool of reusable sessions per *generation*
amortises that setup across requests.

The generation key is what keeps pooling correct under concurrent
publishes: a session registers the tables of exactly one snapshot, so a
session built against generation N must never serve a request pinned to
generation N+1.  Checking in records the generation; checking out
matches it.  Sessions for retired generations are dropped on the floor
(GC'd with their snapshot) the next time the pool is trimmed.

A session is bound once, when it is built, to the snapshot database's
observability context and slow-query log.  Trace adoption is per thread,
so a checkout rebinds nothing, and the pooled object carries no request
state across uses beyond its relations.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from ..sql.executor import Session
from .snapshot import Snapshot


class SessionPool:
    """Reusable SQL sessions, one sub-pool per catalog generation."""

    def __init__(self, max_idle: int = 8) -> None:
        self.max_idle = max_idle
        self._lock = threading.Lock()
        self._idle: List[Tuple[int, Session]] = []
        self._built = 0

    @property
    def built(self) -> int:
        """Sessions constructed so far (pool misses)."""
        with self._lock:
            return self._built

    @property
    def idle(self) -> int:
        with self._lock:
            return len(self._idle)

    def _build(self, snapshot: Snapshot) -> Session:
        session = snapshot.db.session()
        with self._lock:
            self._built += 1
        return session

    @contextmanager
    def session(self, snapshot: Snapshot) -> Iterator[Session]:
        """Check out a session bound to ``snapshot``'s generation.

        On the way out the session returns to the pool unless its
        generation has been retired or the pool is full.
        """
        generation = snapshot.generation
        found: Optional[Session] = None
        with self._lock:
            for index, (gen, candidate) in enumerate(self._idle):
                if gen == generation:
                    found = candidate
                    del self._idle[index]
                    break
            # Sessions from older generations pin dead snapshots in
            # memory; drop them whenever a newer generation shows up.
            self._idle = [
                (gen, s) for gen, s in self._idle if gen >= generation
            ]
        session = found if found is not None else self._build(snapshot)
        try:
            yield session
        finally:
            with self._lock:
                if len(self._idle) < self.max_idle:
                    self._idle.append((generation, session))
