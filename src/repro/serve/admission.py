"""Bounded admission control: the layer that says *no*.

The paper's Scenario 1 is many concurrent viewport queries against one
column store.  An engine without admission discipline answers overload
by queueing unboundedly — every request is eventually served, long after
its viewport stopped mattering, with memory growing the whole time.  The
:class:`AdmissionController` bounds both dimensions:

* at most ``max_concurrency`` requests execute at once;
* at most ``queue_depth`` more wait (bounded, FIFO via the condition
  variable's wakeup order);
* everything beyond that is **shed immediately** with
  :class:`AdmissionRejected` — the HTTP layer maps it to
  ``429 Too Many Requests`` plus a ``Retry-After`` hint.  Shedding is a
  constant-time decision under the lock, which is what makes the
  "429 within 100ms under 2x overload" acceptance criterion possible.

Draining (``begin_drain``) flips the controller into shutdown mode:
every new arrival and every queued waiter is rejected with
``reason="draining"`` (HTTP 503) while in-flight requests run to
completion; ``wait_drained`` blocks until they have.

All mutable state is guarded by one condition variable; the only waits
are bounded (queue timeout, drain timeout).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.timing import now


class AdmissionRejected(RuntimeError):
    """A request was refused admission (shed, queue timeout, or drain).

    ``retry_after_s`` is the backoff hint surfaced as the HTTP
    ``Retry-After`` header; ``reason`` is one of ``"saturated"``,
    ``"queue_timeout"`` or ``"draining"``.
    """

    def __init__(
        self,
        reason: str,
        retry_after_s: float,
        inflight: int,
        queued: int,
    ) -> None:
        super().__init__(
            f"admission rejected ({reason}): {inflight} in flight, "
            f"{queued} queued; retry after {retry_after_s:g}s"
        )
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.inflight = inflight
        self.queued = queued


class AdmissionController:
    """Bounded concurrency + bounded queue + immediate shed.

    Parameters
    ----------
    max_concurrency:
        Requests executing simultaneously.
    queue_depth:
        Requests allowed to wait for a slot; ``0`` disables queueing
        entirely (pure shed at saturation).
    queue_wait_s:
        How long a queued request waits for a slot before it is shed
        with ``reason="queue_timeout"``.
    retry_after_s:
        The backoff hint attached to rejections.
    registry:
        Metrics registry for the ``serve.*`` series (the active
        context's registry when omitted).
    """

    def __init__(
        self,
        max_concurrency: int = 4,
        queue_depth: int = 8,
        queue_wait_s: float = 30.0,
        retry_after_s: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self.queue_wait_s = queue_wait_s
        self.retry_after_s = retry_after_s
        self.registry = registry if registry is not None else get_registry()
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self._draining = False

    # -- introspection -----------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def queued(self) -> int:
        with self._cond:
            return self._queued

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "inflight": self._inflight,
                "queued": self._queued,
                "max_concurrency": self.max_concurrency,
                "queue_depth": self.queue_depth,
                "draining": self._draining,
            }

    # -- admission ---------------------------------------------------------

    @contextmanager
    def admit(self) -> Iterator[None]:
        """Hold one execution slot for the duration of the block.

        Raises :class:`AdmissionRejected` without waiting when the
        controller is saturated past its queue depth or draining;
        otherwise may wait up to ``queue_wait_s`` for a slot.
        """
        self.acquire()
        try:
            yield
        finally:
            self.release()

    def _reject(self, reason: str) -> AdmissionRejected:
        # Called under the condition; counts the shed and builds the error.
        self.registry.counter("serve.shed").inc()
        return AdmissionRejected(
            reason, self.retry_after_s, self._inflight, self._queued
        )

    def _publish_gauges_locked(self) -> None:
        self.registry.gauge("serve.inflight").set(float(self._inflight))

    def acquire(self) -> None:
        """Take an execution slot (see :meth:`admit`)."""
        t0 = now()
        with self._cond:
            if self._draining:
                raise self._reject("draining")
            if self._inflight < self.max_concurrency:
                self._inflight += 1
                self._publish_gauges_locked()
                self.registry.counter("serve.admitted").inc()
                return
            if self._queued >= self.queue_depth:
                raise self._reject("saturated")
            self._queued += 1
            self._publish_gauges_locked()
            deadline = t0 + self.queue_wait_s
            try:
                while True:
                    if self._draining:
                        raise self._reject("draining")
                    if self._inflight < self.max_concurrency:
                        self._inflight += 1
                        break
                    remaining = deadline - now()
                    if remaining <= 0:
                        raise self._reject("queue_timeout")
                    self._cond.wait(remaining)
            finally:
                self._queued -= 1
                self._publish_gauges_locked()
            self.registry.counter("serve.admitted").inc()
        self.registry.histogram("serve.queue_wait_seconds").observe(now() - t0)

    def release(self) -> None:
        """Return an execution slot and wake one queued waiter."""
        with self._cond:
            self._inflight -= 1
            self._publish_gauges_locked()
            self._cond.notify_all()

    # -- graceful shutdown -------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; queued waiters fail out, in-flight continue."""
        with self._cond:
            self._draining = True
            self.registry.gauge("serve.draining").set(1.0)
            self._cond.notify_all()

    def wait_drained(self, timeout_s: float) -> bool:
        """Block until in-flight requests finish; False on timeout."""
        deadline = now() + timeout_s
        with self._cond:
            while self._inflight > 0:
                remaining = deadline - now()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True
