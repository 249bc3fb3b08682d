"""Bounded worker pool with explicit backpressure.

Cold cells are CPU-bound simulations taking seconds; an unbounded
thread-per-request server would accept work it can never finish and die
by pile-up.  The pool instead has

* a **fixed worker count** (``REPRO_SERVE_WORKERS``),
* a **bounded submission queue** (``REPRO_SERVE_QUEUE``): when both the
  queue and the workers are saturated, :meth:`WorkerPool.submit` raises
  :class:`QueueFull` immediately and the server turns it into a 429
  with a ``Retry-After`` hint — load shedding is part of the contract,
  not an accident.

Jobs are plain callables; the pool never looks inside them.  A finished
job carries either a result or the raised exception — workers themselves
never die to a job error.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Any, Callable, Optional

from ..util import perf

__all__ = ["Job", "QueueFull", "WorkerPool"]

_DEFAULT_WORKERS = max(1, min(4, (os.cpu_count() or 2) - 1))
_DEFAULT_QUEUE_DEPTH = 32


class QueueFull(RuntimeError):
    """The pool cannot accept more work right now (backpressure).

    ``retry_after_s`` is the hint the server forwards as ``Retry-After``.
    """

    def __init__(self, pending: int, retry_after_s: int = 1) -> None:
        super().__init__(f"worker queue full ({pending} pending)")
        self.pending = pending
        self.retry_after_s = retry_after_s


class Job:
    """One scheduled callable: wait on :meth:`result`."""

    def __init__(self, fn: Callable[[], Any]) -> None:
        self._fn = fn
        self._done = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        try:
            self._result = self._fn()
        except BaseException as exc:  # noqa: BLE001 — relayed to the waiter
            self._error = exc
        finally:
            self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the job finishes; re-raise its exception if any."""
        if not self._done.wait(timeout):
            raise TimeoutError("job did not finish in time")
        if self._error is not None:
            raise self._error
        return self._result


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    try:
        return max(1, int(raw)) if raw else default
    except ValueError:
        return default


class WorkerPool:
    """Fixed-size thread pool over a bounded queue."""

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
    ) -> None:
        self.workers = (
            workers
            if workers is not None
            else _env_int("REPRO_SERVE_WORKERS", _DEFAULT_WORKERS)
        )
        self.queue_depth = (
            queue_depth
            if queue_depth is not None
            else _env_int("REPRO_SERVE_QUEUE", _DEFAULT_QUEUE_DEPTH)
        )
        self._q: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=self.queue_depth
        )
        self._lock = threading.Lock()
        self._executed = 0
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._work, name=f"repro-serve-worker-{i}", daemon=True
            )
            for i in range(1, self.workers + 1)
        ]
        for t in self._threads:
            t.start()

    # -- lifecycle ------------------------------------------------------------

    def _work(self) -> None:
        while True:
            job = self._q.get()
            if job is None:  # shutdown pill
                self._q.task_done()
                break
            job._run()
            self._q.task_done()
            with self._lock:
                self._executed += 1
        with self._lock:
            self._threads = [
                t for t in self._threads if t is not threading.current_thread()
            ]

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain the pills, join the workers."""
        with self._lock:
            self._closed = True
            alive = list(self._threads)
        for _ in alive:
            try:
                self._q.put_nowait(None)
            except queue.Full:
                break
        for t in alive:
            t.join(timeout)

    # -- submission -----------------------------------------------------------

    def submit(self, fn: Callable[[], Any]) -> Job:
        """Queue ``fn``; raises :class:`QueueFull` instead of blocking."""
        if self._closed:
            raise QueueFull(self.pending(), retry_after_s=5)
        job = Job(fn)
        try:
            self._q.put_nowait(job)
        except queue.Full:
            perf.add("serve.rejected")
            raise QueueFull(self.pending()) from None
        return job

    def pending(self) -> int:
        """Jobs queued and not yet picked up (approximate, lock-free)."""
        return self._q.qsize()

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "alive": len(self._threads),
                "queue_depth": self.queue_depth,
                "pending": self.pending(),
                "executed": self._executed,
            }
