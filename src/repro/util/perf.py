"""Lightweight performance instrumentation (S20).

Monotonic wall-clock timers and event counters used by the execution
engine, the planners, and the benchmark drivers.  Disabled by default so
the hot paths pay (at most) one boolean check per use; enable globally
with :func:`enable`, the ``REPRO_PERF=1`` environment variable, or
scoped with the :func:`collecting` context manager.

Usage::

    from repro.util import perf

    perf.enable()
    with perf.timer("engine.step"):
        ...
    perf.add("engine.ticks")
    print(perf.snapshot())

Counters and timers are process-local.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "enable",
    "disable",
    "enabled",
    "add",
    "timer",
    "collecting",
    "snapshot",
    "reset",
]

_enabled: bool = os.environ.get("REPRO_PERF", "") not in ("", "0", "false")

#: counter name → accumulated value.
_counters: dict[str, float] = {}
#: timer name → [total seconds, invocation count].
_timers: dict[str, list[float]] = {}


def enable() -> None:
    """Turn instrumentation on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off (timers/counters keep their values)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether instrumentation is currently collecting."""
    return _enabled


def add(name: str, n: float = 1.0) -> None:
    """Increment counter ``name`` by ``n`` (no-op when disabled)."""
    if _enabled:
        _counters[name] = _counters.get(name, 0.0) + n


class _NullTimer:
    """Shared no-op context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _Timer:
    __slots__ = ("_name", "_t0")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        cell = _timers.get(self._name)
        if cell is None:
            _timers[self._name] = [elapsed, 1.0]
        else:
            cell[0] += elapsed
            cell[1] += 1.0


def timer(name: str):
    """Context manager timing one block under ``name``.

    Returns a shared no-op object when instrumentation is disabled, so
    the cost on a cold path is a function call and a flag test.
    """
    if not _enabled:
        return _NULL_TIMER
    return _Timer(name)


@contextmanager
def collecting() -> Iterator[None]:
    """Enable instrumentation for the duration of a block."""
    was = _enabled
    enable()
    try:
        yield
    finally:
        if not was:
            disable()


def snapshot() -> dict:
    """Current counters and timers as plain JSON-serializable data."""
    return {
        "counters": dict(_counters),
        "timers": {
            name: {"total_s": cell[0], "count": int(cell[1])}
            for name, cell in _timers.items()
        },
    }


def reset() -> None:
    """Clear all counters and timers (enable state is unchanged)."""
    _counters.clear()
    _timers.clear()
