"""In-memory trace collector with the ``repro.util.perf`` enable contract.

Disabled by default: every instrumented call site guards with
:func:`enabled` (one module-global boolean read), so the run-time cost of
shipping the instrumentation is a flag test — the same contract
:mod:`repro.util.perf` established for counters.  Enable globally with
:func:`enable`, the ``REPRO_TRACE=1`` environment variable, or scoped
with the :func:`tracing` context manager.

Events are stamped with *simulation* time.  Call sites that know the
current sim time pass it explicitly (``emit(..., t=now)``); sites that
don't can rely on the clock the simulation kernel binds at
:class:`~repro.sim.kernel.Environment` construction (see
:func:`bind_clock`).  The collector is process-local, like the perf
counters.

Live sinks (:func:`add_sink`) receive events as they are emitted.  An
attached sink makes call sites emit even while tracing is off, but only
enabled tracing buffers events in memory, so a long-lived stream does
not grow the process.

Usage::

    from repro import obs

    obs.enable()
    ...  # run something
    obs.flush_jsonl("run-trace.jsonl")
    print(obs.render_summary(obs.events()))
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, TextIO, Union

from .events import TraceEvent

__all__ = [
    "enable",
    "disable",
    "enabled",
    "emit",
    "events",
    "reset",
    "tracing",
    "bind_clock",
    "clock_now",
    "set_tenant",
    "current_tenant",
    "tenant",
    "flush_jsonl",
    "dump_jsonl",
    "add_sink",
    "remove_sink",
]

_enabled: bool = os.environ.get("REPRO_TRACE", "") not in ("", "0", "false")

_events: list[TraceEvent] = []
_seq: int = 0

#: Callable returning the current simulation time; bound by the kernel.
_clock: Optional[Callable[[], float]] = None

#: Ambient tenant id stamped on events whose call site does not pass one.
#: Multi-tenant fleets (S27) set this around each tenant's turn; the
#: single-tenant default is ``0`` so existing traces are unchanged.
_tenant: int = 0

#: Live subscribers (S29 serve daemon streaming): each registered
#: callable receives every event as it is emitted.  Sink errors are
#: swallowed — a slow or dead streaming client must never take the
#: simulation down.
_sinks: list[Callable[[TraceEvent], None]] = []

#: The flag call sites test: tracing is on or some sink is attached.
_emitting: bool = _enabled


def _refresh() -> None:
    global _emitting
    _emitting = _enabled or bool(_sinks)


def enable() -> None:
    """Turn event tracing on for this process."""
    global _enabled
    _enabled = True
    _refresh()


def disable() -> None:
    """Turn event tracing off (recorded events are kept)."""
    global _enabled
    _enabled = False
    _refresh()


def enabled() -> bool:
    """Whether events are emitted: tracing is on or a sink is attached."""
    return _emitting


def bind_clock(clock: Optional[Callable[[], float]]) -> None:
    """Bind the simulation clock used to stamp events without explicit ``t``.

    The simulation kernel calls this when an
    :class:`~repro.sim.kernel.Environment` is created, so user-emitted
    events inside a run are stamped with sim time automatically.  Passing
    ``None`` unbinds (events then default to t=0.0).
    """
    global _clock
    _clock = clock


def clock_now() -> float:
    """Current bound simulation time (0.0 when no clock is bound)."""
    return _clock() if _clock is not None else 0.0


def set_tenant(tenant_id: int) -> None:
    """Set the ambient tenant id stamped on subsequently emitted events."""
    global _tenant
    _tenant = int(tenant_id)


def current_tenant() -> int:
    """The ambient tenant id (0 outside multi-tenant fleets)."""
    return _tenant


@contextmanager
def tenant(tenant_id: int) -> Iterator[None]:
    """Attribute events emitted inside the block to ``tenant_id``.

    Multi-tenant fleets wrap each tenant's slice of simulation work in
    this so call sites that never learned about tenancy (the adaptation
    heuristic, the invariant checker) still stamp the right owner.
    """
    was = _tenant
    set_tenant(tenant_id)
    try:
        yield
    finally:
        set_tenant(was)


def emit(
    event_type: str,
    t: Optional[float] = None,
    tenant_id: Optional[int] = None,
    **payload: Any,
) -> None:
    """Record one event and hand it to the sinks (no-op while disabled).

    The event is buffered only while tracing is enabled.

    Parameters
    ----------
    event_type:
        One of :data:`~repro.obs.events.EVENT_TYPES` (unknown types raise).
    t:
        Simulation time of the event; defaults to the bound kernel clock.
    tenant_id:
        Owning dataflow; defaults to the ambient tenant (see
        :func:`tenant`), which is ``0`` for single-tenant runs.
    payload:
        Flat JSON-serializable details.
    """
    if not _emitting:
        return
    global _seq
    event = TraceEvent(
        seq=_seq,
        t=clock_now() if t is None else float(t),
        type=event_type,
        payload=payload,
        tenant_id=_tenant if tenant_id is None else int(tenant_id),
    )
    if _enabled:
        _events.append(event)
    _seq += 1
    for sink in tuple(_sinks):
        try:
            sink(event)
        except Exception:
            pass


def add_sink(sink: Callable[[TraceEvent], None]) -> None:
    """Subscribe ``sink`` to every event emitted from now on.

    Used by the serve daemon to stream the trace to connected clients
    while a run is in flight.  The sink is called synchronously on the
    emitting thread, so it should only enqueue, never block."""
    if sink not in _sinks:
        _sinks.append(sink)
    _refresh()


def remove_sink(sink: Callable[[TraceEvent], None]) -> None:
    """Unsubscribe a sink registered with :func:`add_sink` (idempotent)."""
    try:
        _sinks.remove(sink)
    except ValueError:
        pass
    _refresh()


def events() -> tuple[TraceEvent, ...]:
    """Everything recorded so far, in emission order."""
    return tuple(_events)


def reset() -> None:
    """Drop all recorded events and restart the sequence numbering.

    The enable state and the bound clock are unchanged; the ambient
    tenant returns to the single-tenant default ``0``.
    """
    global _seq, _tenant
    _events.clear()
    _seq = 0
    _tenant = 0


@contextmanager
def tracing() -> Iterator[None]:
    """Enable tracing for the duration of a block (perf.collecting twin)."""
    was = _enabled
    enable()
    try:
        yield
    finally:
        if not was:
            disable()


def dump_jsonl(stream: TextIO) -> int:
    """Write every recorded event to ``stream`` as JSONL; returns the count."""
    n = 0
    for event in _events:
        stream.write(event.to_json())
        stream.write("\n")
        n += 1
    return n


def flush_jsonl(path: Union[str, os.PathLike]) -> int:
    """Write the recorded events to ``path`` as JSONL; returns the count.

    The write is atomic (temp file + ``os.replace``) so a crash mid-flush
    cannot leave a truncated trace behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        n = dump_jsonl(fh)
    os.replace(tmp, path)
    return n
