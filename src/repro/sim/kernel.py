"""Discrete-event simulation kernel.

This module implements a small, dependency-free discrete-event simulation
(DES) core in the style of SimPy: an :class:`Environment` owns a virtual
clock and one binary heap of pending ``(when, prio, eid, event)``
entries; generator functions are wrapped into :class:`Process` objects
that advance by yielding events.

The kernel is the foundation (substrate S1 in DESIGN.md) for the IaaS cloud
simulator and the dataflow execution engine.  It supports:

* absolute-time event scheduling with stable FIFO ordering for ties,
* generator-based cooperative processes (``yield env.timeout(...)``),
* process interruption (:meth:`Process.interrupt`),
* O(1) lazy cancellation of scheduled events (:meth:`Event.cancel`),
* bounded runs (``env.run(until=...)``) and step-wise execution.

Entries pop in ``(when, prio, eid)`` order: time, then :data:`URGENT`
before :data:`NORMAL`, then creation order, since the event id counts
every push.  A cancelled entry is marked by its event's ``callbacks``
being ``None`` (the same marker as "already processed"; a triggered
event is queued at most once, so the states cannot collide) and is
discarded when it surfaces.  The environment counts cancelled residents
and filters them out once they are both numerous and the majority, so
mass cancellation cannot degrade :meth:`Environment.run` beyond a linear
sweep.

Every simulated event passes through the event loop, so the inner
functions here trade a little repetition for fewer attribute loads, no
bound-method churn and inlined scheduling of timeouts.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Optional

from ..obs import collector as _trace

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "StopSimulation",
    "SimulationError",
    "PENDING",
    "URGENT",
    "NORMAL",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    The interrupting cause is available as :attr:`cause`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """The object passed to :meth:`Process.interrupt`."""
        return self.args[0]


class _PendingType:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


#: Sentinel object marking events whose value is not yet decided.
PENDING = _PendingType()

#: Scheduling priority for events that must fire before normal ones at the
#: same timestamp (used for interrupts).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1

#: Cancelled residents are filtered out of the heap once there are at
#: least this many and they are a majority of its entries.
_COMPACT_FLOOR = 1024


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *untriggered*, becomes *triggered* once scheduled with a
    value (it then sits in the event queue), and finally is *processed* when
    the environment pops it and invokes its callbacks.

    Callbacks are callables of one argument (the event itself), appended to
    :attr:`callbacks`.  After processing, :attr:`callbacks` is set to
    ``None`` and further appends are an error.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.callbacks is None
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at t={self.env.now:g}>"

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (or the event was cancelled)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._push(env._now, NORMAL, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        A failed event re-raises its exception inside every process waiting
        on it.  If nothing waits on it, the exception surfaces from
        :meth:`Environment.step` unless :meth:`defused` is set.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        env._push(env._now, NORMAL, self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._push(env._now, NORMAL, self)

    def cancel(self) -> bool:
        """Revoke a scheduled (triggered, not yet processed) event: O(1).

        The queue entry is abandoned in place and discarded lazily when it
        surfaces (lazy deletion); the event's callbacks never run and the
        clock never advances *because of* it.  Returns ``False`` if the
        event was already processed (or already cancelled).

        The caller is responsible for detaching anything parked on the
        event first (e.g. via :meth:`Process.interrupt`): callbacks of a
        cancelled event are dropped, so a process still waiting on it
        would never resume.
        """
        if self._value is PENDING:
            raise SimulationError(f"cannot cancel untriggered {self!r}")
        if self.callbacks is None:
            return False
        self.callbacks = None
        env = self.env
        n = env._ncancelled + 1
        env._ncancelled = n
        if n >= _COMPACT_FLOOR and 2 * n >= len(env._heap):
            env._compact()
        return True


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + scheduling: Timeout creation is the
        # single most frequent allocation in the simulator.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        eid = env._eid
        env._eid = eid + 1
        heappush(env._heap, (env._now + delay, NORMAL, eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay:g}>"


class Initialize(Event):
    """Internal event that starts a :class:`Process` at creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume_cb]
        self._ok = True
        self._value = None
        self._defused = False
        env._push(env._now, URGENT, self)


class Process(Event):
    """A running process wrapping a generator of events.

    The process itself is an event that triggers when the generator
    terminates: successfully with its return value, or failed with its
    uncaught exception.
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on, if any.
        self._target: Optional[Event] = None
        #: The bound resume callback, created once: appending a fresh
        #: bound method per yield is measurable churn on the hot path,
        #: and interrupt() must remove the *same* object it appended.
        self._resume_cb = self._resume
        Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at t={self.env.now:g}>"

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is waiting for (``None`` if running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The interrupt is delivered asynchronously via an urgent event so the
        interrupter continues first; interrupting a dead process is an
        error.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")

        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks = [self._resume_interrupt]
        self.env._push(self.env._now, URGENT, event)

    # -- internal ----------------------------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # terminated between interrupt() and delivery: drop it.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        gen = self._generator
        while True:
            try:
                if event._ok:
                    next_event = gen.send(event._value)
                else:
                    event._defused = True
                    next_event = gen.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self._target = None
                env._push(env._now, NORMAL, self)
                break
            except BaseException as error:
                self._ok = False
                self._value = error
                self._defused = False
                self._target = None
                env._push(env._now, NORMAL, self)
                break

            # Exact-class test first: the overwhelming majority of yields
            # are Timeouts, sparing them the full isinstance scan.
            if next_event.__class__ is not Timeout and not isinstance(
                next_event, Event
            ):
                proto = Event(env)
                proto._ok = False
                proto._value = TypeError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                event = proto
                continue
            if next_event.env is not env:
                raise SimulationError(
                    f"process {self.name!r} yielded event from another environment"
                )

            cbs = next_event.callbacks
            if cbs is not None:
                # Event not yet processed: park until it fires.
                cbs.append(self._resume_cb)
                self._target = next_event
                break
            # Already-processed event: resume immediately with its value.
            event = next_event

        env._active_process = None


class Environment:
    """The simulation environment: virtual clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: The event queue: a binary heap of ``(when, prio, eid, event)``.
        self._heap: list[tuple[float, int, int, Event]] = []
        #: Next event id, the tie-break of the total order.
        self._eid = 0
        #: Lazily cancelled entries still resident in ``_heap``.
        self._ncancelled = 0
        self._active_process: Optional[Process] = None
        #: Horizon of the innermost active :meth:`run` call (``inf``
        #: outside one or for ``run()``/``run(until=event)``).  Processes
        #: that skip ahead in time (the macro-stepping executor) treat it
        #: as a wake-up bound so the world is fully settled whenever
        #: ``run(until=t)`` returns, exactly as in per-event execution.
        self.run_horizon = float("inf")
        # Sim-time stamping for the observability layer: events emitted
        # without an explicit timestamp are stamped with this clock.
        _trace.bind_clock(lambda: self._now)

    # -- public API --------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def event_at(self, when: float, value: Any = None) -> Event:
        """Create an event that fires at *exactly* the float time ``when``.

        There is no delay round-trip: the queue entry carries ``when``
        verbatim.  The macro-stepping executor relies on this to land
        wake-ups on the precise tick-grid floats that repeated
        ``now + tick`` addition would have produced.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        ev = Event(self)
        ev._ok = True
        ev._value = value
        self._push(when, NORMAL, ev)
        return ev

    def peek(self) -> float:
        """Time of the next scheduled live event, or ``inf`` if none.

        Skims cancelled heads off the heap as a side effect (safe: they
        are invisible to every other operation).
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3].callbacks is None:
                heappop(heap)
                self._ncancelled -= 1
                continue
            return head[0]
        return float("inf")

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        heap = self._heap
        while True:
            if not heap:
                raise SimulationError("no more events")
            entry = heappop(heap)
            event = entry[3]
            callbacks = event.callbacks
            if callbacks is not None:
                break
            self._ncancelled -= 1  # a cancelled entry surfacing

        self._now = entry[0]
        event.callbacks = None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run()/step().
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` runs to queue exhaustion.  A number runs until the
            clock reaches that time (the clock is then set to exactly
            ``until``).  An :class:`Event` runs until that event is
            processed and returns its value.
        """
        stop_event: Optional[Event] = None
        horizon = float("inf")
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event.value
                stop_event.callbacks.append(self._stop_callback)
            else:
                horizon = float(until)
                if horizon < self._now:
                    raise ValueError(
                        f"until={horizon} lies before current time {self._now}"
                    )

        # The event loop proper.  This duplicates step() deliberately:
        # every simulated event passes through this loop, and one call
        # frame per event would be a fixed share of each event's cost.
        heap = self._heap  # stable alias: _compact() filters in place
        prev_horizon = self.run_horizon
        self.run_horizon = horizon
        try:
            while heap:
                if heap[0][0] > horizon:
                    break
                entry = heappop(heap)
                event = entry[3]
                callbacks = event.callbacks
                if callbacks is None:
                    # Lazily-cancelled entry surfacing: discard for free.
                    self._ncancelled -= 1
                    continue
                self._now = entry[0]
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok:
                    if not event._defused:
                        raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            self.run_horizon = prev_horizon

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) ended before the event was triggered"
                )
            return stop_event.value

        if horizon != float("inf"):
            self._now = horizon
        return None

    # -- internal ----------------------------------------------------------

    def _stop_callback(self, event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        # Re-raise the failure in the caller of run().
        event._defused = True
        raise event._value

    def _push(self, when: float, prio: int, event: Event) -> None:
        """Queue ``event`` at ``(when, prio)`` under the next event id."""
        eid = self._eid
        self._eid = eid + 1
        heappush(self._heap, (when, prio, eid, event))

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap (linear).

        The heap is filtered *in place*: :meth:`run` keeps an alias to
        the list across callbacks, and a callback that mass-cancels
        events lands here mid-run; rebinding ``_heap`` would strand the
        run loop on the old list and drop every later push.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[3].callbacks is not None]
        heapify(heap)
        self._ncancelled = 0
