"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestEnvironmentBasics:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_override(self):
        assert Environment(initial_time=42.5).now == 42.5

    def test_run_empty_queue_returns_none(self):
        assert Environment().run() is None

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_run_until_time_advances_clock_exactly(self):
        env = Environment()
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        fired = []
        t = env.timeout(3.5, value="x")
        t.callbacks.append(lambda e: fired.append((env.now, e.value)))
        env.run()
        assert fired == [(3.5, "x")]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0.0)
        env.run()
        assert t.processed and env.now == 0.0

    def test_timeouts_fire_in_order(self, env):
        order = []
        for d in (5.0, 1.0, 3.0):
            env.timeout(d).callbacks.append(
                lambda e, d=d: order.append(d)
            )
        env.run()
        assert order == [1.0, 3.0, 5.0]

    def test_equal_delay_is_fifo(self, env):
        order = []
        for tag in ("a", "b", "c"):
            env.timeout(1.0).callbacks.append(
                lambda e, tag=tag: order.append(tag)
            )
        env.run()
        assert order == ["a", "b", "c"]


class TestEvent:
    def test_succeed_sets_value(self, env):
        e = env.event()
        e.succeed(7)
        assert e.triggered and e.ok and e.value == 7

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_double_succeed_raises(self, env):
        e = env.event()
        e.succeed()
        with pytest.raises(SimulationError):
            e.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_unhandled_failure_propagates_from_run(self, env):
        e = env.event()
        e.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_trigger_copies_state(self, env):
        a = env.event()
        a.succeed("payload")
        b = env.event()
        b.trigger(a)
        assert b.triggered and b.value == "payload"


class TestProcess:
    def test_process_runs_and_returns(self, env):
        def proc():
            yield env.timeout(2.0)
            return "done"

        p = env.process(proc())
        result = env.run(until=p)
        assert result == "done"
        assert env.now == 2.0

    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_sequential_timeouts_accumulate(self, env):
        times = []

        def proc():
            for _ in range(3):
                yield env.timeout(1.5)
                times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.5, 3.0, 4.5]

    def test_process_waiting_on_event(self, env):
        gate = env.event()
        got = []

        def waiter():
            value = yield gate
            got.append((env.now, value))

        def opener():
            yield env.timeout(4.0)
            gate.succeed("open")

        env.process(waiter())
        env.process(opener())
        env.run()
        assert got == [(4.0, "open")]

    def test_many_processes_wait_on_one_event(self, env):
        gate = env.event()
        got = []

        def waiter(i):
            yield gate
            got.append(i)

        for i in range(5):
            env.process(waiter(i))
        gate.succeed()
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_uncaught_exception_surfaces(self, env):
        def bad():
            yield env.timeout(1.0)
            raise ValueError("inside process")

        env.process(bad())
        with pytest.raises(ValueError, match="inside process"):
            env.run()

    def test_exception_caught_by_waiting_process(self, env):
        def bad():
            yield env.timeout(1.0)
            raise ValueError("inner")

        caught = []

        def outer():
            try:
                yield env.process(bad())
            except ValueError as exc:
                caught.append(str(exc))

        env.process(outer())
        env.run()
        assert caught == ["inner"]

    def test_yield_non_event_fails_process(self, env):
        def bad():
            yield 42  # type: ignore[misc]

        env.process(bad())
        with pytest.raises(TypeError):
            env.run()

    def test_yield_already_processed_event_resumes_immediately(self, env):
        t = env.timeout(1.0, value="v")
        got = []

        def proc():
            yield env.timeout(2.0)  # t has fired by now
            value = yield t
            got.append((env.now, value))

        env.process(proc())
        env.run()
        assert got == [(2.0, "v")]

    def test_process_is_alive_until_done(self, env):
        def proc():
            yield env.timeout(1.0)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_active_process_visible_inside(self, env):
        seen = []

        def proc():
            seen.append(env.active_process)
            yield env.timeout(0.1)

        p = env.process(proc())
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                causes.append((env.now, i.cause))

        def attacker(p):
            yield env.timeout(5.0)
            p.interrupt("stop now")

        p = env.process(victim())
        env.process(attacker(p))
        env.run()
        assert causes == [(5.0, "stop now")]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                log.append("interrupted")
            yield env.timeout(1.0)
            log.append("resumed")

        def attacker(p):
            yield env.timeout(2.0)
            p.interrupt()

        p = env.process(victim())
        env.process(attacker(p))
        env.run(until=p)
        assert log == ["interrupted", "resumed"]
        assert env.now == 3.0

    def test_interrupt_dead_process_raises(self, env):
        def quick():
            yield env.timeout(1.0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        errors = []

        def proc():
            try:
                env.active_process.interrupt()
            except SimulationError as exc:
                errors.append(str(exc))
            yield env.timeout(0.1)

        env.process(proc())
        env.run()
        assert len(errors) == 1


class TestRunUntil:
    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(3.0)
            return 99

        assert env.run(until=env.process(proc())) == 99

    def test_run_until_event_already_processed(self, env):
        t = env.timeout(1.0, value="early")
        env.run()
        assert env.run(until=t) == "early"

    def test_run_until_never_triggered_raises(self, env):
        e = env.event()  # never triggered
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=e)

    def test_run_until_time_leaves_future_events_queued(self, env):
        fired = []
        env.timeout(10.0).callbacks.append(lambda e: fired.append(env.now))
        env.run(until=5.0)
        assert fired == [] and env.now == 5.0
        env.run()
        assert fired == [10.0]


class TestEventCancellation:
    """O(1) timer revocation via lazy deletion in the event heap."""

    def test_cancel_prevents_callbacks(self, env):
        fired = []
        t = env.timeout(5.0)
        t.callbacks.append(lambda e: fired.append(env.now))
        assert t.cancel() is True
        env.run()
        assert fired == []

    def test_cancel_is_idempotent_and_reports(self, env):
        t = env.timeout(5.0)
        assert t.cancel() is True
        assert t.cancel() is False  # already cancelled

    def test_cancel_processed_event_returns_false(self, env):
        t = env.timeout(1.0)
        env.run()
        assert t.cancel() is False

    def test_cancel_untriggered_event_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().cancel()

    def test_cancelled_event_never_advances_clock(self, env):
        env.timeout(2.0)
        late = env.timeout(100.0)
        late.cancel()
        env.run()
        assert env.now == 2.0

    def test_run_skips_cancelled_between_live_events(self, env):
        fired = []
        for d in (1.0, 2.0, 3.0, 4.0, 5.0):
            t = env.timeout(d)
            t.callbacks.append(lambda e, d=d: fired.append(d))
            if d in (2.0, 4.0):
                t.cancel()
        env.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_mass_cancellation_does_not_degrade_run(self, env):
        """Revoking ~99% of 100k timers must stay near-linear.

        Lazy deletion plus the event heap's auto-compaction keep
        both the cancel itself and the subsequent ``run()`` cheap; the
        generous wall-clock bound only trips on complexity regressions
        (e.g. an O(n) cancel or a heap that never sheds dead entries).
        """
        import time

        n = 100_000
        fired = []
        start = time.monotonic()
        timers = [env.timeout(float(i % 977) + 1.0) for i in range(n)]
        for i, t in enumerate(timers):
            if i % 100:
                t.cancel()
        live = [t for i, t in enumerate(timers) if i % 100 == 0]
        for t in live:
            t.callbacks.append(lambda e: fired.append(e))
        env.run()
        elapsed = time.monotonic() - start
        assert len(fired) == len(live)
        assert elapsed < 5.0

    def test_mass_cancellation_inside_callback_during_run(self, env):
        """Compaction fired from a callback must not derail ``run()``.

        A callback that cancels enough events to trigger the event
        heap's auto-compaction exercises the case where compaction runs
        *while* the event loop is iterating the heap: the loop's alias to
        that list must stay valid, events scheduled after the compaction
        must still fire, and the cancelled-entry count must come out
        exact.
        """
        fired = []
        timers = [env.timeout(10.0 + i * 0.001) for i in range(3000)]

        def canceller(_event):
            for t in timers:
                t.cancel()
            late = env.timeout(5.0)  # pushed after compaction has run
            late.callbacks.append(lambda e: fired.append("late"))

        trigger = env.timeout(1.0)
        trigger.callbacks.append(canceller)
        survivor = env.timeout(50.0)  # in the queue before compaction
        survivor.callbacks.append(lambda e: fired.append("survivor"))
        env.run()
        assert fired == ["late", "survivor"]
        assert env.now == 50.0
        assert env._ncancelled == 0

    def test_peek_skips_cancelled_heads(self, env):
        """The macro gate reads ``peek()`` right after cancelling a wake."""
        first = env.timeout(1.0)
        env.timeout(2.0)
        first.cancel()
        assert env.peek() == 2.0
        env.step()
        assert env.now == 2.0
        assert env.peek() == float("inf")

    def test_cancelled_residents_stay_bounded(self, env):
        """Auto-compaction fires once cancelled entries are >= 1,024 and
        a majority, so cancelled residue never outgrows one threshold."""
        fired = []
        timers = [env.timeout(1e9 + i) for i in range(3000)]
        for t in timers[:2900]:
            t.cancel()
        assert len(env._heap) < 100 + 1024
        assert env._ncancelled < 1024
        for t in timers[2900:]:
            t.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [1e9 + i for i in range(2900, 3000)]


class TestPriority:
    """URGENT entries run before NORMAL ones at the same timestamp."""

    def test_process_start_runs_before_earlier_normal_event(self, env):
        order = []
        env.event_at(0.0).callbacks.append(lambda e: order.append("normal"))

        def proc():
            order.append("started")
            yield env.timeout(0.0)

        env.process(proc())  # queued second, but URGENT
        env.run()
        assert order == ["started", "normal"]

    def test_interrupt_runs_before_earlier_normal_event(self, env):
        order = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                order.append(("interrupted", env.now))

        def interrupter(target):
            yield env.timeout(5.0)
            env.event_at(5.0).callbacks.append(
                lambda e: order.append(("normal", env.now))
            )
            target.interrupt()  # queued second, but URGENT

        p = env.process(sleeper())
        env.process(interrupter(p))
        env.run()
        assert order == [("interrupted", 5.0), ("normal", 5.0)]
