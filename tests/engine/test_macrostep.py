"""Steady-state macro-stepping: bit-identity with per-tick execution.

The macro-stepping executor (``REPRO_MACROSTEP``) must be an *invisible*
optimization: every ledger, backlog, trace event and sweep row has to be
bit-identical to a tick-by-tick run.  These tests pin that equivalence on
the edge cases where a jump interacts with the rest of the system — a
rate breakpoint inside a proposed jump, a VM failure landing exactly on a
jump boundary, an adaptation interval shorter than the jump the engine
would like to take, a mid-interval alternate switch, a foreign process
acting while a jump or window is pending, and a jump across a VM
billing-hour edge — plus the end-to-end surfaces (golden trace, sweep
rows).
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudProvider, ConstantPerformance, aws_2013_catalog
from repro.core import ObjectiveSpec, make_policy
from repro.engine import FluidExecutor, RunManager
from repro.experiments import (
    Scenario, SweepRow, fig1_dataflow, run_policy, sweep,
)
from repro.obs import collector
from repro.sim import Environment
from repro.workloads import ConstantRate, PeriodicWave, SteppedRate


def _make_executor(df, profiles, allocations, macrostep, tick=1.0):
    env = Environment()
    provider = CloudProvider(
        aws_2013_catalog(), performance=ConstantPerformance()
    )
    for alloc in allocations:
        vm = provider.provision("m1.xlarge", now=0.0)
        for pe_name, cores in alloc.items():
            vm.allocate(pe_name, cores)
    ex = FluidExecutor(
        env,
        df,
        provider,
        profiles,
        selection=df.default_selection(),
        tick=tick,
        macrostep=macrostep,
    )
    ex.sync()
    ex.start()
    return env, ex


def _state(ex):
    """Every observable ledger, bitwise (no tolerances anywhere)."""
    return (
        ex._backlog.tobytes(),
        ex._egress.tobytes(),
        dict(ex._unhosted),
        ex._acc_external.tobytes(),
        ex._acc_deliverable.tobytes(),
        ex._acc_arrivals.tobytes(),
        ex._acc_processed.tobytes(),
        ex._acc_delivered.tobytes(),
        ex.backlogs(),
    )


def _stats_tuple(stats):
    return (
        stats.start,
        stats.end,
        stats.external_in,
        stats.arrivals,
        stats.processed,
        stats.delivered,
        stats.deliverable,
        stats.lost,
    )


def _run_pair(build, drive):
    """Run ``drive`` against a macro-on and a macro-off world."""
    out = []
    for macro in (True, False):
        env, ex = build(macro)
        result = drive(env, ex)
        out.append((ex, result))
    (ex_on, res_on), (ex_off, res_off) = out
    assert ex_on.macro_enabled and not ex_off.macro_enabled
    assert ex_off.macro_ticks_skipped == 0
    return ex_on, res_on, ex_off, res_off


CHAIN_ALLOC = [{"E1": 1, "E2": 1, "E3": 1, "E4": 1}]


class TestExecutorEdgeCases:
    def test_rate_breakpoint_mid_jump(self):
        """A SteppedRate breakpoint inside a would-be jump caps it."""

        def build(macro):
            profile = SteppedRate([(0.0, 2.0), (100.5, 30.0), (141.0, 1.0)])
            return _make_executor(
                fig1_dataflow(), {"E1": profile}, CHAIN_ALLOC, macro
            )

        def drive(env, ex):
            env.run(until=200.0)
            return _stats_tuple(ex.roll_interval())

        ex_on, res_on, ex_off, res_off = _run_pair(build, drive)
        assert res_on == res_off
        assert _state(ex_on) == _state(ex_off)
        assert ex_on.macro_ticks_skipped > 0

    def test_profile_replaced_after_start(self):
        """The gate proves windows from the profile the tick reads: one
        swapped into the public ``profiles`` after start() caps jumps at
        its own breakpoint (333 s, off the 60 s network-refresh grid
        and not a run horizon)."""

        def build(macro):
            env, ex = _make_executor(
                fig1_dataflow(), {"E1": ConstantRate(2.0)}, CHAIN_ALLOC,
                macro,
            )
            ex.profiles["E1"] = SteppedRate([(0.0, 2.0), (333.0, 0.0)])
            return env, ex

        def drive(env, ex):
            env.run(until=600.0)
            return _stats_tuple(ex.roll_interval())

        ex_on, res_on, ex_off, res_off = _run_pair(build, drive)
        assert res_off[2] == {"E1": 666.0}
        assert res_on == res_off
        assert _state(ex_on) == _state(ex_off)
        assert ex_on.macro_ticks_skipped > 0

    def test_vm_failure_exactly_on_jump_boundary(self):
        """A crash scheduled on the engine's wake-up tick itself.

        With a 1 s tick and a 60 s network refresh the steady-state jump
        pattern wakes on multiples of 60; failing a VM at exactly t=120
        exercises the settle-then-mutate path at a wake point.  No settle
        here finds a jump pending: every jump wakes at or before the run
        horizon of 90 and strictly before the saboteur's timeout at 120.
        Mid-jump truncation is pinned by :class:`TestLazySettle`.
        """

        def build(macro):
            return _make_executor(
                fig1_dataflow(),
                {"E1": ConstantRate(3.0)},
                [{"E1": 1, "E2": 1}, {"E3": 1, "E4": 1}],
                macro,
            )

        def drive(env, ex):
            victim = ex.provider.active_instances()[0].instance_id
            lost = {}

            def saboteur():
                yield env.timeout(120.0)
                lost.update(ex.fail_vm(victim)[0])

            env.process(saboteur(), name="saboteur")
            env.run(until=90.0)
            mid = _state(ex)
            env.run(until=300.0)
            return (mid, lost, _stats_tuple(ex.roll_interval()))

        ex_on, res_on, ex_off, res_off = _run_pair(build, drive)
        assert res_on == res_off
        assert _state(ex_on) == _state(ex_off)
        assert ex_on.macro_ticks_skipped > 0

    def test_mid_interval_alternate_switch(self):
        """A selection switch at t=90.0, before that grid point's tick.
        Jumps wake strictly before the switcher's timeout, so none is in
        flight when it acts; :class:`TestLazySettle` pins the
        truncation."""

        def build(macro):
            return _make_executor(
                fig1_dataflow(),
                {"E1": ConstantRate(4.0)},
                [{"E1": 2, "E2": 2}, {"E3": 2, "E4": 2}],
                macro,
            )

        def drive(env, ex):
            df = ex.dataflow
            base = dict(df.default_selection())
            other = dict(base)
            alts = [a.name for a in df["E2"].alternates]
            other["E2"] = next(a for a in alts if a != base["E2"])

            def switcher():
                yield env.timeout(90.0)
                ex.set_selection(other)

            env.process(switcher(), name="switcher")
            env.run(until=240.0)
            return _stats_tuple(ex.roll_interval())

        ex_on, res_on, ex_off, res_off = _run_pair(build, drive)
        assert res_on == res_off
        assert _state(ex_on) == _state(ex_off)
        assert ex_on.macro_ticks_skipped > 0

    def test_drift_regime_saturated_queues_jump(self):
        """Under-provisioned → linearly growing backlog still jumps."""

        def build(macro):
            return _make_executor(
                fig1_dataflow(),
                {"E1": ConstantRate(50.0)},  # far beyond one VM's capacity
                CHAIN_ALLOC,
                macro,
            )

        def drive(env, ex):
            env.run(until=300.0)
            return _stats_tuple(ex.roll_interval())

        ex_on, res_on, ex_off, res_off = _run_pair(build, drive)
        assert res_on == res_off
        assert _state(ex_on) == _state(ex_off)
        assert ex_on.macro_ticks_skipped > 0

    def test_macro_off_env_matches_kwarg(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACROSTEP", "0")
        _, ex = _make_executor(
            fig1_dataflow(), {"E1": ConstantRate(1.0)}, CHAIN_ALLOC, None
        )
        assert not ex.macro_enabled

    def test_jump_ratio_bounds(self):
        def build(macro):
            return _make_executor(
                fig1_dataflow(), {"E1": ConstantRate(2.0)}, CHAIN_ALLOC, macro
            )

        def drive(env, ex):
            env.run(until=600.0)
            return ex.roll_interval()

        ex_on, _, ex_off, _ = _run_pair(build, drive)
        assert 0.0 < ex_on.macro_jump_ratio < 1.0
        assert ex_off.macro_jump_ratio == 0.0
        total = ex_on.ticks_executed + ex_on.macro_ticks_skipped
        assert total == ex_off.ticks_executed


TWO_VMS = [{"E1": 2, "E2": 2}, {"E3": 2, "E4": 2}]


def _settle_pair(profile, delay, act, until=240.0):
    """``act(env, ex)`` called from a foreign process ``delay`` seconds
    after the tick at which the macro-on executor armed its first jump or
    window, and in a macro-off twin.

    The macro-on world steps the kernel until a run is pending; the twin
    steps until it has executed as many ticks, so each starts the actor
    after its tick at the same time.  Both then run to ``until``.
    Returns ``(kind, pending, on, off)``: the armed run's kind (``"jump"``
    or ``"window"``), whether it was still pending when the actor acted,
    and per world the actor's result, the closing interval's stats and
    every ledger.
    """
    worlds = []
    for macro in (True, False):
        env, ex = _make_executor(
            fig1_dataflow(), {"E1": profile}, TWO_VMS, macro
        )
        if macro:
            while ex._macro_pending is None:
                env.step()
            ticks = ex.ticks_executed
            kind = "jump" if ex._macro_pending[0].backlog is None else "window"
        else:
            while ex.ticks_executed < ticks:
                env.step()
        seen = {}

        def actor(env=env, ex=ex, seen=seen):
            yield env.timeout(delay)
            seen["pending"] = ex._macro_pending is not None
            seen["out"] = act(env, ex)

        env.process(actor(), name="actor")
        env.run(until=until)
        worlds.append((seen, _stats_tuple(ex.roll_interval()), _state(ex)))
    (on, *on_rest), (off, *off_rest) = worlds
    return kind, on["pending"], (on["out"], *on_rest), (off["out"], *off_rest)


class TestLazySettle:
    """A foreign process acting while a jump or window is pending: the
    settle commits the ticks before it, and a mutation truncates the run
    and re-executes the rest for real."""

    @pytest.mark.parametrize("delay", [4.5, 5.0])
    def test_selection_switch_truncates_a_pending_jump(self, delay):
        """At 5.0 the switch lands on a skipped tick's time: it acts
        before that tick, which then runs for real."""

        def switch(env, ex):
            other = dict(ex.selection)
            alts = [a.name for a in ex.dataflow["E2"].alternates]
            other["E2"] = next(a for a in alts if a != other["E2"])
            ex.set_selection(other)

        kind, pending, on, off = _settle_pair(ConstantRate(4.0), delay, switch)
        assert (kind, pending) == ("jump", True)
        assert on == off

    def test_sync_after_a_provision_truncates_a_pending_window(self):
        def provision(env, ex):
            vm = ex.provider.provision("m1.xlarge", now=env.now)
            vm.allocate("E4", 1)
            ex.sync()

        kind, pending, on, off = _settle_pair(
            PeriodicWave(4.0, period=600.0), 2.5, provision
        )
        assert (kind, pending) == ("window", True)
        assert on == off

    @pytest.mark.parametrize("rate", [4.0, 50.0])
    def test_roll_and_backlogs_mid_jump(self, rate):
        """Non-mutating reads: the jump stays armed across them (at rate
        50 its backlog drifts)."""

        def read(env, ex):
            backlogs = ex.backlogs()
            return backlogs, _stats_tuple(ex.roll_interval())

        kind, pending, on, off = _settle_pair(ConstantRate(rate), 4.5, read)
        assert (kind, pending) == ("jump", True)
        assert on == off


def _managed_result(fig1, macrostep, monkeypatch, interval, period, rate):
    monkeypatch.setenv("REPRO_MACROSTEP", "1" if macrostep else "0")
    spec = ObjectiveSpec(
        omega_min=0.7,
        epsilon=0.05,
        sigma=0.01,
        period=period,
        interval=interval,
    )
    catalog = aws_2013_catalog()
    policy = make_policy("local", fig1, catalog, spec)
    provider = CloudProvider(catalog, performance=ConstantPerformance())
    return RunManager(
        dataflow=fig1,
        profiles={"E1": ConstantRate(rate)},
        policy=policy,
        provider=provider,
        spec=spec,
    ).run()


def _timeline_tuples(result):
    return [
        (m.t, m.value, m.throughput, m.cumulative_cost, m.delivered,
         m.deliverable)
        for m in result.timeline
    ]


class TestManagedRuns:
    def test_adaptation_interval_shorter_than_jump(self, fig1, monkeypatch):
        """interval=5 s caps every jump well below the 60 s it could take."""
        on = _managed_result(fig1, True, monkeypatch,
                             interval=5.0, period=100.0, rate=5.0)
        off = _managed_result(fig1, False, monkeypatch,
                              interval=5.0, period=100.0, rate=5.0)
        assert _timeline_tuples(on) == _timeline_tuples(off)
        assert on.outcome.theta == off.outcome.theta
        assert on.total_cost == off.total_cost

    def test_managed_run_bit_identical(self, fig1, monkeypatch):
        on = _managed_result(fig1, True, monkeypatch,
                             interval=60.0, period=900.0, rate=5.0)
        off = _managed_result(fig1, False, monkeypatch,
                              interval=60.0, period=900.0, rate=5.0)
        assert _timeline_tuples(on) == _timeline_tuples(off)
        assert on.outcome.theta == off.outcome.theta
        assert on.adaptations == off.adaptations
        assert on.final_selection == off.final_selection

    @pytest.mark.parametrize("policy", ["global", "local"])
    def test_jump_across_billing_hour_edge(self, policy, monkeypatch):
        """Nothing reads the executor at a VM billing-hour edge, so jumps
        are not woken there.  With 480 s intervals the edge at 3600 s
        lies off the interval grid: the rows still match a per-tick run,
        and with macro-stepping on some jump skips such an edge's tick."""
        scenario = Scenario(rate=5.0, interval=480.0, period=7680.0, seed=3)
        step = FluidExecutor.step
        out = []
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_MACROSTEP", flag)
            stepped = set()

            def logged(self, dt, stepped=stepped):
                stepped.add(self.env.now)
                step(self, dt)

            monkeypatch.setattr(FluidExecutor, "step", logged)
            manager = scenario.manager(policy)
            result = manager.run()
            edges = set()
            for r in manager.provider.all_instances():
                end = min(r.stopped_at, scenario.period)
                edge = r.started_at + 3600.0
                while edge < end:
                    edges.add(edge)
                    edge += 3600.0
            off_grid = {e for e in edges if e % scenario.interval}
            out.append((
                SweepRow.from_result(scenario, result).as_tuple(),
                _timeline_tuples(result), off_grid - stepped,
            ))
        (row_on, timeline_on, skipped), (row_off, timeline_off, _) = out
        assert row_on == row_off and timeline_on == timeline_off
        assert skipped


SCENARIO = dict(rate=5.0, rate_kind="constant", period=600.0, seed=11)


class TestEndToEndSurfaces:
    def test_golden_trace_equivalent(self, monkeypatch):
        """The full traced event stream matches between modes."""
        streams = []
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_MACROSTEP", flag)
            collector.reset()
            with collector.tracing():
                run_policy(Scenario(**SCENARIO), "local")
            streams.append(
                [(e.type, e.t, e.payload) for e in collector.events()]
            )
            collector.reset()
        assert streams[0] == streams[1]

    def test_sweep_rows_equivalent(self, monkeypatch):
        """Sweep rows (the figures' raw data) match bit for bit.

        The content-addressed result cache is scenario-keyed, not
        mode-keyed — precisely because the modes are interchangeable —
        so it is disabled here to force both real runs.
        """
        from repro.experiments import cache

        monkeypatch.setattr(cache, "_enabled", False)
        rows = []
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_MACROSTEP", flag)
            scenarios = [
                Scenario(rate=3.0, rate_kind="constant", period=300.0, seed=2),
                Scenario(rate=8.0, rate_kind="walk", period=300.0, seed=2),
            ]
            rows.append(
                [r.as_tuple() for r in sweep(scenarios, ["local", "global"])]
            )
        assert rows[0] == rows[1]
