"""Steady-state macro-stepping: bit-identity with per-tick execution.

The macro-stepping executor (``REPRO_MACROSTEP``) must be an *invisible*
optimization: every ledger, backlog, trace event and sweep row has to be
bit-identical to a tick-by-tick run.  These tests pin that equivalence on
the edge cases where a jump interacts with the rest of the system — a
rate breakpoint inside a proposed jump, a VM failure landing exactly on a
jump boundary, an adaptation interval shorter than the jump the engine
would like to take, and a mid-interval alternate switch — plus the
end-to-end surfaces (golden trace, sweep rows).
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudProvider, ConstantPerformance, aws_2013_catalog
from repro.core import ObjectiveSpec, make_policy
from repro.engine import FluidExecutor, RunManager
from repro.experiments import Scenario, fig1_dataflow, run_policy, sweep
from repro.obs import collector
from repro.sim import Environment
from repro.workloads import ConstantRate, SteppedRate


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
        exercises the settle-then-mutate path at a wake point (and, for
        the run up to 90, mid-jump truncation via the interrupt path).
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
        """A selection switch at t=90.0 truncates the jump in flight."""

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
