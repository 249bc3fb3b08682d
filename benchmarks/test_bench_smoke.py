"""Tier-2 guards on the cost of live code paths.

Marked ``bench_smoke`` (registered in pyproject.toml) so CI can run just

    pytest -m bench_smoke benchmarks/suite/ benchmarks/test_bench_smoke.py

Each guard times one path in the configuration it names: disabled
instrumentation must cost a flag test, the macro gate must cost next to
nothing where it cannot open, and macro-stepping must pay off where it
can.  The benchmarks' conftest turns ``util.perf`` on for the session, so
every guard runs with perf counters, tracing and validation scoped off
(:func:`instrumentation_off`), and the flags are restored afterwards.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.cloud import CloudProvider, ConstantPerformance, aws_2013_catalog
from repro.engine import FluidExecutor
from repro.experiments import Scenario, fig1_dataflow
from repro.experiments import cache as result_cache
from repro.experiments import runner
from repro.experiments.runner import SweepRow
from repro.obs import collector as obs_collector
from repro.sim import Environment
from repro.util import perf
from repro.validate import invariants
from repro.workloads import ConstantRate, PeriodicWave

pytestmark = pytest.mark.bench_smoke


@pytest.fixture(autouse=True)
def instrumentation_off(monkeypatch):
    """Perf counters, tracing and validation off for one guard."""
    monkeypatch.setattr(perf, "_enabled", False)
    monkeypatch.setattr(obs_collector, "_enabled", False)
    monkeypatch.setattr(obs_collector, "_emitting", False)
    monkeypatch.setattr(invariants, "_enabled", False)


def _fluid_rig(profile, n_vms: int, macro: bool, performance=None):
    """fig1 on ``n_vms`` m1.xlarge VMs of 4 cores, started at t = 0."""
    env = Environment()
    provider = CloudProvider(
        aws_2013_catalog(), performance=performance or ConstantPerformance()
    )
    df = fig1_dataflow()
    pes = list(df.pe_names)
    for i in range(n_vms):
        vm = provider.provision("m1.xlarge", now=0.0)
        vm.allocate(pes[i % len(pes)], 4)
    ex = FluidExecutor(
        env, df, provider, {"E1": profile},
        selection=df.default_selection(), macrostep=macro,
    )
    ex.sync()
    ex.start()
    return env, ex


#: Chunks per mode in the gate guards, and ticks per chunk: one macro-gate
#: backoff (64 ticks), so every macro-on chunk holds one gate attempt.
GATE_CHUNKS = 300
GATE_CHUNK_TICKS = 64


def _gate_overhead_s(performance=None):
    """Per-tick cost of the macro gate: (on − off, off, on, executors).

    Two executors of the same 8-VM fig1 scenario on a periodic wave
    advance in alternating chunks, one with macro-stepping on and one
    with it off, so each pair of chunks covers the same simulated
    stretch back to back.  Each executor switches mode every other
    chunk, and which mode goes first alternates.  A chunk ends at its
    run horizon, where no jump or window is pending, so the switch is
    safe; both executors end with bit-identical ledgers.

    The overhead is the median of the per-pair differences, and ``off``
    and ``on`` are each mode's median chunk.  Interference on a shared
    host comes in spells that slow both chunks of a pair alike, and each
    executor runs both modes, so neither a spell nor one executor's
    memory layout favours a mode: each mode's fastest chunk, or two
    fixed-mode executors, read up to several µs apart on identical code.
    """
    rigs = [
        _fluid_rig(PeriodicWave(5.0), 8, False, performance)
        for _ in range(2)
    ]
    times = ([], [])
    for c in range(GATE_CHUNKS):
        for j in ((0, 1) if c % 2 == 0 else (1, 0)):
            env, ex = rigs[j]
            on = (c // 2 + j) % 2
            ex.macro_enabled = bool(on)
            t0 = time.perf_counter()
            env.run(until=env.now + GATE_CHUNK_TICKS)
            times[on].append((time.perf_counter() - t0) / GATE_CHUNK_TICKS)
    executors = [ex for _env, ex in rigs]
    assert executors[0].roll_interval() == executors[1].roll_interval()
    delta = statistics.median(on - off for off, on in zip(*times))
    off, on = (statistics.median(ts) for ts in times)
    return delta, off, on, executors


def test_disabled_cache_overhead_negligible(monkeypatch):
    """A disabled cache must cost a flag test on the sweep driver's
    per-cell path, not key hashing or file probing."""
    sentinel = object()
    monkeypatch.setattr(runner, "_simulate", lambda cells: [sentinel])
    monkeypatch.setattr(
        SweepRow,
        "from_result",
        classmethod(lambda cls, scenario, res: sentinel),
    )
    monkeypatch.setattr(result_cache, "_enabled", False)
    scenario = Scenario(rate=5.0)
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        result_cache.run_cell(scenario, "local")
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 5e-6, f"disabled run_cell costs {per_call * 1e9:.0f} ns"


def test_disabled_validate_overhead_negligible():
    """A disabled invariant checker must cost one module-global flag test
    per instrumented site — the exact guard the engine hot loop runs
    every tick."""
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        if invariants.enabled():  # the call-site guard, always False here
            invariants.checker()
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 2e-6, f"disabled guard costs {per_call * 1e9:.0f} ns"


def test_disabled_tracing_overhead_negligible():
    """Disabled tracing must cost a flag test, not work.

    Two properties: a disabled ``emit`` records nothing, and its per-call
    cost stays far below a microsecond — negligible next to the ~100 µs a
    single fluid-engine tick costs.
    """
    obs_collector.reset()
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        obs_collector.emit("interval_stats", t=0.0, omega=1.0)
    per_call = (time.perf_counter() - t0) / n
    assert obs_collector.events() == ()
    assert per_call < 2e-6, f"disabled emit costs {per_call * 1e9:.0f} ns"


def test_macro_steady_state_speedup():
    """The macro-stepping engine covers a steady-state large-fleet grid
    ≥ 3× faster than per-tick stepping.

    80 VMs at 5 msg/s are heavily over-provisioned, so the fluid state
    reaches its fixed point quickly and stays there.  Each mode's time is
    the fastest of three interleaved 600 s runs.
    """
    horizon = 600.0
    best = {False: float("inf"), True: float("inf")}
    for _ in range(3):
        for macro in (False, True):
            env, ex = _fluid_rig(ConstantRate(5.0), 80, macro)
            t0 = time.perf_counter()
            env.run(until=horizon)
            best[macro] = min(best[macro], time.perf_counter() - t0)
            stats = ex.roll_interval()
            assert stats.external_in["E1"] > 0, "engine processed no traffic"
            if macro:
                ratio = ex.macro_jump_ratio
                assert ratio > 0.5, f"steady-state rig barely jumped: {ratio:.3f}"
    on, off = horizon / best[True], horizon / best[False]
    assert on >= 3.0 * off, (
        f"macro-stepping speedup below 3x: {on:.0f}/s vs {off:.0f}/s "
        f"({on / off:.2f}x)"
    )


def test_macro_gate_overhead_negligible():
    """When jumps are impossible (or the feature is off) the macro
    machinery must cost < 2 µs per tick.

    A periodic-wave profile varies continuously, so the change cap
    disables every jump and the gate's cheap pre-checks run on every
    tick.  Windows do open there, so the per-tick delta against a
    macro-off run of the identical scenario also counts what they save.
    """
    delta, off, on, _ = _gate_overhead_s()
    assert delta < 2e-6, (
        f"macro gate overhead {max(0.0, delta) * 1e6:.2f} µs/tick "
        f"(off {off * 1e6:.1f} µs, on {on * 1e6:.1f} µs)"
    )


def test_macro_gate_overhead_negligible_when_nothing_can_open():
    """The macro gate and the window gate together cost < 2 µs per tick
    where neither a jump nor a window can ever open.

    On a periodic wave the window gate opens windows, so the case above
    no longer isolates overhead.  Here the performance model has no
    ``cpu_series_view``: phase 1 has scalar lanes, which no jump and no
    window spans, so every tick is stepped in both modes and the delta
    between them is the gates' own cost.
    """

    class OpaquePerformance(ConstantPerformance):
        """Constant performance the engine can only ask VM by VM."""

        cpu_series_view = None

    delta, off, on, executors = _gate_overhead_s(OpaquePerformance())
    for ex in executors:
        assert ex.macro_ticks_skipped == 0 and ex.windows == 0
    assert delta < 2e-6, (
        f"macro gate overhead {max(0.0, delta) * 1e6:.2f} µs/tick "
        f"(off {off * 1e6:.1f} µs, on {on * 1e6:.1f} µs)"
    )
