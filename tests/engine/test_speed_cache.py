"""Tick phase 1 is reused only while its inputs hold.

Both engines compute phase 1 (CPU coefficients, ready mask, effective
speeds, service capacities, routing shares and the share-only terms
derived from them) in one routine and reuse its outputs until a trace
step, a VM ready time, a fleet rebuild or an alternate switch.  The
serial-vs-batch oracles compare the two engines with each other, so a
stale output in the shared routine would pass them; here every tick's
phase-1 arrays must equal, bit for bit, a recompute written out from the
fleet, the selection and the performance model — on rigs that hit each
of those events on its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import CloudProvider, aws_2013_catalog
from repro.cloud.traces import TraceLibrary, TraceReplayPerformance
from repro.engine import FluidExecutor
from repro.engine.batch import BatchRunner
from repro.experiments import Scenario, fig1_dataflow
from repro.sim import Environment
from repro.util import perf
from repro.workloads import ConstantRate

_EPS = 1e-12
SERIAL = ("cap_msgs", "shares", "share_sums", "dst_shares", "dst_live",
          "dst_rest")
BATCH = SERIAL + ("hosted", "in_shares")
#: Intervals of 50 s against 60 s trace steps, VMs ready 45.3 s after
#: provisioning, half-second ticks; both policies switch an alternate
#: and rebuild the fleet mid-run.
RIG = dict(rate=1.0, variability="infra", interval=50.0, tick=0.5,
           startup_delay=45.3, seed=3)


def _seq(row):
    """Left-to-right sum: the order of every VM-axis reduction."""
    total = row[0]
    for x in row[1:]:
        total = total + x
    return total


def _reference(ex, t, dt):
    """Phase 1 of a tick at ``t``, from the provider's fleet and model
    and the dataflow's active alternates."""
    provider, df = ex.provider, ex.dataflow
    pes, vms = ex._pe_names, ex._vms
    speed = np.array([
        vm.vm_class.core_speed * provider.cpu_coefficient(vm, t)
        * (provider.ready_at(vm) <= t)
        for vm in vms
    ])
    alloc = np.array([[float(vm.cores_for(pe)) for vm in vms] for pe in pes])
    cost = np.array([[df.active_alternate(ex.selection, pe).cost]
                     for pe in pes])
    units = alloc * speed
    shares = np.zeros_like(units)
    for i in range(len(pes)):
        if _seq(units[i]) > _EPS:
            shares[i] = units[i] / _seq(units[i])
        elif _seq(alloc[i]) > 0:
            shares[i] = alloc[i] / _seq(alloc[i])
    share_sums = np.array([_seq(row) for row in shares])
    dst = shares[[pes.index(e.sink) for e in df.edges]]
    inputs = [pes.index(n) for n in df.inputs]
    return {
        "cap_msgs": units / cost * dt,
        "shares": shares,
        "share_sums": share_sums,
        "dst_shares": dst,
        "dst_live": np.array([_seq(row) > _EPS for row in dst]),
        "dst_rest": 1.0 - dst,
        "hosted": share_sums[inputs] > _EPS,
        "in_shares": shares[inputs],
    }


def _assert_same(got, want, where):
    assert got.dtype == want.dtype, where
    assert got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), where


def _check_serial_ticks(monkeypatch):
    """Check every executed serial tick with a fleet; returns the list
    of their times."""
    ticks = []
    step = FluidExecutor.step

    def checked(self, dt):
        step(self, dt)
        t = self.env.now
        if not self._vms:
            return
        want = _reference(self, t, dt)
        for name in SERIAL:
            _assert_same(getattr(self._speed, name), want[name], (name, t))
        ticks.append(t)

    monkeypatch.setattr(FluidExecutor, "step", checked)
    return ticks


@pytest.fixture
def counters():
    """The perf counters collected since the test started."""
    perf.reset()
    with perf.collecting():
        yield lambda: perf.snapshot()["counters"]
    perf.reset()


def test_serial_ticks_match_a_recompute(monkeypatch, counters):
    """Each invalidation on its own: VMs turning ready inside an
    interval, 60 s trace steps, an alternate switch without a resync
    and a resync that changes the fleet.  The tick recomputes exactly
    when one of them happened since the last tick."""
    library = TraceLibrary(seed=3)
    provider = CloudProvider(
        aws_2013_catalog(),
        performance=TraceReplayPerformance(library),
        startup_delay=7.3,
    )
    for alloc in ({"E1": 1, "E2": 2, "E3": 1}, {"E3": 2, "E4": 2}):
        vm = provider.provision("m1.xlarge", now=0.0)
        for pe, cores in alloc.items():
            vm.allocate(pe, cores)
    df = fig1_dataflow()
    env = Environment()
    ex = FluidExecutor(env, df, provider, {"E1": ConstantRate(3.0)},
                       selection=df.default_selection(), tick=0.5)
    ticks = _check_serial_ticks(monkeypatch)
    marks = []  # (time, "switch" | "sync") of each invalidating call
    ex.sync()
    ex.start()
    env.run(until=100.0)
    ex.set_selection({**ex.selection, "E2": "e2.2"})
    marks.append((env.now, "switch"))
    env.run(until=150.0)
    vm = provider.provision("m1.large", now=env.now)  # ready at 157.3
    vm.allocate("E4", 1)
    ex.sync()
    marks.append((env.now, "sync"))
    env.run(until=300.0)

    # Which phase-1 inputs changed since the previous executed tick.
    res = library.cpu_config.resolution_s
    reasons = []
    prev = None
    for t in ticks:
        sig = {
            "switch": sum(1 for m, k in marks if k == "switch" and m < t),
            "sync": sum(1 for m, k in marks if k == "sync" and m < t),
            "trace": int(t / res),
            "ready": int((ex._ready_time <= t).sum()),
        }
        if prev is None or sig != prev:
            reasons.append(
                tuple(k for k in sig if prev is None or sig[k] != prev[k])
            )
        prev = sig
    assert {("switch",), ("sync",), ("trace",), ("ready",)} <= set(reasons)
    recomputes = counters()["engine.speed_recomputes"]
    assert recomputes == len(reasons) < len(ticks)


class _NoSeriesView:
    """A performance model without ``cpu_series_view``."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def cpu_coefficient(self, key, t):
        return self._inner.cpu_coefficient(key, t)

    def latency_s(self, a, b, t):
        return self._inner.latency_s(a, b, t)

    def bandwidth_mbps(self, a, b, t):
        return self._inner.bandwidth_mbps(a, b, t)


@pytest.mark.parametrize("series_view", [True, False])
def test_batch_ticks_match_a_recompute(series_view, counters):
    """Every column of a two-cell batch, at every tick, through alternate
    switches, fleet rebuilds, mid-interval ready times and trace steps;
    without series views every tick recomputes."""
    scenario = Scenario(period=600.0, **RIG)
    managers = []
    for policy in ("local", "global"):
        provider = scenario.provider()
        if not series_view:
            provider.performance = _NoSeriesView(provider.performance)
        managers.append(scenario.manager(policy, provider=provider))
    runner = BatchRunner(managers)
    phases = runner._phases
    seen = [set(), set(), set()]  # selections, fleets, ready times

    def checked(pack, t, dt):
        rec = phases(pack, t, dt)
        for c, st in enumerate(pack.cols):
            ex = st.ex
            want = _reference(ex, t, dt)
            for name in BATCH:
                got = getattr(pack.speed, name)[c]
                got = got[tuple(slice(n) for n in want[name].shape)]
                _assert_same(got, want[name], (name, t, c))
            seen[0].add((c, tuple(sorted(ex.selection.items()))))
            seen[1].add((c, ex._sync_sig))
            seen[2].update(float(r) for r in ex._ready_time)
        return rec

    runner._phases = checked
    runner.run()
    assert len(seen[0]) > 2 and len(seen[1]) > 2
    assert any(r % RIG["interval"] for r in seen[2])
    ticks = counters()["batch.ticks"]
    recomputes = counters()["batch.speed_recomputes"]
    assert recomputes < ticks if series_view else recomputes == ticks


def test_model_without_series_view_recomputes_every_tick(
    monkeypatch, counters
):
    scenario = Scenario(period=300.0, **RIG)
    provider = scenario.provider()
    provider.performance = _NoSeriesView(provider.performance)
    ticks = _check_serial_ticks(monkeypatch)
    scenario.manager("local", provider=provider).run()
    assert len(ticks) > 0
    assert counters()["engine.speed_recomputes"] == len(ticks)


def test_cached_arrays_are_read_only():
    scenario = Scenario(period=100.0, **RIG)
    state = scenario.manager("local").begin()
    state.executor.start()
    state.env.run(until=60.0)
    sp = state.executor._speed
    for name in SERIAL:
        with pytest.raises(ValueError, match="read-only"):
            getattr(sp, name)[...] = 0
