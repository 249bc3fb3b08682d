"""Phase 3's unbound fast path against its binding branch.

When no lane's remote transfer wants more than its link budget allows
(``executor._unbound``), every lane's moved fraction is exactly 1, so
phase 3 of :func:`~repro.engine.executor._flow_phases` moves the whole
egress at once and skips the divide, the clamp and the kept/left
arithmetic.  Forcing the binding branch (``_unbound`` patched to
``False``) must change nothing: queues, egress, accumulators and the
tick record byte for byte, on crafted budgets (infinite, exactly the
wanted amount, lanes at the epsilon) and through whole serial, window
and batch runs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cloud import CloudProvider, aws_2013_catalog
from repro.cloud.traces import TraceLibrary, TraceReplayPerformance
from repro.engine import FluidExecutor, executor
from repro.engine.batch import BatchRunner
from repro.engine.executor import _ACC, _EPS, _flow_phases
from repro.experiments import Scenario, fig1_dataflow
from repro.experiments.runner import SweepRow
from repro.sim import Environment
from repro.workloads import ConstantRate

from .test_multi_input import SCENARIO


def _executor() -> FluidExecutor:
    """fig1 on six VMs of mixed hosting, under trace replay."""
    df = fig1_dataflow()
    provider = CloudProvider(
        aws_2013_catalog(),
        performance=TraceReplayPerformance(TraceLibrary(seed=9)),
    )
    for alloc in ({"E1": 2, "E2": 2}, {"E2": 1, "E3": 1}, {"E3": 2},
                  {"E4": 1, "E1": 1}, {"E2": 2, "E4": 2}, {"E3": 1}):
        vm = provider.provision("m1.xlarge", now=0.0)
        for pe, cores in alloc.items():
            vm.allocate(pe, cores)
    ex = FluidExecutor(Environment(), df, provider,
                       {"E1": ConstantRate(6.0)},
                       selection=df.default_selection())
    ex.sync(0.0)
    ex._next_net_refresh = math.inf  # keep the crafted budgets
    return ex


def _tick(ex, sp, state, dt: float) -> bytes:
    """One tick of phases 0 and 2–5 from ``state``: every output's bytes."""
    backlog, egress, budget = state
    ex._backlog[...] = backlog
    ex._egress[...] = egress
    ex._remote_budget[...] = budget
    ex._reset_accumulators()
    rec = _flow_phases(ex, ex._columns, sp, 30.0, dt, np.array([6.0]), True)
    parts = [ex._backlog, ex._egress]
    parts += [getattr(ex, name) for name in _ACC]
    parts += [getattr(rec, name) for name in rec.__slots__]
    return b"|".join(np.asarray(p).tobytes() for p in parts)


def _budgets(rng, want: np.ndarray, dt: float, kind: str) -> np.ndarray:
    """Budgets (per second) that let every lane's ``want`` through."""
    if kind == "inf":
        return np.full(want.shape, np.inf)
    if kind == "exact":  # budget × dt == want, bit for bit (dt a power of 2)
        return want / dt
    room = want / dt * (1.0 + rng.random(want.shape))
    room[rng.random(want.shape) < 0.3] = np.inf
    return room


@pytest.mark.parametrize("kind", ["random", "inf", "exact", "eps"])
@pytest.mark.parametrize("dt", [1.0, 0.5, 2.0])
def test_fast_path_equals_the_binding_branch(kind, dt, monkeypatch):
    ex = _executor()
    sp = ex._speed_phase()
    sp.update(30.0, dt)
    taken = []
    unbound = executor._unbound
    monkeypatch.setattr(
        executor, "_unbound",
        lambda want, cap: taken.append(unbound(want, cap)) or taken[-1],
    )
    rng = np.random.default_rng(17)
    for i in range(25):
        backlog = rng.random(ex._backlog.shape) * 40.0 * (ex._alloc > 0)
        egress = rng.random(ex._egress.shape) * 25.0
        egress[rng.random(egress.shape) < 0.2] = 0.0
        if kind == "eps":
            # Lanes whose remote share sits about the epsilon; on every
            # other tick some get budgets below it: those keep f = 1
            # while the predicate sees them bind.
            egress *= np.where(rng.random(egress.shape) < 0.4, 1e-12, 1.0)
        want = egress * sp.dst_rest
        budget = _budgets(rng, want, dt, "random" if kind == "eps" else kind)
        if kind == "eps" and i % 2:
            low = (want <= _EPS) & (want > 0.0)
            budget[low] = want[low] / dt * 0.25
        state = (backlog, egress, budget)
        fast = _tick(ex, sp, state, dt)
        with monkeypatch.context() as forced:
            forced.setattr(executor, "_unbound", lambda want, cap: False)
            bound = _tick(ex, sp, state, dt)
        assert fast == bound
    if kind == "eps":
        assert True in taken and False in taken
    else:
        assert all(taken) and len(taken) == 25


def _rows(scenario, policies):
    serial = [scenario.manager(p).run() for p in policies]
    batch = BatchRunner([scenario.manager(p) for p in policies]).run()
    return [
        (SweepRow.from_result(scenario, r), list(r.timeline))
        for r in serial + batch
    ]


def test_runs_equal_with_the_binding_branch_forced(monkeypatch):
    """Serial ticks, window passes and batch ticks of wave-rate cells on
    trace replay give the same rows and timelines either way."""
    scenario = Scenario(**SCENARIO)
    policies = ("global", "local")
    taken = []
    unbound = executor._unbound
    monkeypatch.setattr(
        executor, "_unbound",
        lambda want, cap: taken.append(unbound(want, cap)) or taken[-1],
    )
    fast = _rows(scenario, policies)
    assert any(taken)
    monkeypatch.setattr(executor, "_unbound", lambda want, cap: False)
    assert _rows(scenario, policies) == fast
