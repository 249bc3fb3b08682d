"""A window pass does none of the columns' scalar work.

The tick's per-column scalar work — releasing due migrations
(``_deposit``), draining holding buffers and refreshing network budgets
(``_refresh_network``) — is skipped by every pass over a time pack: a
window opens only when none of it is pending and ends before the next
network refresh, so a pass that ran it per time slice would only spend
time.  Here scalar work is made due at every grid point, which no real
window sees, and the pass must still leave it alone.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cloud import CloudProvider, aws_2013_catalog
from repro.engine import FluidExecutor
from repro.engine.executor import _grid, _MigratingBuffer, _window_pass
from repro.experiments import fig1_dataflow
from repro.sim import Environment
from repro.workloads import PeriodicWave


def test_window_pass_skips_the_column_scalar_work(monkeypatch):
    df = fig1_dataflow()
    provider = CloudProvider(aws_2013_catalog())
    vm = provider.provision("m1.xlarge", now=0.0)
    for pe in df.pe_names:
        vm.allocate(pe, 1)
    wave = PeriodicWave(mean=4.0, period=600.0)
    ex = FluidExecutor(Environment(), df, provider, {"E1": wave},
                       selection=df.default_selection())
    ex.sync(0.0)
    ex.step(1.0)
    calls = []
    monkeypatch.setattr(ex, "_deposit",
                        lambda *args: calls.append(("_deposit", args)))
    monkeypatch.setattr(ex, "_refresh_network",
                        lambda *args: calls.append(("_refresh_network", args)))
    due = _MigratingBuffer("E2", 5.0, 0.0)
    ex._migrating = [due]
    ex._next_net_refresh = -math.inf
    grid = _grid(0.0, 1.0, 16)
    rates = np.array([[wave.rate_at(g)] for g in grid.tolist()])
    m, _rec, backlog, _egress = _window_pass(
        ex, ex._columns, ex._speed, grid, rates, 1.0, 3
    )
    assert calls == []
    assert ex._migrating == [due]
    assert m >= 1 and backlog.shape[0] == len(grid)
