"""The unhosted holding buffer, on the serial and the batch engine.

An input PE without a live core cannot take its traffic; the messages
wait in the executor's holding buffer and re-enter once the PE has
cores again.  Both engines run that code through one shared tick
routine, so here one cell whose first plan leaves its input PE without
cores — the adaptation at the first boundary gives it cores back — runs
serially, as a one-cell batch and inside a two-cell batch, and each run
must fill the buffer and drain it.  The oracle cells of the other batch
tests never leave an input unhosted, and contended fleets only fill it.
"""

from __future__ import annotations

import pytest

from repro.core.policies import Policy
from repro.engine.batch import BatchRunner
from repro.engine.executor import FluidExecutor
from repro.experiments import Scenario
from repro.experiments.runner import SweepRow
from repro.obs import collector

SCENARIO = dict(rate=5.0, rate_kind="wave", variability="both",
                period=600.0, interval=60.0, seed=7)
INPUT = "E1"


class _Unhosting:
    """A deployer whose plans leave ``pe`` without cores."""

    def __init__(self, inner, pe: str) -> None:
        self.inner = inner
        self.pe = pe

    def plan(self, input_rates):
        plan = self.inner.plan(input_rates)
        for vm in plan.cluster.vms:
            vm.release(self.pe)
        return plan


def _manager(scenario: Scenario):
    """``global`` on ``scenario``, deployed without cores for INPUT."""
    policy = scenario.policy("global")
    unhosting = Policy(
        name=policy.name,
        deployer=_Unhosting(policy.deployer, INPUT),
        adapter=policy.adapter,
    )
    return scenario.manager("global", policy=unhosting)


def _branches(log):
    """Ticks that filled the buffer and ticks that drained an entry,
    from ``(before, after)`` holding-buffer pairs."""
    fills = sum(1 for b, a in log if sum(a.values()) > sum(b.values()))
    drains = sum(1 for b, a in log if any(k not in a for k in b))
    return fills, drains


def _traced(run):
    collector.reset()
    with collector.tracing():
        result = run()
    events = [
        (e.type, e.t, e.tenant_id, dict(e.payload)) for e in collector.events()
    ]
    collector.reset()
    return result, events


def _serial(scenario, monkeypatch):
    log = []
    step = FluidExecutor.step

    def logged(self, dt):
        before = dict(self._unhosted)
        step(self, dt)
        log.append((before, dict(self._unhosted)))

    monkeypatch.setattr(FluidExecutor, "step", logged)
    result, events = _traced(lambda: _manager(scenario).run())
    monkeypatch.undo()
    return result, events, log


def _batch(managers, col):
    """Run ``managers`` as one batch, logging column ``col``'s buffer."""
    runner = BatchRunner(managers)
    log = []
    phases = runner._phases

    def logged(pack, t, dt):
        ex = pack.states[col].ex
        before = dict(ex._unhosted)
        rec = phases(pack, t, dt)
        log.append((before, dict(ex._unhosted)))
        return rec

    runner._phases = logged
    results, events = _traced(runner.run)
    return results, events, log


def test_one_cell_batch_fills_and_drains_like_the_serial_run(monkeypatch):
    scenario = Scenario(**SCENARIO)
    serial, serial_events, serial_log = _serial(scenario, monkeypatch)
    (batch,), batch_events, batch_log = _batch([_manager(scenario)], 0)
    for log in (serial_log, batch_log):
        fills, drains = _branches(log)
        assert fills > 0 and drains > 0
    assert SweepRow.from_result(scenario, batch) == SweepRow.from_result(
        scenario, serial
    )
    assert len(batch_events) == len(serial_events)
    for i, (got, want) in enumerate(zip(batch_events, serial_events)):
        assert got == want, f"event {i} differs"


@pytest.mark.parametrize("col", [0, 1])
def test_cell_in_a_two_cell_batch_matches_its_serial_row(col, monkeypatch):
    scenario = Scenario(**SCENARIO)
    serial, _events, _log = _serial(scenario, monkeypatch)
    cell = _manager(scenario)
    other = Scenario(**{**SCENARIO, "rate": 3.0}).manager("local")
    managers = [cell, other] if col == 0 else [other, cell]
    results, _events, log = _batch(managers, col)
    fills, drains = _branches(log)
    assert fills > 0 and drains > 0
    assert SweepRow.from_result(scenario, results[col]) == (
        SweepRow.from_result(scenario, serial)
    )
