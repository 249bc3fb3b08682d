"""The shared tick's multi-input branch, on both engines and in windows.

Every catalog dataflow has one input, so the tick's multi-input branch —
the masked arrival scatter and each column's ``gain @ rates``
deliverables — runs only on a dataflow like the one here: inputs A and
B merge into C, which feeds D.  Under wave rates the serial engine
advances most ticks in windows, time-stacked passes of that branch, so
the serial run must equal the per-tick run (macro-stepping off), a
one-cell batch, the cell in either column of a two-cell batch, and its
column of a batch that mixes it with a one-input cell.
"""

from __future__ import annotations

import pytest

from repro.dataflow import Alternate, DynamicDataflow, ProcessingElement
from repro.engine.batch import BatchRunner
from repro.experiments import Scenario
from repro.experiments.runner import SweepRow
from repro.obs import collector
from repro.util import perf

SCENARIO = dict(rate=5.0, rate_kind="wave", variability="both",
                period=600.0, interval=60.0, seed=7)
POLICY = "global"


def two_input_dataflow() -> DynamicDataflow:
    """A, B → C → D: two inputs merged (multi-merge) into one analytic."""
    return DynamicDataflow(
        [
            ProcessingElement("A", [Alternate("a", value=1.0, cost=0.5)]),
            ProcessingElement("B", [Alternate("b", value=1.0, cost=0.7)]),
            ProcessingElement(
                "C",
                [
                    Alternate("c.1", value=1.0, cost=2.0),
                    Alternate("c.2", value=0.88, cost=1.6),
                ],
            ),
            ProcessingElement("D", [Alternate("d", value=1.0, cost=0.8)]),
        ],
        [("A", "C"), ("B", "C"), ("C", "D")],
    )


def _scenario(**overrides) -> Scenario:
    return Scenario(dataflow=two_input_dataflow(), **{**SCENARIO, **overrides})


def _traced(run):
    """``run()``'s result and its ``(type, t, tenant_id, payload)`` list."""
    collector.reset()
    with collector.tracing():
        result = run()
    events = [
        (e.type, e.t, e.tenant_id, dict(e.payload)) for e in collector.events()
    ]
    collector.reset()
    return result, events


def _serial(scenario, macro, monkeypatch):
    """The serial run with macro-stepping (and so windows) on or off;
    also returns the windows it opened."""
    monkeypatch.setenv("REPRO_MACROSTEP", "1" if macro else "0")
    with perf.collecting():
        before = perf.snapshot()["counters"].get("engine.windows", 0)
        result, events = _traced(lambda: scenario.manager(POLICY).run())
        after = perf.snapshot()["counters"].get("engine.windows", 0)
    monkeypatch.undo()
    return result, events, after - before


def _row(scenario, result) -> SweepRow:
    return SweepRow.from_result(scenario, result)


def _assert_same_events(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"event {i} differs"


def test_dataflow_has_two_inputs():
    df = two_input_dataflow()
    assert list(df.inputs) == ["A", "B"] and list(df.outputs) == ["D"]


def test_windows_equal_the_per_tick_run(monkeypatch):
    scenario = _scenario()
    on, on_events, windows = _serial(scenario, True, monkeypatch)
    off, off_events, none = _serial(scenario, False, monkeypatch)
    assert windows > 0 and none == 0
    assert _row(scenario, on) == _row(scenario, off)
    _assert_same_events(on_events, off_events)
    types = {e[0] for e in on_events}
    assert {"interval_stats", "adaptation_decision"} <= types


def test_one_cell_batch_emits_the_serial_trace(monkeypatch):
    scenario = _scenario()
    serial, serial_events, windows = _serial(scenario, True, monkeypatch)
    assert windows > 0
    (batch,), batch_events = _traced(
        lambda: BatchRunner([scenario.manager(POLICY)]).run()
    )
    assert _row(scenario, batch) == _row(scenario, serial)
    _assert_same_events(batch_events, serial_events)


@pytest.mark.parametrize("col", [0, 1])
def test_cell_in_a_two_cell_batch_matches_its_serial_row(col, monkeypatch):
    scenario = _scenario()
    serial, _events, _windows = _serial(scenario, True, monkeypatch)
    other = _scenario(rate=3.0).manager("local")
    cell = scenario.manager(POLICY)
    managers = [cell, other] if col == 0 else [other, cell]
    results = BatchRunner(managers).run()
    assert _row(scenario, results[col]) == _row(scenario, serial)


@pytest.mark.parametrize("col", [0, 1])
def test_batch_mixing_one_and_two_input_columns(col, monkeypatch):
    """Padded inputs: the one-input column repeats its input row at rate
    0 next to the two-input column, and each equals its serial row."""
    two = _scenario()
    one = Scenario(**SCENARIO)
    serial_two, _e, _w = _serial(two, True, monkeypatch)
    serial_one, _e, _w = _serial(one, True, monkeypatch)
    managers = [two.manager(POLICY), one.manager(POLICY)]
    if col == 1:
        managers.reverse()
    results = BatchRunner(managers).run()
    got_two, got_one = (results[0], results[1]) if col == 0 else (
        results[1], results[0]
    )
    assert _row(two, got_two) == _row(two, serial_two)
    assert _row(one, got_one) == _row(one, serial_one)
