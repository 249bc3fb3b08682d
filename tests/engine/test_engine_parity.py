"""Trace parity of the two engines that share the run lifecycle.

:meth:`RunManager.run` drives ``begin`` → ``close_interval`` → ``result``
from the kernel clock; :class:`BatchRunner` calls the same three steps per
column around its vectorized tick.  A one-cell batch must therefore emit
exactly the serial run's event stream — every event's type, sim time,
tenant and payload, in order — so a change to adaptation, metrics or
tracing cannot land in one engine and not the other.
"""

from __future__ import annotations

import pytest

from repro.engine.batch import BatchRunner
from repro.experiments import Scenario
from repro.obs import collector

SCENARIO = dict(rate=5.0, period=600.0, interval=60.0, seed=7)


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


@pytest.mark.parametrize("policy", ["global", "local", "static-local"])
@pytest.mark.parametrize(
    "rate_kind, variability", [("constant", "infra"), ("wave", "both")]
)
def test_one_cell_batch_emits_the_serial_trace(rate_kind, variability, policy):
    scenario = Scenario(
        rate_kind=rate_kind, variability=variability, **SCENARIO
    )
    serial, serial_events = _traced(lambda: scenario.manager(policy).run())
    batch, batch_events = _traced(
        lambda: BatchRunner([scenario.manager(policy)]).run()[0]
    )
    types = {e[0] for e in serial_events}
    assert {"vm_provisioned", "allocation_changed", "interval_stats"} <= types
    if policy != "static-local":
        assert "adaptation_decision" in types
    assert len(batch_events) == len(serial_events)
    for i, (got, want) in enumerate(zip(batch_events, serial_events)):
        assert got == want, f"event {i} differs"
    assert batch.theta == serial.theta
    assert batch.adaptations == serial.adaptations
    assert batch.final_selection == serial.final_selection
