"""The batch tick's one rate gather and the shared CPU-trace rows.

Each batch tick evaluates every distinct rate profile once into one
flat array and reads the columns' and the zero-VM cells' rates from it
with one gather; a one-input column's padded input reads the trailing
zero slot.  Phase 1 gathers CPU coefficients in place from the trace
library's own array when every lane's series is a view of one of its
rows, and otherwise from a stack that holds each distinct series once.
Rows and coefficients must equal the serial engine's, and the per-VM
model calls', bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.cloud import CloudProvider, aws_2013_catalog
from repro.cloud.traces import (
    CPUTraceConfig, TraceLibrary, TraceReplayPerformance,
)
from repro.core.policies import Policy
from repro.engine import FluidExecutor
from repro.engine.batch import BatchRunner
from repro.experiments import Scenario, fig1_dataflow
from repro.experiments.runner import SweepRow
from repro.sim import Environment
from repro.workloads import ConstantRate

from .test_multi_input import SCENARIO, two_input_dataflow


class _Empty:
    """A deployer whose plan provisions nothing.  With no VM, no input
    is observed, so adaptation never asks for one: the cell takes the
    zero-VM tick throughout, whose only trace is its deliverables."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def plan(self, input_rates):
        plan = self.inner.plan(input_rates)
        for vm in plan.cluster.vms:
            plan.cluster.remove(vm.key)
        return plan


def _manager(scenario: Scenario, empty: bool):
    if not empty:
        return scenario.manager("global")
    policy = scenario.policy("global")
    return scenario.manager("global", policy=Policy(
        name=policy.name, deployer=_Empty(policy.deployer),
        adapter=policy.adapter,
    ))


def test_mixed_columns_and_zero_vm_cells_equal_the_serial_runs():
    """A two- and a one-input column next to a one- and a two-input cell
    without VMs, at two rates: the one-input column's padded input reads
    the zero slot, the zero-VM cells' gather rows follow the columns',
    in the other order of input counts, and cells of one scenario share
    their profiles through one rate key."""
    one = Scenario(**{**SCENARIO, "rate": 3.0})
    two = Scenario(dataflow=two_input_dataflow(), **SCENARIO)
    cells = [(two, False), (one, False), (one, True), (two, True)]
    serial = [_manager(s, e).run() for s, e in cells]
    runner = BatchRunner([_manager(s, e) for s, e in cells],
                         rate_keys=[id(s) for s, _e in cells])
    packs = []
    pack = runner._pack

    def spied(states, tick):
        packs.append(pack(states, tick))
        return packs[-1]

    runner._pack = spied
    results = runner.run()
    first = packs[0]
    assert [st.I for st in first.cols] == [2, 1]
    assert [st.I for st in first.v0] == [1, 2]
    assert len(first.profiles) == 3
    for (s, _e), got, want in zip(cells, results, serial):
        assert SweepRow.from_result(s, got) == SweepRow.from_result(s, want)
        assert list(got.timeline) == list(want.timeline)
    assert all(m.deliverable > 0 for m in results[3].timeline)


# -- the CPU-trace stacks ------------------------------------------------------


class _Opaque:
    """A performance model without series views: the executor asks the
    model for every VM's coefficient, the reference for the gather."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        if name == "cpu_series_view":
            raise AttributeError(name)
        return getattr(self._inner, name)


class _PrivateSeries(TraceReplayPerformance):
    """Trace replay whose series views are private copies: no two VMs'
    series share memory, even where they replay one library row."""

    def cpu_series_view(self, trace_key):
        series, offset, res = super().cpu_series_view(trace_key)
        return series.copy(), offset, res


def _library() -> TraceLibrary:
    return TraceLibrary(
        seed=3, n_cpu_series=3,
        cpu=CPUTraceConfig(duration_s=3600.0, resolution_s=30.0),
    )


def _executor(performance, n_vms: int = 8) -> FluidExecutor:
    df = fig1_dataflow()
    provider = CloudProvider(aws_2013_catalog(), performance=performance)
    for i in range(n_vms):
        vm = provider.provision("m1.large", now=0.0)
        vm.allocate(df.pe_names[i % len(df.pe_names)], 2)
    ex = FluidExecutor(
        Environment(), df, provider, {"E1": ConstantRate(3.0)},
        selection=df.default_selection(),
    )
    ex.sync(0.0)
    return ex


def _same_speeds(ex: FluidExecutor, reference: FluidExecutor) -> None:
    """Phase 1 of ``ex`` equals the per-VM reference's at trace steps
    across the whole series, wrap-around included."""
    assert reference._coef_group is None
    sp, ref = ex._speed_phase(), reference._speed_phase()
    for t in np.arange(0.0, 7200.0, 45.0).tolist():
        sp.update(t, 1.0)
        ref.update(t, 1.0)
        assert sp.cap_msgs.tobytes() == ref.cap_msgs.tobytes()


def test_lanes_sharing_a_library_row_share_a_stack_row():
    """The group gathers in place from the library's own array: lanes
    replaying one library row read one row of it, and no series is
    copied."""
    library = _library()
    ex = _executor(TraceReplayPerformance(library))
    g = ex._coef_group
    assert len(g.flat) == 8
    assert g.stack is library.cpu_series
    assert np.shares_memory(g.stack, library.cpu_series)
    assert len(set(g.rows.tolist())) <= 3
    for k, j in enumerate(g.flat.tolist()):
        series = ex._cpu_views[j][0]
        assert np.shares_memory(series, library.cpu_series)
        assert g.stack[g.rows[k]].tobytes() == series.tobytes()
    _same_speeds(ex, _executor(_Opaque(TraceReplayPerformance(library))))


def test_series_sharing_no_memory_keep_a_row_each():
    library = _library()
    ex = _executor(_PrivateSeries(library))
    g = ex._coef_group
    assert g.stack.shape[0] == len(g.flat) == 8
    assert len({row.tobytes() for row in g.stack}) > 1
    _same_speeds(ex, _executor(_Opaque(TraceReplayPerformance(library))))


def test_batch_stack_holds_each_library_row_once():
    """Two cells of one seed replay one library: the batch's group
    gathers in place from the library's own array, which holds each of
    its rows once however many VMs replay it."""
    scenario = Scenario(**SCENARIO)
    runner = BatchRunner([scenario.manager(p) for p in ("global", "local")])
    packs = []
    pack_coefs = runner._pack_coefs

    def spied(pack, cols):
        pack_coefs(pack, cols)
        packs.append((pack.Vmax, list(cols), list(pack.coef_groups)))

    runner._pack_coefs = spied
    results = runner.run()
    assert packs
    for vmax, cols, groups in packs:
        (g,) = groups
        library = cols[0].ex.provider.performance.library
        assert g.stack is library.cpu_series
        assert np.shares_memory(g.stack, library.cpu_series)
        for k, lane in enumerate(g.flat.tolist()):
            c, j = divmod(lane, vmax)
            series = cols[c].ex._cpu_views[j][0]
            assert g.stack[g.rows[k]].tobytes() == series.tobytes()
    for policy, got in zip(("global", "local"), results):
        want = scenario.manager(policy).run()
        assert SweepRow.from_result(scenario, got) == SweepRow.from_result(
            scenario, want
        )
