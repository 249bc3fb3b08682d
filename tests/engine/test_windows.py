"""Window ticks commit exactly the ticks stepping would have run.

On a rate that never holds still, such as a periodic wave, the executor
advances runs of grid points in *windows*: time-stacked passes of the
shared tick phases, verified bit for bit and committed lazily through the
one replay (see :mod:`repro.engine.executor`).  This oracle drives random
worlds twice — macro-stepping on, so windows open, and off, so every tick
is stepped — and requires equal interval stats, final backlog, egress and
accumulator bytes, and equal event streams.

The worlds mix periodic-wave, stepped, random-walk and burst inputs on
one- and two-input dataflows, random VM catalogs, constant or
trace-replayed CPU and network performance, VMs that turn ready inside
would-be windows, network budgets that bind, checkpoint sweeps, rate
steps that flip a lane's saturation mid-window, odd horizons read
between runs, and a foreign process that reads or mutates the executor
in the middle of a window (one the window could not see when it opened).
The engine is driven event by event, so a window may run past a read
horizon and be settled in part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudProvider, ConstantPerformance
from repro.cloud.resources import VMClass
from repro.cloud.traces import (
    CPUTraceConfig, NetworkTraceConfig, TraceLibrary, TraceReplayPerformance,
)
from repro.dataflow import Alternate, DynamicDataflow, ProcessingElement
from repro.engine import FluidExecutor
from repro.experiments import fig1_dataflow
from repro.obs import collector
from repro.sim import Environment
from repro.workloads import (
    BurstRate, PeriodicWave, RandomWalkRate, SteppedRate,
)

KINDS = ("wave", "stepped", "walk", "burst")


def _two_input_dataflow() -> DynamicDataflow:
    """A, B → C → D: two inputs take the tick's multi-input branch."""
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


@dataclass
class World:
    """One random world, built afresh for each mode."""

    two_inputs: bool
    profiles: list
    classes: list
    traces: tuple | None
    cpu: float
    bandwidth: float
    startup_delay: float
    placement: list
    tick: float
    refresh: float
    checkpoint: float | None
    horizons: list
    poke: tuple | None


def _profile(kind: str, draw):
    if kind == "wave":
        mean = draw(st.floats(0.5, 30.0))
        return PeriodicWave(
            mean,
            amplitude=draw(st.floats(0.05, 1.0)) * mean,
            period=draw(st.floats(40.0, 900.0)),
            phase=draw(st.floats(0.0, 6.3)),
        )
    if kind == "stepped":
        times = sorted(draw(st.lists(st.floats(1.0, 400.0), max_size=4)))
        rates = draw(st.lists(st.floats(0.0, 40.0), min_size=len(times) + 1,
                              max_size=len(times) + 1))
        return SteppedRate(list(zip([0.0] + times, rates)))
    if kind == "walk":
        return RandomWalkRate(
            draw(st.floats(1.0, 30.0)), step_sigma=0.3,
            resolution=draw(st.floats(3.0, 40.0)), horizon=3600.0,
            seed=draw(st.integers(0, 99)),
        )
    return BurstRate(
        draw(st.floats(0.5, 20.0)), factor=draw(st.floats(1.5, 6.0)),
        bursts_per_hour=draw(st.floats(10.0, 60.0)),
        duration=draw(st.floats(5.0, 60.0)), horizon=3600.0,
        seed=draw(st.integers(0, 99)),
    )


@st.composite
def worlds(draw) -> World:
    two_inputs = draw(st.booleans())
    n_inputs = 2 if two_inputs else 1
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(n_inputs)]
    if draw(st.integers(0, 9)) < 8:
        kinds[0] = "wave"
    profiles = [(kind, _profile(kind, draw)) for kind in kinds]
    n_classes = draw(st.integers(1, 3))
    classes = [
        (f"c{i}", draw(st.integers(1, 8)), draw(st.floats(0.3, 3.0)),
         draw(st.floats(1.0, 1000.0)))
        for i in range(n_classes)
    ]
    traces = None
    if draw(st.booleans()):
        traces = (draw(st.integers(0, 9)),
                  draw(st.sampled_from([7.0, 13.5, 60.0])),
                  draw(st.sampled_from([11.0, 30.0, 60.0])))
    n_pes = 4
    placement = [
        (draw(st.integers(0, 3)), draw(st.integers(0, n_classes - 1)),
         draw(st.integers(1, 3)))
        for _ in range(n_pes)
    ]
    tick = draw(st.sampled_from([1.0, 1.0, 0.5, 0.7]))
    h = [draw(st.floats(15.0, 160.0))]
    for _ in range(draw(st.integers(0, 2))):
        h.append(h[-1] + draw(st.floats(10.0, 160.0)))
    poke = None
    if draw(st.integers(0, 9)) < 7:
        poke = (draw(st.floats(0.0, h[-1])), draw(st.integers(0, 25)),
                draw(st.sampled_from(["read", "roll", "select", "grow"])),
                draw(st.integers(0, n_classes - 1)))
    return World(
        two_inputs=two_inputs,
        profiles=profiles,
        classes=classes,
        traces=traces,
        cpu=draw(st.floats(0.5, 1.5)),
        bandwidth=draw(st.sampled_from([0.3, 2.0, 20.0, 100.0])),
        startup_delay=draw(st.sampled_from([0.0, 0.0, 7.3, 45.3, 101.7])),
        placement=placement,
        tick=tick,
        refresh=draw(st.sampled_from([20.0, 45.5, 60.0, 90.0])),
        checkpoint=draw(st.sampled_from([None, None, 37.0, 80.0])),
        horizons=h,
        poke=poke,
    )


def _build(w: World, macro: bool):
    df = _two_input_dataflow() if w.two_inputs else fig1_dataflow()
    catalog = [
        VMClass(name, cores=cores, core_speed=speed, bandwidth_mbps=bw,
                hourly_price=0.5)
        for name, cores, speed, bw in w.classes
    ]
    if w.traces is None:
        performance = ConstantPerformance(cpu=w.cpu, bandwidth_mbps=w.bandwidth)
    else:
        seed, cpu_res, net_res = w.traces
        performance = TraceReplayPerformance(TraceLibrary(
            seed=seed, n_cpu_series=4, n_network_series=4,
            cpu=CPUTraceConfig(duration_s=3600.0, resolution_s=cpu_res),
            network=NetworkTraceConfig(duration_s=3600.0,
                                       resolution_s=net_res),
        ))
    env = Environment()
    provider = CloudProvider(catalog, performance=performance,
                             startup_delay=w.startup_delay)
    vms = []
    for pe, (j, cls, cores) in zip(df.pe_names, w.placement):
        if j >= len(vms) or vms[j].free_cores < 1:
            vms.append(provider.provision(catalog[cls].name, now=0.0))
            j = len(vms) - 1
        vms[j].allocate(pe, min(cores, vms[j].free_cores))
    profiles = dict(zip(df.inputs, (p for _kind, p in w.profiles)))
    ex = FluidExecutor(
        env, df, provider, profiles, selection=df.default_selection(),
        tick=w.tick, network_refresh=w.refresh, macrostep=macro,
        checkpoint_interval=w.checkpoint,
    )
    return env, ex


def _stats(stats) -> tuple:
    return (stats.start, stats.end, stats.external_in, stats.arrivals,
            stats.processed, stats.delivered, stats.deliverable, stats.lost)


def _state(ex) -> tuple:
    return (
        ex._backlog.tobytes(), ex._egress.tobytes(), dict(ex._unhosted),
        [(m.pe, m.messages, m.available_at) for m in ex._migrating],
        ex._acc_external.tobytes(), ex._acc_deliverable.tobytes(),
        ex._acc_arrivals.tobytes(), ex._acc_processed.tobytes(),
        ex._acc_delivered.tobytes(),
    )


def _poke(env, ex, w: World, delay: float, out: list):
    """A foreign process acting ``delay`` after it starts, off the grid."""
    _at, _ticks, action, cls = w.poke
    yield env.timeout(delay)
    if action == "read":
        out.append(("read", env.now, ex.backlogs()))
    elif action == "roll":
        out.append(("roll", _stats(ex.roll_interval())))
    elif action == "select":
        df = ex.dataflow
        other = dict(ex.selection)
        for pe in df.pe_names:
            alts = [a.name for a in df[pe].alternates]
            if len(alts) > 1:
                other[pe] = next(a for a in alts if a != other[pe])
        ex.set_selection(other)
    else:
        vm = ex.provider.provision(w.classes[cls][0], now=env.now)
        vm.allocate(ex.dataflow.pe_names[-1], 1)
        ex.sync()


def _run(w: World, macro: bool, poke_at: float | None = None):
    """Drive one world event by event; returns (observations, state,
    events, windows, the real tick the foreign process started after).

    With windows on, the foreign process starts after the first real
    tick at or past ``w.poke[0]``; stepping every tick, after the tick
    at ``poke_at`` (that same grid point), if any."""
    env, ex = _build(w, macro)
    out: list = []
    collector.reset()
    with collector.tracing():
        ex.sync()
        ex.start()
        started = None
        for h in w.horizons:
            while env.peek() <= h:
                before = ex.ticks_executed
                env.step()
                if (w.poke is not None and started is None
                        and ex.ticks_executed > before
                        and (env.now >= w.poke[0] if macro
                             else env.now == poke_at)):
                    # Right after the executor's real tick at ``now``:
                    # with windows on, one may have just opened.
                    started = env.now
                    delay = (w.poke[1] + 0.5) * w.tick
                    env.process(_poke(env, ex, w, delay, out), name="poke")
            env.run(until=h)
            out.append(("interval", _stats(ex.roll_interval())))
        events = [(e.type, e.t, e.tenant_id, dict(e.payload))
                  for e in collector.events()]
    collector.reset()
    return out, _state(ex), events, ex.windows, started


def _compare(w: World) -> bool:
    """Window mode against per-tick mode; True when windows opened."""
    on = _run(w, True)
    off = _run(w, False, poke_at=on[4])
    assert on[4] == off[4]
    assert off[3] == 0
    assert on[0] == off[0]
    assert on[1] == off[1]
    assert len(on[2]) == len(off[2])
    for i, (got, want) in enumerate(zip(on[2], off[2])):
        assert got == want, f"event {i} differs"
    return on[3] > 0


def test_windows_match_per_tick_mode():
    opened: list[bool] = []

    @settings(max_examples=60, deadline=None)
    @given(worlds())
    def check(w):
        opened.append(_compare(w))

    check()
    assert sum(opened) >= 0.6 * len(opened), (
        f"windows opened in {sum(opened)} of {len(opened)} examples"
    )


# -- the one replay against the tick loops it replaced -------------------------


class _Owner:
    """The five interval accumulators, as an executor holds them."""

    def __init__(self, arrays):
        (self._acc_deliverable, self._acc_external, self._acc_arrivals,
         self._acc_processed, self._acc_delivered) = arrays


_values = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(0, 40),
       st.booleans())
def test_replay_equals_repeated_addition(data, n, a, stacked):
    """Ticks ``a..a+n−1`` of a run commit as the tick loop's ``+=``."""
    from repro.engine.executor import _replay

    shapes = [(3,), (1,), (4,), (4,), (3,)]
    start = [np.array(data.draw(st.lists(_values, min_size=s[0],
                                         max_size=s[0]))) for s in shapes]
    length = a + n if stacked else 1
    incs = [
        np.array(data.draw(st.lists(_values, min_size=length * s[0],
                                    max_size=length * s[0]))).reshape(
            (length,) + s if stacked else s)
        for s in shapes
    ]
    want = [x.copy() for x in start]
    for j in range(a, a + n):
        for acc, inc in zip(want, incs):
            acc += inc[j] if stacked else inc
    got = _Owner([x.copy() for x in start])
    _replay(got, tuple(incs), a, a + n)
    for acc, ref in zip((got._acc_deliverable, got._acc_external,
                         got._acc_arrivals, got._acc_processed,
                         got._acc_delivered), want):
        assert acc.tobytes() == ref.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 300))
def test_drift_check_and_state_equal_the_recurrence(data, n):
    """The vectorized drift check and trajectory against the three-op
    per-tick recurrence they replaced: the same prefix, and the same
    backlog after it, bit for bit."""
    from repro.engine.executor import _drift_prefix, _drift_state, _TickRecord

    lanes = data.draw(st.integers(1, 12))
    vec = st.lists(st.floats(0.0, 50.0), min_size=lanes, max_size=lanes)
    caps = np.array(data.draw(vec))
    arrivals = np.array(data.draw(vec))
    b_pre = np.array(data.draw(vec)) * np.array(
        data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=lanes,
                           max_size=lanes)))
    queue = b_pre + arrivals
    served = np.minimum(queue, caps)
    backlog = queue - served  # the probe tick's result
    rec = _TickRecord(None, arrivals=arrivals, caps=caps, served=served)
    b, k = backlog, 0
    while k < n:
        q = b + arrivals
        s = np.minimum(q, caps)
        if s.tobytes() != served.tobytes():
            break
        b = q - s
        k += 1
    assert _drift_prefix(backlog, rec, n) == k
    assert _drift_state(backlog, rec, k).tobytes() == b.tobytes()
