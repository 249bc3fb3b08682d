"""Vectorized fluid-flow dataflow execution engine (substrate S6).

Simulates the continuous dataflow on the provisioned VM fleet with a
fluid approximation advanced in fixed ticks (default 1 s): message counts
are real-valued, per-(PE, VM) input queues accumulate backlog, service
capacity follows the monitored CPU coefficients of each VM, and
inter-VM edges are constrained by pairwise network bandwidth.  The model
implements the paper's runtime semantics (§5):

* several instances of a PE run data-parallel, one core each; incoming
  messages are load-balanced across the allocated cores (we route
  proportionally to capacity share),
* colocated PEs transfer messages in memory; remote transfers pay
  latency/bandwidth,
* releasing a VM migrates its pending buffered messages to the remaining
  VMs hosting the PE, with the network transfer cost paid as a delay,
* PEs are stateless, so cores can move between VMs and alternates can be
  switched at any interval boundary without violating consistency.

The per-tick hot path is fully array-oriented: egress buffers and
network budgets live in ``(E, V)`` matrices, CPU coefficients for the
whole fleet are gathered in place from the trace library's array with
one indexing operation, a network refresh prices every edge in one pass
(:class:`_LinkPlan`), edge transfers that no link budget limits skip
the budget arithmetic (:func:`_unbound`), and interval counters
accumulate in NumPy arrays that are flushed to the
:class:`IntervalStats` dicts once per
:meth:`roll_interval`.  The batch tick (:mod:`repro.engine.batch`) runs
the same code: both ticks are phase 1 and one call.  Phases 0 and 2–5
— migration release, external arrivals with the unhosted holding
buffer and deliverable accounting, network refresh and edge transfers,
processing, emission — are one routine, :func:`_flow_phases`, which
this tick calls on its own ``(P, V)`` arrays and the batch on its
padded ``(C, Pmax, Vmax)`` ones.  Phase 1 — coefficients, ready mask,
effective speeds, service capacities and routing shares, one routine
too — is cached, since its inputs change only at a trace step, a VM
ready time, a fleet rebuild or an alternate switch.  An entry is keyed
by ``dt`` and the exact gather index ``int(t / res) % length`` of the
stacked trace series, stays valid while ``t`` is below the first VM
ready time after the ``t`` it was computed at, and is dropped by
:meth:`sync` and by an alternate switch.
Coefficients of VMs without a series view (or with a mixed-resolution
one) are never cached: such fleets recompute phase 1 every tick.

**Steady-state macro-stepping.**  Long stretches of a run are exactly
periodic: rates are piecewise-constant, queues are empty or at a fixed
point, and nothing is scheduled to happen.  When the engine detects such
a stretch it stops executing ticks and *jumps* to the next interesting
time, replaying the per-tick accumulator increments it recorded from one
probe tick so every ledger ends up bit-identical to a tick-by-tick run
(test-enforced; set ``REPRO_MACROSTEP=0`` to disable).  The mechanism:

* one protocol serves both engines, on an *owner* (this executor, or a
  batch pack) and its column executors.  Before a probe tick the gate
  (:func:`_gate_cap`) takes the earliest *change cap* over the columns,
  how far the probe's increments provably hold: the next rate-profile
  breakpoint, CPU-coefficient trace boundary, VM ready time,
  network-budget refresh, checkpoint sweep and migration arrival.  It
  keeps an image (:func:`_image`) of the state the probe must leave
  bitwise unchanged: egress, holding buffers and migrations,
* after the probe, :func:`_jump` sizes the jump.  Only the input queues
  may have moved (saturated queues growing, or draining at full
  capacity — the common regime under the paper's Ω̂ < 1 provisioning),
  so every stationary probe is sized as a *linear drift*, a fixed point
  being a drift of zero: a vectorized check over the processing
  recurrence's trajectory (:func:`_drift_prefix`) proves the served
  amounts stay bit-identical over the jump, and at settle time the same
  trajectory (:func:`_drift_state`) advances the backlog float for
  float,
* *event caps* bound how far the engine may sleep: the wake-up must land
  strictly before every pending foreign kernel event (``env.peek()``,
  e.g. the failure driver) and at or before the run horizon
  (``env.run_horizon``, the interval boundary under
  :meth:`~repro.engine.manager.RunManager.run`), so foreign processes
  never act mid-jump and the kernel's event order stays identical to
  normal mode.  A batch jumps over the grid points up to its interval
  boundary,
* wake times are produced by the same repeated ``t + tick`` float
  addition the per-tick loop would have performed (one accumulate,
  :func:`_grid`) and scheduled via
  :meth:`~repro.sim.kernel.Environment.event_at`, so the engine lands on
  the exact tick-grid floats of a normal run,
* the skipped ticks are settled *lazily*: committed in one replay at the
  wake-up, or — when a mutation (sync / failure / alternate switch /
  interval roll) arrives mid-jump — up to the mutation time, with the
  remaining ticks re-executed for real after an interrupt cancels the
  stale wake-up (the kernel's lazy cancellation).

**Window ticks.**  A rate that never holds still (the paper's periodic
waves) defeats the change cap, yet a run's *regime* — phase 1's
outputs, which queues saturate, the network budgets — holds for tens of
ticks.  After a real tick on such a rate the engine therefore opens a
*window*: the next grid points (up to ``_WINDOW_TICKS``) are stacked on
a new leading time axis, a *time pack* (:class:`_TimePack`), and run
through :func:`_flow_phases` all at once, as a batch runs its columns.
Tick 0 of the pack takes the true state, every later tick a guess
(:func:`_window_pass`), and the pass repeats on better guesses until
each tick's outputs equal the next tick's inputs byte for byte; only
the longest prefix for which that holds is kept, so a wrong guess only
shortens a window.  A window opens only while phase 1 has no scalar
lanes and no holding buffer, migration or unhosted input is pending;
it ends where a jump's change cap ends, minus the rate term (a trace
step, VM ready time, network refresh or checkpoint sweep), and obeys
the same event caps.  It stays pending like a jump; a window whose
verified prefix comes out short backs the window gate off for a while.
``REPRO_MACROSTEP=0`` turns windows off with jumps.

**One replay.**  Jumps, windows and the batch's jumps commit through one
routine, :func:`_replay`: ticks ``a..b−1`` of a run advance each
accumulator by one ``np.add.accumulate`` over ``[acc, inc_a, …,
inc_{b−1}]`` — accumulation is sequential along the axis, so the result
is bitwise the tick loop's repeated ``+=`` — in chunks, so no stacked
array grows with a jump's length.  A window's increments are its pass's
stacked record; a jump is a window whose increments are the probe
tick's, broadcast to every tick (:class:`_Run`).

The engine is validated against a per-message discrete-event executor in
the test suite (``tests/engine/test_fluid_vs_permsg.py``) and against
frozen pre-vectorization goldens (``tests/engine/test_step_golden.py``).
"""

from __future__ import annotations

import math
import os
from typing import Mapping, Optional, Sequence

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.resources import VMInstance
from ..dataflow.graph import DynamicDataflow
from ..dataflow.patterns import SplitPattern
from ..obs import collector as _trace
from ..sim.kernel import Environment, Interrupt, Process
from ..util import perf
from ..validate import invariants as _validate
from ..workloads.rates import RateProfile, next_rate_change
from .messages import IntervalStats

__all__ = ["FluidExecutor"]

_EPS = 1e-12


def _seqsum(a: np.ndarray) -> np.ndarray:
    """Strictly sequential (left-to-right) sum over the last axis.

    ``np.sum`` uses pairwise summation whose grouping depends on the
    array length, so summing a zero-padded row can differ bitwise from
    summing the unpadded row once the length crosses numpy's unrolling
    thresholds.  A running left-to-right accumulation has no grouping:
    appended ``+0.0`` terms are exact no-ops for the non-negative data
    the engine reduces (allocations, speeds, shares, message counts).
    Every VM-axis reduction in the tick goes through this helper so the
    batch executor (:mod:`repro.engine.batch`) can pad fleets to a
    common width and still produce bit-identical per-cell results.
    """
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.add.accumulate(a, axis=-1)[..., -1]


def _macro_default() -> bool:
    """Macro-stepping is on unless ``REPRO_MACROSTEP`` disables it."""
    return os.environ.get("REPRO_MACROSTEP", "1") not in ("", "0", "false")


def _reject_synchronize_merges(dataflow: DynamicDataflow) -> None:
    """The engines implement multi-merge (interleaving) arrivals only.

    SYNCHRONIZE joins need message pairing state the stateless-PE model
    deliberately excludes (§5); running such a graph would silently
    mis-account Ω, so refuse it loudly.  The flow *metrics* in
    :mod:`repro.dataflow.metrics` do support SYNCHRONIZE for analysis.
    """
    from ..dataflow.patterns import MergePattern

    offenders = [
        n
        for n in dataflow.pe_names
        if dataflow.merge_pattern(n) is MergePattern.SYNCHRONIZE
    ]
    if offenders:
        raise ValueError(
            f"the execution engines support MULTI_MERGE only; PEs with "
            f"SYNCHRONIZE merges: {offenders}"
        )


def _library_rows(series: list) -> Optional[tuple[np.ndarray, list]]:
    """``(base, rows)`` when every series is row ``rows[k]`` of one
    C-contiguous 2-D array ``base`` (views of one trace library's rows),
    else ``None``."""
    base = series[0].base
    if not (isinstance(base, np.ndarray) and base.ndim == 2
            and base.flags.c_contiguous and base.size):
        return None
    start = base.__array_interface__["data"][0]
    rows = []
    for s in series:
        row, rem = divmod(s.__array_interface__["data"][0] - start,
                          base.strides[0])
        if (s.base is not base or rem or s.dtype != base.dtype
                or s.shape != base.shape[1:]
                or s.strides != base.strides[1:]):
            return None
        rows.append(row)
    return base, rows


class _CoefGroup:
    """Stacked CPU-trace series sharing one (length, resolution).

    Lane ``k`` (the flattened coefficient index ``flat[k]``) reads row
    ``rows[k]`` of ``stack`` at ``offsets[k] + int(t / res)`` modulo
    ``length``.  :meth:`of` gathers straight from the trace library's
    own 2-D array when every series is a view of one of its rows, so a
    fleet's group copies no series at all; only series that are not
    such views are stacked, each distinct one (by memory) once.
    """

    __slots__ = ("stack", "rows", "offsets", "flat", "res", "length")

    def __init__(self, stack, rows, offsets, flat, res) -> None:
        self.stack = stack
        self.rows = rows
        self.offsets = offsets
        self.flat = flat
        self.res = res
        self.length = stack.shape[1]

    @classmethod
    def of(cls, series: list, offsets, flat, res) -> "_CoefGroup":
        """The group of lanes whose series are ``series``."""
        found = _library_rows(series)
        if found is not None:
            stack, rows = found
        else:
            first: dict[tuple, int] = {}
            distinct: list[np.ndarray] = []
            rows = []
            for s in series:
                key = (s.__array_interface__["data"][0], s.strides,
                       s.dtype.str)
                row = first.get(key)
                if row is None:
                    row = first[key] = len(distinct)
                    distinct.append(s)
                rows.append(row)
            stack = np.stack(distinct)
        return cls(stack, np.array(rows, dtype=np.intp), offsets, flat, res)


class _SpeedPhase:
    """Tick phase 1, shared by the serial and the batch tick.

    From the CPU coefficients (``groups`` gather stacked trace series;
    ``fill`` writes any other lanes), the ready mask and the core speeds
    it derives each (PE, VM) service capacity ``cap_msgs`` and routing
    ``shares`` — capacity-proportional, falling back to
    allocation-proportional for PEs whose hosts all run at zero
    effective speed (e.g. still booting) — with ``share_sums`` and the
    share-only terms of the later phases: ``dst_shares`` (each edge's
    destination shares), its live mask ``dst_live``, ``dst_rest = 1 −
    dst_shares``, each input's ``hosted`` flag and ``in_shares``, and
    ``in_dense``: the shares with every row but the inputs' zeroed.
    Arrays keep the owner's leading axes, ``(P, V)`` for one executor
    and ``(C, P, V)`` for a batch; index rows point into the flattened
    shares.  :meth:`update` reuses the outputs while its inputs hold
    (see the module docstring); they are read-only, so a stray write
    raises instead of corrupting later ticks.
    """

    __slots__ = (
        "alloc", "core_speed", "ready_time", "cost", "groups", "fill",
        "edge_dst", "input_pe", "counter", "key", "until",
        "cap_msgs", "shares", "share_sums", "dst_shares", "dst_live",
        "dst_rest", "hosted", "in_shares", "in_dense",
    )

    def __init__(self, alloc, core_speed, ready_time, cost, groups, fill,
                 edge_dst, input_pe, counter) -> None:
        self.alloc = alloc
        self.core_speed = core_speed
        self.ready_time = ready_time
        self.cost = cost
        self.groups = groups
        self.fill = fill
        self.edge_dst = edge_dst
        self.input_pe = input_pe
        #: perf counter bumped on every recompute.
        self.counter = counter
        self.key: Optional[tuple] = None
        self.until = -math.inf

    def update(self, t: float, dt: float) -> None:
        """Make the outputs those of a tick of length ``dt`` at ``t``:
        kept while ``dt`` and every group's gather index are unchanged
        and no VM turned ready since they were computed, else
        recomputed (always, when ``fill`` is set)."""
        key = None
        if self.fill is None:
            key = (dt, *[int(t / g.res) % g.length for g in self.groups])
            if key == self.key and t < self.until:
                return
        coef = np.ones(self.ready_time.shape)
        lanes = coef.reshape(-1)
        for g in self.groups:
            pos = (g.offsets + int(t / g.res)) % g.length
            lanes[g.flat] = g.stack[g.rows, pos]
        if self.fill is not None:
            self.fill(coef, t)
        ready = self.ready_time <= t
        later = self.ready_time[~ready]
        self.until = float(later.min()) if later.size else math.inf
        np.multiply(self.core_speed, coef, out=coef)
        np.multiply(coef, ready, out=coef)
        units = self.alloc * coef[..., np.newaxis, :]
        unit_sums = _seqsum(units)
        cap_msgs = units / self.cost * dt
        shares = np.zeros_like(units)
        live = unit_sums > _EPS
        np.divide(units, unit_sums[..., np.newaxis], out=shares,
                  where=live[..., np.newaxis])
        if not live.all():
            alloc_sums = _seqsum(self.alloc)
            fallback = (~live) & (alloc_sums > 0)
            if fallback.any():
                np.divide(self.alloc, alloc_sums[..., np.newaxis],
                          out=shares, where=fallback[..., np.newaxis])
        share_sums = _seqsum(shares)
        rows = shares.reshape(-1, shares.shape[-1])
        dst_shares = rows[self.edge_dst]
        in_shares = rows[self.input_pe]
        in_dense = np.zeros_like(shares)
        in_dense.reshape(rows.shape)[self.input_pe] = in_shares
        outputs = (
            cap_msgs, shares, share_sums, dst_shares,
            _seqsum(dst_shares) > _EPS, 1.0 - dst_shares,
            share_sums.reshape(-1)[self.input_pe] > _EPS, in_shares,
            in_dense,
        )
        for a in outputs:
            a.flags.writeable = False
        (self.cap_msgs, self.shares, self.share_sums, self.dst_shares,
         self.dst_live, self.dst_rest, self.hosted, self.in_shares,
         self.in_dense) = outputs
        self.key = key
        if perf.enabled():
            perf.add(self.counter)


#: The interval accumulators, in the order of :meth:`_TickRecord.increments`.
_ACC = ("_acc_deliverable", "_acc_external", "_acc_arrivals",
        "_acc_processed", "_acc_delivered")

#: Element budget of one stacked chunk in :func:`_replay` and
#: :func:`_drift_prefix`: long runs go through in chunks, so no stacked
#: array grows with a jump's length.
_CHUNK = 1 << 18

#: Macro jumps, in both engines: the most ticks one jump skips (bounds
#: plan and replay work), and the gate backoff (in ticks) once no
#: constant window can be proven at all.
_MACRO_MAX_SKIP = 4096
_MACRO_BACKOFF = 64.0

#: Window ticks: the most grid points one window stacks, the most passes
#: it runs to verify them, and the gate backoff (in ticks) after a window
#: whose verified prefix came out shorter than ``_WINDOW_SHORT`` ticks.
_WINDOW_TICKS = 64
_WINDOW_PASSES = 8
_WINDOW_SHORT = 4
_WINDOW_BACKOFF = 16.0


class _TickRecord:
    """A tick's increments: a probe tick's, or a stacked pass's.

    ``deliv`` alone for a tick with nothing deployed; otherwise also the
    external, arrival, processed and delivered increments, and the
    drift recurrence's operands ``arrivals`` / ``caps`` with the tick's
    ``served`` amounts.  A time pack's record (see :class:`_TimePack`)
    carries a leading time axis on every field.
    """

    __slots__ = ("deliv", "ext", "arr", "proc", "delv",
                 "arrivals", "caps", "served")

    def __init__(self, deliv, ext=None, arr=None, proc=None, delv=None,
                 arrivals=None, caps=None, served=None):
        self.deliv = deliv
        self.ext = ext
        self.arr = arr
        self.proc = proc
        self.delv = delv
        self.arrivals = arrivals
        self.caps = caps
        self.served = served

    def increments(self) -> tuple:
        """The accumulator increments, in :data:`_ACC` order."""
        return (self.deliv, self.ext, self.arr, self.proc, self.delv)


def _grid(t: float, tick: float, n: int,
          until: float = math.inf) -> np.ndarray:
    """The tick-grid points after ``t``: ``n`` of them, or fewer that
    still run past ``until``.  One accumulate over ``[t, tick, tick, …]``
    is bitwise the tick loop's repeated ``g + tick``."""
    if until < math.inf:
        n = min(n, int((until - t) / tick) + 3)
    z = np.full(n + 1, tick)
    z[0] = t
    return np.add.accumulate(z)[1:]


def _prefix(ok: np.ndarray) -> int:
    """Length of the leading run of ``True`` in ``ok``."""
    return ok.size if ok.all() else int(ok.argmin())


def _differs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per index of the leading axis: does any bit of ``x`` and ``y``
    differ?  (Bits, not values: ``-0.0`` differs from ``0.0``.)"""
    ne = x.view(np.int64) != y.view(np.int64)
    return ne.any(axis=tuple(range(1, ne.ndim)))


def _replay(o, incs: tuple, a: int, b: int) -> None:
    """Commit ticks ``a..b−1`` of a stacked run to ``o``'s interval
    accumulators (``o`` is an executor or a batch pack; ``incs`` holds
    the increments in :data:`_ACC` order, each on a leading time axis
    or, for a jump, one tick's array broadcast to every tick).

    Each accumulator takes one ``np.add.accumulate`` over ``[acc,
    inc_a, …, inc_{b−1}]``: accumulation is strictly sequential along
    the axis, so the result is bitwise the tick loop's repeated ``+=``.
    """
    for name, inc in zip(_ACC, incs):
        if inc is None:
            continue
        acc = getattr(o, name)
        stacked = inc.ndim > acc.ndim
        step = max(1, _CHUNK // max(acc.size, 1))
        for s in range(a, b, step):
            e = min(b, s + step)
            z = np.empty((e - s + 1,) + acc.shape)
            z[0] = acc
            z[1:] = inc[s:e] if stacked else inc
            np.add.accumulate(z, axis=0, out=z)
            acc[...] = z[-1]


def _saturated(b: np.ndarray, arrivals, caps, c: int) -> np.ndarray:
    """``c`` ticks of saturated queues from backlog ``b``: one accumulate
    over ``[b, a, −cap, a, −cap, …]`` (``arrivals`` per tick, or one
    tick's for every tick).  IEEE 754 makes ``x − c`` and ``x + (−c)``
    one operation, so while a queue stays at or above its capacity each
    entry is the per-tick recurrence's float: entry ``2j`` the backlog
    before tick ``j``, entry ``2j + 1`` its queue."""
    z = np.empty((2 * c + 1,) + b.shape)
    z[0] = b
    z[1::2] = arrivals
    z[2::2] = -caps
    return np.add.accumulate(z, axis=0, out=z)


def _drift_prefix(backlog: np.ndarray, rec: _TickRecord, n: int) -> int:
    """Longest prefix, up to ``n`` ticks from ``backlog``, over which a
    probe tick's served amounts stay bit-identical.

    With arrivals, capacities and routing frozen, the only moving state
    is the backlog, whose per-tick update is ``queue = backlog +
    arrivals; served = min(queue, cap); backlog = queue − served``, and
    every other quantity of a tick stays bit-identical as long as
    ``served`` does.  ``backlog`` is what the probe tick left: no lane
    below 0, and an unsaturated one (``served < cap``) at exactly 0.
    Once the first tick matches, only a saturated lane that drains
    (``arrivals < cap``) can ever deviate — a lane fed at or above its
    capacity keeps a queue of at least ``arrivals``, and an unsaturated
    one keeps serving ``arrivals`` — so only those lanes' queues are
    followed (:func:`_saturated`), in doubling chunks: the first tick
    whose queue falls below the capacity ends the prefix.
    """
    arrivals, caps, served = rec.arrivals, rec.caps, rec.served
    first = np.minimum(backlog + arrivals, caps)
    if n < 1 or (first.view(np.int64) != served.view(np.int64)).any():
        return 0
    drain = (served == caps) & (arrivals < caps)
    if not drain.any():
        return n
    b, a, cap = backlog[drain], arrivals[drain], caps[drain]
    most = max(1, _CHUNK // (2 * b.size))
    step = 8  # doubling chunks: a regime change ends the check early
    k = 0
    while k < n:
        c = min(step, most, n - k)
        step *= 2
        z = _saturated(b, a, cap, c)
        ok = (z[1::2] >= cap).all(axis=1)
        if not ok.all():
            return k + int(ok.argmin())
        k += c
        b = z[-1]
    return k


def _drift_state(backlog: np.ndarray, rec: _TickRecord,
                 k: int) -> np.ndarray:
    """The backlog after ``k`` ticks that :func:`_drift_prefix` proved:
    saturated lanes advance by :func:`_saturated`, float for float the
    per-tick recurrence; every other lane holds its value."""
    out = backlog.copy()
    sat = rec.served == rec.caps
    if k < 1 or not sat.any():
        return out
    b, a, cap = backlog[sat], rec.arrivals[sat], rec.caps[sat]
    most = max(1, _CHUNK // (2 * b.size))
    for s in range(0, k, most):
        b = _saturated(b, a, cap, min(most, k - s))[-1]
    out[sat] = b
    return out


def _unbound(want: np.ndarray, cap: np.ndarray) -> bool:
    """Does no link budget bind in phase 3?  ``want <= cap`` on every
    lane makes the moved fraction ``f = min(cap / want, 1)`` exactly 1
    everywhere: for positive finite floats ``fl(x / y) >= 1`` iff ``x >=
    y``, an infinite budget gives ``inf``, and lanes at or below
    ``_EPS`` keep ``f = 1`` anyway."""
    return bool((want <= cap).all())


def _flow_phases(o, columns, sp: _SpeedPhase, t: float, dt: float,
                 rates: np.ndarray, scalar: bool = True) -> _TickRecord:
    """Tick phases 0 and 2–5, shared by the serial and the batch tick.

    ``o`` owns the state arrays under the executor's names, with the
    leading axes of ``sp``: ``(P, V)`` queues for one executor, ``(C,
    Pmax, Vmax)`` for a batch.  Its ``_input_idx``, ``_edge_src``,
    ``_edge_dst`` and ``_output_idx`` are row indices into the queues
    flattened to ``(rows, V)``.  A batch pads them with real rows: a
    padded input repeats its column's first input at rate 0, a padded
    edge carries no egress, so neither ever scatters.
    ``o._gain`` stacks the gain matrices.  ``rates`` holds each input's
    rate at ``t``, zero-padded.  ``columns`` maps a key of the leading
    axes (``()`` for one executor) to the column's executor, which does
    the column's scalar work: migration release, the unhosted holding
    buffers and network refresh, unless ``scalar`` is off (a time pack,
    whose window opens only when none of it is due).  Returns the tick's
    :class:`_TickRecord`.
    """
    backlog = o._backlog
    V = backlog.shape[-1]
    shares, share_sums = sp.shares, sp.share_sums

    # 2. external arrivals.  A PE with no live cores cannot absorb its
    # traffic, but the messages do not vanish: they wait in an unhosted
    # holding buffer (conceptually at the ingest broker) and re-enter
    # once capacity returns.
    n_ext = rates * dt
    pos = n_ext > 0.0
    fed = pos & sp.hosted
    ext = n_ext
    if np.count_nonzero(fed) < fed.size:
        ext = np.where(pos, n_ext, 0.0)
        for idx in zip(*np.nonzero(pos & ~sp.hosted)):
            ex = columns[idx[:-1]]
            name = ex.dataflow.inputs[idx[-1]]
            ex._unhosted[name] = ex._unhosted.get(name, 0.0) + n_ext[idx]
    o._acc_external += ext
    if rates.shape[-1] == 1:
        # One input per column: its arrivals are one product with its
        # shares laid on its row (zero on every other row, and on an
        # unhosted input), its deliverables one with the gain.
        arrivals = ext[..., np.newaxis] * sp.in_dense
        deliv = o._gain[..., 0] * rates * dt
    else:
        arrivals = np.zeros(backlog.shape)
        arrivals.reshape(-1, V)[o._input_idx[fed]] += (
            n_ext[fed][:, np.newaxis] * sp.in_shares[fed]
        )
        deliv = np.zeros(o._acc_deliverable.shape)
        for key, ex in columns.items():
            O, I = ex._gain.shape
            deliv[key][:O] = ex._gain @ rates[key][:I] * dt
    o._acc_deliverable += deliv

    # Per column: 0. release due migrations into their PE's queues (any
    # time before phase 4 will do), drain the holding buffers of inputs
    # that regained capacity, and 3. refresh the network budgets.
    for key, ex in (columns.items() if scalar else ()):
        if ex._migrating:
            due = [m for m in ex._migrating if m.available_at <= t]
            if due:
                ex._migrating = [
                    m for m in ex._migrating if m.available_at > t
                ]
                for m in due:
                    ex._deposit(m.pe, m.messages, t)
        if ex._unhosted:
            for name, pending in list(ex._unhosted.items()):
                i = key + (ex._pe_index[name],)
                if share_sums[i] > _EPS and pending > _EPS:
                    arrivals[i] += pending * shares[i]
                    del ex._unhosted[name]
        if t >= ex._next_net_refresh:
            ex._refresh_network(t, shares[key])
            ex._next_net_refresh = t + ex.network_refresh

    # 3. edge transfers, all edges at once: source VM i routes its egress
    # proportionally to the destination shares; the fraction s_i stays
    # on-VM (free), the remainder crosses the network under i's link
    # budget, scaled by f_i ∈ [0, 1].  Destination j then receives
    # arrivals_j = s_j (Σ_i f_i eg_i + eg_j (1 − f_j)).
    eg = o._egress
    if eg.size:
        eg_sum = _seqsum(eg)
        active = (eg_sum > _EPS) & sp.dst_live
        n_active = np.count_nonzero(active)
        if n_active:
            remote_want = eg * sp.dst_rest
            cap = o._remote_budget * dt
            if _unbound(remote_want, cap):
                # f = 1 on every lane: the whole egress moves.
                contrib = sp.dst_shares * eg_sum[..., np.newaxis]
                left = 0.0
            else:
                # Masked divide: lanes below the epsilon keep f = 1 and
                # are never computed, so no errstate guard is needed.
                f = np.ones_like(eg)
                np.divide(cap, remote_want, out=f, where=remote_want > _EPS)
                np.minimum(f, 1.0, out=f)
                kept = 1.0 - f
                moved_pool = _seqsum(f * eg)
                contrib = sp.dst_shares * (
                    moved_pool[..., np.newaxis] + eg * kept
                )
                left = remote_want * kept
            rows = arrivals.reshape(-1, V)
            if n_active == active.size:
                np.add.at(rows, o._edge_dst, contrib)
                eg[...] = left
            else:
                np.add.at(rows, o._edge_dst[active], contrib[active])
                np.copyto(eg, left, where=active[..., np.newaxis])

    # 4. processing.
    queue = backlog + arrivals
    served = np.minimum(queue, sp.cap_msgs)
    np.subtract(queue, served, out=backlog)
    arr_inc = _seqsum(arrivals)
    proc_inc = _seqsum(served)
    o._acc_arrivals += arr_inc
    o._acc_processed += proc_inc

    # 5. emission.
    out = (served * o._selectivity).reshape(-1, V)
    del_inc = _seqsum(out[o._output_idx])
    o._acc_delivered += del_inc
    if eg.size:
        flow = out[o._edge_src] * o._edge_factors
        grown = _seqsum(flow) > _EPS
        n_grown = np.count_nonzero(grown)
        if n_grown == grown.size:
            eg += flow
        elif n_grown:
            eg[grown] += flow[grown]
    return _TickRecord(deliv, ext, arr_inc, proc_inc, del_inc,
                       arrivals, sp.cap_msgs, served)


class _SpeedView:
    """Phase 1's outputs broadcast along a new leading time axis."""

    __slots__ = ("cap_msgs", "shares", "share_sums", "dst_shares",
                 "dst_live", "dst_rest", "hosted", "in_shares", "in_dense")

    def __init__(self, sp: _SpeedPhase, k: int) -> None:
        for name in self.__slots__:
            a = getattr(sp, name)
            setattr(self, name, np.broadcast_to(a, (k,) + a.shape))


class _TimePack:
    """``k`` grid points of an owner stacked on a new leading time axis.

    A window is a batch over time: slice ``j`` of every array is the
    owner's state at grid point ``j``, under the field names
    :func:`_flow_phases` reads.  Queues and accumulators gain the time
    axis, row indices are offset by ``j`` times the owner's row count,
    and the network budget, selectivities, gain and edge factors
    broadcast.  ``columns`` keys gain the slice in front, so the
    multi-input branch computes each slice's deliverables with the
    column's own ``gain @ rates``; a pass skips the columns' scalar
    work, of which a window has none (see :meth:`FluidExecutor._window`).
    Written over the owner's leading axes: the serial executor's ``()``
    or a batch pack's ``(C,)``.
    """

    __slots__ = ("k", "columns", "sp", "_backlog", "_egress",
                 "_remote_budget", "_selectivity", "_gain",
                 "_edge_factors", "_input_idx", "_edge_src", "_edge_dst",
                 "_output_idx") + _ACC

    def __init__(self, o, columns: dict, sp: _SpeedPhase, k: int) -> None:
        self.k = k
        self.columns = {
            (j,) + key: ex for j in range(k) for key, ex in columns.items()
        }
        self.sp = _SpeedView(sp, k)
        shape = o._backlog.shape
        off = np.arange(k) * int(np.prod(shape[:-1]))
        for name in ("_input_idx", "_edge_src", "_edge_dst", "_output_idx"):
            idx = getattr(o, name)
            setattr(self, name, off.reshape((k,) + (1,) * idx.ndim) + idx)
        self._remote_budget = o._remote_budget
        self._selectivity = o._selectivity
        self._gain = o._gain
        self._edge_factors = o._edge_factors

    def run(self, o, backlog, egress, t: float, dt: float,
            rates: np.ndarray) -> _TickRecord:
        """One pass: every slice's tick from its input state (left
        untouched); the outputs land in ``_backlog`` / ``_egress``."""
        self._backlog = backlog.copy()
        self._egress = egress.copy()
        for name in _ACC:
            setattr(self, name, np.zeros((self.k,) + getattr(o, name).shape))
        return _flow_phases(self, self.columns, self.sp, t, dt, rates,
                            scalar=False)


def _window_pass(o, columns: dict, sp: _SpeedPhase, grid: np.ndarray,
                 rates: np.ndarray, dt: float, passes: int):
    """Speculate a window over ``grid`` from ``o``'s state, then verify it.

    Tick 0 takes the true state, tick ``j > 0`` a guess; each pass runs
    every tick at once through :func:`_flow_phases` (a
    :class:`_TimePack`) and re-guesses from its outputs — egress shifted
    by one tick; a lane saturated at every tick so far follows
    :func:`_saturated` over the pass's arrivals, and any other lane the
    previous tick's output (0 for a lane that served its whole queue).  Passes repeat until every
    tick's outputs equal the next tick's inputs byte for byte, at most
    ``passes`` times.  Returns ``(m, record, backlog, egress)``: the
    longest prefix of ``m`` ticks whose outputs feed the next tick's
    inputs exactly, the last pass's stacked record, and the state after
    each tick.  By induction from tick 0 the prefix is exactly the
    per-tick run, whatever the guess; a wrong guess only shortens it.
    """
    k = len(grid)
    tp = _TimePack(o, columns, sp, k)
    b0, e0 = o._backlog, o._egress
    b_in = np.broadcast_to(b0, (k,) + b0.shape).copy()
    e_in = np.broadcast_to(e0, (k,) + e0.shape).copy()
    t = float(grid[0])
    for r in range(passes):
        rec = tp.run(o, b_in, e_in, t, dt, rates)
        b_out, e_out = tp._backlog, tp._egress
        bad = _differs(b_out[:-1], b_in[1:]) | _differs(e_out[:-1], e_in[1:])
        if r == passes - 1 or not bad.any():
            break
        b_in = np.concatenate((b0[np.newaxis], b_out[:-1]))
        e_in = np.concatenate((e0[np.newaxis], e_out[:-1]))
        sat = np.logical_and.accumulate(rec.served[:-1] == sp.cap_msgs)
        if sat.any():
            z = _saturated(b0, rec.arrivals[:-1], sp.cap_msgs, k - 1)
            np.copyto(b_in[1:], z[2::2], where=sat)
    m = int(bad.argmax()) + 1 if bad.any() else k
    return m, rec, b_out, e_out


class _Run:
    """``n`` ticks proved ahead of the clock, committed lazily.

    A window keeps its stacked record's increments and the state after
    each tick; a jump is a window whose increments are the probe tick's,
    broadcast to every tick, and whose backlog, when it drifts, follows
    :func:`_drift_state` from the committed state.  :meth:`commit`
    replays ticks ``a..b−1`` into an owner (an executor or a batch
    pack) through :func:`_replay`.
    """

    __slots__ = ("n", "incs", "backlog", "egress", "drift")

    def __init__(self, n: int, incs: tuple, backlog=None, egress=None,
                 drift: Optional[_TickRecord] = None) -> None:
        self.n = n
        self.incs = incs
        self.backlog = backlog
        self.egress = egress
        self.drift = drift

    def commit(self, o, a: int, b: int) -> None:
        _replay(o, self.incs, a, b)
        if self.backlog is not None:
            o._backlog[...] = self.backlog[b - 1]
            o._egress[...] = self.egress[b - 1]
        elif self.drift is not None:
            o._backlog[...] = _drift_state(o._backlog, self.drift, b - a)


def _gate_cap(columns, t: float, tick: float) -> Optional[float]:
    """The macro gate of both engines: the earliest change cap
    (:meth:`FluidExecutor._macro_change_cap`) over the column executors
    at ``t``, or ``None`` when no skipped tick fits before it.  A column
    that can prove no constant stretch at all backs the gate off for
    ``_MACRO_BACKOFF`` ticks, and the gate stays shut while any column
    backs off."""
    for ex in columns:
        if t < ex._macro_backoff_until:
            return None
    cap = math.inf
    for ex in columns:
        c = ex._macro_change_cap(t)
        if c is None:
            ex._macro_backoff_until = t + _MACRO_BACKOFF * tick
            return None
        cap = min(cap, c)
    return cap if cap > t + tick else None


def _image(o, columns) -> tuple:
    """The fluid state a probe tick must leave bitwise unchanged: ``o``'s
    egress and each column's holding buffers and migrations.  The input
    backlogs may move; :func:`_jump` sizes them as a drift."""
    return (o._egress.tobytes(),
            [(dict(ex._unhosted), list(ex._migrating)) for ex in columns])


def _jump(o, columns, image: tuple, rec: Optional[_TickRecord],
          grid: np.ndarray, cap: float) -> Optional[_Run]:
    """The jump a probe tick proves, in both engines: ``None`` unless the
    tick left ``o``'s :func:`_image` unchanged, else the :class:`_Run`
    of the probe's record ``rec`` over the leading points of ``grid``
    that fall before the gate's ``cap``.

    Every stationary probe is sized as a drift (a fixed point is a drift
    of zero): :func:`_drift_prefix` truncates the jump at the first tick
    whose served amounts would differ.  A record without served amounts
    (a tick with nothing deployed) needs no such check, and a batch whose
    cells all have zero VMs (``rec`` is ``None``) replays nothing into
    ``o``.
    """
    if _image(o, columns) != image:
        return None
    n = _prefix(grid < cap)
    drift = rec if rec is not None and rec.served is not None else None
    if drift is not None:
        n = _drift_prefix(o._backlog, drift, n)
    if n < 1:
        return None
    return _Run(n, () if rec is None else rec.increments(), drift=drift)


class _MigratingBuffer:
    """Messages in flight between VMs during a buffer migration."""

    __slots__ = ("pe", "messages", "available_at")

    def __init__(self, pe: str, messages: float, available_at: float) -> None:
        self.pe = pe
        self.messages = messages
        self.available_at = available_at


class _LinkPlan:
    """What a network refresh prices, fixed by the placement: built on
    the first refresh after a fleet rebuild (``sync`` drops it).

    ``edges`` lists every edge whose endpoints are both hosted as ``(k,
    iw, src, dst)``: its row, its destination PE, its source VMs and its
    destination VMs, evenly subsampled when the edge spans more than
    ``network_pair_cap`` VM pairs.  For the one-pass pricing, ``pe`` and
    ``dst`` hold each edge's destination shares' index, left-aligned
    and padded to the widest edge, ``mask`` flags the real entries, and
    each row of the ``(R, D)`` arrays is one (edge, source VM) lane: its
    edge ``edge``, its budget entry ``(k, src)``, its bandwidth entries
    ``(a, b)`` in the ``keys_a × keys_b`` matrix (the VMs that are some
    edge's source by those that are some edge's destination), its rated
    cap (the slower NIC) and ``skip``: padding, and a VM's link to
    itself.
    """

    __slots__ = ("edges", "pe", "dst", "mask", "edge", "k", "src",
                 "keys_a", "keys_b", "a", "b", "rated", "skip")

    def __init__(self, ex: "FluidExecutor") -> None:
        self.edges = []
        cap = ex.network_pair_cap
        hosted = ex._alloc > 0
        hosts = [np.flatnonzero(row) for row in hosted]
        for k, (u, w) in enumerate(ex._edges):
            iw = ex._pe_index[w]
            src, dst = hosts[ex._pe_index[u]], hosts[iw]
            if src.size == 0 or dst.size == 0:
                continue
            if src.size * dst.size > cap:
                # Subsample destinations deterministically (evenly
                # spaced).
                keep = max(1, cap // src.size)
                dst = dst[::max(1, dst.size // keep)]
            self.edges.append((k, iw, src, dst))
        if not self.edges:
            return
        ks, pes, srcs, dsts = zip(*self.edges)
        sizes = [src.size for src in srcs]
        self.pe = np.array(pes)[:, np.newaxis]
        self.dst = np.zeros((len(dsts), max(d.size for d in dsts)),
                            dtype=np.intp)
        self.mask = np.zeros(self.dst.shape, dtype=bool)
        for e, d in enumerate(dsts):
            self.dst[e, :d.size] = d
            self.mask[e, :d.size] = True
        self.edge = np.repeat(np.arange(len(dsts)), sizes)
        self.k = np.repeat(ks, sizes)
        self.src = np.concatenate(srcs)
        dst = self.dst[self.edge]
        # Bandwidth matrix rows: the VMs some edge prices from, in VM
        # order; columns: those some edge prices to.
        is_a = np.zeros(hosted.shape[1], dtype=bool)
        is_a[self.src] = True
        is_b = np.zeros(hosted.shape[1], dtype=bool)
        is_b[self.dst[self.mask]] = True
        self.keys_a = tuple(ex._vms[j].trace_key
                            for j in np.flatnonzero(is_a).tolist())
        self.keys_b = tuple(ex._vms[j].trace_key
                            for j in np.flatnonzero(is_b).tolist())
        self.a = (np.cumsum(is_a) - 1)[self.src][:, np.newaxis]
        self.b = (np.cumsum(is_b) - 1)[dst]
        self.rated = np.minimum(ex._rated_bw[self.src][:, np.newaxis],
                                ex._rated_bw[dst])
        self.skip = (self.src[:, np.newaxis] == dst) | ~self.mask[self.edge]


class FluidExecutor:
    """Runs one dynamic dataflow over a provider's fleet.

    Parameters
    ----------
    env:
        Simulation environment (drives the tick process).
    dataflow:
        The application.
    provider:
        The cloud provider owning VMs and performance models.
    profiles:
        Input rate profile per input PE.
    selection:
        Initial active alternate per PE.
    tick:
        Fluid step in seconds.
    message_size_mb:
        Message payload size (paper: ~100 KB → 0.1 MB).
    network_refresh:
        Seconds between re-sampling of pairwise link budgets.
    network_pair_cap:
        When a PE edge spans more VM pairs than this, link bandwidth is
        estimated from a deterministic subsample (documented
        approximation; keeps large fleets O(cap) per refresh).  The same
        cap bounds how many source links are priced individually when a
        buffer migration drains many hosts at once.
    macrostep:
        Enable steady-state macro-stepping and window ticks (see the
        module docstring).  ``None`` (default) follows the
        ``REPRO_MACROSTEP`` environment flag, which is on unless set to
        ``0``.
    checkpoint_interval:
        Seconds between periodic checkpoints of every hosted PE's input
        backlog (``None`` disables checkpointing).  When a VM crashes,
        backlog up to its last checkpoint is *restored* instead of lost,
        re-entering the dataflow after ``restore_latency``.
    restore_latency:
        Seconds a recovered PE's restored backlog waits before it is
        processable again (state re-load/replay cost).
    """

    def __init__(
        self,
        env: Environment,
        dataflow: DynamicDataflow,
        provider: CloudProvider,
        profiles: Mapping[str, RateProfile],
        selection: Mapping[str, str],
        tick: float = 1.0,
        message_size_mb: float = 0.1,
        network_refresh: float = 60.0,
        network_pair_cap: int = 256,
        macrostep: Optional[bool] = None,
        checkpoint_interval: Optional[float] = None,
        restore_latency: float = 0.0,
    ) -> None:
        missing = set(dataflow.inputs) - set(profiles)
        if missing:
            raise ValueError(f"missing rate profiles for inputs: {sorted(missing)}")
        if tick <= 0:
            raise ValueError("tick must be positive")
        _reject_synchronize_merges(dataflow)
        if message_size_mb <= 0:
            raise ValueError("message size must be positive")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive (or None)")
        if restore_latency < 0:
            raise ValueError("restore_latency must be ≥ 0")
        self.env = env
        self.dataflow = dataflow
        self.provider = provider
        #: Owning tenant when running against a TenantProvider view
        #: (None defers trace attribution to the collector's ambient tenant).
        self._tenant_id = getattr(provider, "tenant_id", None)
        self.profiles = dict(profiles)
        self.tick = float(tick)
        self.message_size_mb = float(message_size_mb)
        self.network_refresh = float(network_refresh)
        self.network_pair_cap = int(network_pair_cap)
        self.checkpoint_interval = (
            None if checkpoint_interval is None else float(checkpoint_interval)
        )
        self.restore_latency = float(restore_latency)
        #: instance_id → {pe: backlog at the last checkpoint sweep}.
        self._ckpt: dict[str, dict[str, float]] = {}
        self._next_ckpt = (
            math.inf
            if self.checkpoint_interval is None
            else env.now + self.checkpoint_interval
        )

        self._pe_names = list(dataflow.pe_names)
        self._pe_index = {n: i for i, n in enumerate(self._pe_names)}
        self._edges = [(e.source, e.sink) for e in dataflow.edges]
        E = len(self._edges)
        self._edge_src = np.array(
            [self._pe_index[u] for u, _w in self._edges], dtype=np.intp
        )
        self._edge_dst = np.array(
            [self._pe_index[w] for _u, w in self._edges], dtype=np.intp
        )
        #: Edge rows terminating at each PE (static graph structure).
        self._dst_rows = [
            np.flatnonzero(self._edge_dst == i)
            for i in range(len(self._pe_names))
        ]
        # Split factor per edge: 1 for and-split, 1/k otherwise (a
        # structural property of the graph, independent of the selection).
        # Kept as an (E, 1) column, broadcast over the VM axis.
        factors = []
        for u, _w in self._edges:
            k = len(dataflow.successors(u))
            if dataflow.split_pattern(u) is SplitPattern.AND_SPLIT:
                factors.append(1.0)
            else:
                factors.append(1.0 / k)
        self._edge_factors = np.array(factors)[:, np.newaxis]
        self._input_idx = np.array(
            [self._pe_index[n] for n in dataflow.inputs], dtype=np.intp
        )
        self._output_idx = np.array(
            [self._pe_index[n] for n in dataflow.outputs], dtype=np.intp
        )

        self.selection: dict[str, str] = dict(selection)
        dataflow.validate_selection(self.selection)

        # VM-indexed arrays (rebuilt by sync()).
        self._vms: list[VMInstance] = []
        self._vm_index: dict[str, int] = {}
        P = len(self._pe_names)
        self._alloc = np.zeros((P, 0))
        self._backlog = np.zeros((P, 0))
        self._core_speed = np.zeros(0)
        self._ready_time = np.zeros(0)
        self._cpu_views: list[Optional[tuple[np.ndarray, int, float]]] = []
        self._coef_group: Optional[_CoefGroup] = None
        self._coef_scalar_idx: list[int] = []
        #: Tick phase 1 over the current fleet and selection; dropped by
        #: sync() and by an alternate switch, rebuilt by the next tick.
        self._speed: Optional[_SpeedPhase] = None
        #: Per-edge egress buffers, shape (E, V).
        self._egress = np.zeros((E, 0))
        #: Per-edge remote-transfer budgets, shape (E, V); ``inf`` means
        #: unconstrained (no measured budget for that source VM).
        self._remote_budget = np.zeros((E, 0))
        self._migrating: list[_MigratingBuffer] = []
        #: Messages waiting for a PE that currently has no cores at all.
        self._unhosted: dict[str, float] = {}
        self._next_net_refresh = -np.inf
        #: Placement signature of the last full sync() rebuild.
        self._sync_sig: Optional[tuple] = None
        #: What a network refresh prices (see _refresh_network);
        #: placement-derived, rebuilt lazily after each fleet change.
        self._net_plan: Optional[_LinkPlan] = None

        #: gain-matrix memo per selection key (the adaptation loop flips
        #: between a handful of selections every alternate stage).
        self._gain_cache: dict[tuple[str, ...], np.ndarray] = {}
        self._set_selection_arrays()
        self.stats = IntervalStats(start=env.now, end=env.now)
        self._reset_accumulators()
        self._started = False
        self._process: Optional[Process] = None

        #: Macro-stepping switch and counters (see module docstring).
        self.macro_enabled = (
            _macro_default() if macrostep is None else bool(macrostep)
        )
        self.macro_jumps = 0
        self.macro_ticks_skipped = 0
        self.ticks_executed = 0
        #: Pending jump or window: [run, wake_event, grid, committed].
        self._macro_pending: Optional[list] = None
        #: The last tick's record: the probe a jump replays.
        self._macro_record: Optional[_TickRecord] = None
        self._macro_resume_at: Optional[float] = None
        self._macro_coef_ok = True
        self._macro_coef_res: list[float] = []
        #: Gate backoff: when no constant window can be proven at all (a
        #: continuously-varying profile, an opaque performance model) the
        #: situation is almost always permanent, so the gate sleeps for
        #: ``_MACRO_BACKOFF`` ticks instead of re-proving the impossibility
        #: every tick.  Purely an overhead bound — jumps are best-effort.
        self._macro_backoff_until = -math.inf
        #: Windows armed, and the window gate's own backoff.
        self.windows = 0
        self._window_backoff_until = -math.inf
        #: The one column of the shared tick phases (see _flow_phases).
        self._columns = {(): self}

    # -- configuration -------------------------------------------------------------

    def set_selection(self, selection: Mapping[str, str]) -> None:
        """Switch active alternates (backlogs survive; PEs are stateless)."""
        self._macro_settle(self.env.now, mutating=True)
        self.dataflow.validate_selection(selection)
        old = self.selection
        self.selection = dict(selection)
        # The derived arrays are a pure function of the selection; skip the
        # rebuild when nothing changed (common in steady state).
        if self.selection != old:
            self._set_selection_arrays()
        if _trace.enabled():
            switches = [
                {"pe": n, "from": old[n], "to": new}
                for n, new in self.selection.items()
                if old.get(n) != new
            ]
            if switches:
                _trace.emit(
                    "alternate_switched",
                    t=self.env.now,
                    tenant_id=self._tenant_id,
                    switches=switches,
                )
        if _validate.enabled():
            _validate.checker().note_selection_change(self)

    def _set_selection_arrays(self) -> None:
        df = self.dataflow
        # (P, 1) columns, broadcast over the VM axis.
        self._cost = np.array(
            [
                df.active_alternate(self.selection, n).cost
                for n in self._pe_names
            ]
        )[:, np.newaxis]
        self._selectivity = np.array(
            [
                df.active_alternate(self.selection, n).selectivity
                for n in self._pe_names
            ]
        )[:, np.newaxis]
        self._speed = None
        # Linear gain from each input PE's rate to each output PE's ideal
        # output rate (deliverable accounting is then one dot product).
        key = tuple(self.selection[n] for n in self._pe_names)
        gain = self._gain_cache.get(key)
        if gain is None:
            gain = self._ideal_gain_matrix()
            self._gain_cache[key] = gain
        self._gain = gain

    def _ideal_gain_matrix(self) -> np.ndarray:
        """gain[o, i]: ideal output msgs at output ``o`` per input msg at
        input ``i`` under the current selection."""
        df = self.dataflow
        gain = np.zeros((len(df.outputs), len(df.inputs)))
        for col, inp in enumerate(df.inputs):
            probe = {n: (1.0 if n == inp else 0.0) for n in df.inputs}
            rates = df.ideal_rates(self.selection, probe)
            for row, out in enumerate(df.outputs):
                gain[row, col] = rates[out][1]
        return gain

    def sync(self, now: Optional[float] = None) -> None:
        """Rebuild VM-indexed state from the provider's current fleet.

        Call after applying a deployment plan.  Backlogs and egress
        buffers carry over by instance id; buffers on removed hosts are
        migrated (with network delay) to the remaining hosts of their PE.
        """
        t = self.env.now if now is None else now
        self._macro_settle(t, mutating=True)
        self._speed = None
        old_vms = self._vms
        old_backlog = self._backlog
        old_egress = self._egress

        vms = [r for r in self.provider.active_instances() if r.used_cores > 0]
        sig = tuple(
            (r.instance_id, tuple(sorted(r.allocations.items()))) for r in vms
        )
        if sig == self._sync_sig:
            # Placement unchanged: the rebuild below would reproduce every
            # array bit-for-bit, except that carrying buffers over drops
            # sub-epsilon residue.  Apply just that in place (keeping any
            # aliased views valid) and re-probe the links.
            if self._backlog.size:
                self._backlog[self._backlog <= _EPS] = 0.0
            if self._egress.size:
                self._egress[self._egress <= _EPS] = 0.0
            self._remote_budget.fill(np.inf)
            self._next_net_refresh = -np.inf
            return
        self._vms = vms
        self._vm_index = {r.instance_id: j for j, r in enumerate(vms)}
        P, V = len(self._pe_names), len(vms)
        E = len(self._edges)

        self._alloc = np.zeros((P, V))
        for j, r in enumerate(vms):
            for pe_name, cores in r.allocations.items():
                if pe_name not in self._pe_index:
                    raise ValueError(
                        f"VM {r.instance_id} hosts unknown PE {pe_name!r}"
                    )
                self._alloc[self._pe_index[pe_name], j] = cores
        self._core_speed = np.array([r.vm_class.core_speed for r in vms])
        self._rated_bw = np.array([r.vm_class.bandwidth_mbps for r in vms])
        self._ready_time = np.array([self.provider.ready_at(r) for r in vms])
        self._cpu_views = [self._cpu_view(r) for r in vms]
        self._build_coefficient_gather()

        # Carry state over, collecting orphans (and the hosts they drain
        # from, with per-host amounts, to price the migration transfer).
        new_backlog = np.zeros((P, V))
        orphans: dict[str, float] = {}
        orphan_sources: dict[str, list[tuple[VMInstance, float]]] = {}

        def _orphan(pe_name: str, amount: float, source: VMInstance) -> None:
            orphans[pe_name] = orphans.get(pe_name, 0.0) + amount
            orphan_sources.setdefault(pe_name, []).append((source, amount))

        for i, pe_name in enumerate(self._pe_names):
            for old_j, r in enumerate(old_vms):
                amount = old_backlog[i, old_j] if old_backlog.size else 0.0
                if amount <= _EPS:
                    continue
                new_j = self._vm_index.get(r.instance_id)
                if new_j is not None and self._alloc[i, new_j] > 0:
                    new_backlog[i, new_j] += amount
                else:
                    _orphan(pe_name, amount, r)

        new_egress = np.zeros((E, V))
        if old_egress.size:
            for k, (_u, w) in enumerate(self._edges):
                for old_j, r in enumerate(old_vms):
                    amount = old_egress[k, old_j]
                    if amount <= _EPS:
                        continue
                    new_j = self._vm_index.get(r.instance_id)
                    if new_j is not None:
                        new_egress[k, new_j] += amount
                    else:
                        # The producing VM is gone: hand the messages to
                        # the destination PE via migration.
                        _orphan(w, amount, r)

        self._backlog = new_backlog
        self._egress = new_egress
        self._remote_budget = np.full((E, V), np.inf)

        for pe_name, amount in orphans.items():
            self._migrate(pe_name, amount, t, sources=orphan_sources.get(pe_name))

        self._next_net_refresh = -np.inf  # placement changed: re-probe links
        self._net_plan = None
        self._sync_sig = sig

    def fail_vm(
        self, instance_id: str
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Destroy a crashed VM's buffered state, restoring checkpoints.

        Call *before* :meth:`sync` when a VM crashes.  Input backlog up
        to the VM's last checkpoint re-enters the dataflow after
        :attr:`restore_latency` (via the migration buffer, so it lands on
        the PE's surviving hosts); everything accumulated since the
        checkpoint — and all pending egress, which is never checkpointed
        — is lost.  Returns ``(lost, restored)`` message counts per PE;
        losses are also recorded in the interval stats.
        """
        now = self.env.now
        self._macro_settle(now, mutating=True)
        j = self._vm_index.get(instance_id)
        lost: dict[str, float] = {}
        restored: dict[str, float] = {}
        if j is None:
            return lost, restored
        ckpt = self._ckpt.pop(instance_id, {})
        for i, pe_name in enumerate(self._pe_names):
            amount = float(self._backlog[i, j]) if self._backlog.size else 0.0
            if amount <= _EPS:
                continue
            # A checkpoint can only restore what the queue actually held
            # at sweep time; backlog may have drained since, so clamp to
            # the current amount (never create messages).
            recovered = min(ckpt.get(pe_name, 0.0), amount)
            dropped = amount - recovered
            if dropped > _EPS:
                lost[pe_name] = lost.get(pe_name, 0.0) + dropped
            if recovered > _EPS:
                restored[pe_name] = restored.get(pe_name, 0.0) + recovered
                self._migrating.append(
                    _MigratingBuffer(
                        pe_name, recovered, now + self.restore_latency
                    )
                )
            self._backlog[i, j] = 0.0
        if self._egress.size:
            for k, (_u, w) in enumerate(self._edges):
                amount = float(self._egress[k, j])
                if amount > _EPS:
                    lost[w] = lost.get(w, 0.0) + amount
                    self._egress[k, j] = 0.0
        for pe_name, amount in lost.items():
            self.stats.lost[pe_name] = (
                self.stats.lost.get(pe_name, 0.0) + amount
            )
        return lost, restored

    def _take_checkpoints(self, t: float) -> None:
        """Sweep a checkpoint of every hosted PE's per-VM input backlog.

        Rebuilt wholesale each sweep, which also prunes entries of VMs
        that left the fleet; a VM provisioned after the last sweep has no
        checkpoint yet, so an early crash loses its full backlog — the
        cost the checkpoint interval knob trades against sweep overhead.
        """
        ckpt: dict[str, dict[str, float]] = {}
        if self._backlog.size:
            for j, r in enumerate(self._vms):
                held = {
                    pe_name: float(self._backlog[i, j])
                    for i, pe_name in enumerate(self._pe_names)
                    if self._backlog[i, j] > _EPS
                }
                if held:
                    ckpt[r.instance_id] = held
        self._ckpt = ckpt

    def _cpu_view(
        self, vm: VMInstance
    ) -> Optional[tuple[np.ndarray, int, float]]:
        viewer = getattr(self.provider.performance, "cpu_series_view", None)
        if viewer is None:
            return None
        return viewer(vm.trace_key)

    def _build_coefficient_gather(self) -> None:
        """Stack homogeneous CPU-trace views for a one-shot per-tick gather.

        Views sharing the same resolution and length (the common case: all
        series come from one :class:`~repro.cloud.traces.TraceLibrary`)
        are stacked into a ``(K, L)`` matrix indexed per tick with a
        single fancy-indexing operation.  VMs without a view — or with a
        non-conforming one — fall back to per-VM model calls.
        """
        groups: dict[tuple[int, float], list[int]] = {}
        self._coef_scalar_idx = []
        for j, view in enumerate(self._cpu_views):
            if view is None:
                self._coef_scalar_idx.append(j)
            else:
                series, _offset, res = view
                groups.setdefault((series.shape[0], float(res)), []).append(j)

        self._coef_group = None
        if groups:
            # Largest homogeneous group gets the stacked gather; any
            # stragglers (mixed-resolution custom models) stay scalar.
            (L, res), idx = max(groups.items(), key=lambda kv: len(kv[1]))
            for key, other in groups.items():
                if key != (L, res):
                    self._coef_scalar_idx.extend(other)
            views = [self._cpu_views[j] for j in idx]
            self._coef_group = _CoefGroup.of(
                [v[0] for v in views],
                np.array([v[1] for v in views], dtype=np.intp),
                np.array(idx, dtype=np.intp),
                res,
            )
        self._coef_scalar_idx.sort()

        # Macro-stepping metadata: a VM without a series view has an
        # opaque, possibly continuously-varying coefficient (no jump can
        # be proven safe); a multi-sample series changes only at its
        # resolution boundaries; a 1-sample series never changes.
        ok = True
        varying: set[float] = set()
        for view in self._cpu_views:
            if view is None:
                ok = False
                break
            series, _offset, res = view
            if series.shape[0] > 1:
                varying.add(float(res))
        self._macro_coef_ok = ok
        self._macro_coef_res = sorted(varying)

    def _migrate(
        self,
        pe_name: str,
        messages: float,
        t: float,
        sources: Optional[Sequence[tuple[VMInstance, float]]] = None,
    ) -> None:
        """Queue migrated messages, delayed by the network transfer time.

        ``sources`` are ``(vm, amount)`` pairs — the released hosts the
        messages drain from and how much buffered state each one held.
        Each source's transfer is priced on *its own* monitored link to
        the target, with the delay scaling with the bytes it moves
        (``amount × message size / bandwidth``), so a host buried in
        backlog takes proportionally longer to drain than an idle one.
        Only the first ``network_pair_cap`` sources get individual link
        probes; any overflow ships at the slowest priced delay (a
        conservative bound that keeps huge fleets O(cap) per migration).
        Without sources (e.g. an externally injected transfer) the whole
        amount is priced against the fleet's slowest link to the target,
        same cap.
        """
        if messages <= _EPS:
            return
        hosts = [r for r in self._vms if r.cores_for(pe_name) > 0]
        if not hosts:
            # PE momentarily has no host (should not happen under the
            # heuristics' one-core floor); retry shortly.
            self._migrating.append(
                _MigratingBuffer(pe_name, messages, t + self.tick)
            )
            return
        target = hosts[0]
        bandwidth_mbps = self.provider.performance.bandwidth_mbps
        per_msg_mbit = self.message_size_mb * 8.0
        if sources:
            pairs = [(r, amt) for r, amt in sources if amt > _EPS]
            priced, overflow = (
                pairs[: self.network_pair_cap],
                pairs[self.network_pair_cap :],
            )
            worst = 0.0
            for r, amt in priced:
                if r is target:
                    delay = 0.0  # buffers already on the surviving host
                else:
                    bw = bandwidth_mbps(r.trace_key, target.trace_key, t)
                    if bw == float("inf") or bw <= 0:
                        delay = 0.0
                    else:
                        delay = amt * per_msg_mbit / bw
                if delay > worst:
                    worst = delay
                self._migrating.append(
                    _MigratingBuffer(pe_name, amt, t + delay)
                )
            if overflow:
                rest = 0.0
                for _r, amt in overflow:
                    rest += amt
                self._migrating.append(
                    _MigratingBuffer(pe_name, rest, t + worst)
                )
            return
        scan = [r for r in self._vms if r is not target][: self.network_pair_cap]
        bandwidth = min(
            (bandwidth_mbps(r.trace_key, target.trace_key, t) for r in scan),
            default=float("inf"),
        )
        if bandwidth == float("inf") or bandwidth <= 0:
            delay = 0.0
        else:
            delay = messages * per_msg_mbit / bandwidth
        self._migrating.append(
            _MigratingBuffer(pe_name, messages, t + delay)
        )

    # -- run ------------------------------------------------------------------------

    def start(self) -> None:
        """Start the tick process (idempotent)."""
        if self._started:
            return
        self._started = True
        if _validate.enabled():
            _validate.checker().register_executor(self)
        self._process = self.env.process(self._run(), name="fluid-executor")

    def _run(self):
        env = self.env
        cols = (self,)
        while True:
            tick = self.tick
            t = env.now
            macro = self.macro_enabled
            cap = image = None
            # The kernel is read only while a jump or a window can still
            # be armed: before the tick unless the jump gate backs off,
            # else after it, once the window gate's own refusals passed
            # (the tick schedules no kernel event, so both reads agree).
            peeked = macro and t >= self._macro_backoff_until
            room = self._room(t) if peeked else None
            if room is not None:
                cap = _gate_cap(cols, t, tick)
                if cap is not None:
                    image = _image(self, cols)
            if perf.enabled():
                with perf.timer("engine.step"):
                    self.step(tick)
                perf.add("engine.ticks")
            else:
                self.step(tick)
            self.ticks_executed += 1
            if _validate.enabled():
                _validate.checker().after_tick(self)
            wake = None
            if image is not None:
                wake = self._macro_jump(t, cap, image, *room)
            if wake is None and macro and self._window_may_open(t):
                if not peeked:
                    room = self._room(t)
                if room is not None:
                    wake = self._window(t, *room)
            if wake is not None:
                try:
                    yield wake
                except Interrupt:
                    # A mutation truncated the jump or window: the stale
                    # wake-up was cancelled; realign onto the tick grid
                    # and resume stepping for real.
                    g = self._macro_resume_at
                    self._macro_resume_at = None
                    if g is not None and g > env.now:
                        yield env.event_at(g)
                    continue
                self._macro_wake_settle()
                continue
            yield env.timeout(tick)

    def _room(self, t: float) -> Optional[tuple[float, float]]:
        """``(peek, horizon)`` when a jump or window fits after the tick
        at ``t``, else ``None``.

        The executor's own event has already popped: ``env.peek()`` sees
        only foreign events.  A jump or window wakes strictly before it
        and at or before the run horizon, so foreign processes never act
        mid-jump; the smallest one wakes at ~t + 2*tick.
        """
        env = self.env
        peek, horizon = env.peek(), env.run_horizon
        least = t + 2.0 * self.tick
        return (peek, horizon) if peek > least and horizon >= least else None

    # -- macro-stepping ----------------------------------------------------------------

    @property
    def macro_jump_ratio(self) -> float:
        """Fraction of tick-grid points covered by jumps and windows
        instead of steps."""
        total = self.ticks_executed + self.macro_ticks_skipped
        return self.macro_ticks_skipped / total if total else 0.0

    def _wake_grid(self, t: float, n: int, peek: float,
                   horizon: float) -> np.ndarray:
        """The grid points after ``t`` a jump or window may wake at: up to
        ``n`` of them, strictly before ``peek`` and at or before
        ``horizon``.  The tick grid is generated by the same repeated
        ``g + tick`` float addition the per-tick loop performs
        (:func:`_grid`), so every skipped tick and the wake-up land on
        the exact floats of a normal run."""
        grid = _grid(t, self.tick, n, min(peek, horizon))
        return grid[:_prefix((grid < peek) & (grid <= horizon))]

    def _macro_jump(self, t: float, cap: float, image: tuple, peek: float,
                    horizon: float) -> Optional[object]:
        """Arm a jump from the probe tick at ``t``; returns the wake event.

        Grid point ``k`` (1-based) is skipped for ``k <= n`` and woken at
        for ``k == n + 1``; :func:`_jump` sizes ``n`` over the skippable
        points, each followed by a valid wake-up.
        """
        grid = self._wake_grid(t, _MACRO_MAX_SKIP + 1, peek, horizon)
        run = _jump(self, (self,), image, self._macro_record, grid[:-1], cap)
        if run is None:
            return None
        self.macro_jumps += 1
        if perf.enabled():
            perf.add("engine.macro_jumps")
        return self._macro_pend(run, grid[:run.n + 1])

    def _window_may_open(self, t: float) -> bool:
        """Whether a window may open after the real tick at ``t``, as far
        as the executor alone can tell: the window gate does not back
        off, no holding buffer or migration is pending, every input is
        hosted, phase 1 has no scalar lanes, and some input's rate does
        not hold still (elsewhere a jump covers a steady stretch for one
        probe tick, far less than a window's passes)."""
        sp = self._speed
        if (t < self._window_backoff_until or sp is None
                or sp.fill is not None or self._migrating or self._unhosted
                or not sp.hosted.all()):
            return False
        return any(next_rate_change(self.profiles[name], t) <= t
                   for name in self.dataflow.inputs)

    def _window(self, t: float, peek: float,
                horizon: float) -> Optional[object]:
        """Arm a window after the real tick at ``t``; returns its wake.

        The grid points after ``t`` are stacked on a time axis and run
        through the shared tick phases in a few passes
        (:func:`_window_pass`); the verified prefix stays pending like a
        jump, settled lazily up to the wake-up, where the next real tick
        runs.  Called only where :meth:`_window_may_open` holds.  A
        window ends at the jump's change cap minus its rate term: a
        grid point whose phase-1 key (trace step) differs, a VM ready
        time, the network refresh and the next checkpoint sweep; its
        wake lands strictly before every foreign event and at or before
        the run horizon.
        """
        sp = self._speed
        tick = self.tick
        grid = self._wake_grid(t, _WINDOW_TICKS + 1, peek, horizon)
        ticks = grid[:-1]
        ok = ((ticks < sp.until) & (ticks < self._next_net_refresh)
              & (ticks < self._next_ckpt))
        for g, key in zip(sp.groups, sp.key[1:]):
            ok &= (ticks / g.res).astype(np.int64) % g.length == key
        k = _prefix(ok)
        if k < 2:
            return None
        ticks = ticks[:k]
        rates = np.array([
            [self.profiles[name].rate_at(g) for name in self.dataflow.inputs]
            for g in ticks.tolist()
        ])
        m, rec, backlog, egress = _window_pass(
            self, self._columns, sp, ticks, rates, tick, _WINDOW_PASSES
        )
        if m < _WINDOW_SHORT:
            # Too short to pay for its passes: back off like the gate.
            self._window_backoff_until = t + _WINDOW_BACKOFF * tick
        run = _Run(m, tuple(x[:m] for x in rec.increments()),
                   backlog[:m], egress[:m])
        self.windows += 1
        if perf.enabled():
            perf.add("engine.windows")
        return self._macro_pend(run, grid[:m + 1])

    def _macro_change_cap(self, t: float) -> Optional[float]:
        """Earliest future time at which a tick's *inputs* may change.

        Every skipped tick must fall strictly before this: rate-profile
        breakpoints, CPU-coefficient trace boundaries, VM ready times,
        the network-budget refresh, and migration arrivals.  ``None``
        means no constant window can be proven (e.g. a continuously
        varying rate profile or an opaque performance model).
        """
        if not self._macro_coef_ok:
            return None
        cap = math.inf
        for name in self.dataflow.inputs:
            u = next_rate_change(self.profiles[name], t)
            if u <= t:
                return None
            if u < cap:
                cap = u
        for res in self._macro_coef_res:
            b = (math.floor(t / res) + 1.0) * res
            if b < cap:
                cap = b
        nr = self._next_net_refresh
        if nr <= t:  # the probe step refreshes and re-arms at t + refresh
            nr = t + self.network_refresh
        if nr < cap:
            cap = nr
        # Checkpoint sweeps must run at their scheduled ticks: a crash
        # mid-jump would otherwise restore from a checkpoint a per-tick
        # run would have refreshed.
        nc = self._next_ckpt
        if nc <= t:  # the probe step sweeps and re-arms past t
            nc = t + self.checkpoint_interval
        if nc < cap:
            cap = nc
        rt = self._ready_time
        if rt.size:
            future = rt[rt > t]
            if future.size:
                m = float(future.min())
                if m < cap:
                    cap = m
        for mb in self._migrating:
            a = mb.available_at
            if t < a < cap:
                cap = a
        return cap

    def _macro_pend(self, run: _Run, grid: np.ndarray) -> object:
        """Leave ``run`` pending over ``grid[:-1]`` and schedule the
        wake-up, a real tick, at ``grid[-1]``."""
        wake = self.env.event_at(float(grid[-1]))
        self._macro_pending = [run, wake, grid, 0]
        return wake

    def _macro_settle(self, now: float, mutating: bool) -> None:
        """Account skipped ticks up to ``now`` (called before mutations).

        Called from the outside world (manager, failure driver, tests)
        before anything observes or mutates the engine.  Pending ticks
        of a jump or window at or before ``now`` are committed; if the
        caller mutates state (``mutating=True``) and pending ticks
        remain beyond ``now``, those must be recomputed for real: the
        stale wake-up is lazily cancelled and the tick process
        interrupted to realign.

        When no process is active the caller runs at a ``run(until=s)``
        horizon, *after* the kernel processed every event at ``s`` — in
        per-tick mode the grid tick at exactly ``s`` has already run, so
        accounting is inclusive.  A mid-callback caller (some foreign
        process) acts before a same-timestamp grid tick would have
        (jumps never span foreign events, so this is defensive), hence
        exclusive.
        """
        pending = self._macro_pending
        if pending is None:
            return
        run, wake, grid, acc = pending
        n = run.n
        side = "right" if self.env.active_process is None else "left"
        k = max(acc, int(np.searchsorted(grid[:n], now, side=side)))
        if k > acc:
            self._macro_commit(run, acc, k)
            pending[3] = k
        if k >= n:
            # Fully accounted: the wake-up (a real tick) stays valid even
            # across a mutation, exactly like per-tick mode's next step.
            return
        if mutating:
            self._macro_pending = None
            self._macro_resume_at = float(grid[k])
            wake.cancel()
            self._process.interrupt()

    def _macro_wake_settle(self) -> None:
        """Settle the jump or window at its wake-up (all ticks commit)."""
        run, _wake, _grid, acc = self._macro_pending
        self._macro_pending = None
        if run.n > acc:
            self._macro_commit(run, acc, run.n)

    def _macro_commit(self, run: _Run, a: int, b: int) -> None:
        """Commit ticks ``a..b−1`` of a pending jump or window: the
        accumulators advance as a per-tick loop's ``+=`` would have
        advanced them, and the fluid state becomes tick ``b − 1``'s."""
        run.commit(self, a, b)
        k = b - a
        self.macro_ticks_skipped += k
        if perf.enabled():
            perf.add("engine.ticks", k)
            perf.add("engine.macro_ticks_skipped", k)
            if run.backlog is not None:
                perf.add("engine.window_ticks", k)
        if _validate.enabled():
            stacked = () if run.backlog is None else (
                run.backlog[a:b], run.egress[a:b])
            _validate.checker().after_macro_jump(self, k, *stacked)

    # -- interval accounting -----------------------------------------------------------

    def _reset_accumulators(self) -> None:
        self._acc_external = np.zeros(len(self._input_idx))
        self._acc_deliverable = np.zeros(len(self._output_idx))
        self._acc_arrivals = np.zeros(len(self._pe_names))
        self._acc_processed = np.zeros(len(self._pe_names))
        self._acc_delivered = np.zeros(len(self._output_idx))

    def _flush_stats(self) -> None:
        """Fold the per-tick NumPy accumulators into the stats dicts."""
        stats = self.stats

        def _fold(dest: dict[str, float], names, acc: np.ndarray) -> None:
            for idx, name in enumerate(names):
                v = float(acc[idx])
                if v > 0:
                    dest[name] = dest.get(name, 0.0) + v

        _fold(stats.external_in, self.dataflow.inputs, self._acc_external)
        _fold(stats.deliverable, self.dataflow.outputs, self._acc_deliverable)
        _fold(stats.arrivals, self._pe_names, self._acc_arrivals)
        _fold(stats.processed, self._pe_names, self._acc_processed)
        _fold(stats.delivered, self.dataflow.outputs, self._acc_delivered)
        self._reset_accumulators()

    def roll_interval(self) -> IntervalStats:
        """Close the current interval's counters and start a new one."""
        # Settle skipped ticks up to now (non-mutating: a jump whose
        # remaining ticks lie beyond ``now`` stays armed).
        self._macro_settle(self.env.now, mutating=False)
        self._flush_stats()
        stats = self.stats
        stats.end = self.env.now
        self.stats = IntervalStats(start=self.env.now, end=self.env.now)
        if _trace.enabled():
            _trace.emit(
                "interval_stats",
                t=stats.end,
                tenant_id=self._tenant_id,
                start=stats.start,
                end=stats.end,
                omega=stats.omega(self.dataflow.outputs),
                delivered=sum(stats.delivered.values()),
                deliverable=sum(stats.deliverable.values()),
                processed=sum(stats.processed.values()),
                lost=sum(stats.lost.values()),
                backlog=sum(self.backlogs().values()),
            )
        if _validate.enabled():
            _validate.checker().after_interval(self, stats)
        return stats

    def pe_backlog(self, pe_name: str) -> float:
        """Messages pending for a PE: input queues, undelivered egress of
        incoming edges, and in-flight migrations."""
        # A drift-mode jump advances the input queues lazily: bring them
        # up to date before reading (no-op outside a jump).
        self._macro_settle(self.env.now, mutating=False)
        i = self._pe_index[pe_name]
        total = float(_seqsum(self._backlog[i])) if self._backlog.size else 0.0
        if self._egress.size:
            rows = self._dst_rows[i]
            if rows.size:
                total += float(_seqsum(self._egress[rows].ravel()))
        total += sum(m.messages for m in self._migrating if m.pe == pe_name)
        total += self._unhosted.get(pe_name, 0.0)
        return total

    def backlogs(self) -> dict[str, float]:
        return {n: self.pe_backlog(n) for n in self._pe_names}

    # -- the tick ------------------------------------------------------------------------

    def step(self, dt: float) -> None:
        """Advance the fluid model by ``dt`` seconds."""
        t = self.env.now
        if t >= self._next_ckpt:
            self._take_checkpoints(t)
            while self._next_ckpt <= t:
                self._next_ckpt += self.checkpoint_interval
        rates = np.array(
            [self.profiles[n].rate_at(t) for n in self.dataflow.inputs]
        )
        if not self._vms:
            self._macro_record = self._idle_tick(rates, dt)
            return
        # 1. effective speeds, capacities and routing shares (recomputed
        # only when one of their inputs changed).
        sp = self._speed
        if sp is None:
            sp = self._speed = self._speed_phase()
        sp.update(t, dt)
        self._macro_record = _flow_phases(self, self._columns, sp, t, dt,
                                          rates)

    def _idle_tick(self, rates: np.ndarray, dt: float) -> _TickRecord:
        """A tick with nothing deployed: messages still arrive and are
        lost from the throughput ledger (deliverable grows, delivered
        doesn't)."""
        deliv = self._gain @ rates * dt
        self._acc_deliverable += deliv
        return _TickRecord(deliv)

    # -- helpers ---------------------------------------------------------------------------

    def _deposit(self, pe_name: str, messages: float, t: float) -> None:
        """Add messages to a PE's queues at ``t``, proportional to
        allocation."""
        i = self._pe_index[pe_name]
        alloc = self._alloc[i]
        total = float(_seqsum(alloc))
        if total <= 0:
            # No host yet: try again next tick.
            self._migrating.append(
                _MigratingBuffer(pe_name, messages, t + self.tick)
            )
            return
        self._backlog[i] += messages * (alloc / total)

    def _fill_coefficients(self, coef: np.ndarray, t: float) -> None:
        """Write the CPU coefficients at ``t`` of the VMs outside the
        stacked gather into ``coef`` (one lane per VM)."""
        for j in self._coef_scalar_idx:
            view = self._cpu_views[j]
            if view is None:
                coef[j] = self.provider.cpu_coefficient(self._vms[j], t)
            else:
                series, offset, res = view
                coef[j] = series[(offset + int(t / res)) % series.shape[0]]

    def _speed_phase(self) -> _SpeedPhase:
        """Tick phase 1 over the current fleet and selection."""
        g = self._coef_group
        fill = self._fill_coefficients if self._coef_scalar_idx else None
        return _SpeedPhase(
            self._alloc, self._core_speed, self._ready_time, self._cost,
            () if g is None else (g,), fill, self._edge_dst,
            self._input_idx, "engine.speed_recomputes",
        )

    def _refresh_network(self, t: float, shares: np.ndarray) -> None:
        """Re-sample per-edge remote-transfer budgets from monitored links.

        For each dataflow edge and each source VM, the budget is the
        share-weighted message rate the source can push to the remote
        destination VMs: measured pairwise bandwidth, capped at the
        slower endpoint's rated NIC, weighted by the destination routing
        shares.  Large VM-pair products are subsampled (see
        ``network_pair_cap``).  All edges are priced in one pass over
        the fleet's :class:`_LinkPlan`: one ``bandwidth_matrix`` call (a
        model without one is asked for the same matrix pair by pair)
        and a fixed number of array operations, however many edges.
        """
        # In place (not a fresh array): the batch executor aliases this
        # buffer into its stacked state, and the values are identical.
        self._remote_budget.fill(np.inf)
        plan = self._net_plan
        if plan is None:
            plan = self._net_plan = _LinkPlan(self)
        if not plan.edges:
            return
        per_msg_mbit = self.message_size_mb * 8.0
        performance = self.provider.performance
        matrix_fn = getattr(performance, "bandwidth_matrix", None)
        if matrix_fn is None:
            # A model without the matrix hook is asked pair by pair.
            measured = np.array([
                [performance.bandwidth_mbps(a, b, t) for b in plan.keys_b]
                for a in plan.keys_a
            ], dtype=float)
        else:
            measured = matrix_fn(plan.keys_a, plan.keys_b, t)
        share = shares[plan.pe, plan.dst]
        # Reduced under the padding mask, each edge's shares go through
        # numpy's pairwise summation as one run: ``ndarray.sum()`` of
        # the edge alone, bit for bit.
        share_sum = np.add.reduce(share, axis=1, where=plan.mask)
        weights = np.ones_like(share)
        np.divide(share, share_sum[:, np.newaxis], out=weights,
                  where=(share_sum > 0)[:, np.newaxis])
        bw = np.minimum(measured[plan.a, plan.b], plan.rated)
        contrib = (bw / per_msg_mbit) * weights[plan.edge]
        # Sequential sum with excluded terms as exact +0.0 matches a
        # per-pair loop's running ``total += term`` bit for bit.
        contrib[plan.skip | np.isinf(bw)] = 0.0
        total = _seqsum(contrib)
        self._remote_budget[plan.k, plan.src] = np.where(
            total > 0, total, np.inf
        )
