"""Structure-of-arrays batch execution across sweep cells (S25).

A sweep evaluates many independent *cells* (scenario × policy) whose
runs share one clock discipline: the same tick, the same adaptation
interval, the same horizon.  :class:`BatchRunner` stacks those cells
into ``(cells, …)`` arrays — allocations, backlogs, CPU coefficients,
edge factors, network budgets — and advances **every** cell with one
vectorized tick, so the per-tick NumPy fixed cost (~25 small kernel
launches) is paid once per *batch* instead of once per *cell*.

Bit-identity with the serial path is the design constraint, not an
aspiration: ``tests/experiments/test_batch.py`` asserts batch rows
equal :func:`repro.experiments.runner.sweep`'s serial rows bitwise.
The mechanics that make that possible:

* every VM-axis reduction in the serial tick goes through
  :func:`~repro.engine.executor._seqsum` (strict left-to-right
  accumulation), so zero-padding a cell's fleet to the batch width
  appends exact ``+0.0`` no-ops instead of changing ``np.sum``'s
  pairwise grouping,
* padded lanes are constructed inert: allocations/speeds/selectivities
  pad with 0, costs with 1, ready times with ``+inf``, network budgets
  with ``inf``; padded edge rows carry zero egress and padded
  input/edge scatter indices point at a per-cell dummy arrival row
  that is never read,
* elementwise operations keep the serial operand order and grouping
  (``(units / cost) * dt``, ``(gain · rate) * dt``, …) — identical
  inputs through identical float ops give identical outputs,
* the rare scalar paths (migration release, unhosted holding buffers,
  network refresh, fleets with zero VMs) run per cell through the
  *same* :class:`~repro.engine.executor.FluidExecutor` helpers, which
  read and write stacked state through per-cell array views,
* interval boundaries replay the exact statement order of
  :meth:`RunManager.run` per cell (roll, record, snapshot, adapt,
  reconcile), with the cell's private clock pinned to the boundary.

Macro-stepping (S24) is evaluated column-wise: each cell's own
:meth:`~repro.engine.executor.FluidExecutor._macro_change_cap` bounds
the jump, stationarity is classified per column from bitwise snapshots,
and the batch jumps only when **every** column proves a window —
replaying the recorded per-tick increments with the same repeated
``+=`` and the same three-op drift recurrence as the serial engine.

Failure injection is out of scope (the failure driver is a foreign
kernel process that rebuilds fleets mid-interval, while the batch packs
only at interval boundaries); :func:`repro.experiments.runner.run_cells`
routes such cells to the serial path.  The run-invariant checker
(``REPRO_VALIDATE=1``) sees every column through the same hooks as the
serial engine: a ledger opened per cell, the queue checks after every
tick and macro jump, and the interval checks in ``roll_interval``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Hashable, Optional, Sequence

import numpy as np

from ..core.objective import EvaluationOutcome
from ..dataflow.metrics import IntervalMetrics, MetricsTimeline
from ..obs import collector as _obs
from ..sim.kernel import Environment
from ..util import perf
from ..validate import invariants as _validate
from .executor import _EPS, FluidExecutor, _macro_default, _seqsum
from .manager import RunManager, RunResult, vm_ledger
from .monitor import Monitor
from .reconcile import apply_plan

__all__ = ["BatchRunner"]


class _CellState:
    """One sweep cell's private run state (mirrors RunManager.run locals)."""

    __slots__ = (
        "manager", "env", "ex", "monitor", "timeline", "selection",
        "omega_sum", "adaptations", "peak", "reports", "rate_key",
        "group", "col", "P", "V", "E", "I", "O", "input_names",
        "backoff", "last_deliv",
    )

    def __init__(self, manager: RunManager, rate_key: Hashable) -> None:
        self.manager = manager
        self.rate_key = rate_key
        self.timeline = MetricsTimeline()
        self.omega_sum = 0.0
        self.adaptations = 0
        self.reports: list = []
        self.backoff = -math.inf
        self.last_deliv: Optional[np.ndarray] = None


class _RateGroup:
    """Cells whose input profiles produce bitwise-identical rates."""

    __slots__ = ("profiles", "cols", "v0", "vals")

    def __init__(self, profiles: list) -> None:
        self.profiles = profiles
        self.cols: list[int] = []
        self.v0: list[_CellState] = []
        self.vals: list[float] = []


class _CoefGroup:
    """Stacked CPU-trace series sharing one (length, resolution)."""

    __slots__ = ("stack", "offsets", "arange", "flat", "res", "length")

    def __init__(self, stack, offsets, flat, res) -> None:
        self.stack = stack
        self.offsets = offsets
        self.arange = np.arange(stack.shape[0])
        self.flat = flat
        self.res = res
        self.length = stack.shape[1]


class _TickRecord:
    """One probe tick's increments, replayed verbatim during a jump."""

    __slots__ = ("ext", "deliv", "arr", "proc", "delv",
                 "arrivals", "caps", "served")

    def __init__(self, ext, deliv, arr, proc, delv, arrivals, caps, served):
        self.ext = ext
        self.deliv = deliv
        self.arr = arr
        self.proc = proc
        self.delv = delv
        self.arrivals = arrivals
        self.caps = caps
        self.served = served


class _Pack:
    """The stacked state for one adaptation interval (one *epoch*).

    Rebuilt at every interval boundary: reconciliation can resize any
    cell's fleet, so the batch width and the per-cell views are only
    stable between boundaries.
    """

    __slots__ = (
        "cols", "v0", "states", "C", "Pmax", "Vmax", "Emax", "Imax",
        "Omax", "tick", "cidx", "alloc", "backlog", "egress", "budget",
        "core_speed", "ready_time", "cost", "selectivity", "gain_simple",
        "gain_col", "edge_dst", "edge_src", "edge_factors", "edge_flat",
        "input_pe", "in_flat", "output_idx", "acc_ext", "acc_deliv",
        "acc_arr", "acc_proc", "acc_del", "rate_groups",
        "coef_groups", "coef_scalar", "mig_watch", "unhosted_watch",
        "gate_at", "input_pe_flat", "edge_dst_flat", "edge_src_flat",
        "output_flat", "in_flat_ravel", "refresh_at", "next_refresh",
    )


class BatchRunner:
    """Run many compatible cells in lockstep, one vectorized tick at a
    time, producing the same :class:`RunResult` per cell as
    :meth:`RunManager.run` — bit for bit.

    Parameters
    ----------
    managers:
        One :class:`RunManager` per cell.  All cells must share
        ``spec.interval``, ``spec.n_intervals`` and ``tick``; cells
        that use reliability machinery
        (:attr:`RunManager.uses_reliability`) are not supported (route
        those cells serially).
    rate_keys:
        Optional hashable key per cell; cells with equal keys promise
        input profiles with bitwise-identical ``rate_at`` outputs (e.g.
        the same scenario under different policies), so the batch
        evaluates each distinct profile once per tick.  Defaults to one
        group per cell.
    macrostep:
        Column-wise macro-stepping; ``None`` follows ``REPRO_MACROSTEP``.
    """

    #: Hard cap on ticks skipped per macro jump (mirrors FluidExecutor).
    macro_max_skip = 4096
    #: Gate backoff when no constant window is provable (mirrors the
    #: serial engine's ``_macro_backoff_ticks``).
    macro_backoff_ticks = 64.0

    def __init__(
        self,
        managers: Sequence[RunManager],
        rate_keys: Optional[Sequence[Hashable]] = None,
        macrostep: Optional[bool] = None,
    ) -> None:
        if not managers:
            raise ValueError("need at least one cell")
        if rate_keys is not None and len(rate_keys) != len(managers):
            raise ValueError("rate_keys must match managers 1:1")
        m0 = managers[0]
        shape0 = (m0.spec.interval, m0.spec.n_intervals, m0.tick)
        for m in managers:
            if m.uses_reliability:
                raise ValueError(
                    "batch runs do not support failure injection, spot "
                    "revocation or checkpointing; run those cells serially"
                )
            if (m.spec.interval, m.spec.n_intervals, m.tick) != shape0:
                raise ValueError(
                    "batched cells must share interval, horizon and tick"
                )
        self.managers = list(managers)
        self._rate_keys: list[Hashable] = (
            list(rate_keys)
            if rate_keys is not None
            else [("cell", i) for i in range(len(managers))]
        )
        self.macro_enabled = (
            _macro_default() if macrostep is None else bool(macrostep)
        )
        self.macro_jumps = 0
        self.macro_ticks_skipped = 0
        self.ticks_executed = 0
        #: (key, groups, pinned arrays) from the previous _pack epoch.
        self._coef_cache: Optional[tuple] = None
        # Last epoch's pack, reusable when no cell's fleet was rebuilt:
        # (layout key, per-column content signatures, pack, tick).
        self._pack_reuse: Optional[tuple] = None

    # -- driving --------------------------------------------------------------

    def run(self) -> list[RunResult]:
        """Execute every cell's full optimization period."""
        states = []
        for m, key in zip(self.managers, self._rate_keys):
            with self._cell_ctx(m):
                states.append(self._init_cell(m, key))
        spec = self.managers[0].spec
        tick = float(self.managers[0].tick)
        n = spec.n_intervals
        t = 0.0
        for k in range(1, n + 1):
            b = k * spec.interval
            pack = self._pack(states, tick)
            while t <= b:
                t = self._tick(pack, t, b, tick)
            for st in states:
                self._copy_out(pack, st)
            for st in states:
                with self._cell_ctx(st.manager):
                    self._boundary(st, k, b, n)
            self._after_boundaries(k, b)
        return [self._finish(st) for st in states]

    def _cell_ctx(self, m: RunManager):
        """Trace-attribution context for one cell's serial work (init,
        interval boundaries).  Cells driven through a
        :class:`~repro.cloud.provider.TenantProvider` view stamp their
        tenant on every event emitted inside the block; plain providers
        get a no-op context, keeping single-tenant batches unchanged."""
        tid = getattr(m.provider, "tenant_id", None)
        return _obs.tenant(tid) if tid is not None else nullcontext()

    def _after_boundaries(self, k: int, b: float) -> None:
        """Hook after all cells crossed interval ``k`` (ends at ``b``).

        The base batch runner needs nothing here; multi-tenant kernels
        override it to sample shared-fleet state once per interval."""

    def _init_cell(self, m: RunManager, rate_key: Hashable) -> _CellState:
        """Mirror RunManager.run's preamble (no kernel process is started:
        the batch drives time directly, so the executor never ticks on
        its own and the cell's Environment is just a clock + trace id)."""
        st = _CellState(m, rate_key)
        env = Environment()
        with perf.timer("policy.initial_plan"):
            plan = m.policy.initial_plan(m.estimated_rates)
        ex = FluidExecutor(
            env,
            m.dataflow,
            m.provider,
            m.profiles,
            selection=plan.selection,
            tick=m.tick,
            message_size_mb=m.message_size_mb,
            macrostep=False,
        )
        monitor = Monitor(
            m.dataflow,
            m.provider,
            ex,
            noise_std=m.monitor_noise_std,
            seed=m.monitor_seed,
        )
        st.reports = [apply_plan(m.provider, ex, plan, env.now)]
        RunManager._trace_reconcile(st.reports[0], env.now, interval=0)
        if _validate.enabled():
            _validate.checker().register_executor(ex)
        st.env = env
        st.ex = ex
        st.monitor = monitor
        st.selection = dict(plan.selection)
        st.peak = len(m.provider.active_instances())
        st.input_names = tuple(m.dataflow.inputs)
        return st

    # -- packing --------------------------------------------------------------

    def _pack(self, states: list[_CellState], tick: float) -> _Pack:
        """Stack per-cell state into (C, …) arrays and alias the cells'
        mutable buffers to per-cell views, so the scalar helpers
        (_deposit, unhosted drains, _refresh_network) write through.

        Repacking is incremental across epochs: a cell's stacked rows
        only go stale when the executor rebuilds its fleet arrays (a
        reconcile that changed placement) or rebinds its selection
        arrays (an alternate switch) — both allocate fresh ndarrays, so
        object identity is the change signal.  When the column layout is
        unchanged, the previous epoch's pack is reused and only the
        changed cells re-gather; with thousands of mostly-steady tenants
        this turns the per-boundary O(cells) stacking into O(changes)."""
        cols: list[_CellState] = []
        v0: list[_CellState] = []
        for st in states:
            ex = st.ex
            st.P, st.V = ex._alloc.shape
            st.E = ex._egress.shape[0]
            st.I = len(ex._input_idx)
            st.O = len(ex._output_idx)
            if st.V == 0:
                st.col = -1
                v0.append(st)
            else:
                st.col = len(cols)
                cols.append(st)

        layout = tuple(
            (id(st), st.P, st.V, st.E, st.I, st.O) for st in states
        )
        sigs = tuple(
            (
                id(st.ex._alloc),
                id(st.ex._cost),
                id(st.ex._selectivity),
                id(st.ex._gain),
            )
            for st in cols
        )
        cached = self._pack_reuse
        if (
            cached is not None
            and cached[0] == layout
            and cached[3] == tick
        ):
            pack = cached[2]
            changed = [
                c for c in range(len(cols)) if sigs[c] != cached[1][c]
            ]
            self._refresh_pack(pack, cols, changed)
            self._pack_reuse = (layout, sigs, pack, tick)
            return pack

        pack = _Pack()
        pack.states = states
        pack.tick = tick
        pack.cols = cols
        pack.v0 = v0
        C = len(cols)
        pack.C = C

        groups: dict[Hashable, _RateGroup] = {}
        pack.rate_groups = []
        for st in states:
            grp = groups.get(st.rate_key)
            if grp is None:
                grp = _RateGroup(
                    [st.ex.profiles[nm] for nm in st.input_names]
                )
                groups[st.rate_key] = grp
                pack.rate_groups.append(grp)
            if st.col >= 0:
                grp.cols.append(st.col)
            else:
                grp.v0.append(st)
            st.group = grp

        pack.gate_at = max(st.backoff for st in states)
        pack.mig_watch = {st.col for st in cols if st.ex._migrating}
        pack.unhosted_watch = {st.col for st in cols if st.ex._unhosted}
        if perf.enabled():
            perf.add("batch.packs")
            perf.add("batch.columns", len(states))

        Pmax = pack.Pmax = max((st.P for st in cols), default=0)
        Vmax = pack.Vmax = max((st.V for st in cols), default=0)
        Emax = pack.Emax = max((st.E for st in cols), default=0)
        Imax = pack.Imax = max((st.I for st in cols), default=0)
        Omax = pack.Omax = max((st.O for st in cols), default=0)
        if C == 0:
            # Every cell is fleetless this interval: keep the arrays the
            # snapshot/jump machinery touches, empty.
            pack.backlog = np.zeros((0, 0, 0))
            pack.egress = np.zeros((0, 0, 0))
            return pack

        pack.cidx = np.arange(C)
        pack.alloc = np.zeros((C, Pmax, Vmax))
        pack.backlog = np.zeros((C, Pmax, Vmax))
        pack.egress = np.zeros((C, Emax, Vmax))
        pack.budget = np.full((C, Emax, Vmax), np.inf)
        pack.core_speed = np.zeros((C, Vmax))
        pack.ready_time = np.full((C, Vmax), np.inf)
        pack.cost = np.ones((C, Pmax, 1))
        pack.selectivity = np.zeros((C, Pmax, 1))
        pack.edge_factors = np.zeros((C, Emax, 1))
        # Gather indices pad with 0 (the gathered values are masked);
        # scatter indices pad with the cell's dummy arrival row Pmax,
        # whose accumulated garbage is never read.
        pack.edge_dst = np.zeros((C, Emax), dtype=np.intp)
        pack.edge_src = np.zeros((C, Emax), dtype=np.intp)
        pack.edge_flat = np.full(
            (C, Emax), Pmax, dtype=np.intp
        ) + (pack.cidx * (Pmax + 1))[:, None]
        pack.input_pe = np.zeros((C, Imax), dtype=np.intp)
        pack.in_flat = np.full(
            (C, Imax), Pmax, dtype=np.intp
        ) + (pack.cidx * (Pmax + 1))[:, None]
        pack.output_idx = np.zeros((C, Omax), dtype=np.intp)
        pack.acc_ext = np.zeros((C, Imax))
        pack.acc_deliv = np.zeros((C, Omax))
        pack.acc_arr = np.zeros((C, Pmax))
        pack.acc_proc = np.zeros((C, Pmax))
        pack.acc_del = np.zeros((C, Omax))
        pack.gain_simple = all(st.I == 1 for st in cols)
        pack.gain_col = np.zeros((C, Omax)) if pack.gain_simple else None

        for c, st in enumerate(cols):
            ex = st.ex
            P, V, E = st.P, st.V, st.E
            pack.alloc[c, :P, :V] = ex._alloc
            pack.backlog[c, :P, :V] = ex._backlog
            ex._backlog = pack.backlog[c, :P, :V]
            pack.egress[c, :E, :V] = ex._egress
            ex._egress = pack.egress[c, :E, :V]
            pack.budget[c, :E, :V] = ex._remote_budget
            ex._remote_budget = pack.budget[c, :E, :V]
            pack.core_speed[c, :V] = ex._core_speed
            pack.ready_time[c, :V] = ex._ready_time
            pack.cost[c, :P, 0] = ex._cost
            pack.selectivity[c, :P, 0] = ex._selectivity
            pack.edge_factors[c, :E, 0] = ex._edge_factors
            pack.edge_dst[c, :E] = ex._edge_dst
            pack.edge_src[c, :E] = ex._edge_src
            pack.edge_flat[c, :E] = c * (Pmax + 1) + ex._edge_dst
            pack.input_pe[c, :st.I] = ex._input_idx
            pack.in_flat[c, :st.I] = c * (Pmax + 1) + ex._input_idx
            pack.output_idx[c, :st.O] = ex._output_idx
            pack.acc_ext[c, :st.I] = ex._acc_external
            pack.acc_deliv[c, :st.O] = ex._acc_deliverable
            pack.acc_arr[c, :P] = ex._acc_arrivals
            pack.acc_proc[c, :P] = ex._acc_processed
            pack.acc_del[c, :st.O] = ex._acc_delivered
            if pack.gain_simple:
                pack.gain_col[c, :st.O] = ex._gain[:, 0]

        self._pack_coefs(pack, cols)

        # Flattened-row gather indices: one fancy index into a
        # ``(C·Pmax, Vmax)`` view beats a two-array advanced index.
        row0 = (pack.cidx * Pmax)[:, None]
        pack.input_pe_flat = row0 + pack.input_pe
        pack.edge_dst_flat = row0 + pack.edge_dst
        pack.edge_src_flat = row0 + pack.edge_src
        pack.output_flat = row0 + pack.output_idx
        pack.in_flat_ravel = pack.in_flat.ravel()
        # Per-cell network refresh deadlines, mirrored out of the
        # executors so the per-tick check is one scalar comparison.
        pack.refresh_at = np.array(
            [st.ex._next_net_refresh for st in cols]
        )
        pack.next_refresh = float(pack.refresh_at.min())
        self._pack_reuse = (layout, sigs, pack, tick)
        return pack

    def _pack_coefs(self, pack: _Pack, cols: list[_CellState]) -> None:
        """Group the cells' CPU-trace stacks for the batched gather.

        The concatenated trace stacks are pure functions of the member
        executors' gather arrays, which only change on a fleet rebuild:
        reuse the previous epoch's groups while the same stack objects
        (pinned alive in the cache, so ids cannot be recycled) line up
        in the same columns."""
        Vmax = pack.Vmax
        coef_members: dict[tuple[int, float], list[int]] = {}
        pack.coef_scalar = []
        for c, st in enumerate(cols):
            ex = st.ex
            if ex._coef_stack is not None and not ex._coef_scalar_idx:
                key = (ex._coef_stack.shape[1], float(ex._coef_res))
                coef_members.setdefault(key, []).append(c)
            elif ex._coef_stack is not None or ex._coef_scalar_idx:
                pack.coef_scalar.append(c)
        coef_key = (
            Vmax,
            tuple(
                (grp_key, tuple((c, id(cols[c].ex._coef_stack)) for c in members))
                for grp_key, members in coef_members.items()
            ),
        )
        cached = self._coef_cache
        if cached is not None and cached[0] == coef_key:
            pack.coef_groups = cached[1]
        else:
            pack.coef_groups = []
            for (_L, res), members in coef_members.items():
                stacks = [cols[c].ex._coef_stack for c in members]
                offsets = np.concatenate(
                    [cols[c].ex._coef_offsets for c in members]
                )
                flat = np.concatenate(
                    [c * Vmax + cols[c].ex._coef_rows for c in members]
                )
                pack.coef_groups.append(
                    _CoefGroup(np.concatenate(stacks), offsets, flat, res)
                )
            pins = [
                (cols[c].ex._coef_stack, cols[c].ex._coef_offsets,
                 cols[c].ex._coef_rows)
                for members in coef_members.values()
                for c in members
            ]
            self._coef_cache = (coef_key, pack.coef_groups, pins)

    def _refresh_pack(
        self, pack: _Pack, cols: list[_CellState], changed: list[int]
    ) -> None:
        """Bring last epoch's pack up to date for reuse.

        The unchanged cells' backlog/egress/budget buffers are aliased
        views into the pack, so their live state is already here; their
        static rows (alloc, speeds, topology gathers) are still valid by
        the identity argument in :meth:`_pack`.  Only the per-epoch
        scalars, the freshly-reset interval accumulators, and the
        ``changed`` cells' rows need work."""
        pack.gate_at = max(st.backoff for st in pack.states)
        pack.mig_watch = {st.col for st in cols if st.ex._migrating}
        pack.unhosted_watch = {st.col for st in cols if st.ex._unhosted}
        # roll_interval reset every executor's accumulators to zeros at
        # the boundary we just crossed; mirror that wholesale.
        pack.acc_ext.fill(0.0)
        pack.acc_deliv.fill(0.0)
        pack.acc_arr.fill(0.0)
        pack.acc_proc.fill(0.0)
        pack.acc_del.fill(0.0)
        for c in changed:
            st = cols[c]
            ex = st.ex
            P, V, E = st.P, st.V, st.E
            # Snapshot the buffers before zeroing the cell's planes: a
            # selection-only change leaves them aliased to these very
            # planes, and fill() would wipe the live state.
            backlog = np.array(ex._backlog)
            egress = np.array(ex._egress)
            budget = np.array(ex._remote_budget)
            pack.alloc[c].fill(0.0)
            pack.alloc[c, :P, :V] = ex._alloc
            pack.backlog[c].fill(0.0)
            pack.backlog[c, :P, :V] = backlog
            ex._backlog = pack.backlog[c, :P, :V]
            pack.egress[c].fill(0.0)
            pack.egress[c, :E, :V] = egress
            ex._egress = pack.egress[c, :E, :V]
            pack.budget[c].fill(np.inf)
            pack.budget[c, :E, :V] = budget
            ex._remote_budget = pack.budget[c, :E, :V]
            pack.core_speed[c].fill(0.0)
            pack.core_speed[c, :V] = ex._core_speed
            pack.ready_time[c].fill(np.inf)
            pack.ready_time[c, :V] = ex._ready_time
            pack.cost[c, :P, 0] = ex._cost
            pack.selectivity[c, :P, 0] = ex._selectivity
            if pack.gain_simple:
                pack.gain_col[c, :st.O] = ex._gain[:, 0]
        if changed:
            self._pack_coefs(pack, cols)
        pack.refresh_at = np.array(
            [st.ex._next_net_refresh for st in cols]
        )
        pack.next_refresh = float(pack.refresh_at.min())
        if perf.enabled():
            perf.add("batch.packs")
            perf.add("batch.pack_reuses")
            perf.add("batch.columns", len(pack.states))
            perf.add("batch.pack_cells_refreshed", len(changed))

    def _copy_out(self, pack: _Pack, st: _CellState) -> None:
        """Write a cell's stacked accumulators back into its executor
        (the backlog/egress/budget buffers are views — already live)."""
        if st.col < 0:
            return
        c = st.col
        ex = st.ex
        ex._acc_external[:] = pack.acc_ext[c, :st.I]
        ex._acc_deliverable[:] = pack.acc_deliv[c, :st.O]
        ex._acc_arrivals[:] = pack.acc_arr[c, :st.P]
        ex._acc_processed[:] = pack.acc_proc[c, :st.P]
        ex._acc_delivered[:] = pack.acc_del[c, :st.O]

    # -- the batched tick -----------------------------------------------------

    def _tick(self, pack: _Pack, t: float, b: float, tick: float) -> float:
        """Advance every cell from grid point ``t``; returns the next
        grid point (past any macro jump)."""
        gate_cap = None
        if self.macro_enabled and t >= pack.gate_at and t + tick <= b:
            gate_cap = self._gate(pack, t, tick)
        snap = self._snapshot(pack) if gate_cap is not None else None
        if perf.enabled():
            with perf.timer("engine.batch_step"):
                rec = self._phases(pack, t, tick)
            perf.add("batch.ticks")
            perf.add("engine.ticks", len(pack.states))
        else:
            rec = self._phases(pack, t, tick)
        self.ticks_executed += 1
        if _validate.enabled():
            self._check(pack, t)
        if snap is not None:
            t = self._try_jump(pack, snap, rec, t, b, gate_cap, tick)
        return t + tick

    def _check(self, pack: _Pack, t: float, skipped: int = 0) -> None:
        """The checker's queue hooks on every column at grid point ``t``:
        after a real tick, or after a jump over ``skipped`` ticks."""
        checker = _validate.checker()
        for st in pack.states:
            st.env._now = t
            if skipped:
                checker.after_macro_jump(st.ex, skipped)
            else:
                checker.after_tick(st.ex)

    def _gate(self, pack: _Pack, t: float, tick: float) -> Optional[float]:
        """Batch-wide change cap: the earliest time any column's tick
        inputs may change.  ``None`` sleeps the gate (some column can
        never prove a window — e.g. a live periodic-wave profile)."""
        cap = math.inf
        for st in pack.states:
            c = st.ex._macro_change_cap(t)
            if c is None:
                st.backoff = t + self.macro_backoff_ticks * tick
                pack.gate_at = max(s.backoff for s in pack.states)
                return None
            if c < cap:
                cap = c
        if cap <= t + tick:
            return None
        return cap

    def _snapshot(self, pack: _Pack) -> tuple:
        """Bitwise pre-tick image of the mutable fluid state."""
        return (
            pack.backlog.copy(),
            pack.egress.copy(),
            [(dict(st.ex._unhosted), list(st.ex._migrating))
             for st in pack.cols],
        )

    def _try_jump(
        self,
        pack: _Pack,
        snap: tuple,
        rec: _TickRecord,
        t: float,
        b: float,
        cap: float,
        tick: float,
    ) -> float:
        """Classify each column's probe tick and, if all are stationary,
        replay as many grid points as remain provably identical.

        Fixed-point and linear-drift columns share one replay: the
        three-op drift recurrence reproduces a fixed point bitwise (the
        probe proved ``queue − served == backlog``), and the per-step
        ``served`` comparison truncates the jump at the first tick any
        queue would newly saturate or drain empty — exactly the serial
        engine's ``_macro_drift_check``, fused with the replay.
        """
        pre_backlog, pre_egress, pre_misc = snap
        for c, st in enumerate(pack.cols):
            ex = st.ex
            if (
                pack.egress[c].tobytes() != pre_egress[c].tobytes()
                or ex._unhosted != pre_misc[c][0]
                or ex._migrating != pre_misc[c][1]
            ):
                return t
        s_bytes = rec.served.tobytes() if rec.served is not None else b""
        k = 0
        g = t
        while k < self.macro_max_skip:
            gn = g + tick
            if gn > b or gn >= cap:
                break
            if rec.arrivals is not None:
                queue = pack.backlog + rec.arrivals
                s_k = np.minimum(queue, rec.caps)
                if s_k.tobytes() != s_bytes:
                    break
            # Commit one replayed tick: the same repeated ``+=`` the
            # per-tick loop would have performed.
            if rec.ext is not None:
                pack.acc_ext += rec.ext
                pack.acc_deliv += rec.deliv
                pack.acc_arr += rec.arr
                pack.acc_proc += rec.proc
                pack.acc_del += rec.delv
                np.subtract(queue, s_k, out=pack.backlog)
            for st in pack.v0:
                st.ex._acc_deliverable += st.last_deliv
            g = gn
            k += 1
        if k < 1:
            return t
        self.macro_jumps += 1
        self.macro_ticks_skipped += k
        if perf.enabled():
            perf.add("batch.macro_jumps")
            perf.add("batch.macro_ticks_skipped", k)
            perf.add("engine.ticks", k * len(pack.states))
        if _validate.enabled():
            self._check(pack, g, skipped=k)
        return g

    def _phases(self, pack: _Pack, t: float, dt: float) -> _TickRecord:
        """One vectorized tick: the serial ``FluidExecutor.step`` phases
        evaluated over the whole batch, bit for bit per column."""
        # Rates: one ``rate_at`` per distinct profile group.
        for grp in pack.rate_groups:
            grp.vals = [p.rate_at(t) for p in grp.profiles]

        # Cells with no fleet take the serial V == 0 path verbatim:
        # deliverable grows, nothing else moves.
        for st in pack.v0:
            rate_vec = np.array(st.group.vals)
            deliv = st.ex._gain @ rate_vec * dt
            st.ex._acc_deliverable += deliv
            st.last_deliv = deliv

        C = pack.C
        if C == 0:
            return _TickRecord(
                None, None, None, None, None, None, None, None
            )
        Pmax, Vmax = pack.Pmax, pack.Vmax

        # 0. release due migrations into their PE's queues (per cell:
        # rare, and _deposit writes through the backlog view).
        if pack.mig_watch:
            for c in sorted(pack.mig_watch):
                st = pack.cols[c]
                ex = st.ex
                due = [m for m in ex._migrating if m.available_at <= t]
                if due:
                    ex._migrating = [
                        m for m in ex._migrating if m.available_at > t
                    ]
                    st.env._now = t
                    for m in due:
                        ex._deposit(m.pe, m.messages)
                if not ex._migrating:
                    pack.mig_watch.discard(c)

        # 1. current effective speeds.
        coef = np.ones((C, Vmax))
        for grp in pack.coef_groups:
            pos = (grp.offsets + int(t / grp.res)) % grp.length
            coef.reshape(-1)[grp.flat] = grp.stack[grp.arange, pos]
        for c in pack.coef_scalar:
            st = pack.cols[c]
            coef[c, :st.V] = st.ex._coefficients(t)
        ready = pack.ready_time <= t
        np.multiply(pack.core_speed, coef, out=coef)
        np.multiply(coef, ready, out=coef)
        eff_speed = coef
        units = pack.alloc * eff_speed[:, None, :]
        unit_sums = _seqsum(units)
        cap_msgs = units / pack.cost * dt
        shares = np.zeros_like(units)
        live = unit_sums > _EPS
        np.divide(units, unit_sums[:, :, None], out=shares,
                  where=live[:, :, None])
        if not live.all():
            alloc_sums = _seqsum(pack.alloc)
            fallback = (~live) & (alloc_sums > 0)
            if fallback.any():
                np.divide(pack.alloc, alloc_sums[:, :, None], out=shares,
                          where=fallback[:, :, None])
        share_sums = _seqsum(shares)

        # Arrivals carry one extra dummy row per cell: padded scatter
        # indices land there, so fancy adds never touch real queues.
        arrivals = np.zeros((C, Pmax + 1, Vmax))
        av = arrivals.reshape(C * (Pmax + 1), Vmax)

        # 2. external arrivals (+ unhosted holding buffers).
        rates = np.zeros((C, pack.Imax))
        for grp in pack.rate_groups:
            if grp.cols:
                rates[grp.cols, :len(grp.vals)] = grp.vals
        n_ext = rates * dt
        pos_in = n_ext > 0.0
        ext_add = np.where(pos_in, n_ext, 0.0)
        pack.acc_ext += ext_add
        shares_rows = shares.reshape(C * Pmax, Vmax)
        in_sums = share_sums.reshape(-1)[pack.input_pe_flat]
        hosted = in_sums > _EPS
        feed = pos_in & hosted
        if feed.any():
            in_shares = shares_rows[pack.input_pe_flat]
            contrib_in = (ext_add * feed)[:, :, None] * in_shares
            # Real targets are unique (one row per distinct input PE per
            # cell), so a buffered fancy add is exact; only the padded
            # entries collide — on the dummy row, which is never read.
            av[pack.in_flat_ravel] += contrib_in.reshape(-1, Vmax)
        miss = pos_in & ~hosted
        if miss.any():
            for c, i in zip(*np.nonzero(miss)):
                st = pack.cols[c]
                ex = st.ex
                name = st.input_names[i]
                ex._unhosted[name] = (
                    ex._unhosted.get(name, 0.0) + n_ext[c, i]
                )
                pack.unhosted_watch.add(int(c))
        if pack.unhosted_watch:
            for c in sorted(pack.unhosted_watch):
                ex = pack.cols[c].ex
                for name, pending in list(ex._unhosted.items()):
                    i = ex._pe_index[name]
                    if share_sums[c, i] > _EPS and pending > _EPS:
                        arrivals[c, i] += pending * shares[c, i]
                        del ex._unhosted[name]
                if not ex._unhosted:
                    pack.unhosted_watch.discard(c)
        if pack.gain_simple:
            deliv_inc = pack.gain_col * rates[:, :1] * dt
        else:
            deliv_inc = np.zeros((C, pack.Omax))
            for c, st in enumerate(pack.cols):
                deliv_inc[c, :st.O] = st.ex._gain @ rates[c, :st.I] * dt
        pack.acc_deliv += deliv_inc

        # 3. network refresh (per cell, through the budget view) + edge
        # transfers (whole batch at once).
        if t >= pack.next_refresh:
            for c, st in enumerate(pack.cols):
                ex = st.ex
                if t >= ex._next_net_refresh:
                    ex._refresh_network(t, shares[c, :st.P, :st.V])
                    ex._next_net_refresh = t + ex.network_refresh
                    pack.refresh_at[c] = ex._next_net_refresh
            pack.next_refresh = float(pack.refresh_at.min())
        eg = pack.egress
        if pack.Emax:
            dst_shares = shares_rows[pack.edge_dst_flat]
            active = (_seqsum(eg) > _EPS) & (_seqsum(dst_shares) > _EPS)
            if active.any():
                remote_want = eg * (1.0 - dst_shares)
                # Masked divide: lanes below the epsilon keep f = 1 and
                # are never computed, so no errstate guard is needed.
                f = np.ones_like(eg)
                np.divide(
                    pack.budget * dt, remote_want, out=f,
                    where=remote_want > _EPS,
                )
                np.minimum(f, 1.0, out=f)
                moved_pool = _seqsum(f * eg)
                contrib = dst_shares * (
                    moved_pool[:, :, None] + eg * (1.0 - f)
                )
                sel = active.reshape(-1)
                np.add.at(
                    av, pack.edge_flat.reshape(-1)[sel],
                    contrib.reshape(-1, Vmax)[sel],
                )
                eg[active] = (eg * (1.0 - dst_shares) * (1.0 - f))[active]

        # 4. processing.
        arr_real = arrivals[:, :Pmax, :]
        queue = pack.backlog + arr_real
        served = np.minimum(queue, cap_msgs)
        np.subtract(queue, served, out=pack.backlog)
        arr_inc = _seqsum(arr_real)
        proc_inc = _seqsum(served)
        pack.acc_arr += arr_inc
        pack.acc_proc += proc_inc

        # 5. emission.
        out = served * pack.selectivity
        out_rows = out.reshape(C * Pmax, Vmax)
        del_inc = _seqsum(out_rows[pack.output_flat])
        pack.acc_del += del_inc
        if pack.Emax:
            flow = out_rows[pack.edge_src_flat] * pack.edge_factors
            grown = _seqsum(flow) > _EPS
            if grown.any():
                eg[grown] += flow[grown]
        return _TickRecord(
            ext_add, deliv_inc, arr_inc, proc_inc, del_inc,
            arr_real, cap_msgs, served,
        )

    # -- interval boundaries --------------------------------------------------

    def _boundary(self, st: _CellState, k: int, b: float, n: int) -> None:
        """Replay RunManager.run's per-interval body for one cell."""
        m = st.manager
        st.env._now = b
        ex = st.ex
        stats = ex.roll_interval()
        omega_k = stats.omega(m.dataflow.outputs)
        st.omega_sum += omega_k
        st.timeline.record(
            IntervalMetrics(
                t=stats.start,
                value=m.dataflow.application_value(st.selection),
                throughput=omega_k,
                cumulative_cost=m.provider.cost_at(st.env.now),
                delivered=sum(stats.delivered.values()),
                deliverable=sum(stats.deliverable.values()),
            )
        )
        if m.policy.adaptive and k < n:
            snap = st.monitor.snapshot(
                stats, st.selection, st.omega_sum / k, st.env.now
            )
            with perf.timer("policy.adapt"):
                new_plan = m.policy.adapt(snap, k)
            if new_plan is not None:
                perf.add("policy.adaptations")
                report = apply_plan(m.provider, ex, new_plan, st.env.now)
                RunManager._trace_reconcile(report, st.env.now, interval=k)
                st.reports.append(report)
                if report.changed or dict(new_plan.selection) != st.selection:
                    st.adaptations += 1
                st.selection = dict(new_plan.selection)
        st.peak = max(st.peak, len(m.provider.active_instances()))

    def _finish(self, st: _CellState) -> RunResult:
        m = st.manager
        return RunResult(
            policy_name=m.policy.name,
            spec=m.spec,
            timeline=st.timeline,
            outcome=EvaluationOutcome.from_timeline(st.timeline, m.spec),
            vms_provisioned=len(m.provider.all_instances()),
            vms_peak=st.peak,
            adaptations=st.adaptations,
            final_selection=st.selection,
            reports=st.reports,
            crashes=[],
            vm_ledger=vm_ledger(m.provider),
        )
