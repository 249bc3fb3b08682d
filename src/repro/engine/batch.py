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
  with ``inf``; padded edges carry no egress and padded inputs a zero
  rate, so neither ever scatters into a queue,
* elementwise operations keep the serial operand order and grouping
  (``(units / cost) * dt``, ``(gain · rate) * dt``, …) — identical
  inputs through identical float ops give identical outputs,
* the tick is not mirrored but shared: the pack runs the serial tick's
  phase 1, :class:`~repro.engine.executor._SpeedPhase` (same reuse
  rule, cleared at every pack), and its phases 0 and 2–5,
  :func:`~repro.engine.executor._flow_phases`, over its stacked arrays.
  Each column's scalar work (migration release, unhosted holding
  buffers, network refresh) runs on the column's own executor, whose
  buffers are views of the column; cells with zero VMs take the
  executor's own idle tick,
* the run lifecycle is not replayed but shared: each cell deploys
  through :meth:`RunManager.begin`, each interval boundary pins the
  cell's private clock and calls :meth:`RunManager.close_interval`
  (roll, record, snapshot, adapt, reconcile), and
  :meth:`RunManager.result` builds the cell's result — the very steps
  :meth:`RunManager.run` drives from the kernel clock.

Macro-stepping (S24) is the serial engine's protocol, run on the pack
and its column executors: the gate
(:func:`~repro.engine.executor._gate_cap`) takes the earliest change
cap over every cell, the probe tick must leave the pack's egress and
each column's holding buffers and migrations bitwise unchanged
(:func:`~repro.engine.executor._image`), and
:func:`~repro.engine.executor._jump` sizes the jump over the grid points
up to the interval boundary with the probe's vectorized drift check, so
the batch jumps only when every column proves a constant stretch.  The
recorded :class:`~repro.engine.executor._TickRecord` commits through the
serial engine's one replay (:class:`~repro.engine.executor._Run`), with
no per-tick loop.  The batch opens no windows: a wide batch keeps one
regime for too few ticks to pay for a window's passes.

Failure injection is out of scope (the failure driver is a foreign
kernel process that rebuilds fleets mid-interval, while the batch packs
only at interval boundaries); :func:`repro.experiments.runner.run_cells`
routes such cells to the serial path.  The run-invariant checker
(``REPRO_VALIDATE=1``) sees every column through the same hooks as the
serial engine: a ledger opened per cell, the queue checks after every
tick and macro jump, and the interval checks in ``roll_interval``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Hashable, Optional, Sequence

import numpy as np

from ..obs import collector as _obs
from ..util import perf
from ..validate import invariants as _validate
from .executor import (
    _MACRO_MAX_SKIP, _CoefGroup, _flow_phases, _gate_cap, _grid, _image,
    _jump, _macro_default, _prefix, _Run, _SpeedPhase, _TickRecord,
)
from .manager import RunManager, RunResult, RunState
# Unused here (the run lifecycle reconciles through ``repro.engine.manager``),
# but ``benchmarks/suite/spans.py`` patches this name, so it must resolve.
from .reconcile import apply_plan  # noqa: F401

__all__ = ["BatchRunner"]


class _Cell:
    """One sweep cell: its :class:`RunState` plus SoA bookkeeping."""

    __slots__ = (
        "manager", "run", "env", "ex", "rate_key", "input_names",
        "col", "P", "V", "E", "I", "O", "last",
    )

    def __init__(
        self, manager: RunManager, run: RunState, rate_key: Hashable
    ) -> None:
        self.manager = manager
        self.run = run
        self.env = run.env
        self.ex = run.executor
        self.rate_key = rate_key
        self.input_names = tuple(manager.dataflow.inputs)
        #: This cell's last tick while it has no fleet.
        self.last: Optional[_TickRecord] = None
        # The batch drives the clock itself, so no tick process starts:
        # open the checker's ledger here instead of in executor.start().
        if _validate.enabled():
            _validate.checker().register_executor(self.ex)


class _Pack:
    """The stacked state for one adaptation interval (one *epoch*).

    Rebuilt at every interval boundary: reconciliation can resize any
    cell's fleet, so the batch width and the per-cell views are only
    stable between boundaries.  The arrays the tick phases read carry
    the executor's field names (see
    :func:`~repro.engine.executor._flow_phases`).
    """

    __slots__ = (
        "cols", "v0", "states", "columns", "executors", "C", "Pmax",
        "Vmax", "Imax", "tick", "alloc", "core_speed", "ready_time", "cost",
        "profiles", "rate_idx", "coef_groups", "coef_scalar", "speed",
        "_backlog", "_egress", "_remote_budget", "_selectivity",
        "_gain", "_edge_factors", "_input_idx", "_edge_src", "_edge_dst",
        "_output_idx", "_acc_external", "_acc_deliverable",
        "_acc_arrivals", "_acc_processed", "_acc_delivered",
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
        # Last epoch's pack, reusable when no cell's fleet was rebuilt:
        # (layout key, per-column content signatures, pack, tick).
        self._pack_reuse: Optional[tuple] = None

    # -- driving --------------------------------------------------------------

    def run(self) -> list[RunResult]:
        """Execute every cell's full optimization period: the manager's
        lifecycle steps per cell around one vectorized tick loop."""
        states = []
        for m, key in zip(self.managers, self._rate_keys):
            with self._cell_ctx(m):
                states.append(_Cell(m, m.begin(), key))
        spec = self.managers[0].spec
        tick = float(self.managers[0].tick)
        t = 0.0
        for k in range(1, spec.n_intervals + 1):
            b = k * spec.interval
            pack = self._pack(states, tick)
            while t <= b:
                t = self._tick(pack, t, b, tick)
            for st in states:
                self._copy_out(pack, st)
            for st in states:
                st.env._now = b
                with self._cell_ctx(st.manager):
                    st.manager.close_interval(st.run, k)
            self._after_boundaries(k, b)
        return [st.manager.result(st.run) for st in states]

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

    # -- packing --------------------------------------------------------------

    def _pack(self, states: list[_Cell], tick: float) -> _Pack:
        """Stack per-cell state into (C, …) arrays and alias the cells'
        mutable buffers to per-cell views, so each column's scalar work
        (_deposit, _refresh_network) writes through.

        Repacking is incremental across epochs: a cell's stacked rows
        only go stale when the executor rebuilds its fleet arrays (a
        reconcile that changed placement) or rebinds its selection
        arrays (an alternate switch) — both allocate fresh ndarrays, so
        object identity is the change signal.  When the column layout is
        unchanged, the previous epoch's pack is reused and only the
        changed cells re-gather; with thousands of mostly-steady tenants
        this turns the per-boundary O(cells) stacking into O(changes).
        The unchanged cells' buffers are views into the pack, so their
        live state is already in place."""
        cols: list[_Cell] = []
        v0: list[_Cell] = []
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
        if cached is not None and cached[0] == layout and cached[3] == tick:
            pack = cached[2]
            changed = [
                c for c in range(len(cols)) if sigs[c] != cached[1][c]
            ]
            # The interval accumulators restart from zero, as every
            # executor's did in roll_interval at the boundary just crossed.
            for acc in (pack._acc_external, pack._acc_deliverable,
                        pack._acc_arrivals, pack._acc_processed,
                        pack._acc_delivered):
                acc.fill(0.0)
            if perf.enabled():
                perf.add("batch.pack_reuses")
                perf.add("batch.pack_cells_refreshed", len(changed))
        else:
            pack = self._new_pack(states, cols, v0, tick)
            changed = list(range(len(cols)))
        for c in changed:
            self._load_column(pack, c, cols[c])
        if changed:
            self._pack_coefs(pack, cols)
        # Columns may have changed in place: phase 1 starts afresh.
        pack.speed = self._speed_phase(pack)
        if perf.enabled():
            perf.add("batch.packs")
            perf.add("batch.columns", len(states))
        self._pack_reuse = (layout, sigs, pack, tick)
        return pack

    def _new_pack(
        self, states: list[_Cell], cols: list[_Cell], v0: list[_Cell],
        tick: float,
    ) -> _Pack:
        """A pack for a new column layout: the rate index and padded arrays
        (the interval accumulators start at zero, like every executor's
        at a fresh start or after roll_interval)."""
        pack = _Pack()
        pack.states = states
        pack.tick = tick
        pack.cols = cols
        pack.v0 = v0
        pack.columns = {(c,): st.ex for c, st in enumerate(cols)}
        pack.executors = [st.ex for st in states]
        C = pack.C = len(cols)

        # Rates: each distinct profile once (cells with equal rate keys
        # share theirs), in a flat list with a zero slot at the end.
        # Row ``r`` of ``rate_idx`` indexes the inputs of column ``r``,
        # then of the zero-VM cells in order, padded with the zero slot.
        first: dict[Hashable, int] = {}
        pack.profiles = []
        for st in states:
            if st.rate_key not in first:
                first[st.rate_key] = len(pack.profiles)
                pack.profiles.extend(
                    st.ex.profiles[nm] for nm in st.input_names
                )
        pack.rate_idx = np.full(
            (len(states), max(st.I for st in states)), len(pack.profiles),
            dtype=np.intp,
        )
        for r, st in enumerate(cols + v0):
            pack.rate_idx[r, :st.I] = first[st.rate_key] + np.arange(st.I)

        Pmax = pack.Pmax = max((st.P for st in cols), default=0)
        Vmax = pack.Vmax = max((st.V for st in cols), default=0)
        Emax = max((st.E for st in cols), default=0)
        Imax = pack.Imax = max((st.I for st in cols), default=0)
        Omax = max((st.O for st in cols), default=0)
        pack.alloc = np.zeros((C, Pmax, Vmax))
        pack._backlog = np.zeros((C, Pmax, Vmax))
        pack._egress = np.zeros((C, Emax, Vmax))
        pack._remote_budget = np.full((C, Emax, Vmax), np.inf)
        pack.core_speed = np.zeros((C, Vmax))
        pack.ready_time = np.full((C, Vmax), np.inf)
        pack.cost = np.ones((C, Pmax, 1))
        pack._selectivity = np.zeros((C, Pmax, 1))
        pack._gain = np.zeros((C, Omax, Imax))
        pack._edge_factors = np.zeros((C, Emax, 1))
        # PE indices are flattened rows: one fancy index into a
        # ``(C·Pmax, Vmax)`` view beats a two-array advanced index.
        # Padding repeats the cell's first row (its first input's row
        # for inputs, see _load_column).
        rows = np.arange(C)[:, None] * Pmax
        pack._input_idx = np.repeat(rows, Imax, axis=1)
        pack._edge_dst = np.repeat(rows, Emax, axis=1)
        pack._edge_src = np.repeat(rows, Emax, axis=1)
        pack._output_idx = np.repeat(rows, Omax, axis=1)
        pack._acc_external = np.zeros((C, Imax))
        pack._acc_deliverable = np.zeros((C, Omax))
        pack._acc_arrivals = np.zeros((C, Pmax))
        pack._acc_processed = np.zeros((C, Pmax))
        pack._acc_delivered = np.zeros((C, Omax))
        return pack

    def _pack_coefs(self, pack: _Pack, cols: list[_Cell]) -> None:
        """Group the cells' CPU-trace gathers for the batched one.

        Each column's group joins the batch group of its (length,
        resolution), built from the members' rows, offsets and lanes
        alone: it gathers from the members' stack — the trace library's
        own array when they replay one library — so packing copies no
        series; only members with distinct stacks of their own (series
        that are not library views) are concatenated.  Lanes outside
        the groups (``pack.coef_scalar`` columns) are filled by the
        column's executor."""
        Vmax = pack.Vmax
        coef_members: dict[tuple[int, float], list[int]] = {}
        pack.coef_scalar = []
        for c, st in enumerate(cols):
            g = st.ex._coef_group
            if g is not None:
                key = (g.length, float(g.res))
                coef_members.setdefault(key, []).append(c)
            if st.ex._coef_scalar_idx:
                pack.coef_scalar.append(c)
        pack.coef_groups = []
        for (_L, res), members in coef_members.items():
            groups = [cols[c].ex._coef_group for c in members]
            first: dict[int, int] = {}
            stacks = []
            for g in groups:
                if id(g.stack) not in first:
                    first[id(g.stack)] = sum(s.shape[0] for s in stacks)
                    stacks.append(g.stack)
            pack.coef_groups.append(_CoefGroup(
                stacks[0] if len(stacks) == 1 else np.concatenate(stacks),
                np.concatenate([g.rows + first[id(g.stack)] for g in groups]),
                np.concatenate([g.offsets for g in groups]),
                np.concatenate([c * Vmax + g.flat
                                for c, g in zip(members, groups)]),
                res,
            ))

    def _speed_phase(self, pack: _Pack) -> _SpeedPhase:
        """Tick phase 1 over the pack's stacked arrays."""
        fill = None
        if pack.coef_scalar:
            scalar = [(c, pack.cols[c].ex) for c in pack.coef_scalar]

            def fill(coef: np.ndarray, t: float) -> None:
                for c, ex in scalar:
                    ex._fill_coefficients(coef[c], t)

        return _SpeedPhase(
            pack.alloc, pack.core_speed, pack.ready_time, pack.cost,
            pack.coef_groups, fill, pack._edge_dst, pack._input_idx,
            "batch.speed_recomputes",
        )

    def _load_column(self, pack: _Pack, c: int, st: _Cell) -> None:
        """Copy one cell's executor rows into column ``c`` and alias its
        mutable buffers (backlog, egress, network budget) to views of
        the column, so the per-cell helpers write through."""
        ex = st.ex
        P, V, E, I, O = st.P, st.V, st.E, st.I, st.O
        # Copy the buffers before resetting the column's planes: on a
        # reused pack they may be views of these very planes.
        backlog = np.array(ex._backlog)
        egress = np.array(ex._egress)
        budget = np.array(ex._remote_budget)
        for plane, pad in (
            (pack.alloc, 0.0), (pack._backlog, 0.0), (pack._egress, 0.0),
            (pack._remote_budget, np.inf), (pack.core_speed, 0.0),
            (pack.ready_time, np.inf),
        ):
            plane[c].fill(pad)
        pack.alloc[c, :P, :V] = ex._alloc
        pack._backlog[c, :P, :V] = backlog
        ex._backlog = pack._backlog[c, :P, :V]
        pack._egress[c, :E, :V] = egress
        ex._egress = pack._egress[c, :E, :V]
        pack._remote_budget[c, :E, :V] = budget
        ex._remote_budget = pack._remote_budget[c, :E, :V]
        pack.core_speed[c, :V] = ex._core_speed
        pack.ready_time[c, :V] = ex._ready_time
        pack.cost[c, :P] = ex._cost
        pack._selectivity[c, :P] = ex._selectivity
        pack._gain[c, :O, :I] = ex._gain
        # Topology rows (static per executor).
        row = c * pack.Pmax
        pack._edge_factors[c, :E] = ex._edge_factors
        pack._input_idx[c, :I] = row + ex._input_idx
        pack._input_idx[c, I:] = row + ex._input_idx[0]
        pack._edge_dst[c, :E] = row + ex._edge_dst
        pack._edge_src[c, :E] = row + ex._edge_src
        pack._output_idx[c, :O] = row + ex._output_idx

    def _copy_out(self, pack: _Pack, st: _Cell) -> None:
        """Write a cell's stacked accumulators back into its executor
        (the backlog/egress/budget buffers are views — already live)."""
        if st.col < 0:
            return
        c = st.col
        ex = st.ex
        ex._acc_external[:] = pack._acc_external[c, :st.I]
        ex._acc_deliverable[:] = pack._acc_deliverable[c, :st.O]
        ex._acc_arrivals[:] = pack._acc_arrivals[c, :st.P]
        ex._acc_processed[:] = pack._acc_processed[c, :st.P]
        ex._acc_delivered[:] = pack._acc_delivered[c, :st.O]

    # -- the batched tick -----------------------------------------------------

    def _tick(self, pack: _Pack, t: float, b: float, tick: float) -> float:
        """Advance every cell from grid point ``t``; returns the next
        grid point (past any macro jump).

        The macro protocol is the serial engine's, on the pack and its
        column executors: :func:`~repro.engine.executor._gate_cap` before
        the probe tick, :func:`~repro.engine.executor._jump` after it over
        the grid points up to the interval boundary ``b``, and one replay
        (:class:`~repro.engine.executor._Run`).
        """
        cols = pack.executors
        cap = image = None
        if self.macro_enabled and t + tick <= b:
            cap = _gate_cap(cols, t, tick)
            if cap is not None:
                image = _image(pack, cols)
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
        if image is None:
            return t + tick
        grid = _grid(t, tick, _MACRO_MAX_SKIP, min(b, cap))
        run = _jump(pack, cols, image, rec, grid[:_prefix(grid <= b)], cap)
        if run is None:
            return t + tick
        k = run.n
        run.commit(pack, 0, k)
        for st in pack.v0:
            _Run(k, st.last.increments()).commit(st.ex, 0, k)
        g = float(grid[k - 1])
        self.macro_jumps += 1
        self.macro_ticks_skipped += k
        if perf.enabled():
            perf.add("batch.macro_jumps")
            perf.add("batch.macro_ticks_skipped", k)
            perf.add("engine.ticks", k * len(pack.states))
        if _validate.enabled():
            self._check(pack, g, skipped=k)
        return g + tick

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

    def _phases(
        self, pack: _Pack, t: float, dt: float
    ) -> Optional[_TickRecord]:
        """One vectorized tick: the serial ``FluidExecutor.step`` over
        the whole batch, bit for bit per column."""
        # Rates: one ``rate_at`` per distinct profile, one gather.
        rates = np.array(
            [p.rate_at(t) for p in pack.profiles] + [0.0]
        )[pack.rate_idx]
        C = pack.C

        # Cells with no fleet take the serial V == 0 path verbatim.
        for r, st in enumerate(pack.v0, start=C):
            st.last = st.ex._idle_tick(rates[r, :st.I], dt)

        if not C:
            return None
        # 1. effective speeds, capacities and routing shares: the serial
        # tick's phase 1 over the stacked arrays, recomputed only when
        # one of its inputs changed.
        sp = pack.speed
        sp.update(t, dt)
        return _flow_phases(pack, pack.columns, sp, t, dt,
                            rates[:C, :pack.Imax])
