"""Runtime invariant monitors for the simulation substrate (S23).

An opt-in :class:`InvariantChecker` that re-derives, from first
principles, the properties the paper's accounting rests on and asserts
them at the emit points the engine already exposes to :mod:`repro.obs`:

* **message conservation** — per interval and per PE, the messages a PE
  is still holding must equal everything that flowed in (external
  arrivals plus every predecessor's processed output scaled by the
  *dataflow's* selectivities and split factors) minus everything that
  flowed out (processed plus crash-lost).  Selectivities and split
  factors are re-derived from the :class:`~repro.dataflow.graph.DynamicDataflow`
  itself, never read from the executor's vectorized arrays, so a
  corrupted array is caught rather than trusted.
* **queue sanity** — per tick, no input queue, egress buffer, migration
  buffer, or unhosted holding buffer may go negative.
* **metric ranges** — Ω and Γ stay within [0, 1].
* **plans** — every planned VM fits its class, and the core count it
  keeps equals the sum of its allocations.
* **billing** — μ[t] recomputed independently over the *unique* set of
  registered instances (duplicates mean double-billing), monotone
  non-decreasing in time, with charges landing only when some instance
  crosses an hour boundary (or newly starts its first hour).
* **fleet agreement** — after every reconcile the live fleet matches the
  declarative plan exactly; stopped/failed VMs hold no allocations and
  no VM exceeds its core count.

Enable contract (identical to :mod:`repro.util.perf` / :mod:`repro.obs`):
off by default, enabled process-wide via ``REPRO_VALIDATE=1``,
:func:`enable`, or scoped with :func:`checking`.  Every instrumented call
site guards with one module-global flag test, so the disabled overhead is
a function call (<2 µs, asserted in ``benchmarks/test_bench_smoke.py``).

Violations raise a structured :class:`InvariantViolation` carrying the
simulation time, the emitting site, the offending values, and a repro
snippet; when tracing is enabled a ``validate_failure`` event is emitted
first so the trace records what the run was doing when it died.
"""

from __future__ import annotations

import math
import os
import weakref
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional

from ..obs import collector as _trace

__all__ = [
    "enable",
    "disable",
    "enabled",
    "checking",
    "checker",
    "reset",
    "InvariantChecker",
    "InvariantViolation",
]

_enabled: bool = os.environ.get("REPRO_VALIDATE", "") not in ("", "0", "false")

#: Seconds per billing hour, deliberately duplicated from
#: :mod:`repro.cloud.billing` so the recomputation shares nothing with
#: the code it checks.
_HOUR = 3600.0

_EPS = 1e-9


def enable() -> None:
    """Turn invariant checking on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn invariant checking off (checker state is kept)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether the invariant checker is currently active."""
    return _enabled


@contextmanager
def checking() -> Iterator["InvariantChecker"]:
    """Enable invariant checking for a block (perf.collecting twin)."""
    was = _enabled
    enable()
    try:
        yield checker()
    finally:
        if not was:
            disable()


class InvariantViolation(AssertionError):
    """A runtime invariant did not hold.

    Attributes
    ----------
    site:
        Dotted name of the emitting check, e.g.
        ``engine.executor.conservation``.
    t:
        Simulation time at which the violation was detected.
    details:
        The offending values (JSON-friendly scalars where possible).
    repro:
        A snippet that reproduces the checked run.
    """

    def __init__(
        self,
        site: str,
        t: float,
        message: str,
        details: Optional[Mapping[str, Any]] = None,
        context: Optional[str] = None,
    ) -> None:
        self.site = site
        self.t = float(t)
        self.details = dict(details or {})
        if context:
            self.repro = f"REPRO_VALIDATE=1 python -m repro {context}"
        else:
            self.repro = (
                "re-run under REPRO_VALIDATE=1 (or repro.validate.checking()) "
                "with REPRO_TRACE=1 to capture the event trace"
            )
        lines = [f"[{site}] t={self.t:.1f}s: {message}"]
        if self.details:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(self.details.items())
            )
            lines.append(f"  details: {rendered}")
        lines.append(f"  repro: {self.repro}")
        super().__init__("\n".join(lines))


class _ExecutorLedger:
    """Per-executor conservation state (weakly keyed by the executor)."""

    __slots__ = ("credit", "inflow_total", "dirty", "seen")

    def __init__(self, pe_names) -> None:
        #: Messages each PE *should* still be holding.
        self.credit = {n: 0.0 for n in pe_names}
        #: Cumulative inflow per PE, scaling the float tolerance.
        self.inflow_total = {n: 0.0 for n in pe_names}
        #: The current interval mixed two selections; skip its checks.
        self.dirty = False
        self.seen = False


class _MeterLedger:
    """Per-billing-meter state."""

    __slots__ = ("last_at", "last_cost", "hours", "costs")

    def __init__(self) -> None:
        self.last_at = -math.inf
        self.last_cost = 0.0
        #: instance_id → billed hours at the previous query (fractional
        #: for per-second spot instances).
        self.hours: dict[str, float] = {}
        #: instance_id → recomputed per-instance cost at the previous
        #: query (the per-model generalization of the boundary check).
        self.costs: dict[str, float] = {}


def _expected_instance_cost(
    model_name: str,
    params: Mapping[str, Any],
    meter,
    r,
    elapsed: float,
    hours: float,
    per_second: bool,
) -> float:
    """Independent per-instance μ mirror for one pricing model.

    Driven off the model's ``params()`` dict and the instance's lifecycle
    only — never the model's ``instance_cost`` code.  The one exception
    is ``spot_trace``, whose multiplier *series* is input data (like the
    catalog's price list): it is sampled through ``meter.model.price_at``
    while the charging arithmetic stays mirrored here.
    """
    price = r.vm_class.hourly_price
    if model_name == "spot_trace":
        price_at = meter.model.price_at
        start = r.started_at
        if per_second:
            res = float(params["resolution_s"])
            end = start + elapsed
            total = 0.0
            t = start
            while t < end - 1e-12:
                seg_end = min(end, (math.floor(t / res) + 1.0) * res)
                if seg_end <= t:
                    seg_end = min(end, t + res)
                total += price_at(r.vm_class, t) * (seg_end - t)
                t = seg_end
            return total / _HOUR
        return sum(
            price_at(r.vm_class, start + (i - 1) * _HOUR)
            for i in range(1, int(hours) + 1)
        )
    if per_second:
        return hours * price
    if model_name == "reserved":
        commit = int(params["commit_hours"])
        discount = float(params["discount"])
        upfront_fraction = float(params["upfront_fraction"])
        committed = min(int(hours), commit)
        return (
            commit * price * discount * upfront_fraction
            + committed * price * (1.0 - discount)
            + (hours - committed) * price
        )
    if model_name == "sustained_use":
        discount = float(params["discount"])
        window = int(params["window_hours"])
        total = 0.0
        for i in range(1, int(hours) + 1):
            tier = min(3, (4 * ((i - 1) % window)) // window)
            total += price * (1.0 - discount * tier / 3.0)
        return total
    # on_demand_hourly (and the conservative default for unknown names).
    return hours * price


class _AdapterLedger:
    """Per-adaptation-heuristic state."""

    __slots__ = ("last_mu",)

    def __init__(self) -> None:
        self.last_mu = -math.inf


class InvariantChecker:
    """Asserts the simulator's structural invariants at runtime.

    One process-global instance (see :func:`checker`) serves every hook;
    per-object state (conservation ledgers, billing history) is held in
    weak maps so finished runs are garbage-collected normally.
    """

    def __init__(self) -> None:
        self._executors: "weakref.WeakKeyDictionary[Any, _ExecutorLedger]" = (
            weakref.WeakKeyDictionary()
        )
        self._meters: "weakref.WeakKeyDictionary[Any, _MeterLedger]" = (
            weakref.WeakKeyDictionary()
        )
        self._adapters: "weakref.WeakKeyDictionary[Any, _AdapterLedger]" = (
            weakref.WeakKeyDictionary()
        )
        #: CLI invocation reproducing the checked run (set by the suite).
        self.context: Optional[str] = None
        #: Violations raised so far (diagnostics; raising stops the run).
        self.violations = 0

    # -- failure path ---------------------------------------------------------

    def fail(
        self, site: str, t: float, message: str, **details: Any
    ) -> None:
        """Record and raise one violation."""
        self.violations += 1
        if _trace.enabled():
            _trace.emit(
                "validate_failure", t=t, site=site, reason=message
            )
        raise InvariantViolation(
            site, t, message, details=details, context=self.context
        )

    # -- executor hooks -------------------------------------------------------

    def register_executor(self, executor) -> None:
        """Open a conservation ledger for an executor about to start.

        Called from ``FluidExecutor.start()`` so the ledger's baseline
        (current held backlog, normally zero) is taken *before* any
        messages flow — the very first interval is then fully checked.
        """
        state = _ExecutorLedger(executor.dataflow.pe_names)
        state.credit = {
            n: executor.pe_backlog(n) for n in executor.dataflow.pe_names
        }
        state.seen = True
        self._executors[executor] = state

    def after_tick(self, executor) -> None:
        """Queue-sanity checks, run once per fluid tick."""
        t = executor.env.now
        self._check_buffers(t, executor._backlog, executor._egress)
        for buf in executor._migrating:
            if buf.messages < -_EPS:
                self.fail(
                    "engine.executor.queue",
                    t,
                    "negative migration buffer",
                    pe=buf.pe,
                    messages=buf.messages,
                )
        for name, pending in executor._unhosted.items():
            if pending < -_EPS:
                self.fail(
                    "engine.executor.queue",
                    t,
                    "negative unhosted holding buffer",
                    pe=name,
                    messages=pending,
                )

    def _check_buffers(self, t: float, backlog, egress) -> None:
        """No negative input queue or egress buffer, in one tick's state
        or in a stack of them (leading time axis)."""
        if backlog.size and float(backlog.min()) < -_EPS:
            self.fail(
                "engine.executor.queue",
                t,
                "negative input-queue backlog",
                min_backlog=float(backlog.min()),
            )
        if egress.size and float(egress.min()) < -_EPS:
            self.fail(
                "engine.executor.queue",
                t,
                "negative egress buffer",
                min_egress=float(egress.min()),
            )

    def after_macro_jump(self, executor, n_skipped: int, backlog=None,
                         egress=None) -> None:
        """Ledger hook for the macro-stepping executor settling ticks it
        did not step: a jump's or a window's.

        A jump's served flow is constant over its ticks, so every queue
        moves linearly (stationary, or drifting at a fixed rate) and the
        states before and after it bound every skipped tick's: one
        queue-sanity sweep of the final state is equivalent to having
        run :meth:`after_tick` at each of them.  A window's state is not
        stationary: the engine passes the stacked ``backlog`` / ``egress``
        of every committed tick, and each is checked.  The interval
        conservation ledger sees the replayed accumulators through the
        normal :meth:`after_interval` path.
        """
        if n_skipped < 0:
            self.fail(
                "engine.executor.macro",
                executor.env.now,
                "macro jump settled a negative tick count",
                n_skipped=n_skipped,
            )
        if backlog is not None:
            self._check_buffers(executor.env.now, backlog, egress)
        self.after_tick(executor)

    def note_selection_change(self, executor) -> None:
        """Called from ``set_selection``: if the current interval already
        accumulated work under the old selection, its conservation and
        delivery checks would mix two selectivity regimes — mark it dirty
        so :meth:`after_interval` re-baselines instead of asserting."""
        state = self._executors.get(executor)
        if state is None:
            return
        if (
            executor._acc_processed.any()
            or executor._acc_external.any()
            or executor.stats.processed
            or executor.stats.external_in
        ):
            state.dirty = True

    def after_interval(self, executor, stats) -> None:
        """Interval-boundary checks: Ω range, exact delivery accounting,
        per-PE message conservation, and fleet sanity."""
        t = stats.end
        df = executor.dataflow
        state = self._executors.get(executor)
        if state is None:
            # Checking was enabled mid-run: this interval's flows predate
            # the ledger, so baseline on observed backlog and check the
            # stateless invariants only (the dirty path below).
            state = _ExecutorLedger(df.pe_names)
            state.dirty = True
            self._executors[executor] = state

        omega = stats.omega(df.outputs)
        if not -_EPS <= omega <= 1.0 + _EPS:
            self.fail(
                "engine.executor.omega",
                t,
                f"Ω outside [0, 1]: {omega}",
                omega=omega,
            )
        for label, counters in (
            ("external_in", stats.external_in),
            ("arrivals", stats.arrivals),
            ("processed", stats.processed),
            ("delivered", stats.delivered),
            ("deliverable", stats.deliverable),
            ("lost", stats.lost),
        ):
            for name, value in counters.items():
                if value < -_EPS:
                    self.fail(
                        "engine.executor.stats",
                        t,
                        f"negative {label} counter",
                        pe=name,
                        value=value,
                    )

        # Selectivities and split factors re-derived from the dataflow —
        # independent of the executor's vectorized arrays.
        sel = {
            n: df.active_alternate(executor.selection, n).selectivity
            for n in df.pe_names
        }
        if state.dirty:
            # The interval mixed two selections (mid-interval alternate
            # switch): its flows are not attributable to one selectivity
            # regime.  Re-baseline the ledger on observed reality.
            state.credit = {n: executor.pe_backlog(n) for n in df.pe_names}
            state.dirty = False
            return

        from ..dataflow.patterns import SplitPattern

        for o in df.outputs:
            expected = stats.processed.get(o, 0.0) * sel[o]
            got = stats.delivered.get(o, 0.0)
            if abs(got - expected) > 1e-9 * max(1.0, expected) + 1e-6:
                self.fail(
                    "engine.executor.delivered",
                    t,
                    "delivered ≠ processed × selectivity at output PE",
                    pe=o,
                    delivered=got,
                    expected=expected,
                    selectivity=sel[o],
                )

        for n in df.pe_names:
            inflow = stats.external_in.get(n, 0.0) if n in df.inputs else 0.0
            for u in df.predecessors(n):
                k = len(df.successors(u))
                factor = (
                    1.0
                    if df.split_pattern(u) is SplitPattern.AND_SPLIT
                    else 1.0 / k
                )
                inflow += stats.processed.get(u, 0.0) * sel[u] * factor
            consumed = stats.processed.get(n, 0.0) + stats.lost.get(n, 0.0)
            state.credit[n] += inflow - consumed
            state.inflow_total[n] += inflow
            held = executor.pe_backlog(n)
            tol = 1e-6 + 1e-9 * state.inflow_total[n]
            if abs(state.credit[n] - held) > tol:
                self.fail(
                    "engine.executor.conservation",
                    t,
                    "message conservation broken: held backlog does not "
                    "match the inflow/outflow ledger",
                    pe=n,
                    held=held,
                    expected=state.credit[n],
                    drift=state.credit[n] - held,
                    tolerance=tol,
                )

        self.check_fleet(
            executor.provider, t, site="engine.executor.fleet"
        )

    # -- fleet ---------------------------------------------------------------

    def check_fleet(self, provider, t: float, site: str = "cloud.fleet") -> None:
        """No allocation on stopped/failed VMs; no VM over capacity."""
        for r in provider.all_instances():
            used = r.used_cores
            if not r.active and used:
                self.fail(
                    site,
                    t,
                    "stopped/failed VM still holds core allocations",
                    instance=r.instance_id,
                    allocations=dict(r.allocations),
                )
            if used > r.vm_class.cores:
                self.fail(
                    site,
                    t,
                    "allocated cores exceed VM capacity",
                    instance=r.instance_id,
                    used=used,
                    cores=r.vm_class.cores,
                )
            for pe_name, cores in r.allocations.items():
                if cores < 0:
                    self.fail(
                        site,
                        t,
                        "negative core allocation",
                        instance=r.instance_id,
                        pe=pe_name,
                        cores=cores,
                    )

    # -- reconcile ------------------------------------------------------------

    def check_reconcile(
        self,
        provider,
        executor,
        plan,
        report,
        now: float,
        denied_views=None,
        expected=None,
    ) -> None:
        """ClusterView/provider agreement after a reconcile.

        ``denied_views`` lists planned-new VMs the shared cloud refused
        outright (no fallback class was admittable): together with the
        report's ``fallbacks`` they must match the structured denials
        one-for-one.  ``expected`` is the reconciler's own record of the
        fleet it built — ``instance_id → (class, allocations)`` — which
        equals the plan exactly when nothing was denied and reflects
        fallback/re-home degradation when something was; the live fleet
        must realize it either way.
        """
        site = "engine.reconcile"
        denied_views = list(denied_views or [])
        expected = dict(expected or {})
        fallbacks = list(getattr(report, "fallbacks", []))
        if len(denied_views) + len(fallbacks) != len(report.denied):
            self.fail(
                site,
                now,
                "denied plan views + fallbacks do not match the report's "
                "denials",
                denied_views=len(denied_views),
                fallbacks=len(fallbacks),
                denials=len(report.denied),
            )
        live = {r.instance_id: r for r in provider.active_instances()}
        planned_existing = {
            vm.instance_id: vm for vm in plan.cluster.vms if vm.instance_id
        }
        if set(expected) != set(planned_existing) | set(report.provisioned):
            self.fail(
                site,
                now,
                "reconcile expectation does not cover survivors + "
                "provisioned VMs",
                expected=sorted(expected),
                survivors=sorted(planned_existing),
                provisioned=sorted(report.provisioned),
            )
        for instance_id, (class_name, alloc) in expected.items():
            r = live.get(instance_id)
            if r is None:
                self.fail(
                    site,
                    now,
                    "expected VM is not active after reconcile",
                    instance=instance_id,
                )
            if r.vm_class.name != class_name:
                self.fail(
                    site,
                    now,
                    "live VM class diverges from the reconciled class",
                    instance=instance_id,
                    expected=class_name,
                    live=r.vm_class.name,
                )
            want = {p: c for p, c in alloc.items() if c > 0}
            have = {p: c for p, c in r.allocations.items() if c > 0}
            if want != have:
                self.fail(
                    site,
                    now,
                    "live allocations diverge from the reconciled plan",
                    instance=instance_id,
                    planned=want,
                    live=have,
                )
        # No degradation ⇒ the reconciled fleet must equal the plan
        # verbatim (class multiset of the new VMs, allocations already
        # checked above via ``expected``).
        denied_ids = {id(vm) for vm in denied_views}
        planned_new = [
            vm
            for vm in plan.cluster.vms
            if vm.instance_id is None and id(vm) not in denied_ids
        ]
        if len(report.provisioned) != len(planned_new):
            self.fail(
                site,
                now,
                "provisioned VM count does not match the plan's new VMs",
                provisioned=len(report.provisioned),
                planned_new=len(planned_new),
                denied=len(denied_views),
            )
        if not report.denied:
            got = sorted(
                live[i].vm_class.name
                for i in report.provisioned
                if i in live
            )
            want = sorted(vm.vm_class.name for vm in planned_new)
            if got != want:
                self.fail(
                    site,
                    now,
                    "provisioned classes diverge from the plan without any "
                    "recorded denial",
                    provisioned=got,
                    planned=want,
                )
        for instance_id in report.terminated:
            r = provider.instance(instance_id)
            if r.active or r.used_cores:
                self.fail(
                    site,
                    now,
                    "terminated VM still active or allocated",
                    instance=instance_id,
                )
        allowed = set(planned_existing) | set(report.provisioned)
        for instance_id, r in live.items():
            if r.used_cores and instance_id not in allowed:
                self.fail(
                    site,
                    now,
                    "active VM hosts PEs but is absent from the plan",
                    instance=instance_id,
                    allocations=dict(r.allocations),
                )
        if dict(executor.selection) != dict(plan.selection):
            self.fail(
                site,
                now,
                "executor selection diverges from the plan's selection",
                executor=dict(executor.selection),
                plan=dict(plan.selection),
            )
        self.check_fleet(provider, now, site=site)

    # -- billing --------------------------------------------------------------

    def check_billing(self, meter, at: float, cost: float) -> None:
        """Recompute μ[t] from scratch and check its evolution.

        The recompute is generalized per pricing model (S28): the model's
        :meth:`~repro.cloud.billing.BillingModel.params` dict — never its
        code — drives an independent mirror of the charging arithmetic.
        The hour-boundary check applies to hour-granular instances only;
        per-second instances (spot twins, and everything under the
        ``per_second`` model) accrue continuously and are covered by the
        monotonicity and μ checks instead.
        """
        site = "cloud.billing"
        state = self._meters.get(meter)
        if state is None:
            state = _MeterLedger()
            self._meters[meter] = state

        unique: dict[str, Any] = {}
        for r in meter.instances:
            if r.instance_id in unique:
                self.fail(
                    f"{site}.duplicate",
                    at,
                    "instance registered twice with the billing meter "
                    "(double-billing)",
                    instance=r.instance_id,
                )
            unique[r.instance_id] = r

        model = getattr(meter, "model", None)
        params = (
            model.params() if model is not None else {"model": "on_demand_hourly"}
        )
        model_name = params.get("model", "on_demand_hourly")

        expected = 0.0
        hours_now: dict[str, float] = {}
        costs_now: dict[str, float] = {}
        continuous_now: dict[str, bool] = {}
        for r in unique.values():
            if at < r.started_at:
                continue
            billed_until = min(r.stopped_at, at)
            revoked_at = getattr(r, "revoked_at", None)
            if revoked_at is not None and billed_until > revoked_at + 1e-9:
                self.fail(
                    f"{site}.revocation",
                    at,
                    "billing window extends past the spot revocation",
                    instance=r.instance_id,
                    billed_until=billed_until,
                    revoked_at=revoked_at,
                )
            elapsed = billed_until - r.started_at
            per_second = r.vm_class.spot or model_name == "per_second"
            if per_second:
                # Per-second metering: fractional "hours", no ceiling.
                hours = elapsed / _HOUR
            else:
                hours = max(1, math.ceil(elapsed / _HOUR - 1e-9))
            inst_cost = _expected_instance_cost(
                model_name, params, meter, r, elapsed, hours, per_second
            )
            hours_now[r.instance_id] = hours
            costs_now[r.instance_id] = inst_cost
            continuous_now[r.instance_id] = per_second
            expected += inst_cost
        if abs(cost - expected) > 1e-9 * max(1.0, expected) + 1e-9:
            self.fail(
                f"{site}.mu",
                at,
                "μ[t] diverges from the independent per-model recompute",
                mu=cost,
                expected=expected,
                model=model_name,
            )

        if at >= state.last_at:
            if cost < state.last_cost - 1e-9:
                self.fail(
                    f"{site}.monotone",
                    at,
                    "μ[t] decreased over time",
                    mu=cost,
                    previous=state.last_cost,
                    previous_at=state.last_at,
                )
            # Charges may only appear when some instance enters a new
            # billed hour (including a new instance's first hour) or a
            # per-second instance accrues usage.  A cost change on an
            # hour-granular instance *between* its hour boundaries is a
            # cooked price or rewritten history.
            charged = cost - state.last_cost
            delta = 0.0
            for instance_id, inst_cost in costs_now.items():
                prev_hours = state.hours.get(instance_id)
                prev_cost = state.costs.get(instance_id, 0.0)
                if prev_hours is None:
                    delta += inst_cost  # first sight: first hour / accrual
                elif (
                    continuous_now[instance_id]
                    or hours_now[instance_id] > prev_hours
                ):
                    delta += inst_cost - prev_cost
            if abs(charged - delta) > 1e-6 * max(1.0, cost):
                self.fail(
                    f"{site}.hour-boundary",
                    at,
                    "μ[t] changed without a matching hour-boundary "
                    "crossing",
                    charged=charged,
                    boundary_charges=delta,
                )
            state.last_at = at
            state.last_cost = cost
            state.hours.update(hours_now)
            state.costs.update(costs_now)

    # -- adaptation ------------------------------------------------------------

    def check_decision(self, adapter, snapshot, plan) -> None:
        """Range/monotonicity checks on one adaptation decision."""
        site = "core.adaptation"
        t = snapshot.time
        for label, value in (
            ("omega_last", snapshot.omega_last),
            ("omega_average", snapshot.omega_average),
        ):
            if not -_EPS <= value <= 1.0 + _EPS:
                self.fail(
                    f"{site}.omega",
                    t,
                    f"{label} outside [0, 1]",
                    **{label: value},
                )
        df = adapter.dataflow
        for label, selection in (
            ("observed", snapshot.selection),
            ("planned", plan.selection),
        ):
            gamma = df.application_value(selection)
            if not -_EPS <= gamma <= 1.0 + _EPS:
                self.fail(
                    f"{site}.gamma",
                    t,
                    f"Γ of the {label} selection outside [0, 1]",
                    gamma=gamma,
                )
        mu = snapshot.cumulative_cost
        state = self._adapters.get(adapter)
        if state is None:
            state = _AdapterLedger()
            self._adapters[adapter] = state
        if mu < -1e-9:
            self.fail(f"{site}.mu", t, "negative cumulative cost", mu=mu)
        if mu < state.last_mu - 1e-9:
            self.fail(
                f"{site}.mu",
                t,
                "cumulative cost μ decreased between decisions",
                mu=mu,
                previous=state.last_mu,
            )
        state.last_mu = mu
        for vm in plan.cluster.vms:
            used = sum(vm.allocations.values())
            if used > vm.vm_class.cores:
                self.fail(
                    f"{site}.plan",
                    t,
                    "planned allocations exceed VM capacity",
                    vm=vm.key,
                    used=used,
                    cores=vm.vm_class.cores,
                )
            if used != vm.used_cores:
                self.fail(
                    f"{site}.plan",
                    t,
                    "planned VM's core count diverges from its allocations",
                    vm=vm.key,
                    used=used,
                    counted=vm.used_cores,
                )
            if any(c < 0 for c in vm.allocations.values()):
                self.fail(
                    f"{site}.plan",
                    t,
                    "planned negative core allocation",
                    vm=vm.key,
                )
        df.validate_selection(plan.selection)


_checker = InvariantChecker()


def checker() -> InvariantChecker:
    """The process-global checker every instrumented site reports to."""
    return _checker


def reset() -> InvariantChecker:
    """Replace the global checker with a fresh one (tests, new runs)."""
    global _checker
    _checker = InvariantChecker()
    return _checker
