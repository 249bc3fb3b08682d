"""Run orchestration: deploy → execute → monitor → adapt (paper §5).

:class:`RunManager` wires the whole reproduction together for one
optimization period: it asks the policy for an initial plan from the
estimated rates, runs the fluid executor interval by interval, feeds
monitored snapshots to the policy's runtime adaptation, reconciles each
returned plan, and records the §6 metrics.  The result carries everything
the evaluation figures need.

The control loop is three steps — :meth:`RunManager.begin`,
:meth:`RunManager.close_interval` and :meth:`RunManager.result` — over
one :class:`RunState`.  :meth:`RunManager.run` drives them from the
kernel clock; the batch engine (:mod:`repro.engine.batch`) calls the
same steps per column, so serial runs, SoA sweeps and tenant fleets
share one interval body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..cloud.failures import FailureModel, SpotRevocationModel
from ..cloud.provider import CloudProvider
from ..core.objective import EvaluationOutcome, ObjectiveSpec
from ..core.policies import Policy
from ..dataflow.graph import DynamicDataflow
from ..dataflow.metrics import IntervalMetrics, MetricsTimeline
from ..obs import collector as _trace
from ..sim.kernel import Environment
from ..util import perf
from ..workloads.rates import RateProfile
from .executor import FluidExecutor
from .failures import CrashRecord, FailureDriver, FailureOracle
from .monitor import Monitor
from .reconcile import ReconcileReport, apply_plan

__all__ = ["RunManager", "RunResult", "RunState", "vm_ledger"]


@dataclass
class RunResult:
    """Everything observed during one managed run."""

    policy_name: str
    spec: ObjectiveSpec
    timeline: MetricsTimeline
    outcome: EvaluationOutcome
    #: Total VMs ever provisioned / peak simultaneously active.
    vms_provisioned: int
    vms_peak: int
    #: Number of intervals in which the fleet or selection changed.
    adaptations: int
    #: Alternate selection at the end of the run.
    final_selection: dict[str, str]
    #: Per-interval reconciliation reports (index 0 = initial deployment).
    reports: list[ReconcileReport] = field(default_factory=list)
    #: One :class:`~repro.engine.failures.CrashRecord` per injected crash.
    crashes: list[CrashRecord] = field(default_factory=list)
    #: Recovery time per crash, parallel to :attr:`crashes`: sim-seconds
    #: from the crash to the end of the first interval whose throughput
    #: clears Ω̂ again, or ``None`` if the run never recovers.
    recovery_times: list[Optional[float]] = field(default_factory=list)
    #: Billing-replayable VM lifecycle ledger, one row per instance in
    #: meter-registration order: ``[class_name, hourly_price, spot,
    #: started_at, stopped_at-or-None]`` (``None`` = still active at the
    #: end of the run).  Lets the result cache recompute μ under a
    #: different billing model without re-simulating (S29 delta index).
    vm_ledger: list = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return self.outcome.total_cost

    @property
    def theta(self) -> float:
        return self.outcome.theta

    @property
    def mean_recovery_s(self) -> Optional[float]:
        """Mean recovery time over the crashes that did recover."""
        done = [r for r in self.recovery_times if r is not None]
        return sum(done) / len(done) if done else None

    def summary(self) -> str:
        return f"[{self.policy_name}] {self.outcome}"


@dataclass(eq=False)
class RunState:
    """One run's live state, from :meth:`RunManager.begin` to
    :meth:`RunManager.result`."""

    env: Environment
    executor: FluidExecutor
    monitor: Monitor
    #: Alternate selection in force (updated on every adaptation).
    selection: dict[str, str]
    #: Reconciliation reports (index 0 = initial deployment).
    reports: list[ReconcileReport]
    #: Peak simultaneously active VMs so far.
    peak: int
    timeline: MetricsTimeline = field(default_factory=MetricsTimeline)
    #: Σ Ω over the closed intervals (the snapshot's running mean).
    omega_sum: float = 0.0
    adaptations: int = 0


def vm_ledger(provider: CloudProvider) -> list[list]:
    """Extract the billing-replayable VM ledger from a finished run.

    Rows follow the billing meter's registration order so that replaying
    ``sum(model.instance_cost(row, T))`` reproduces ``cost_at(T)``
    bit-for-bit (same floats, same summation order).
    """
    meter = getattr(provider, "billing", None)
    if meter is None:
        return []
    return [
        [
            r.vm_class.name,
            r.vm_class.hourly_price,
            bool(r.vm_class.spot),
            r.started_at,
            None if r.stopped_at == float("inf") else r.stopped_at,
        ]
        for r in meter.instances
    ]


class RunManager:
    """Executes one policy over one optimization period.

    Parameters
    ----------
    dataflow:
        The dynamic dataflow application.
    profiles:
        Input rate profile per input PE.
    policy:
        A :class:`~repro.core.policies.Policy` (deployment + adaptation).
    provider:
        The cloud provider (carries the performance model; a fresh
        provider should be used per run so billing starts at zero).
    spec:
        Objective parameters (period, interval, Ω̂, ε, σ).
    tick:
        Fluid engine step in seconds.
    message_size_mb:
        Message size (paper: ~100 KB).
    estimated_rates:
        Input-rate estimates given to the initial deployment; defaults to
        each profile's ``mean_rate``.
    revocations:
        Optional spot-revocation model; forced stops for spot VMs with an
        advance ``vm_revocation_notice``.
    checkpoint_interval / restore_latency:
        Periodic PE-state checkpointing (see
        :class:`~repro.engine.executor.FluidExecutor`); ``None`` disables.
    hedge_horizon:
        Look-ahead (seconds) of the failure oracle feeding
        ``Snapshot.doomed``; defaults to two adaptation intervals.
    """

    def __init__(
        self,
        dataflow: DynamicDataflow,
        profiles: Mapping[str, RateProfile],
        policy: Policy,
        provider: CloudProvider,
        spec: ObjectiveSpec,
        tick: float = 1.0,
        message_size_mb: float = 0.1,
        estimated_rates: Optional[Mapping[str, float]] = None,
        failures: Optional[FailureModel] = None,
        monitor_noise_std: float = 0.0,
        monitor_seed: int = 0,
        revocations: Optional[SpotRevocationModel] = None,
        checkpoint_interval: Optional[float] = None,
        restore_latency: float = 0.0,
        hedge_horizon: Optional[float] = None,
    ) -> None:
        self.dataflow = dataflow
        self.profiles = dict(profiles)
        self.policy = policy
        self.provider = provider
        self.spec = spec
        self.tick = tick
        self.message_size_mb = message_size_mb
        self.estimated_rates = dict(
            estimated_rates
            if estimated_rates is not None
            else {n: p.mean_rate for n, p in self.profiles.items()}
        )
        self.failures = failures
        self.monitor_noise_std = monitor_noise_std
        self.monitor_seed = monitor_seed
        self.revocations = revocations
        self.checkpoint_interval = checkpoint_interval
        self.restore_latency = restore_latency
        if hedge_horizon is not None and hedge_horizon <= 0:
            raise ValueError("hedge_horizon must be positive")
        # The oracle must see past the *next* interval boundary, or the
        # adaptation loop learns of a doomed VM only after it stopped.
        self.hedge_horizon = (
            hedge_horizon if hedge_horizon is not None else 2.0 * spec.interval
        )

    @property
    def uses_reliability(self) -> bool:
        """True when failure injection, spot revocation or checkpointing
        is on (serial-engine features)."""
        return (
            (self.failures is not None and self.failures.enabled)
            or (self.revocations is not None and self.revocations.enabled)
            or self.checkpoint_interval is not None
        )

    def _faults(
        self,
    ) -> tuple[Optional[FailureModel], Optional[SpotRevocationModel]]:
        """The enabled failure and revocation models (``None`` if off)."""
        failures, revocations = self.failures, self.revocations
        return (
            failures if failures is not None and failures.enabled else None,
            revocations
            if revocations is not None and revocations.enabled
            else None,
        )

    def _trace_reconcile(self, report, now: float, interval: int) -> None:
        """Emit an allocation_changed event for a non-empty reconciliation.

        The provider view's tenant stamps the event; plain providers
        (``tenant_id=None``) defer to the collector's ambient tenant, so
        single-tenant runs stay on tenant 0.
        """
        if _trace.enabled() and report.changed:
            _trace.emit(
                "allocation_changed",
                t=now,
                tenant_id=getattr(self.provider, "tenant_id", None),
                interval=interval,
                provisioned=len(report.provisioned),
                terminated=len(report.terminated),
                cores_allocated=report.cores_allocated,
                cores_released=report.cores_released,
            )

    # -- the run lifecycle: begin → close_interval(k) for k = 1..n → result ----

    def run(self) -> RunResult:
        """Execute the full optimization period and return the results."""
        state = self.begin()
        state.executor.start()
        failures, revocations = self._faults()
        failure_driver: Optional[FailureDriver] = None
        if failures is not None or revocations is not None:
            failure_driver = FailureDriver(
                state.env,
                self.provider,
                state.executor,
                failures,
                revocations=revocations,
            )
            failure_driver.start()
        for k in range(1, self.spec.n_intervals + 1):
            state.env.run(until=k * self.spec.interval)
            self.close_interval(state, k)
        crashes = failure_driver.crashes if failure_driver else ()
        return self.result(state, crashes)

    def begin(self, macrostep: Optional[bool] = None) -> RunState:
        """Deploy: plan from the estimated rates, build the executor and
        monitor, and apply the initial plan at t = 0.

        No kernel process is started.  :meth:`run` starts the tick
        process; the batch engine instead drives each executor's clock
        itself and passes ``macrostep=False`` (it macro-steps across
        columns, not per executor).
        """
        env = Environment()
        with perf.timer("policy.initial_plan"):
            plan = self.policy.initial_plan(self.estimated_rates)
        executor = FluidExecutor(
            env,
            self.dataflow,
            self.provider,
            self.profiles,
            selection=plan.selection,
            tick=self.tick,
            message_size_mb=self.message_size_mb,
            macrostep=macrostep,
            checkpoint_interval=self.checkpoint_interval,
            restore_latency=self.restore_latency,
        )
        failures, revocations = self._faults()
        oracle: Optional[FailureOracle] = None
        if failures is not None or revocations is not None:
            oracle = FailureOracle(
                self.provider,
                model=failures,
                revocations=revocations,
                horizon=self.hedge_horizon,
            )
        monitor = Monitor(
            self.dataflow,
            self.provider,
            executor,
            noise_std=self.monitor_noise_std,
            seed=self.monitor_seed,
            oracle=oracle,
        )
        if executor.macro_enabled:
            # Macro jumps must wake at every time this loop acts on the
            # run: the adaptation interval boundaries and (so cost
            # snapshots always follow a real tick) VM billing-hour edges.
            interval = float(self.spec.interval)
            executor.add_macro_boundary(
                lambda t: (math.floor(t / interval) + 1.0) * interval
            )
            provider = self.provider

            def _billing_edges(t: float) -> float:
                nxt = math.inf
                for r in provider.active_instances():
                    b = (
                        r.started_at
                        + (math.floor((t - r.started_at) / 3600.0) + 1.0)
                        * 3600.0
                    )
                    if b < nxt:
                        nxt = b
                return nxt

            executor.add_macro_boundary(_billing_edges)

        report = apply_plan(self.provider, executor, plan, env.now)
        self._trace_reconcile(report, env.now, interval=0)
        return RunState(
            env=env,
            executor=executor,
            monitor=monitor,
            selection=dict(plan.selection),
            reports=[report],
            peak=len(self.provider.active_instances()),
        )

    def close_interval(self, state: RunState, k: int) -> None:
        """Close adaptation interval ``k`` at ``state.env.now``.

        Rolls the executor's interval stats and records the §6 metrics;
        an adaptive policy then (except after the last interval) adapts
        to the monitored snapshot and the returned plan is reconciled.
        """
        now = state.env.now
        stats = state.executor.roll_interval()
        omega_k = stats.omega(self.dataflow.outputs)
        state.omega_sum += omega_k
        state.timeline.record(
            IntervalMetrics(
                t=stats.start,
                value=self.dataflow.application_value(state.selection),
                throughput=omega_k,
                cumulative_cost=self.provider.cost_at(now),
                delivered=sum(stats.delivered.values()),
                deliverable=sum(stats.deliverable.values()),
            )
        )
        if self.policy.adaptive and k < self.spec.n_intervals:
            snap = state.monitor.snapshot(
                stats, state.selection, state.omega_sum / k, now
            )
            with perf.timer("policy.adapt"):
                plan = self.policy.adapt(snap, k)
            if plan is not None:
                perf.add("policy.adaptations")
                report = apply_plan(self.provider, state.executor, plan, now)
                self._trace_reconcile(report, now, interval=k)
                state.reports.append(report)
                selection = dict(plan.selection)
                if report.changed or selection != state.selection:
                    state.adaptations += 1
                state.selection = selection
        state.peak = max(state.peak, len(self.provider.active_instances()))

    def result(
        self, state: RunState, crashes: Iterable[CrashRecord] = ()
    ) -> RunResult:
        """The :class:`RunResult` of a run whose intervals are all closed."""
        crashes = list(crashes)
        return RunResult(
            policy_name=self.policy.name,
            spec=self.spec,
            timeline=state.timeline,
            outcome=EvaluationOutcome.from_timeline(state.timeline, self.spec),
            vms_provisioned=len(self.provider.all_instances()),
            vms_peak=state.peak,
            adaptations=state.adaptations,
            final_selection=state.selection,
            reports=state.reports,
            crashes=crashes,
            recovery_times=self._recovery_times(crashes, state.timeline),
            vm_ledger=vm_ledger(self.provider),
        )

    def _recovery_times(
        self,
        crashes: list[CrashRecord],
        timeline: MetricsTimeline,
    ) -> list[Optional[float]]:
        """Sim-time from each crash until throughput clears Ω̂ again.

        A crash "recovers" at the end of the first interval that finishes
        after it with Ω ≥ Ω̂; a crash the run never digests gets ``None``.
        The interval granularity is deliberate — the monitor only observes
        Ω at interval boundaries, so that is when recovery is detectable.
        """
        spec = self.spec
        out: list[Optional[float]] = []
        for crash in crashes:
            recovered: Optional[float] = None
            for m in timeline:
                end = m.t + spec.interval
                if (
                    end > crash.t + 1e-9
                    and m.throughput >= spec.omega_min - 1e-9
                ):
                    recovered = end - crash.t
                    break
            out.append(recovered)
        return out
