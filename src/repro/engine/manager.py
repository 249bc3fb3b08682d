"""Run orchestration: deploy → execute → monitor → adapt (paper §5).

:class:`RunManager` wires the whole reproduction together for one
optimization period: it asks the policy for an initial plan from the
estimated rates, runs the fluid executor interval by interval, feeds
monitored snapshots to the policy's runtime adaptation, reconciles each
returned plan, and records the §6 metrics.  The result carries everything
the evaluation figures need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

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

__all__ = ["RunManager", "RunResult", "vm_ledger"]


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

    @staticmethod
    def _trace_reconcile(
        report, now: float, interval: int, tenant_id: Optional[int] = None
    ) -> None:
        """Emit an allocation_changed event for a non-empty reconciliation.

        ``tenant_id=None`` defers to the collector's ambient tenant, so
        single-tenant runs stay on tenant 0 and multi-tenant fleets stamp
        the owner from either the provider view or the surrounding
        :func:`repro.obs.collector.tenant` context.
        """
        if _trace.enabled() and report.changed:
            _trace.emit(
                "allocation_changed",
                t=now,
                tenant_id=tenant_id,
                interval=interval,
                provisioned=len(report.provisioned),
                terminated=len(report.terminated),
                cores_allocated=report.cores_allocated,
                cores_released=report.cores_released,
            )

    def run(self) -> RunResult:
        """Execute the full optimization period and return the results."""
        spec = self.spec
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
            checkpoint_interval=self.checkpoint_interval,
            restore_latency=self.restore_latency,
        )
        failures = (
            self.failures
            if self.failures is not None and self.failures.enabled
            else None
        )
        revocations = (
            self.revocations
            if self.revocations is not None and self.revocations.enabled
            else None
        )
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
            interval = float(spec.interval)
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

        tenant_id = getattr(self.provider, "tenant_id", None)
        reports = [apply_plan(self.provider, executor, plan, env.now)]
        self._trace_reconcile(reports[0], env.now, interval=0, tenant_id=tenant_id)
        executor.start()

        failure_driver: Optional[FailureDriver] = None
        if failures is not None or revocations is not None:
            failure_driver = FailureDriver(
                env,
                self.provider,
                executor,
                failures,
                revocations=revocations,
            )
            failure_driver.start()

        timeline = MetricsTimeline()
        selection = dict(plan.selection)
        omega_sum = 0.0
        adaptations = 0
        peak = len(self.provider.active_instances())

        n = spec.n_intervals
        for k in range(1, n + 1):
            env.run(until=k * spec.interval)
            stats = executor.roll_interval()
            omega_k = stats.omega(self.dataflow.outputs)
            omega_sum += omega_k
            timeline.record(
                IntervalMetrics(
                    t=stats.start,
                    value=self.dataflow.application_value(selection),
                    throughput=omega_k,
                    cumulative_cost=self.provider.cost_at(env.now),
                    delivered=sum(stats.delivered.values()),
                    deliverable=sum(stats.deliverable.values()),
                )
            )
            if self.policy.adaptive and k < n:
                snap = monitor.snapshot(stats, selection, omega_sum / k, env.now)
                with perf.timer("policy.adapt"):
                    new_plan = self.policy.adapt(snap, k)
                if new_plan is not None:
                    perf.add("policy.adaptations")
                    report = apply_plan(
                        self.provider, executor, new_plan, env.now
                    )
                    self._trace_reconcile(
                        report, env.now, interval=k, tenant_id=tenant_id
                    )
                    reports.append(report)
                    if report.changed or dict(new_plan.selection) != selection:
                        adaptations += 1
                    selection = dict(new_plan.selection)
            peak = max(peak, len(self.provider.active_instances()))

        outcome = EvaluationOutcome.from_timeline(timeline, spec)
        crashes = list(failure_driver.crashes) if failure_driver else []
        return RunResult(
            policy_name=self.policy.name,
            spec=spec,
            timeline=timeline,
            outcome=outcome,
            vms_provisioned=len(self.provider.all_instances()),
            vms_peak=peak,
            adaptations=adaptations,
            final_selection=selection,
            reports=reports,
            crashes=crashes,
            recovery_times=self._recovery_times(crashes, timeline),
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
