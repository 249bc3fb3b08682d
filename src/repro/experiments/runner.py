"""Sweep runner: execute policy × scenario grids and collect rows.

All figure drivers are thin layers over :func:`sweep`, the scenario ×
policy product over :func:`run_cells`, which returns one
:class:`SweepRow` per cell in input order.

:func:`run_cells` is the one grid dispatcher.  Every cell passes the
result cache's gate (:func:`repro.experiments.cache.gate`), and the
misses are simulated by width: cells that share a clock (interval,
horizon, tick) run together in one structure-of-arrays
:class:`~repro.engine.batch.BatchRunner` when there are two or more of
them, and everything else runs on its own serial
:class:`~repro.engine.manager.RunManager`.  Both engines produce
bit-identical rows, so the route never shows in the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..cloud.provider import CloudProvider
from ..core.policies import Policy
from ..engine.batch import BatchRunner
from ..engine.manager import RunResult
from ..engine.tenants import FleetResult, TenantFleet, make_admission
from ..util import perf
from .scenarios import MultiTenantScenario, Scenario, make_performance

__all__ = [
    "SweepRow",
    "average_rows",
    "build_fleet",
    "run_cells",
    "run_fleet",
    "sweep",
]


def run_cells(
    cells: Iterable[tuple[Scenario, str]],
) -> list[SweepRow]:
    """Evaluate (scenario, policy) cells through the cache, rows in order.

    Cached cells are answered from the warm tiers (serving LRU → disk
    entry → delta index); the rest are simulated by :func:`_simulate`
    and stored.  This is also the in-process twin of one serve-daemon
    request: the code fingerprint in every cache key is hashed once per
    process, and each cell's key is hashed once.
    """
    from . import cache

    return cache.gate(list(cells), _simulate)


def _simulate(cells: list[tuple[Scenario, str]]) -> list[RunResult]:
    """Run cells, batching each clock group of two or more.

    A group of cells sharing (interval, horizon, tick) runs in one
    :class:`BatchRunner`; a lone cell runs on its own :class:`RunManager`,
    because a one-cell batch is slower than the serial engine (0.95–1.23×
    on constant and walk cells, 2.2× on wave cells, which the serial
    engine advances in windows; 2-vCPU Xeon), while a two-cell batch
    takes 0.79–0.83× the time of two serial runs on constant and walk
    cells.  On wave cells the crossover moved: two cells batch at 1.2–1.3×
    the serial time, four at 0.8×, the 24-cell fig8 grid at 0.54×.  Cells
    with failure, revocation or checkpoint machinery always run
    serially: their drivers rebuild fleets mid-interval, and the batch
    packs its state only at interval boundaries.
    """
    managers = [scenario.manager(policy) for scenario, policy in cells]
    results: list[Optional[RunResult]] = [None] * len(cells)
    groups: dict[tuple, list[int]] = {}
    for i, m in enumerate(managers):
        if m.uses_reliability:
            results[i] = m.run()
        else:
            clock = (m.spec.interval, m.spec.n_intervals, m.tick)
            groups.setdefault(clock, []).append(i)
    for members in groups.values():
        if len(members) == 1:
            results[members[0]] = managers[members[0]].run()
            continue
        # Cells sharing a scenario object promise bitwise-identical
        # input rates, so the batch samples each profile once per tick.
        runner = BatchRunner(
            [managers[i] for i in members],
            rate_keys=[id(cells[i][0]) for i in members],
        )
        perf.add("batch.groups")
        perf.add("batch.cells", len(members))
        for i, result in zip(members, runner.run()):
            results[i] = result
    return results  # type: ignore[return-value]


@dataclass(frozen=True)
class SweepRow:
    """One completed run in a sweep grid."""

    policy: str
    rate: float
    rate_kind: str
    variability: str
    seed: int
    omega: float
    gamma: float
    cost: float
    theta: float
    constraint_met: bool
    vms_peak: int
    adaptations: int
    #: Reliability columns (S26); defaults keep cached pre-S26 rows valid.
    crashes: int = 0
    lost_messages: float = 0.0
    mean_recovery_s: Optional[float] = None
    #: Pricing model column (S28); the default keeps pre-S28 rows valid.
    billing_model: str = "on_demand_hourly"

    @classmethod
    def from_result(cls, scenario: Scenario, result: RunResult) -> "SweepRow":
        o = result.outcome
        return cls(
            policy=result.policy_name,
            rate=scenario.rate,
            rate_kind=scenario.rate_kind,
            variability=scenario.variability,
            seed=scenario.seed,
            omega=o.mean_throughput,
            gamma=o.mean_value,
            cost=o.total_cost,
            theta=o.theta,
            constraint_met=o.constraint_met,
            vms_peak=result.vms_peak,
            adaptations=result.adaptations,
            crashes=len(result.crashes),
            lost_messages=sum(c.lost_messages for c in result.crashes),
            mean_recovery_s=result.mean_recovery_s,
            billing_model=scenario.billing_model,
        )

    def as_tuple(self) -> tuple:
        return (
            self.policy,
            self.rate,
            self.variability,
            self.omega,
            self.gamma,
            self.cost,
            self.theta,
            self.constraint_met,
            self.crashes,
            self.lost_messages,
            self.mean_recovery_s,
        )


def sweep(
    scenarios: Iterable[Scenario],
    policies: Sequence[str],
) -> list[SweepRow]:
    """Run every policy on every scenario through :func:`run_cells`.

    Rows come back scenario-major, policy-minor.  Repeated sweeps of
    unchanged configurations reuse their cached rows unless the cache is
    disabled.
    """
    return run_cells(
        (scenario, policy)
        for scenario in scenarios
        for policy in policies
    )


def build_fleet(
    mt: MultiTenantScenario,
    policy_factory: Optional[Callable[[Scenario], Policy]] = None,
    macrostep: Optional[bool] = None,
) -> TenantFleet:
    """Construct the shared provider + per-tenant managers for a fleet.

    One :class:`CloudProvider` carries the whole fleet: finite per-class
    pools from ``mt.capacity_tightness``, the admission policy from
    ``mt.admission``, and one shared performance model.  Each tenant's
    manager comes from :meth:`Scenario.manager`, as in an isolated run,
    but drives a :class:`~repro.cloud.provider.TenantProvider` view
    instead of a private provider, so an uncontended fleet reproduces
    the isolated runs bit for bit.
    """
    scenarios = [mt.tenant_scenario(k) for k in range(mt.n_tenants)]
    catalog = scenarios[0].effective_catalog()
    admission = make_admission(mt.admission, mt.tenant_weights())
    provider = CloudProvider(
        catalog,
        performance=make_performance(mt.variability, seed=mt.seed),
        capacity=mt.capacity(catalog),
        admission=admission,
        # The single-run runaway cap, scaled to the fleet width.
        max_instances=max(1024, 16 * mt.n_tenants),
        # One price list for the whole fleet; every per-tenant meter
        # created by tenant_billing() shares this model.
        billing_model=scenarios[0].billing(),
    )
    managers = [
        sc.manager(
            mt.policy,
            policy=policy_factory(sc) if policy_factory is not None else None,
            provider=provider.tenant_view(k),
        )
        for k, sc in enumerate(scenarios)
    ]
    return TenantFleet(
        managers,
        provider,
        rates=[sc.rate for sc in scenarios],
        admission_name=mt.admission,
        # Tenants with equal profiles evaluate rate_at once per tick.
        rate_keys=[(sc.rate_kind, sc.rate, sc.seed) for sc in scenarios],
        macrostep=macrostep,
    )


def run_fleet(
    mt: MultiTenantScenario,
    policy_factory: Optional[Callable[[Scenario], Policy]] = None,
    macrostep: Optional[bool] = None,
) -> FleetResult:
    """Build and run a multi-tenant fleet; returns its :class:`FleetResult`."""
    return build_fleet(
        mt, policy_factory=policy_factory, macrostep=macrostep
    ).run()


def average_rows(per_seed: Sequence[Sequence[SweepRow]]) -> list[SweepRow]:
    """Average sweep rows across seed replicas.

    Rows are matched by (policy, rate, rate_kind, variability); numeric
    fields are means, ``constraint_met`` requires every replica to pass
    (the conservative reading of the paper's necessary condition), and
    ``seed`` is set to −1 to mark an aggregate.

    Raises ``ValueError`` if the replicas do not cover identical grids.
    """
    if not per_seed:
        raise ValueError("need at least one replica")
    keys = [
        tuple((r.policy, r.rate, r.rate_kind, r.variability) for r in rows)
        for rows in per_seed
    ]
    if len(set(keys)) != 1:
        raise ValueError("replicas cover different (policy, scenario) grids")

    out: list[SweepRow] = []
    n = len(per_seed)
    for group in zip(*per_seed):
        first = group[0]
        recoveries = [
            r.mean_recovery_s for r in group if r.mean_recovery_s is not None
        ]
        out.append(
            SweepRow(
                policy=first.policy,
                rate=first.rate,
                rate_kind=first.rate_kind,
                variability=first.variability,
                seed=-1,
                omega=sum(r.omega for r in group) / n,
                gamma=sum(r.gamma for r in group) / n,
                cost=sum(r.cost for r in group) / n,
                theta=sum(r.theta for r in group) / n,
                constraint_met=all(r.constraint_met for r in group),
                vms_peak=max(r.vms_peak for r in group),
                adaptations=round(
                    sum(r.adaptations for r in group) / n
                ),
                crashes=round(sum(r.crashes for r in group) / n),
                lost_messages=sum(r.lost_messages for r in group) / n,
                mean_recovery_s=(
                    sum(recoveries) / len(recoveries) if recoveries else None
                ),
                billing_model=first.billing_model,
            )
        )
    return out
