"""Multi-tenant shared-provider kernel (S27).

One simulation hosts N independent managed dataflows — *tenants* — that
share a single :class:`~repro.cloud.provider.CloudProvider` with finite
per-class capacity.  Each tenant is an ordinary
:class:`~repro.engine.manager.RunManager` driving a
:class:`~repro.cloud.provider.TenantProvider` view, so the adaptation
heuristics, the reconciler, and the fluid executor run unmodified; what
changes is *where* the fleet lives (one shared pool, one admission gate)
and *how* time advances (one vectorized lockstep tick for the whole
fleet, via the S25 :class:`~repro.engine.batch.BatchRunner` machinery).

Two admission policies make contention outcomes comparable:

``free-for-all``
    First come, first served.  A request is denied only when a class's
    finite pool is exhausted; a greedy tenant can starve the rest.
``fair-share``
    Non-preemptive weighted max-min on cores, arbitrated *per class*
    (contention is per pool: a share of the fleet-wide core total is
    worthless when the one class everybody wants is full).  A tenant
    may grow in a class while its holding there is below its weighted
    water-fill share of that class's pool and is refused further cores
    once at or above it.  Crossing the share by one VM is allowed
    (cores come in integer class sizes), and idle tenants' shares stay
    reserved — admission cannot preempt, so a late tenant must still
    find its share claimable.

Execution routes like the rest of the harness: the SoA kernel carries
the fleet (bit-identical per-tenant results, one tick for all tenants,
checked by the invariant checker like the serial engine), and the
serial per-tenant loop takes over only when some tenant uses the
reliability machinery (failure injection is a serial-engine feature, as
in :func:`repro.experiments.runner.run_cells`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Hashable, Mapping, Optional, Sequence

from ..cloud.provider import CloudProvider, VMClass
from ..obs import collector as _obs
from .batch import BatchRunner
from .manager import RunManager, RunResult

__all__ = [
    "AdmissionPolicy",
    "FairShare",
    "FleetResult",
    "FleetSample",
    "FreeForAll",
    "TenantFleet",
    "TenantKernel",
    "TenantRow",
    "make_admission",
]


# -- admission policies ----------------------------------------------------------


class AdmissionPolicy:
    """Base admission reviewer (see ``CloudProvider.admission``).

    Subclasses return ``None`` from :meth:`review` to admit a request or
    a short reason string to deny it.  Tenants are registered up front
    with a weight so fairness policies can reserve idle shares.
    """

    name = "admit-all"

    def __init__(self, weights: Optional[Mapping[int, float]] = None) -> None:
        self._weights: dict[int, float] = {}
        for tenant, w in (weights or {}).items():
            self.register(tenant, w)

    def register(self, tenant: int, weight: float = 1.0) -> None:
        """Declare a tenant (and its fair-share weight) to the policy."""
        if weight <= 0:
            raise ValueError(f"tenant {tenant}: weight must be > 0")
        self._weights[int(tenant)] = float(weight)

    @property
    def weights(self) -> dict[int, float]:
        return dict(self._weights)

    def review(
        self,
        provider: CloudProvider,
        tenant: int,
        vm_class: VMClass,
        now: float,
    ) -> Optional[str]:
        return None


class FreeForAll(AdmissionPolicy):
    """First come, first served: only physics (class capacity) denies."""

    name = "free-for-all"


class FairShare(AdmissionPolicy):
    """Non-preemptive weighted max-min fairness on cores, per class.

    Each capacity-limited class is its own contended pool
    (``capacity · cores``): arbitrating the fleet-wide core total
    instead would let early tenants fill the one class everyone's
    deployment heuristic actually wants while staying nominally within
    a "global" share.  A request is reviewed against the weighted
    water-filling allocation of the requested class's pool, where the
    requester demands its in-class holding plus the request and every
    other registered tenant's demand is presumed to be at least its
    quota (``pool · w/Σw``) — holdings cannot be preempted, so an idle
    tenant's share must stay reserved to be claimable later.

    The requester is admitted while its in-class holding is strictly
    below its water-fill share and denied once at or above it.  Cores
    come in integer VM-class sizes, so a tenant may overshoot its share
    by at most one VM; denying any request that merely *ends* above the
    share would deadlock whenever the share is smaller than a single VM
    of the needed class.
    """

    name = "fair-share"

    def review(
        self,
        provider: CloudProvider,
        tenant: int,
        vm_class: VMClass,
        now: float,
    ) -> Optional[str]:
        cap = provider.class_capacity(vm_class)
        if cap is None:
            return None  # uncapped classes are not contended
        pool = float(cap * vm_class.cores)
        if pool <= 0:
            return None
        weights = dict(self._weights)
        weights.setdefault(int(tenant), 1.0)
        for t in provider.tenant_ids():
            weights.setdefault(int(t), 1.0)
        total_w = sum(weights[t] for t in sorted(weights))
        held = float(provider.cores_held(tenant, vm_class))
        want = held + vm_class.cores
        demands: dict[int, float] = {}
        for t, w in weights.items():
            quota = pool * w / total_w
            demands[t] = max(float(provider.cores_held(t, vm_class)), quota)
        demands[int(tenant)] = float(want)
        granted = _water_fill(demands, weights, pool)[int(tenant)]
        if held + 1e-9 < granted:
            return None
        return self.name


def _water_fill(
    demands: Mapping[int, float],
    weights: Mapping[int, float],
    pool: float,
) -> dict[int, float]:
    """Weighted max-min (water-filling) allocation of ``pool`` cores.

    Each tenant receives ``min(demand, weight·λ)`` with the water level
    λ chosen so the allocations sum to the pool (or everyone is
    satisfied).  Deterministic: ties order by tenant id.
    """
    if sum(demands[t] for t in sorted(demands)) <= pool + 1e-9:
        return dict(demands)
    order = sorted(demands, key=lambda t: (demands[t] / weights[t], t))
    remaining = pool
    active_w = sum(weights[t] for t in order)
    alloc: dict[int, float] = {}
    for t in order:
        level = remaining / active_w if active_w > 0 else 0.0
        give = min(demands[t], weights[t] * level)
        alloc[t] = give
        remaining -= give
        active_w -= weights[t]
    return alloc


def make_admission(
    name: str, weights: Optional[Mapping[int, float]] = None
) -> AdmissionPolicy:
    """Admission policy by CLI name (``free-for-all`` / ``fair-share``)."""
    policies = {"free-for-all": FreeForAll, "fair-share": FairShare}
    try:
        cls = policies[name]
    except KeyError:
        raise ValueError(
            f"unknown admission policy {name!r}; known: {sorted(policies)}"
        ) from None
    return cls(weights)


# -- results ---------------------------------------------------------------------


@dataclass(frozen=True)
class TenantRow:
    """One tenant's Θ/Ω/μ summary out of a fleet run.

    Field-for-field comparable with the row an *isolated* run of the
    same scenario produces (set ``tenant`` aside via :meth:`identity`):
    the shared-kernel bit-identity tests rely on that.
    """

    tenant: int
    policy: str
    rate: float
    omega: float
    gamma: float
    mu: float
    theta: float
    constraint_met: bool
    vms_provisioned: int
    vms_peak: int
    adaptations: int
    denials: int
    crashes: int

    @classmethod
    def from_result(
        cls, tenant: int, rate: float, result: RunResult
    ) -> "TenantRow":
        o = result.outcome
        return cls(
            tenant=tenant,
            policy=result.policy_name,
            rate=rate,
            omega=o.mean_throughput,
            gamma=o.mean_value,
            mu=o.total_cost,
            theta=o.theta,
            constraint_met=o.constraint_met,
            vms_provisioned=result.vms_provisioned,
            vms_peak=result.vms_peak,
            adaptations=result.adaptations,
            denials=sum(len(r.denied) for r in result.reports),
            crashes=len(result.crashes),
        )

    def identity(self) -> "TenantRow":
        """The row with the tenant number neutralized, for comparing a
        fleet row against the isolated-run oracle's row."""
        return replace(self, tenant=0)


@dataclass(frozen=True)
class FleetSample:
    """Shared-fleet utilization at one adaptation-interval boundary."""

    t: float
    active_by_class: Mapping[str, int]
    denied: int


@dataclass
class FleetResult:
    """Everything observed during one multi-tenant fleet run."""

    admission: str
    mode: str  # "soa" (shared vectorized kernel) or "serial"
    rows: list[TenantRow]
    results: list[RunResult]
    #: Fleet μ: per-tenant meters summed in tenant order (identical to
    #: ``provider.cost_at`` — each instance bills exactly one meter).
    fleet_mu: float
    #: Unweighted mean of the tenants' mean throughputs Ω.
    fleet_omega: float
    #: Peak concurrently active instances per class, pool sizes, and the
    #: denial tally by reason — the contention story of the run.
    utilization: dict
    #: Per-interval utilization samples (SoA mode only).
    samples: list[FleetSample] = field(default_factory=list)

    @property
    def n_tenants(self) -> int:
        return len(self.rows)

    @property
    def denied_total(self) -> int:
        return sum(r.denials for r in self.rows)


# -- execution -------------------------------------------------------------------


class TenantKernel(BatchRunner):
    """The S25 SoA batch engine pointed at one shared cloud.

    Every cell is a tenant whose manager drives a
    :class:`~repro.cloud.provider.TenantProvider` view, so the stacked
    ``(tenants, …)`` tick is exactly the batch tick — the only addition
    is a per-interval sample of the *shared* fleet's occupancy, taken
    once per boundary via the :meth:`_after_boundaries` hook.
    """

    def __init__(
        self,
        managers: Sequence[RunManager],
        shared: CloudProvider,
        rate_keys: Optional[Sequence[Hashable]] = None,
        macrostep: Optional[bool] = None,
    ) -> None:
        super().__init__(managers, rate_keys=rate_keys, macrostep=macrostep)
        self.shared = shared
        self.samples: list[FleetSample] = []

    def _after_boundaries(self, k: int, b: float) -> None:
        self.samples.append(
            FleetSample(
                t=b,
                active_by_class=self.shared.active_by_class(),
                denied=len(self.shared.denials()),
            )
        )


class TenantFleet:
    """N managed dataflows on one shared provider, run as one fleet.

    Parameters
    ----------
    managers:
        One :class:`RunManager` per tenant, each holding a
        :class:`~repro.cloud.provider.TenantProvider` view of
        ``provider`` (tenant ids are read off the views).
    provider:
        The shared :class:`CloudProvider` (capacity + admission live
        here).
    rates:
        Mean input rate per tenant, for the result rows.
    rate_keys:
        Forwarded to the batch engine: equal keys promise bitwise-equal
        ``rate_at`` profiles, deduplicating the per-tick rate evaluation
        across tenants.
    macrostep:
        Forwarded to the batch engine (``None`` follows
        ``REPRO_MACROSTEP``).
    """

    def __init__(
        self,
        managers: Sequence[RunManager],
        provider: CloudProvider,
        rates: Optional[Sequence[float]] = None,
        admission_name: Optional[str] = None,
        rate_keys: Optional[Sequence[Hashable]] = None,
        macrostep: Optional[bool] = None,
    ) -> None:
        if not managers:
            raise ValueError("need at least one tenant")
        self.managers = list(managers)
        self.provider = provider
        self.tenants = [
            getattr(m.provider, "tenant_id", i)
            for i, m in enumerate(self.managers)
        ]
        if len(set(self.tenants)) != len(self.tenants):
            raise ValueError(f"duplicate tenant ids: {self.tenants}")
        if rates is not None and len(rates) != len(self.managers):
            raise ValueError("rates must match managers 1:1")
        self.rates = (
            list(rates)
            if rates is not None
            else [
                (
                    sum(m.estimated_rates.values()) / len(m.estimated_rates)
                    if m.estimated_rates
                    else 0.0
                )
                for m in self.managers
            ]
        )
        self.admission_name = (
            admission_name
            if admission_name is not None
            else getattr(provider.admission, "name", "none")
        )
        self._rate_keys = rate_keys
        self._macrostep = macrostep

    @property
    def uses_reliability(self) -> bool:
        """True when any tenant runs reliability machinery."""
        return any(m.uses_reliability for m in self.managers)

    def run(self) -> FleetResult:
        """Execute every tenant's full optimization period.

        SoA lockstep unless reliability machinery is active (a
        serial-engine feature); then the serial per-tenant loop runs.
        Serial tenants run to completion one after another against the
        shared provider, so capacity is contended in tenant order rather
        than in simulation order — an approximation the SoA path does
        not make.
        """
        samples: list[FleetSample] = []
        if self.uses_reliability:
            mode = "serial"
            results = []
            for tenant, m in zip(self.tenants, self.managers):
                with _obs.tenant(tenant):
                    results.append(m.run())
        else:
            mode = "soa"
            kernel = TenantKernel(
                self.managers,
                self.provider,
                rate_keys=self._rate_keys,
                macrostep=self._macrostep,
            )
            results = kernel.run()
            samples = kernel.samples
        rows = [
            TenantRow.from_result(tenant, rate, result)
            for tenant, rate, result in zip(self.tenants, self.rates, results)
        ]
        fleet_mu = 0.0
        for row in sorted(rows, key=lambda r: r.tenant):
            fleet_mu += row.mu
        fleet_omega = (
            math.fsum(r.omega for r in rows) / len(rows) if rows else 0.0
        )
        denied_by_reason: dict[str, int] = {}
        for d in self.provider.denials():
            denied_by_reason[d.reason] = denied_by_reason.get(d.reason, 0) + 1
        utilization = {
            "peak_active_by_class": self.provider.peak_active_by_class(),
            "capacity": dict(self.provider.capacity),
            "denied": len(self.provider.denials()),
            "denied_by_reason": denied_by_reason,
        }
        return FleetResult(
            admission=self.admission_name,
            mode=mode,
            rows=rows,
            results=results,
            fleet_mu=fleet_mu,
            fleet_omega=fleet_omega,
            utilization=utilization,
            samples=samples,
        )
