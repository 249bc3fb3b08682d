"""Scenario catalog for the paper's evaluation (§8.1).

Defines the experimental setup every figure shares:

* the abstract dynamic dataflow of Fig. 1 (four PEs; E2 and E3 carry two
  alternates each; E1 duplicates its output to both branches and E4
  interleaves them),
* the AWS-like VM catalog,
* the data-rate profiles (constant / periodic wave / random walk, 2–50
  msg/s, ~100 KB messages),
* the variability modes (none / data / infrastructure / both),
* σ calibrated as in the paper: the acceptable hourly cost at maximum
  application value is $2 per msg/s of input rate ("$4/hour for execution
  at 2 msg/s … scaled linearly up to $100/hour for 50 msg/s"), and the
  acceptable cost at minimum value is 40% of that (calibration choice,
  recorded in DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Literal, Optional

from ..cloud.billing import BILLING_MODELS, BillingModel, make_billing_model
from ..cloud.failures import FailureModel, SpotRevocationModel
from ..cloud.provider import CloudProvider
from ..cloud.resources import VMClass, aws_2013_catalog, spot_variants
from ..cloud.traces import TraceLibrary, TraceReplayPerformance
from ..cloud.variability import ConstantPerformance, PerformanceModel
from ..core.objective import ObjectiveSpec, sigma_from_expectations
from ..core.policies import Policy, make_policy
from ..dataflow.graph import DynamicDataflow
from ..dataflow.pe import Alternate, ProcessingElement
from ..engine.manager import RunManager, RunResult
from ..workloads.rates import (
    ConstantRate,
    PeriodicWave,
    RandomWalkRate,
    RateProfile,
)

__all__ = [
    "fig1_dataflow",
    "scaled_dataflow",
    "standard_spec",
    "make_profile",
    "make_performance",
    "Scenario",
    "MultiTenantScenario",
    "failure_storm_scenario",
    "multi_tenant_scenario",
    "run_policy",
    "RateKind",
    "VariabilityMode",
    "OMEGA_MIN",
    "EPSILON",
    "MESSAGE_SIZE_MB",
]

RateKind = Literal["constant", "wave", "walk"]
VariabilityMode = Literal["none", "data", "infra", "both"]

#: Paper-wide constants (§8.2): Ω̂ = 0.7, ε = 0.05, ~100 KB messages.
OMEGA_MIN = 0.7
EPSILON = 0.05
MESSAGE_SIZE_MB = 0.1

#: Acceptable $/hour at maximum application value, per msg/s of input.
_DOLLARS_PER_MSGS = 2.0
#: Acceptable cost at minimum value, as a fraction of the maximum's.
_MIN_VALUE_COST_FRACTION = 0.4


def fig1_dataflow() -> DynamicDataflow:
    """The paper's running example (Fig. 1).

    ====  ==========  =====  =====  ============  =======================
    PE    alternate   value  cost   selectivity   intent
    ====  ==========  =====  =====  ============  =======================
    E1    e1          1.0    0.5    1.0           ingest / parse
    E2    e2.1        1.0    2.0    1.0           full-fidelity analytic
    E2    e2.2        0.88   1.6    1.0           approximate analytic
    E3    e3.1        1.0    3.0    0.5           rich classifier
    E3    e3.2        0.85   2.4    0.5           cheap classifier
    E4    e4          1.0    0.8    1.0           merge / publish
    ====  ==========  =====  =====  ============  =======================

    Costs are core-seconds per message on the standard (π = 1) core.
    The approximate alternates trade ~12–15% of value for ~20% of cost;
    the full dataflow's per-message demand drops from 6.7 to 5.7 standard
    core-seconds when both cheap alternates are active — calibrated so
    that disabling application dynamism costs ~15% more, the paper's
    headline number (Fig. 9).
    """
    e1 = ProcessingElement("E1", [Alternate("e1", value=1.0, cost=0.5)])
    e2 = ProcessingElement(
        "E2",
        [
            Alternate("e2.1", value=1.0, cost=2.0),
            Alternate("e2.2", value=0.88, cost=1.6),
        ],
    )
    e3 = ProcessingElement(
        "E3",
        [
            Alternate("e3.1", value=1.0, cost=3.0, selectivity=0.5),
            Alternate("e3.2", value=0.85, cost=2.4, selectivity=0.5),
        ],
    )
    e4 = ProcessingElement("E4", [Alternate("e4", value=1.0, cost=0.8)])
    return DynamicDataflow(
        [e1, e2, e3, e4],
        [("E1", "E2"), ("E1", "E3"), ("E2", "E4"), ("E3", "E4")],
    )


def scaled_dataflow(stages: int = 4, alternates: int = 3) -> DynamicDataflow:
    """A larger diamond-chain dataflow for scalability experiments.

    ``stages`` diamonds are chained; every middle PE carries
    ``alternates`` alternates with geometrically spaced value/cost — "10's
    of alternates" per the paper's scaling note.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    if alternates < 1:
        raise ValueError("need at least one alternate")
    pes: list[ProcessingElement] = [
        ProcessingElement("in", [Alternate("in", value=1.0, cost=0.3)])
    ]
    edges: list[tuple[str, str]] = []
    prev = "in"
    for s in range(stages):
        left = f"s{s}L"
        right = f"s{s}R"
        join = f"s{s}J"
        for name, sel in ((left, 1.0), (right, 0.5)):
            alts = [
                Alternate(
                    f"{name}.a{j}",
                    value=1.0 * (0.7**j),
                    cost=2.0 * (0.6**j),
                    selectivity=sel,
                )
                for j in range(alternates)
            ]
            pes.append(ProcessingElement(name, alts))
        pes.append(
            ProcessingElement(join, [Alternate(join, value=1.0, cost=0.5)])
        )
        edges += [(prev, left), (prev, right), (left, join), (right, join)]
        prev = join
    return DynamicDataflow(pes, edges)


def standard_spec(
    rate: float,
    dataflow: Optional[DynamicDataflow] = None,
    period: float = 6 * 3600.0,
    interval: float = 60.0,
) -> ObjectiveSpec:
    """Objective spec with the paper's σ calibration at a mean input rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    df = dataflow if dataflow is not None else fig1_dataflow()
    period_hours = period / 3600.0
    cost_at_max = _DOLLARS_PER_MSGS * rate * period_hours
    cost_at_min = _MIN_VALUE_COST_FRACTION * cost_at_max
    sigma = sigma_from_expectations(df, cost_at_max, cost_at_min)
    return ObjectiveSpec(
        omega_min=OMEGA_MIN,
        epsilon=EPSILON,
        sigma=sigma,
        period=period,
        interval=interval,
    )


def make_profile(kind: RateKind, rate: float, seed: int = 0) -> RateProfile:
    """One of the three §8.1 rate profiles at a given mean rate."""
    if kind == "constant":
        return ConstantRate(rate)
    if kind == "wave":
        return PeriodicWave(mean=rate, amplitude=rate * 0.5, period=3600.0)
    if kind == "walk":
        return RandomWalkRate(mean=rate, step_sigma=0.08, seed=seed)
    raise ValueError(f"unknown rate kind {kind!r}")


def make_performance(
    mode: VariabilityMode, seed: int = 0
) -> PerformanceModel:
    """Infrastructure model for a variability mode.

    ``data`` means *only* data-rate variability, so the infrastructure is
    ideal; ``infra`` and ``both`` replay the synthetic FutureGrid-like
    traces.
    """
    if mode in ("none", "data"):
        return ConstantPerformance()
    return TraceReplayPerformance(_trace_library(seed))


@lru_cache(maxsize=8)
def _trace_library(seed: int) -> TraceLibrary:
    """Memoized synthetic trace library.

    Generating the series costs tens of milliseconds; a sweep builds one
    provider per cell, so without memoization that cost repeats for every
    cell.  ``TraceLibrary`` is immutable after construction (the replay
    caches live on ``TraceReplayPerformance``, which stays per-provider),
    so sharing one instance per seed is safe.
    """
    return TraceLibrary(seed=seed)


@dataclass
class Scenario:
    """A fully specified experiment: dataflow + workload + infrastructure.

    Build with the factory defaults for the paper's setup, then override
    fields as needed.  ``provider()`` returns a *fresh* provider (billing
    reset) so repeated runs are independent.
    """

    rate: float
    rate_kind: RateKind = "constant"
    variability: VariabilityMode = "none"
    seed: int = 0
    period: float = 6 * 3600.0
    interval: float = 60.0
    tick: float = 1.0
    dataflow: DynamicDataflow = field(default_factory=fig1_dataflow)
    catalog: list[VMClass] = field(default_factory=aws_2013_catalog)
    startup_delay: float = 0.0
    #: Mean time between VM failures in hours (None disables crashes).
    mtbf_hours: Optional[float] = None
    #: Periodic PE-state checkpoint interval in seconds (None disables).
    checkpoint_interval: Optional[float] = None
    #: Latency before checkpoint-restored state processes again (seconds).
    restore_latency: float = 0.0
    #: Mean time between spot revocations in hours (None = no spot tier;
    #: setting it adds discounted ``-spot`` twins to the catalog).
    spot_mtbf_hours: Optional[float] = None
    #: Advance warning before a spot revocation (seconds).
    spot_notice_s: float = 120.0
    #: Spot price discount off on-demand, as a fraction in (0, 1).
    spot_discount: float = 0.7
    #: Failure-oracle look-ahead in seconds (None = 2 × interval).
    hedge_horizon: Optional[float] = None
    #: Pricing model (S28): one of ``cloud.billing.BILLING_MODELS``.
    billing_model: str = "on_demand_hourly"
    #: ``reserved``: committed instance-hours per instance.
    billing_commit_hours: int = 3
    #: ``reserved`` / ``sustained_use``: discount fraction in [0, 1).
    billing_discount: float = 0.4
    #: ``reserved``: upfront fee as a fraction of the committed savings.
    billing_upfront_fraction: float = 0.5
    #: ``sustained_use``: billing-window length in hours.
    billing_window_hours: int = 8
    #: ``spot_trace``: price-trace step in seconds.
    billing_trace_resolution_s: float = 300.0
    #: ``spot_trace``: multiplier band (cap ≤ 1 keeps the traced price
    #: at or below the list price).
    billing_trace_floor: float = 0.35
    billing_trace_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.billing_model not in BILLING_MODELS:
            raise ValueError(
                f"unknown billing model {self.billing_model!r}; "
                f"known: {BILLING_MODELS}"
            )
        # "data" variability forces a non-constant rate profile.
        if self.variability in ("data", "both") and self.rate_kind == "constant":
            self.rate_kind = "wave"

    @property
    def spec(self) -> ObjectiveSpec:
        return standard_spec(
            self.rate, self.dataflow, period=self.period, interval=self.interval
        )

    def profiles(self) -> dict[str, RateProfile]:
        profile = make_profile(self.rate_kind, self.rate, seed=self.seed)
        return {name: profile for name in self.dataflow.inputs}

    def effective_catalog(self) -> list[VMClass]:
        """The catalog runs actually deploy against.

        With a spot tier configured, the discounted ``-spot`` twins join
        the on-demand classes.  Spot twins are concatenated *first* so
        the stable capacity sort places each twin just before its
        on-demand sibling: best-fit provisioning (first class covering a
        deficit) then prefers the cheaper spot class, while "the largest
        class" (``catalog[-1]``, the local strategy's pick) stays
        on-demand.
        """
        if self.spot_mtbf_hours is None:
            return list(self.catalog)
        return sorted(
            spot_variants(self.catalog, self.spot_discount)
            + list(self.catalog)
        )

    def billing(self) -> BillingModel:
        """The pricing model all of this scenario's meters share."""
        return make_billing_model(
            self.billing_model,
            commit_hours=self.billing_commit_hours,
            discount=self.billing_discount,
            upfront_fraction=self.billing_upfront_fraction,
            window_hours=self.billing_window_hours,
            seed=self.seed,
            resolution_s=self.billing_trace_resolution_s,
            floor=self.billing_trace_floor,
            cap=self.billing_trace_cap,
        )

    def provider(self) -> CloudProvider:
        return CloudProvider(
            self.effective_catalog(),
            performance=make_performance(self.variability, seed=self.seed),
            startup_delay=self.startup_delay,
            billing_model=self.billing(),
        )

    def policy(self, name: str) -> Policy:
        return make_policy(
            name,
            self.dataflow,
            self.effective_catalog(),
            self.spec,
            billing=self.billing(),
        )

    def failures(self) -> Optional[FailureModel]:
        """Failure model for this scenario (None when mtbf_hours unset)."""
        if self.mtbf_hours is None:
            return None
        return FailureModel(self.mtbf_hours, seed=self.seed)

    def revocations(self) -> Optional[SpotRevocationModel]:
        """Spot-revocation model (None when no spot tier is configured)."""
        if self.spot_mtbf_hours is None:
            return None
        return SpotRevocationModel(
            self.spot_mtbf_hours,
            seed=self.seed,
            notice_s=self.spot_notice_s,
        )

    def manager(
        self,
        policy_name: str,
        policy: Optional[Policy] = None,
        provider: Optional[CloudProvider] = None,
    ) -> RunManager:
        """The :class:`RunManager` that runs ``policy_name`` on this scenario.

        ``policy`` replaces the named policy (a custom heuristic) and
        ``provider`` the fresh private provider (a fleet passes each
        tenant's view of its shared cloud).
        """
        if policy is None:
            policy = self.policy(policy_name)
        return RunManager(
            dataflow=self.dataflow,
            profiles=self.profiles(),
            policy=policy,
            provider=provider if provider is not None else self.provider(),
            spec=self.spec,
            tick=self.tick,
            message_size_mb=MESSAGE_SIZE_MB,
            failures=self.failures(),
            revocations=self.revocations(),
            checkpoint_interval=self.checkpoint_interval,
            restore_latency=self.restore_latency,
            hedge_horizon=self.hedge_horizon,
        )

    def fingerprint(self) -> dict:
        """Canonical structural identity for the result cache (S22).

        Plain JSON-serializable data covering *every* field that shapes a
        run: the scalar knobs, the dataflow value by value (PE order,
        alternates, edges, routing patterns), and the VM catalog.  Two
        scenarios with equal fingerprints produce bit-identical rows, and
        any field edit changes the fingerprint.
        """
        df = self.dataflow
        return {
            "rate": self.rate,
            "rate_kind": self.rate_kind,
            "variability": self.variability,
            "seed": self.seed,
            "period": self.period,
            "interval": self.interval,
            "tick": self.tick,
            "startup_delay": self.startup_delay,
            "mtbf_hours": self.mtbf_hours,
            "checkpoint_interval": self.checkpoint_interval,
            "restore_latency": self.restore_latency,
            "spot_mtbf_hours": self.spot_mtbf_hours,
            "spot_notice_s": self.spot_notice_s,
            "spot_discount": self.spot_discount,
            "hedge_horizon": self.hedge_horizon,
            "billing_model": self.billing_model,
            "billing_commit_hours": self.billing_commit_hours,
            "billing_discount": self.billing_discount,
            "billing_upfront_fraction": self.billing_upfront_fraction,
            "billing_window_hours": self.billing_window_hours,
            "billing_trace_resolution_s": self.billing_trace_resolution_s,
            "billing_trace_floor": self.billing_trace_floor,
            "billing_trace_cap": self.billing_trace_cap,
            "dataflow": [
                {
                    "pe": p.name,
                    "alternates": [
                        [a.name, a.value, a.cost, a.selectivity]
                        for a in p.alternates
                    ],
                    "succ": list(df.successors(p.name)),
                    "split": df.split_pattern(p.name).name,
                    "merge": df.merge_pattern(p.name).name,
                }
                for p in df.pes
            ],
            "catalog": [
                [c.name, c.cores, c.core_speed, c.bandwidth_mbps,
                 c.hourly_price, c.spot]
                for c in self.catalog
            ],
        }


@dataclass(frozen=True)
class MultiTenantScenario:
    """A fleet of N tenant dataflows sharing one finite cloud (S27).

    Each tenant ``k`` runs the standard Fig. 1 scenario at its own mean
    input rate, spread linearly over ``[rate_lo, rate_hi]``; all tenants
    share the clock discipline (period, interval, tick), the variability
    mode + seed (one performance model serves the whole fleet), and one
    :class:`~repro.cloud.provider.CloudProvider` whose per-class pools
    are sized by ``capacity_tightness``.  ``tenant_scenario(k)`` returns
    the *isolated-run oracle* for tenant ``k`` — the exact single-tenant
    :class:`Scenario` whose results the shared kernel must reproduce bit
    for bit when capacity is not contended.
    """

    n_tenants: int = 1000
    admission: str = "free-for-all"
    policy: str = "global"
    rate_lo: float = 2.0
    rate_hi: float = 8.0
    rate_kind: RateKind = "constant"
    variability: VariabilityMode = "none"
    seed: int = 7
    period: float = 600.0
    interval: float = 60.0
    tick: float = 1.0
    #: Sizes each class's shared pool as a fraction of one-instance-per-
    #: tenant (``ceil(tightness · n_tenants)`` instances per class);
    #: ``None`` leaves every pool unlimited (the uncontended fleet).
    capacity_tightness: Optional[float] = 0.5
    #: Fair-share weight per tenant (``None`` = equal weights).
    weights: Optional[tuple[float, ...]] = None
    #: Pricing model shared by every tenant meter (the cloud has one
    #: price list); forwarded to each tenant's oracle scenario so the
    #: shared-vs-isolated bit-identity contract covers pricing too.
    billing_model: str = "on_demand_hourly"

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ValueError("need at least one tenant")
        if self.billing_model not in BILLING_MODELS:
            raise ValueError(
                f"unknown billing model {self.billing_model!r}; "
                f"known: {BILLING_MODELS}"
            )
        if self.rate_lo <= 0 or self.rate_hi < self.rate_lo:
            raise ValueError("need 0 < rate_lo <= rate_hi")
        if self.weights is not None and len(self.weights) != self.n_tenants:
            raise ValueError("weights must match n_tenants 1:1")

    def tenant_rate(self, k: int) -> float:
        """Tenant ``k``'s mean input rate (linear spread over the band)."""
        if self.n_tenants == 1:
            return self.rate_lo
        span = self.rate_hi - self.rate_lo
        return self.rate_lo + span * k / (self.n_tenants - 1)

    def tenant_scenario(self, k: int) -> Scenario:
        """The isolated single-tenant oracle scenario for tenant ``k``."""
        if not 0 <= k < self.n_tenants:
            raise ValueError(f"tenant {k} outside [0, {self.n_tenants})")
        return Scenario(
            rate=self.tenant_rate(k),
            rate_kind=self.rate_kind,
            variability=self.variability,
            seed=self.seed,
            period=self.period,
            interval=self.interval,
            tick=self.tick,
            billing_model=self.billing_model,
        )

    def capacity(self, catalog: list[VMClass]) -> Optional[dict[str, int]]:
        """Shared per-class pool sizes, or ``None`` when unlimited."""
        if self.capacity_tightness is None:
            return None
        per_class = max(1, math.ceil(self.capacity_tightness * self.n_tenants))
        return {c.name: per_class for c in catalog}

    def tenant_weights(self) -> dict[int, float]:
        """Fair-share weight per tenant id."""
        if self.weights is None:
            return {k: 1.0 for k in range(self.n_tenants)}
        return {k: float(w) for k, w in enumerate(self.weights)}

    def fingerprint(self) -> dict:
        """Canonical identity of the fleet configuration."""
        return {
            "n_tenants": self.n_tenants,
            "admission": self.admission,
            "policy": self.policy,
            "rate_lo": self.rate_lo,
            "rate_hi": self.rate_hi,
            "rate_kind": self.rate_kind,
            "variability": self.variability,
            "seed": self.seed,
            "period": self.period,
            "interval": self.interval,
            "tick": self.tick,
            "capacity_tightness": self.capacity_tightness,
            "weights": list(self.weights) if self.weights else None,
            "billing_model": self.billing_model,
        }


def multi_tenant_scenario(
    n_tenants: int = 1000,
    admission: str = "free-for-all",
    **overrides,
) -> MultiTenantScenario:
    """The S27 multi-tenant contention benchmark.

    A 1000-tenant fleet of Fig. 1 dataflows at rates spread over
    2–8 msg/s, on one shared cloud whose per-class pools hold half an
    instance per tenant — tight enough that the high-rate tenants'
    demand collides with the pool, so the two admission policies
    (``free-for-all`` vs ``fair-share``) produce visibly different
    denial patterns.  Keyword overrides pass through to
    :class:`MultiTenantScenario`.
    """
    return MultiTenantScenario(
        n_tenants=n_tenants, admission=admission, **overrides
    )


def failure_storm_scenario(
    rate: float = 10.0,
    period: float = 3600.0,
    seed: int = 3,
) -> Scenario:
    """The S26 reliability benchmark: a spot-revocation storm.

    A spot tier 70% below on-demand price with a ~20-minute mean time
    between revocations per spot VM (a storm: several forced stops per
    hour of fleet time), two-minute revocation notices, periodic PE
    checkpoints and a short restore latency.  Cost-driven heuristics
    deploy onto the cheap spot tier and then live with the consequences;
    the ``hedged`` policy uses the notices to drain doomed VMs first.
    """
    return Scenario(
        rate=rate,
        variability="none",
        period=period,
        seed=seed,
        spot_mtbf_hours=1.0 / 3.0,
        spot_notice_s=120.0,
        spot_discount=0.7,
        checkpoint_interval=120.0,
        restore_latency=10.0,
    )


def run_policy(
    scenario: Scenario,
    policy_name: str,
    policy_factory: Optional[Callable[[Scenario], Policy]] = None,
) -> RunResult:
    """Run one policy on one scenario and return its results."""
    policy = policy_factory(scenario) if policy_factory is not None else None
    return scenario.manager(policy_name, policy=policy).run()
