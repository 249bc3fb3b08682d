"""Per-figure reproduction drivers (paper §8.2, Figs. 2–9).

Each ``figure*`` function regenerates the rows/series behind one figure
of the paper's evaluation and returns a :class:`FigureResult` carrying
the data plus the paper's qualitative expectation for that figure.  The
benchmark harness (``benchmarks/``) runs these and prints the tables; the
EXPERIMENTS.md record compares them against the paper.

Every driver takes ``fast=True`` to run a shortened configuration
(smaller period, fewer rates) suitable for CI; the full configuration
reproduces the paper's setup (6 h periods; 10 h for the cost figures;
2–50 msg/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..cloud.traces import TraceLibrary, trace_statistics
from ..util.tables import format_table
from .runner import SweepRow, average_rows, run_fleet, sweep
from .scenarios import (
    Scenario,
    failure_storm_scenario,
    multi_tenant_scenario,
)

__all__ = [
    "FigureResult",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure_storm",
    "figure_tenants",
    "figure_pricing",
    "ALL_FIGURES",
]

_FULL_RATES = (2.0, 5.0, 10.0, 20.0, 35.0, 50.0)
_FAST_RATES = (2.0, 5.0, 10.0)
_FULL_PERIOD = 6 * 3600.0
_FAST_PERIOD = 1800.0


@dataclass
class FigureResult:
    """Data reproducing one figure."""

    figure: str
    title: str
    headers: list[str]
    rows: list[list]
    #: The qualitative claim the paper makes about this figure.
    expectation: str
    notes: str = ""
    #: Raw sweep rows when the figure came from engine runs.
    sweep_rows: list[SweepRow] = field(default_factory=list)

    def render(self) -> str:
        parts = [
            format_table(
                self.headers, self.rows, title=f"{self.figure}: {self.title}"
            )
        ]
        parts.append(f"paper expectation: {self.expectation}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Figures 2–3: infrastructure variability characterization
# ---------------------------------------------------------------------------


def figure2(
    seed: int = 0,
    n_vms: int = 6,
    days: float = 4.0,
    fast: bool = False,
) -> FigureResult:
    """Fig. 2: per-VM CPU performance variability over four days."""
    if fast:
        days = 1.0
        n_vms = 3
    from ..cloud.traces import CPUTraceConfig

    library = TraceLibrary(
        seed=seed,
        n_cpu_series=n_vms,
        n_network_series=1,
        cpu=CPUTraceConfig(duration_s=days * 86400.0),
    )
    rows = []
    for i in range(n_vms):
        stats = trace_statistics(library.cpu_series[i])
        rows.append(
            [
                f"vm-{i}",
                stats["mean"],
                stats["cv"],
                stats["min"],
                stats["max"],
                stats["rel_dev_p05"],
                stats["rel_dev_p95"],
            ]
        )
    return FigureResult(
        figure="Figure 2",
        title=f"VM CPU performance variability ({days:g} days)",
        headers=["vm", "mean π·κ", "CV", "min", "max", "relDev p05", "relDev p95"],
        rows=rows,
        expectation=(
            "CPU performance of same-class VMs differs across instances and "
            "fluctuates over time, with relative deviations from the mean "
            "commonly exceeding ±10% and occasional deep multi-tenancy dips"
        ),
        notes="synthetic FutureGrid-like traces (see DESIGN.md substitution #1)",
    )


def figure3(
    seed: int = 0,
    days: float = 4.0,
    fast: bool = False,
) -> FigureResult:
    """Fig. 3: network latency/bandwidth variation between a VM pair."""
    if fast:
        days = 1.0
    from ..cloud.traces import NetworkTraceConfig

    library = TraceLibrary(
        seed=seed,
        n_cpu_series=1,
        n_network_series=4,
        network=NetworkTraceConfig(duration_s=days * 86400.0),
    )
    rows = []
    for i in range(library.n_network_series):
        lat = trace_statistics(library.latency_series[i] * 1000.0)  # ms
        bw = trace_statistics(library.bandwidth_series[i])
        rows.append(
            [
                f"pair-{i}",
                lat["mean"],
                lat["max"],
                lat["cv"],
                bw["mean"],
                bw["min"],
                bw["cv"],
            ]
        )
    return FigureResult(
        figure="Figure 3",
        title=f"network variability between VM pairs ({days:g} days)",
        headers=[
            "pair",
            "lat mean (ms)",
            "lat max (ms)",
            "lat CV",
            "bw mean (Mbps)",
            "bw min (Mbps)",
            "bw CV",
        ],
        rows=rows,
        expectation=(
            "latency shows sharp spikes (orders of magnitude above the "
            "base) while available bandwidth drifts and dips below the "
            "rated value over the same period"
        ),
        notes="synthetic traces; latency in milliseconds",
    )


# ---------------------------------------------------------------------------
# Figures 4–5: static deployments
# ---------------------------------------------------------------------------


def figure4(
    rate: float = 5.0,
    fast: bool = False,
    seed: int = 7,
    include_bruteforce: bool = True,
) -> FigureResult:
    """Fig. 4: static deployments under the four variability modes."""
    period = _FAST_PERIOD if fast else _FULL_PERIOD
    policies = ["static-local", "static-global"]
    if include_bruteforce:
        policies.insert(0, "static-bruteforce")
    scenarios = [
        Scenario(
            rate=rate,
            variability=mode,
            seed=seed,
            period=period,
        )
        for mode in ("none", "data", "infra", "both")
    ]
    rows_raw = sweep(scenarios, policies)
    rows = [
        [r.variability, r.policy, r.omega, r.theta, r.constraint_met]
        for r in rows_raw
    ]
    return FigureResult(
        figure="Figure 4",
        title=f"static deployments vs variability (rate={rate:g} msg/s)",
        headers=["variability", "policy", "Ω̄", "Θ", "Ω̄≥Ω̂-ε"],
        rows=rows,
        expectation=(
            "with no variability every static strategy satisfies Ω̂ "
            "(brute force best, then local, then global); introducing data "
            "and/or infrastructure variability degrades all static "
            "deployments toward or below the constraint while Θ stays flat "
            "— motivating continuous re-deployment"
        ),
        sweep_rows=rows_raw,
    )


def figure5(
    rates: Optional[Sequence[float]] = None,
    fast: bool = False,
    seed: int = 7,
) -> FigureResult:
    """Fig. 5: static local/global relative throughput vs data rate."""
    period = _FAST_PERIOD if fast else _FULL_PERIOD
    rates = tuple(rates) if rates is not None else (_FAST_RATES if fast else _FULL_RATES)
    scenarios = [
        Scenario(rate=r, variability="none", seed=seed, period=period)
        for r in rates
    ]
    rows_raw = sweep(scenarios, ["static-local", "static-global"])
    rows = [
        [r.rate, r.policy, r.omega, r.theta, r.constraint_met]
        for r in rows_raw
    ]
    return FigureResult(
        figure="Figure 5",
        title="static deployments vs data rate (no variability)",
        headers=["rate", "policy", "Ω̄", "Θ", "Ω̄≥Ω̂-ε"],
        rows=rows,
        expectation=(
            "the throughput of static local/global deployments decreases "
            "as the data rate increases even without variability (integer "
            "headroom shrinks), further motivating runtime adaptation"
        ),
        sweep_rows=rows_raw,
    )


# ---------------------------------------------------------------------------
# Figures 6–7: runtime adaptation, local vs global
# ---------------------------------------------------------------------------


def figure6(
    rates: Optional[Sequence[float]] = None,
    fast: bool = False,
    seed: int = 7,
) -> FigureResult:
    """Fig. 6: local vs global adaptation under infrastructure variability."""
    period = _FAST_PERIOD if fast else _FULL_PERIOD
    rates = tuple(rates) if rates is not None else (_FAST_RATES if fast else _FULL_RATES)
    scenarios = [
        Scenario(
            rate=r,
            rate_kind="constant",
            variability="infra",
            seed=seed,
            period=period,
        )
        for r in rates
    ]
    rows_raw = sweep(scenarios, ["local", "global"])
    rows = [
        [r.rate, r.policy, r.omega, r.theta, r.cost, r.constraint_met]
        for r in rows_raw
    ]
    return FigureResult(
        figure="Figure 6",
        title="runtime adaptation under infrastructure variability",
        headers=["rate", "policy", "Ω̄", "Θ", "cost $", "Ω̄≥Ω̂-ε"],
        rows=rows,
        expectation=(
            "both heuristics meet the Ω̂ constraint despite infrastructure "
            "variability; the global heuristic achieves higher Θ at high "
            "data rates, the local heuristic at low rates"
        ),
        sweep_rows=rows_raw,
    )


def figure7(
    rates: Optional[Sequence[float]] = None,
    fast: bool = False,
    seed: int = 7,
) -> FigureResult:
    """Fig. 7: local vs global adaptation under data-rate variability."""
    period = _FAST_PERIOD if fast else _FULL_PERIOD
    rates = tuple(rates) if rates is not None else (_FAST_RATES if fast else _FULL_RATES)
    scenarios = [
        Scenario(
            rate=r,
            rate_kind="wave",
            variability="data",
            seed=seed,
            period=period,
        )
        for r in rates
    ]
    rows_raw = sweep(scenarios, ["local", "global"])
    rows = [
        [r.rate, r.policy, r.omega, r.theta, r.cost, r.constraint_met]
        for r in rows_raw
    ]
    return FigureResult(
        figure="Figure 7",
        title="runtime adaptation under data-rate variability (stable infra)",
        headers=["rate", "policy", "Ω̄", "Θ", "cost $", "Ω̄≥Ω̂-ε"],
        rows=rows,
        expectation=(
            "both heuristics satisfy Ω̂ within ε ≤ 0.05 across the rate "
            "range; global wins on Θ above ~10 msg/s (it anticipates the "
            "downstream impact of re-deployments), local wins below (global "
            "over-estimates downstream effects at low rates)"
        ),
        sweep_rows=rows_raw,
    )


# ---------------------------------------------------------------------------
# Figures 8–9: the dollar value of application dynamism
# ---------------------------------------------------------------------------

_FIG8_POLICIES = ("global", "global-nodyn", "local", "local-nodyn")


def figure8(
    rates: Optional[Sequence[float]] = None,
    fast: bool = False,
    seed: int = 7,
    n_seeds: int = 1,
) -> FigureResult:
    """Fig. 8: dollar cost over 10 h for the four adaptive policies.

    ``n_seeds > 1`` replicates the sweep over consecutive seeds and
    averages the rows (workload phase and trace assignments vary per
    seed), tightening the Fig. 9 savings estimates.
    """
    period = _FAST_PERIOD if fast else 10 * 3600.0
    rates = tuple(rates) if rates is not None else (_FAST_RATES if fast else _FULL_RATES)
    if n_seeds < 1:
        raise ValueError("n_seeds must be ≥ 1")
    replicas = []
    for s in range(seed, seed + n_seeds):
        scenarios = [
            Scenario(
                rate=r,
                rate_kind="wave",
                variability="both",
                seed=s,
                period=period,
            )
            for r in rates
        ]
        replicas.append(sweep(scenarios, list(_FIG8_POLICIES)))
    rows_raw = average_rows(replicas) if n_seeds > 1 else replicas[0]
    rows = [
        [r.rate, r.policy, r.cost, r.omega, r.theta, r.constraint_met]
        for r in rows_raw
    ]
    return FigureResult(
        figure="Figure 8",
        title=f"dollar cost over {period / 3600:g} h, by policy and rate",
        headers=["rate", "policy", "cost $", "Ω̄", "Θ", "Ω̄≥Ω̂-ε"],
        rows=rows,
        expectation=(
            "global spends the least at high rates and local at low rates; "
            "disabling application dynamism always costs more — global-nodyn "
            "≈15% more than global on average, local-nodyn up to ~70% more "
            "than global"
        ),
        sweep_rows=rows_raw,
    )


def figure9(
    fig8: Optional[FigureResult] = None,
    fast: bool = False,
    seed: int = 7,
) -> FigureResult:
    """Fig. 9: relative cost savings attributable to application dynamism.

    Derived from the Fig. 8 sweep: for each rate, the savings of the
    dynamic policy over its no-dynamism twin and of global over
    local-nodyn.
    """
    if fig8 is None:
        fig8 = figure8(fast=fast, seed=seed)
    by_key = {(r.rate, r.policy): r for r in fig8.sweep_rows}
    rates = sorted({r.rate for r in fig8.sweep_rows})

    def savings(a: float, b: float) -> float:
        """Fractional savings of cost ``a`` relative to cost ``b``."""
        return (b - a) / b if b > 0 else 0.0

    rows = []
    g_saves, l_saves = [], []
    for rate in rates:
        g = by_key[(rate, "global")].cost
        gn = by_key[(rate, "global-nodyn")].cost
        loc = by_key[(rate, "local")].cost
        ln = by_key[(rate, "local-nodyn")].cost
        sg = savings(g, gn)
        sl = savings(loc, ln)
        sgl = savings(g, ln)
        g_saves.append(sg)
        l_saves.append(sl)
        rows.append([rate, sg * 100, sl * 100, sgl * 100])
    rows.append(
        [
            "mean",
            float(np.mean(g_saves)) * 100,
            float(np.mean(l_saves)) * 100,
            float(
                np.mean(
                    [
                        savings(
                            by_key[(r, "global")].cost,
                            by_key[(r, "local-nodyn")].cost,
                        )
                        for r in rates
                    ]
                )
            )
            * 100,
        ]
    )
    return FigureResult(
        figure="Figure 9",
        title="cost benefit of application dynamism (continuous re-deployment)",
        headers=[
            "rate",
            "global vs global-nodyn (%)",
            "local vs local-nodyn (%)",
            "global vs local-nodyn (%)",
        ],
        rows=rows,
        expectation=(
            "application dynamism saves ~15% on average for the global "
            "heuristic and up to ~70% comparing global against the local "
            "heuristic without dynamism"
        ),
        sweep_rows=fig8.sweep_rows,
    )


# ---------------------------------------------------------------------------
# Beyond the paper: the S26 reliability benchmark
# ---------------------------------------------------------------------------

_STORM_POLICIES = ("static-global", "local", "global", "hedged")


def figure_storm(
    rate: float = 10.0,
    fast: bool = False,
    seed: int = 3,
) -> FigureResult:
    """Failure storm: policies on a cheap-but-revocable spot tier.

    Not a figure of the paper — it exercises the fault-tolerance future
    work its conclusion proposes.  Every policy deploys against a
    catalog with a 70%-discounted spot tier whose VMs are forcibly
    revoked (~20 min mean time between revocations per spot VM, 2 min
    notice).  The ``hedged`` policy reads the notices and drains doomed
    VMs in advance; the paper's heuristics only react after the crash.
    """
    period = _FAST_PERIOD if fast else 2 * 3600.0
    scenario = failure_storm_scenario(rate=rate, period=period, seed=seed)
    rows_raw = sweep([scenario], list(_STORM_POLICIES))
    rows = [
        [
            r.policy,
            r.omega,
            r.theta,
            r.cost,
            r.crashes,
            r.lost_messages,
            r.mean_recovery_s if r.mean_recovery_s is not None else "—",
            r.constraint_met,
        ]
        for r in rows_raw
    ]
    return FigureResult(
        figure="Failure storm",
        title=f"reliability under spot revocations (rate={rate:g} msg/s)",
        headers=[
            "policy", "Ω̄", "Θ", "cost $", "crashes", "msgs lost",
            "mean recovery s", "Ω̄≥Ω̂-ε",
        ],
        rows=rows,
        expectation=(
            "the static deployment bleeds capacity with every revocation; "
            "the paper's adaptive heuristics recover but pay in lost "
            "messages and post-crash catch-up; the hedged policy drains "
            "doomed VMs before the revocation fires, holding the highest "
            "Θ at a comparable dollar cost"
        ),
        notes=(
            "beyond the paper (its conclusion's fault-tolerance future "
            "work); spot tier at 30% of on-demand price, checkpoints "
            "every 120 s"
        ),
        sweep_rows=rows_raw,
    )


# ---------------------------------------------------------------------------
# Beyond the paper: the S27 multi-tenant contention benchmark
# ---------------------------------------------------------------------------

_TENANT_ADMISSIONS = ("free-for-all", "fair-share")


def figure_tenants(
    n_tenants: int = 64,
    fast: bool = False,
    seed: int = 7,
) -> FigureResult:
    """Multi-tenant contention: admission policies on a shared provider.

    Not a figure of the paper — it exercises the multi-tenancy the
    paper's cloud model abstracts away.  ``n_tenants`` dataflows with
    rates spread across 2–20 msg/s share one provider whose per-class
    pools hold exactly one VM per tenant per class — far below the
    heavy tenants' ideal fleets; the same fleet runs once under
    first-come-first-served admission (``free-for-all``) and once under
    weighted max-min fair-share.
    """
    if fast:
        n_tenants = 16
    period = 900.0 if fast else 1800.0
    rows = []
    for admission in _TENANT_ADMISSIONS:
        mt = multi_tenant_scenario(
            n_tenants=n_tenants,
            admission=admission,
            seed=seed,
            period=period,
            rate_lo=2.0,
            rate_hi=20.0,
            capacity_tightness=1.0,
        )
        fr = run_fleet(mt)
        omegas = [r.omega for r in fr.rows]
        starved = sum(1 for om in omegas if om < 0.05)
        met = sum(1 for r in fr.rows if r.constraint_met)
        rows.append(
            [
                admission,
                fr.n_tenants,
                fr.fleet_omega,
                min(omegas),
                starved,
                fr.fleet_mu,
                fr.denied_total,
                f"{met}/{fr.n_tenants}",
            ]
        )
    return FigureResult(
        figure="Multi-tenant fleet",
        title=f"admission policies under capacity contention ({n_tenants} tenants)",
        headers=[
            "admission", "tenants", "fleet Ω̄", "Ω̄ min", "starved",
            "fleet μ $", "denied", "Ω̄≥Ω̂-ε",
        ],
        rows=rows,
        expectation=(
            "the classic fairness-vs-utilization tradeoff: free-for-all "
            "admission serves whoever asks first, maximizing fleet Ω̄ but "
            "letting arrival order pick winners — late heavy tenants end "
            "with zero VMs (starved, Ω̄ = 0); weighted max-min fair-share "
            "caps every tenant at its per-class share, so no tenant "
            "starves (Ω̄ min > 0) at the cost of a lower fleet Ω̄"
        ),
        notes=(
            "beyond the paper (shared-provider multi-tenancy, S27); "
            "per-class pools hold one VM per tenant per class; Θ is a "
            "misleading fairness lens here — a starved tenant pays "
            "nothing, so its relative value stays high"
        ),
    )


# ---------------------------------------------------------------------------
# Beyond the paper: the S28 pricing-model × policy grid
# ---------------------------------------------------------------------------

_PRICING_POLICIES = ("static-global", "global", "anneal")


def figure_pricing(
    rate: float = 8.0,
    fast: bool = False,
    seed: int = 7,
) -> FigureResult:
    """Cost-model × policy grid: every pricing strategy, three policies.

    Not a figure of the paper — it exercises the S28 pricing-model
    diversity.  One workload (wave rate, both variability modes) runs
    under each :data:`~repro.cloud.billing.BILLING_MODELS` strategy with
    a static heuristic, the paper's global adaptation, and the annealing
    baseline (whose search prices plans under the scenario's billing
    model).  The ``spot_trace`` rows keep the scenario's spot tier off
    so the grid isolates pure pricing effects.
    """
    from ..cloud.billing import BILLING_MODELS

    period = _FAST_PERIOD if fast else 2 * 3600.0
    scenarios = [
        Scenario(
            rate=rate,
            rate_kind="wave",
            variability="both",
            seed=seed,
            period=period,
            billing_model=model,
        )
        for model in BILLING_MODELS
    ]
    rows_raw = sweep(scenarios, list(_PRICING_POLICIES))
    rows = [
        [
            r.billing_model,
            r.policy,
            r.omega,
            r.gamma,
            r.cost,
            r.theta,
            r.constraint_met,
        ]
        for r in rows_raw
    ]
    return FigureResult(
        figure="Pricing grid",
        title=f"pricing model × policy grid (rate={rate:g} msg/s)",
        headers=[
            "billing", "policy", "Ω̄", "Γ̄", "cost $", "Θ", "Ω̄≥Ω̂-ε",
        ],
        rows=rows,
        expectation=(
            "discounted models (per-second, reserved, sustained-use, "
            "below-list spot traces) lower μ and therefore raise Θ for "
            "the same deployments; adaptive policies keep their Ω̄ "
            "advantage under every pricing regime; annealing narrows the "
            "static gap by pricing its search under the actual model"
        ),
        notes=(
            "beyond the paper (S28 pricing-model diversity); reserved "
            "commits 3 h at 40% discount, sustained-use tiers over an "
            "8 h window, spot traces stay below list price"
        ),
        sweep_rows=rows_raw,
    )


ALL_FIGURES = {
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "storm": figure_storm,
    "tenants": figure_tenants,
    "pricing": figure_pricing,
}
