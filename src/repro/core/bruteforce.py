"""Static brute-force optimal deployment (paper §8's baseline).

Exhaustively searches alternate selections × VM-class multisets for the
configuration that maximizes Θ = Γ − σ·μ subject to Ω ≥ Ω̂, assuming an
ideal cloud (no variability) and a constant input rate — exactly the
assumptions under which the paper's "static brute-force" is optimal.

For each selection the required capacity is computed by throttling the
*inputs* to ``Ω̂ × rate`` and propagating the ideal flow: sizing every PE
for the throttled flow achieves relative application throughput exactly
Ω̂ with minimal capacity.  VM multisets are enumerated with cost-bound
pruning; the per-PE demands are then first-fit packed at integer-core
granularity to verify feasibility.

One packing kernel, :meth:`BruteForceDeployment._first_fit`, tests every
candidate multiset of this search and of
:class:`~repro.core.anneal.AnnealingDeployment`.  It works on plain
per-VM lists of free cores and core speeds; a :class:`ClusterView` is
built (``_try_pack``) only for the configuration a search returns.

The search is exponential in PE alternates and VM counts; the paper notes
it "takes prohibitively long ... for higher data rates".  A
``max_configurations`` guard makes that explicit instead of hanging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from ..cloud.resources import VMClass
from ..dataflow.graph import DynamicDataflow
from .state import ClusterView, DeploymentPlan, VMView

__all__ = ["BruteForceConfig", "BruteForceDeployment", "SearchBudgetExceeded"]

_EPS = 1e-9


class SearchBudgetExceeded(RuntimeError):
    """The configuration space exceeded ``max_configurations``."""


@dataclass(frozen=True)
class BruteForceConfig:
    """Search parameters.

    Parameters
    ----------
    omega_min:
        Throughput constraint Ω̂.
    sigma:
        Value/dollar slope used to pick the Θ-optimal configuration.
    period_hours:
        Billing horizon over which μ is accumulated (static deployments
        keep their fleet for the whole period).
    max_configurations:
        Upper bound on examined (selection × multiset) combinations.
    """

    omega_min: float = 0.7
    sigma: float = 0.01
    period_hours: float = 6.0
    max_configurations: int = 2_000_000

    def __post_init__(self) -> None:
        if not 0 < self.omega_min <= 1:
            raise ValueError("omega_min must be in (0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be ≥ 0")
        if self.period_hours <= 0:
            raise ValueError("period_hours must be positive")


class BruteForceDeployment:
    """Exhaustive Θ-optimal static deployment for small problems."""

    def __init__(
        self,
        dataflow: DynamicDataflow,
        catalog: list[VMClass],
        config: Optional[BruteForceConfig] = None,
    ) -> None:
        if not catalog:
            raise ValueError("catalog must not be empty")
        self.dataflow = dataflow
        self.catalog = sorted(catalog)
        self.config = config or BruteForceConfig()
        # The packing kernel's VM visiting order, as catalog indices:
        # fastest cores first, ties in catalog order.
        self._fit_order = sorted(
            range(len(self.catalog)),
            key=lambda i: self.catalog[i].core_speed,
            reverse=True,
        )
        self._examined = 0

    # -- public ---------------------------------------------------------------

    def plan(self, input_rates: Mapping[str, float]) -> DeploymentPlan:
        """Search for the Θ-optimal static plan.

        Raises
        ------
        SearchBudgetExceeded
            When the space is too large (high data rates / many
            alternates) — mirroring the paper's observation that the
            brute force is impractical there.
        RuntimeError
            If no feasible configuration exists (should not happen with a
            non-empty catalog).
        """
        cfg = self.config
        self._examined = 0
        best_theta = -math.inf
        best: Optional[DeploymentPlan] = None

        for selection in self.dataflow.all_selections():
            demands = self._demands(selection, input_rates)
            gamma = self.dataflow.application_value(selection)
            cluster = self._cheapest_packing(demands, gamma, best_theta)
            if cluster is None:
                continue
            cost = cluster.total_hourly_price() * cfg.period_hours
            theta = gamma - cfg.sigma * cost
            if theta > best_theta:
                best_theta = theta
                best = DeploymentPlan(selection=selection, cluster=cluster)

        if best is None:
            raise RuntimeError("no feasible brute-force configuration found")
        return best

    @property
    def examined_configurations(self) -> int:
        """Configurations inspected by the last :meth:`plan` call."""
        return self._examined

    # -- demand model ------------------------------------------------------------

    def _demands(
        self, selection: Mapping[str, str], input_rates: Mapping[str, float]
    ) -> dict[str, float]:
        """Per-PE standard-unit demand to deliver exactly Ω̂."""
        throttled = {
            name: rate * self.config.omega_min
            for name, rate in input_rates.items()
        }
        rates = self.dataflow.ideal_rates(selection, throttled)
        demands = {}
        for name, (arrival, _out) in rates.items():
            cost = self.dataflow.active_alternate(selection, name).cost
            demands[name] = max(arrival * cost, _EPS)
        return demands

    # -- packing search -------------------------------------------------------------

    def _cheapest_packing(
        self,
        demands: Mapping[str, float],
        gamma: float,
        theta_to_beat: float,
    ) -> Optional[ClusterView]:
        """Min-cost feasible VM multiset for ``demands``.

        Enumerates class count vectors recursively with two prunings: cost
        already above the cheapest feasible multiset found, and Θ upper
        bound (``gamma − σ·cost``) already below ``theta_to_beat``.  Leaves
        are tested by :meth:`_first_fit` alone; only the winning counts
        are built into a cluster.
        """
        cfg = self.config
        total = sum(demands.values())
        order = _demand_order(demands)
        classes = self.catalog
        # Upper bound per class: enough of it alone to cover everything,
        # plus slack for integer-core fragmentation.
        limits = [
            math.ceil(total / c.total_capacity) + len(demands) for c in classes
        ]

        best_cost = math.inf
        best_counts: Optional[list[int]] = None
        counts = [0] * len(classes)

        def rec(i: int, capacity: float, hourly: float) -> None:
            nonlocal best_cost, best_counts
            self._examined += 1
            if self._examined > cfg.max_configurations:
                raise SearchBudgetExceeded(
                    f"more than {cfg.max_configurations} configurations"
                )
            if hourly * cfg.period_hours >= best_cost - _EPS:
                return  # cannot improve on the best feasible multiset
            if gamma - cfg.sigma * hourly * cfg.period_hours <= theta_to_beat:
                return  # cannot beat the incumbent selection either
            if capacity >= total - _EPS:
                if self._first_fit(counts, order) is not None:
                    best_cost = hourly * cfg.period_hours
                    best_counts = list(counts)
                # Feasible-or-not, adding more VMs only raises cost.
                # Keep searching siblings, not children.
            if i == len(classes):
                return
            cap, price = classes[i].total_capacity, classes[i].hourly_price
            for n in range(limits[i] + 1):
                counts[i] = n
                rec(i + 1, capacity + n * cap, hourly + n * price)
            counts[i] = 0

        rec(0, 0.0, 0.0)
        if best_counts is None:
            return None
        return self._try_pack(best_counts, demands)

    def _try_pack(
        self, counts: list[int], demands: Mapping[str, float]
    ) -> Optional[ClusterView]:
        """First-fit-decreasing pack of PE demands into the given multiset
        at integer-core granularity; None if infeasible.

        The cluster lists its VMs in catalog order, each class ``counts[i]``
        times, so :meth:`ClusterView.total_hourly_price` sums in that order.
        """
        allocations = self._first_fit(counts, _demand_order(demands))
        if allocations is None:
            return None
        # The kernel visits classes in ``_fit_order``; copies of one class
        # keep their relative order in both orders.
        by_class: list[list[dict[str, int]]] = [[] for _ in self.catalog]
        packed = iter(allocations)
        for i in self._fit_order:
            by_class[i] = [next(packed) for _ in range(counts[i])]
        return ClusterView(
            VMView(vm_class=klass, allocations=allocs)
            for klass, class_allocs in zip(self.catalog, by_class)
            for allocs in class_allocs
        )

    def _first_fit(
        self, counts: list[int], order: list[tuple[str, float]]
    ) -> Optional[list[dict[str, int]]]:
        """The packing kernel: first-fit ``order`` (PE, demand) pairs, largest
        first, into ``counts[i]`` VMs of each catalog class.

        VMs are visited fastest cores first, which minimizes rounding
        waste, ties in catalog order; each PE takes whole cores, at least
        one, from every VM with free cores until its demand is covered.
        Returns each VM's ``{PE: cores}`` in visiting order, or None if the
        demands do not fit.
        """
        free: list[int] = []
        speeds: list[float] = []
        for i in self._fit_order:
            n = counts[i]
            if n:
                klass = self.catalog[i]
                free += [klass.cores] * n
                speeds += [klass.core_speed] * n
        if not free:
            return None
        allocations: list[dict[str, int]] = [{} for _ in free]
        for name, demand in order:
            remaining = demand
            placed_any = False
            for v, speed in enumerate(speeds):
                if remaining <= _EPS and placed_any:
                    break
                if free[v] == 0:
                    continue
                # At least one core: a demand or residue at most about
                # speed × 1e-9 would otherwise round ``need`` down to 0.
                need = max(1, math.ceil(max(remaining, _EPS) / speed - 1e-9))
                cores = min(need, free[v])
                free[v] -= cores
                allocations[v][name] = cores
                remaining -= cores * speed
                placed_any = True
            if remaining > _EPS or not placed_any:
                return None
        return allocations


def _demand_order(demands: Mapping[str, float]) -> list[tuple[str, float]]:
    """(PE, demand) pairs largest first; ties keep ``demands`` order."""
    return sorted(demands.items(), key=lambda kv: kv[1], reverse=True)
