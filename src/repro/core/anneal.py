"""Anytime simulated-annealing deployment search (S28).

A seeded, budgeted local search over (alternate selection × VM-class
multiset) — the optimizer baseline ROADMAP calls for on graphs where
:class:`~repro.core.bruteforce.BruteForceDeployment` is impractical.  The
search *shares the brute force's demand model, packing feasibility test
and Θ formula by construction* (it delegates to a `BruteForceDeployment`
instance for ``_demands`` and its packing kernel ``_first_fit``): any
configuration annealing can reach is one the exhaustive search scores
identically, so on graphs small enough to solve exactly, annealing can
never exceed the optimum — the S23 differential harness pins this.

Energy memo: within one :meth:`AnnealingDeployment.plan` call each VM
class is priced once, each selection's demand order and Γ are computed
once, and every ``(selection, counts) → (feasible, Θ)`` is memoized; only
the returned configuration is built into a cluster.  Nothing is cached
across calls.  ``evaluations`` counts every energy evaluation, memo hits
included, so the budget, the RNG draws and the plan do not depend on the
memo.

Anytime contract: the search runs until either ``max_evals`` energy
evaluations or the optional ``time_budget_s`` wall-clock budget is
spent, and always returns the best feasible plan seen so far.  With
``max_evals = 0`` it returns the greedy seed plan (the ``global``
:class:`~repro.core.deployment.InitialDeployment`) unchanged.  Fixed
``seed`` + ``max_evals`` (and no wall-clock budget) make the returned
plan bit-reproducible.

Pricing awareness: by default the energy prices a static plan at
``hourly list price × period_hours`` exactly like the brute force; with
``billing`` set to a :class:`~repro.cloud.billing.BillingModel`, plans
are priced by the model's ``lifetime_cost`` instead, so the search
optimizes Θ under the scenario's actual pricing regime.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..cloud.billing import BillingModel
from ..cloud.resources import VMClass
from ..dataflow.graph import DynamicDataflow
from ..sim.rng import RandomStreams
from .bruteforce import BruteForceConfig, BruteForceDeployment, _demand_order
from .deployment import DeploymentConfig, InitialDeployment
from .state import DeploymentPlan

__all__ = ["AnnealConfig", "AnnealingDeployment"]


@dataclass(frozen=True)
class AnnealConfig:
    """Search parameters.

    Parameters
    ----------
    omega_min / sigma / period_hours:
        The objective, matching :class:`BruteForceConfig` semantics.
    max_evals:
        Energy-evaluation budget; 0 returns the greedy seed plan.
    seed:
        RNG seed for the proposal stream (bit-reproducible plans).
    initial_temp / final_temp:
        Geometric cooling schedule endpoints, in Θ units.
    time_budget_s:
        Optional anytime wall-clock cap (checked between evaluations);
        ``None`` disables it and keeps the search deterministic.
    billing:
        Optional pricing model for the plan cost; ``None`` prices at
        list hourly rate × ``period_hours`` (the brute-force metric).
    """

    omega_min: float = 0.7
    sigma: float = 0.01
    period_hours: float = 6.0
    max_evals: int = 1500
    seed: int = 0
    initial_temp: float = 0.05
    final_temp: float = 0.001
    time_budget_s: Optional[float] = None
    billing: Optional[BillingModel] = None

    def __post_init__(self) -> None:
        if not 0 < self.omega_min <= 1:
            raise ValueError("omega_min must be in (0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be ≥ 0")
        if self.period_hours <= 0:
            raise ValueError("period_hours must be positive")
        if self.max_evals < 0:
            raise ValueError("max_evals must be ≥ 0")
        if self.initial_temp <= 0 or self.final_temp <= 0:
            raise ValueError("temperatures must be positive")


class AnnealingDeployment:
    """Seeded anytime simulated annealing over deployments."""

    def __init__(
        self,
        dataflow: DynamicDataflow,
        catalog: list[VMClass],
        config: Optional[AnnealConfig] = None,
    ) -> None:
        if not catalog:
            raise ValueError("catalog must not be empty")
        self.dataflow = dataflow
        self.catalog = sorted(catalog)
        self.config = config or AnnealConfig()
        # Delegate demand sizing and packing feasibility to the brute
        # force so both searches score a configuration identically.
        self._bf = BruteForceDeployment(
            dataflow,
            self.catalog,
            BruteForceConfig(
                omega_min=self.config.omega_min,
                sigma=self.config.sigma,
                period_hours=self.config.period_hours,
            ),
        )
        self._alt_names = {
            pe.name: [a.name for a in pe.alternates] for pe in dataflow.pes
        }
        self._flex_pes = [
            name for name, alts in self._alt_names.items() if len(alts) > 1
        ]
        self._evaluations = 0
        self._best_theta = -math.inf

    # -- public ---------------------------------------------------------------

    @property
    def evaluations(self) -> int:
        """Energy evaluations spent by the last :meth:`plan` call."""
        return self._evaluations

    @property
    def best_theta(self) -> float:
        """Static Θ of the plan the last :meth:`plan` call returned."""
        return self._best_theta

    def plan(self, input_rates: Mapping[str, float]) -> DeploymentPlan:
        """Anneal from the greedy seed; return the best plan found."""
        cfg = self.config
        rates = dict(input_rates)
        seed_plan = InitialDeployment(
            self.dataflow,
            self.catalog,
            DeploymentConfig(strategy="global", omega_min=cfg.omega_min),
        ).plan(rates)
        self._evaluations = 0
        self._best_theta = -math.inf
        if cfg.max_evals <= 0:
            return seed_plan

        counts = [0] * len(self.catalog)
        index = {c.name: i for i, c in enumerate(self.catalog)}
        for vm in seed_plan.cluster.vms:
            counts[index[vm.vm_class.name]] += 1
        selection = dict(seed_plan.selection)
        energy = _Energy(self, rates)

        # The greedy packing and the brute-force packing differ, so the
        # seed multiset may not first-fit; grow it until it does.
        feasible, theta = self._evaluate(energy, selection, counts)
        repairs = 0
        while not feasible and repairs < 64:
            counts[-1] += 1
            repairs += 1
            feasible, theta = self._evaluate(energy, selection, counts)
        if not feasible:
            return seed_plan  # pathological catalog; keep the greedy plan

        rng = RandomStreams(cfg.seed).get("anneal")
        started = time.monotonic() if cfg.time_budget_s is not None else None
        best_theta, best_selection = theta, dict(selection)
        best_counts = list(counts)
        current_theta = theta

        while self._evaluations < cfg.max_evals:
            if (
                started is not None
                and time.monotonic() - started > cfg.time_budget_s
            ):
                break
            frac = self._evaluations / max(1, cfg.max_evals)
            temp = cfg.initial_temp * (cfg.final_temp / cfg.initial_temp) ** frac
            cand_sel, cand_counts = self._propose(rng, selection, counts)
            feasible, cand_theta = self._evaluate(energy, cand_sel, cand_counts)
            if not feasible:
                continue  # infeasible: reject, budget still consumed
            accept = cand_theta >= current_theta or float(
                rng.random()
            ) < math.exp((cand_theta - current_theta) / temp)
            if accept:
                selection, counts, current_theta = (
                    cand_sel,
                    cand_counts,
                    cand_theta,
                )
                if cand_theta > best_theta:
                    best_theta = cand_theta
                    best_counts = cand_counts
                    best_selection = dict(cand_sel)

        self._best_theta = best_theta
        cluster = self._bf._try_pack(
            best_counts, self._bf._demands(best_selection, rates)
        )
        return DeploymentPlan(selection=best_selection, cluster=cluster)

    # -- energy ---------------------------------------------------------------

    def _evaluate(
        self,
        energy: "_Energy",
        selection: Mapping[str, str],
        counts: list[int],
    ) -> tuple[bool, float]:
        """(feasible, Θ) of one configuration; Θ is −inf if infeasible
        under the brute-force packing.  A memo hit spends an evaluation
        too, so budgets, RNG draws and plans do not depend on the memo."""
        self._evaluations += 1
        return energy(selection, counts)

    # -- proposals -------------------------------------------------------------

    def _propose(
        self,
        rng: np.random.Generator,
        selection: Mapping[str, str],
        counts: list[int],
    ) -> tuple[dict[str, str], list[int]]:
        """One neighbour: flip an alternate, or add/remove/swap a VM."""
        sel = dict(selection)
        cnt = list(counts)
        move = int(rng.integers(4))
        if move == 0 and self._flex_pes:
            pe = self._flex_pes[int(rng.integers(len(self._flex_pes)))]
            options = [a for a in self._alt_names[pe] if a != sel[pe]]
            sel[pe] = options[int(rng.integers(len(options)))]
            return sel, cnt
        if move == 2:
            nonzero = [i for i, n in enumerate(cnt) if n > 0]
            if nonzero and sum(cnt) > 1:
                cnt[nonzero[int(rng.integers(len(nonzero)))]] -= 1
                return sel, cnt
        if move == 3:
            nonzero = [i for i, n in enumerate(cnt) if n > 0]
            if nonzero:
                cnt[nonzero[int(rng.integers(len(nonzero)))]] -= 1
                cnt[int(rng.integers(len(cnt)))] += 1
                return sel, cnt
        # move == 1, or the chosen move had no legal target: add a VM.
        cnt[int(rng.integers(len(cnt)))] += 1
        return sel, cnt


class _Energy:
    """Θ of (selection, VM counts) configurations for one plan() call.

    Each class is priced once, each selection's demand order and Γ are
    computed once, and every configuration's (feasible, Θ) is memoized.
    An instance lives only as long as the plan() call that made it.
    """

    def __init__(
        self, search: AnnealingDeployment, rates: Mapping[str, float]
    ) -> None:
        cfg = search.config
        self._bf = search._bf
        self._dataflow = search.dataflow
        self._rates = rates
        self._sigma = cfg.sigma
        if cfg.billing is None:
            # The brute force's static-plan metric: list price × period.
            self._prices = [c.hourly_price for c in search.catalog]
            self._hours: Optional[float] = cfg.period_hours
        else:
            duration_s = cfg.period_hours * 3600.0
            self._prices = [
                cfg.billing.lifetime_cost(c, duration_s) for c in search.catalog
            ]
            self._hours = None
        self._packings: dict[
            tuple[str, ...], tuple[list[tuple[str, float]], float]
        ] = {}
        self._scores: dict[tuple, tuple[bool, float]] = {}

    def __call__(
        self, selection: Mapping[str, str], counts: list[int]
    ) -> tuple[bool, float]:
        sel_key = tuple(map(selection.__getitem__, self._dataflow.pe_names))
        key = (sel_key, tuple(counts))
        score = self._scores.get(key)
        if score is None:
            packing = self._packings.get(sel_key)
            if packing is None:
                demands = self._bf._demands(selection, self._rates)
                packing = self._packings[sel_key] = (
                    _demand_order(demands),
                    self._dataflow.application_value(selection),
                )
            order, gamma = packing
            if self._bf._first_fit(counts, order) is None:
                score = (False, -math.inf)
            else:
                score = (True, gamma - self._sigma * self._cost(counts))
            self._scores[key] = score
        return score

    def _cost(self, counts: list[int]) -> float:
        # One term per VM in catalog × count order, the order the packed
        # cluster lists its VMs in, so the sum keeps its bits.
        cost = sum([p for p, n in zip(self._prices, counts) for _ in range(n)])
        return cost if self._hours is None else cost * self._hours
