"""Runtime adaptation heuristics (paper §7.2, Algorithm 2).

Runs at interval boundaries on the monitored :class:`~repro.core.state.Snapshot`
and produces a new :class:`~repro.core.state.DeploymentPlan`.  Two stages,
deliberately run at different cadences to balance application value against
resource cost:

* **Alternate selection** (every ``alternate_period`` intervals): for every
  PE, compute the resources each alternate would need at the observed data
  rate *and the monitored VM performance*.  If the application is
  under-provisioned (Ω below Ω̂ − ε) the feasible set contains alternates
  needing *no more* resources than the active one (trading value for
  throughput); if over-provisioned (Ω above Ω̂ + ε) it contains alternates
  needing *at least* as much (buying value with the slack).  The feasible
  set is ranked by value/cost — cost per the local/global strategy — and
  the first alternate that fits the available resources wins.

* **Resource re-deployment** (every ``resource_period`` intervals): if the
  average relative throughput trails Ω̂, incrementally allocate cores to
  the current bottleneck exactly like the initial deployment, but sized
  with *monitored* CPU coefficients and observed rates, preferring free
  (already-paid) cores before provisioning.  The local strategy always
  provisions the largest VM class and terminates idle VMs immediately; the
  global strategy provisions the best-fit class for the remaining deficit
  and keeps idle VMs parked while their already-billed hour lasts, which
  avoids the pay-again penalty when a scale-in is quickly reversed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from ..cloud.resources import VMClass
from ..dataflow.graph import DynamicDataflow
from ..dataflow.metrics import constrained_rates, relative_application_throughput
from ..dataflow.patterns import SplitPattern
from ..dataflow.pe import Alternate
from ..obs import collector as _trace
from ..util import perf as _perf
from ..validate import invariants as _validate
from .deployment import Strategy
from .state import ClusterView, DeploymentPlan, Snapshot, VMView

__all__ = ["AdaptationConfig", "RuntimeAdaptation", "HedgedAdaptation"]

_EPS = 1e-9


@dataclass(frozen=True)
class AdaptationConfig:
    """Tunables of the runtime adaptation heuristic.

    Parameters
    ----------
    strategy:
        ``"local"`` or ``"global"``.
    omega_min / epsilon:
        Throughput constraint Ω̂ and tolerance ε.
    dynamism:
        ``False`` disables the alternate-selection stage (baselines).
    alternate_period / resource_period:
        Stage cadences, in intervals (paper: the two stages run at
        different periods; defaults 2 and 1).
    interval:
        Interval length in seconds (for backlog-drain sizing).
    drain_intervals:
        Horizon, in intervals, over which accumulated backlog should be
        drained; inflates the capacity demand of backlogged PEs.  The
        drain demand is capped so a deep backlog requests at most
        ``burst_factor ×`` the ideal arrival rate — provisioning a burst
        fleet for a transient queue wastes whole billed hours.
    burst_factor:
        Cap on total demanded capacity, as a multiple of the ideal
        arrival rate.
    scale_in_margin:
        Extra throughput headroom (above Ω̂ + ε) required before cores are
        released, providing hysteresis against oscillation.
    max_cores:
        Safety cap on total allocated cores.
    """

    strategy: Strategy = "local"
    omega_min: float = 0.7
    epsilon: float = 0.05
    dynamism: bool = True
    alternate_period: int = 2
    resource_period: int = 1
    interval: float = 60.0
    drain_intervals: float = 6.0
    burst_factor: float = 1.25
    scale_in_margin: float = 0.05
    max_cores: int = 4096

    def __post_init__(self) -> None:
        if self.strategy not in ("local", "global"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0 < self.omega_min <= 1:
            raise ValueError("omega_min must be in (0, 1]")
        if self.epsilon < 0 or self.scale_in_margin < 0:
            raise ValueError("epsilon and scale_in_margin must be ≥ 0")
        if self.alternate_period < 1 or self.resource_period < 1:
            raise ValueError("stage periods must be ≥ 1 interval")
        if self.interval <= 0 or self.drain_intervals <= 0:
            raise ValueError("interval and drain_intervals must be positive")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be ≥ 1")


class RuntimeAdaptation:
    """Algorithm 2 against monitored state.

    Parameters
    ----------
    dataflow:
        The running dynamic dataflow.
    catalog:
        Provider VM classes.
    config:
        Heuristic tunables.
    """

    def __init__(
        self,
        dataflow: DynamicDataflow,
        catalog: list[VMClass],
        config: Optional[AdaptationConfig] = None,
    ) -> None:
        if not catalog:
            raise ValueError("catalog must not be empty")
        self.dataflow = dataflow
        self.catalog = sorted(catalog)
        self.config = config or AdaptationConfig()
        # -- decision fast-path caches (behaviour-preserving memoization).
        # The topology is immutable, so anything keyed purely on the graph
        # (successor closures) or on (selection, direction) pairs (ranking
        # costs, candidate orders) can be computed once and replayed.
        self._pe_order: tuple[str, ...] = tuple(dataflow.pe_names)
        #: selection-key → (ranking_costs, {pe: under-order}, {pe: over-order})
        self._rank_cache: dict[tuple, tuple] = {}
        #: pe name → transitive successors in _downstream_units visit order
        self._succ_closure: dict[str, tuple[str, ...]] = {}
        #: ascending (capacity, class) pairs for best-fit provisioning
        self._provision_order = [
            (klass.total_capacity, klass) for klass in self.catalog
        ]
        self._prev_snapshot: Optional[Snapshot] = None
        self._prev_input_demand: dict[str, float] = {}

    # -- public ------------------------------------------------------------------

    def adapt(self, snapshot: Snapshot, interval_index: int) -> DeploymentPlan:
        """Produce the target plan for the next interval.

        ``interval_index`` is the 1-based index of the completed interval;
        it gates the two stage cadences.
        """
        cfg = self.config
        selection = dict(snapshot.selection)
        cluster = snapshot.cluster.clone()
        tracing = _trace.enabled()
        candidates: Optional[list[dict]] = [] if tracing else None

        alternate_stage = (
            cfg.dynamism and interval_index % cfg.alternate_period == 0
        )
        resource_stage = interval_index % cfg.resource_period == 0

        if alternate_stage:
            selection = self._alternate_stage(
                snapshot, cluster, selection, candidates
            )

        if resource_stage:
            self._resource_stage(snapshot, cluster, selection)

        if tracing:
            _trace.emit(
                "adaptation_decision",
                t=snapshot.time,
                interval=interval_index,
                strategy=cfg.strategy,
                omega_last=snapshot.omega_last,
                omega_average=snapshot.omega_average,
                gamma=self.dataflow.application_value(snapshot.selection),
                mu=snapshot.cumulative_cost,
                alternate_stage=alternate_stage,
                resource_stage=resource_stage,
                candidates=candidates or [],
                switched=sorted(
                    n
                    for n, alt in selection.items()
                    if snapshot.selection.get(n) != alt
                ),
            )

        plan = DeploymentPlan(selection=selection, cluster=cluster)
        if _validate.enabled():
            _validate.checker().check_decision(self, snapshot, plan)
        return plan

    # -- stage 1: alternate selection ------------------------------------------------

    def _alternate_stage(
        self,
        snapshot: Snapshot,
        cluster: ClusterView,
        selection: dict[str, str],
        candidates: Optional[list[dict]] = None,
    ) -> dict[str, str]:
        cfg = self.config
        df = self.dataflow
        omega = snapshot.omega_last
        under = omega <= cfg.omega_min - cfg.epsilon
        over = omega >= cfg.omega_min + cfg.epsilon
        if not under and not over:
            return selection

        ranking_costs, under_orders, over_orders = self._rank_entry(selection)
        # The alternate stage never reallocates cores, so one aggregation
        # pass over the fleet serves every PE (and _downstream_units).
        units = cluster.pe_units_map()

        for name in df.topological_order():
            p = df[name]
            if len(p) == 1:
                continue
            arrival = self._demand_rate(snapshot, name)
            active = p.alternate(selection[name])
            available = units.get(name, 0.0)
            needed_active = arrival * active.cost

            # Candidates come pre-sorted by the direction's ranking key
            # (value density under; value, then density, over — see
            # _rank_entry); filtering preserves that order, so this equals
            # the old build-then-sort with the per-call sort hoisted out.
            order = under_orders[name] if under else over_orders[name]
            feasible: list[Alternate] = []
            for alt in order:
                needed = arrival * alt.cost
                if under and needed <= needed_active + _EPS:
                    feasible.append(alt)
                elif over and needed >= needed_active - _EPS:
                    feasible.append(alt)
            if not feasible:
                continue

            chosen: Optional[str] = None
            for alt in feasible:
                if under:
                    # A downgrade needs no headroom check: it demands no
                    # more than the active alternate by construction.
                    fits = True
                else:
                    # An upgrade must fit what the PE already holds.
                    fits = arrival * alt.cost <= available + _EPS
                    if fits and self.config.strategy == "global":
                        # Global additionally prices the upgrade with its
                        # downstream cost against the PE's and its
                        # successors' resources — a deliberately
                        # conservative over-estimate that makes global
                        # "avoid re-deployment to increase the application
                        # value" at low rates (paper §8.2).
                        pool = available + self._downstream_units(
                            units, name
                        )
                        fits = (
                            arrival * ranking_costs[name][alt.name]
                            <= pool + _EPS
                        )
                if fits:
                    chosen = alt.name
                    if alt.name != active.name:
                        selection[name] = alt.name
                    break
            if candidates is not None:
                candidates.append(
                    {
                        "pe": name,
                        "active": active.name,
                        "considered": [a.name for a in feasible],
                        "chosen": chosen,
                        "direction": "under" if under else "over",
                    }
                )
        return selection

    def _downstream_units(
        self, units: Mapping[str, float], pe_name: str
    ) -> float:
        """Units held by every transitive successor of ``pe_name``.

        ``units`` is a :meth:`~repro.core.state.ClusterView.pe_units_map`
        aggregate.  The traversal order over the (immutable) topology is
        memoized per PE; summing in that recorded visit order keeps the
        float result bit-identical to the original walk.
        """
        order = self._succ_closure.get(pe_name)
        if order is None:
            seen: set[str] = set()
            visit: list[str] = []
            frontier = list(self.dataflow.successors(pe_name))
            while frontier:
                n = frontier.pop()
                if n in seen:
                    continue
                seen.add(n)
                visit.append(n)
                frontier.extend(self.dataflow.successors(n))
            order = self._succ_closure[pe_name] = tuple(visit)
        total = 0.0
        for n in order:
            total += units.get(n, 0.0)
        return total

    def _rank_entry(
        self, selection: Mapping[str, str]
    ) -> tuple[dict, dict, dict]:
        """Memoized (ranking costs, under-orders, over-orders) per selection.

        Local ranking costs ignore the selection entirely (one cache
        entry); global costs depend on it, so the key is the active
        alternate of every PE.  The per-PE candidate orders replay the
        exact sort keys the alternate stage used to apply per call; each
        key ends in the (unique) alternate name, a strict total order, so
        pre-sorting all alternates and filtering later is equivalent to
        sorting each feasible subset.
        """
        if self.config.strategy == "local":
            key: tuple = ()
        else:
            key = tuple(selection[n] for n in self._pe_order)
        entry = self._rank_cache.get(key)
        if entry is None:
            if len(self._rank_cache) > 256:
                self._rank_cache.clear()
            costs = self._ranking_costs(selection)
            under_orders: dict[str, tuple[Alternate, ...]] = {}
            over_orders: dict[str, tuple[Alternate, ...]] = {}
            for p in self.dataflow.pes:
                if len(p) == 1:
                    continue
                rc = costs[p.name]
                under_orders[p.name] = tuple(
                    sorted(
                        p.alternates,
                        key=lambda a: (
                            p.relative_value(a) / rc[a.name],
                            a.name,
                        ),
                        reverse=True,
                    )
                )
                over_orders[p.name] = tuple(
                    sorted(
                        p.alternates,
                        key=lambda a: (
                            p.relative_value(a),
                            p.relative_value(a) / rc[a.name],
                            a.name,
                        ),
                        reverse=True,
                    )
                )
            entry = (costs, under_orders, over_orders)
            self._rank_cache[key] = entry
        return entry

    def _ranking_costs(
        self, selection: Mapping[str, str]
    ) -> dict[str, dict[str, float]]:
        """Per-PE, per-alternate ranking cost (Table 1's GetCostOfAlternate).

        Local: the alternate's own cost.  Global: its downstream cost given
        the rest of the graph keeps the current selection.
        """
        df = self.dataflow
        out: dict[str, dict[str, float]] = {}
        if self.config.strategy == "local":
            for p in df.pes:
                out[p.name] = {a.name: a.cost for a in p.alternates}
            return out
        base_dc = df.downstream_costs(selection)
        for p in df.pes:
            succ = df.successors(p.name)
            weight = 1.0
            if succ and df.split_pattern(p.name) is not SplitPattern.AND_SPLIT:
                weight = 1.0 / len(succ)
            tail = sum(base_dc[m] for m in succ)
            out[p.name] = {
                a.name: a.cost + a.selectivity * weight * tail
                for a in p.alternates
            }
        return out

    # -- stage 2: resource re-deployment ---------------------------------------------

    def _resource_stage(
        self,
        snapshot: Snapshot,
        cluster: ClusterView,
        selection: Mapping[str, str],
    ) -> None:
        cfg = self.config
        df = self.dataflow
        input_rates = self._input_demand(snapshot)

        caps = cluster.capacities(df, selection)
        flow = constrained_rates(df, selection, input_rates, caps)
        omega_pred = relative_application_throughput(df, flow)
        behind = snapshot.omega_average < cfg.omega_min - _EPS

        if behind or omega_pred < cfg.omega_min - _EPS:
            self._scale_out(snapshot, cluster, selection, input_rates)
        elif (
            omega_pred >= cfg.omega_min + cfg.epsilon + cfg.scale_in_margin
            and snapshot.omega_average >= cfg.omega_min
        ):
            # Release only once the period's running average is safe —
            # hysteresis against scale-out/scale-in thrash under waves.
            self._scale_in(cluster, selection, input_rates)

        self._retire_idle_vms(cluster)

    def _scale_out(
        self,
        snapshot: Snapshot,
        cluster: ClusterView,
        selection: Mapping[str, str],
        input_rates: Mapping[str, float],
    ) -> None:
        cfg = self.config
        df = self.dataflow

        # A PE is a bottleneck if it cannot serve the constraint's share
        # of its *ideal* arrivals plus its backlog-drain rate.  (Sizing
        # against throttled arrivals would compound Ω̂ per stage and
        # converge to Ω̂^depth instead of Ω̂.)  The required capacities
        # depend only on the snapshot and selection, both fixed across the
        # add-one-core iterations, so they are computed once.
        required_by_pe: list[tuple[str, float]] = []
        ideal = df.ideal_rates(selection, input_rates)
        for name in df.forward_bfs_order():
            backlog = float(snapshot.backlogs.get(name, 0.0))
            drain = backlog / (cfg.drain_intervals * cfg.interval)
            required = min(
                cfg.omega_min * ideal[name][0] + drain,
                cfg.burst_factor * max(ideal[name][0], _EPS),
            )
            if required > _EPS:
                required_by_pe.append((name, required))

        # A core changes only its PE's capacity, which pe_units_map sums
        # over the PE's hosts in VM order, left to right from 0.0.  One
        # index per call keeps that sum cheap and exact: each VM's
        # position, each PE's host positions and unit terms in VM order,
        # and ``head``, the sum of every host term but the last.  A core
        # on the last host re-sums one term; only one on a middle host
        # re-sums them all.
        caps = cluster.capacities(df, selection)
        position: dict[str, int] = {}
        slots: dict[str, list[int]] = {}
        terms: dict[str, list[float]] = {}
        head: dict[str, float] = {}
        for vm in cluster.vms:
            p = position[vm.key] = len(position)
            for name in vm.allocations:
                t = terms.setdefault(name, [])
                head[name] = (head[name] + t[-1]) if t else 0.0
                slots.setdefault(name, []).append(p)
                t.append(vm.units_for(name))
        start = used = cluster.total_used_cores()
        vm = last = None
        full = False
        while used < cfg.max_cores:
            bottleneck = None
            worst = 1.0 - 1e-6
            for name, required in required_by_pe:
                ratio = caps.get(name, 0.0) / required
                if ratio < worst:
                    bottleneck = name
                    worst = ratio
            if bottleneck is None:
                break  # no PE is short of its required capacity
            s = slots.setdefault(bottleneck, [])
            t = terms.setdefault(bottleneck, [])
            # A free (already-paid) core if any (_free_core), else a new
            # VM.  The scan is skipped where its answer is known: the last
            # core's VM, while a core is free on it, stays the choice if
            # its PE is still the bottleneck (its key can only have
            # improved, and no other VM changed) or once a scan found no
            # free core (cores are only taken since, so it is the one VM
            # that can have one).
            if not (vm is not None and vm.free_cores
                    and (full or bottleneck == last)):
                vm = None if full else self._free_core(cluster, bottleneck)
                if vm is None:
                    vm = cluster.new_vm(self._provision_class(
                        cluster, bottleneck, snapshot, selection, t
                    ))
                    position[vm.key] = len(position)
                    full = True
            last = bottleneck
            p = position[vm.key]
            i = bisect.bisect_left(s, p)
            if i == len(s) or s[i] != p:  # vm starts hosting the PE
                if i == len(s):  # as its last host: the old one joins head
                    head[bottleneck] = (head[bottleneck] + t[-1]) if t else 0.0
                s.insert(i, p)
                t.insert(i, 0.0)
            vm.allocate(bottleneck, 1)
            used += 1
            t[i] = vm.units_for(bottleneck)
            if i < len(t) - 1:
                units = 0.0
                for x in t[:-1]:
                    units += x
                head[bottleneck] = units
            cost = df.active_alternate(selection, bottleneck).cost
            caps[bottleneck] = (head[bottleneck] + t[-1]) / cost
        _perf.add("adapt.scale_out_cores", used - start)

    def _free_core(
        self, cluster: ClusterView, pe_name: str
    ) -> Optional[VMView]:
        """The VM whose free core ``pe_name`` should take, or ``None``.

        The order keeps traffic local: VMs already hosting this PE, then
        VMs hosting a dataflow *neighbour* (collocation avoids network
        transfer, §5), then the fastest core; ties go to the first VM.
        """
        neighbours = set(self.dataflow.successors(pe_name)) | set(
            self.dataflow.predecessors(pe_name)
        )
        return min(
            cluster.with_free_cores(),
            key=lambda vm: (
                pe_name not in vm.allocations,
                not any(n in vm.allocations for n in neighbours),
                -vm.core_units(),
            ),
            default=None,
        )

    def _provision_class(
        self,
        cluster: ClusterView,
        pe_name: str,
        snapshot: Snapshot,
        selection: Mapping[str, str],
        terms: Optional[list[float]] = None,
    ) -> VMClass:
        """Local: always the largest class.  Global: cheapest class that
        covers the PE's remaining unit deficit (best fit).

        ``terms``, the units of the PE's hosts in VM order when the
        caller keeps them, are the terms :meth:`ClusterView.pe_units`
        sums, in its order, so their ``sum()`` keeps its bits on every
        Python (≥ 3.12 compensates it)."""
        if self.config.strategy == "local":
            return self.catalog[-1]
        cost = self.dataflow.active_alternate(selection, pe_name).cost
        demand_units = self._demand_rate(snapshot, pe_name) * cost
        units = (
            cluster.pe_units(pe_name) if terms is None else sum(terms, 0.0)
        )
        deficit = max(demand_units - units, 0.0)
        # _provision_order pairs ascending capacities with their classes,
        # hoisting the per-call total_capacity recomputation.
        for capacity, klass in self._provision_order:
            if capacity >= deficit - _EPS:
                return klass
        return self.catalog[-1]

    def _scale_in(
        self,
        cluster: ClusterView,
        selection: Mapping[str, str],
        input_rates: Mapping[str, float],
    ) -> None:
        """Release cores while the predicted throughput keeps clearing
        Ω̂ + ε (with hysteresis margin already verified by the caller).

        The capacities are built once: a trial release changes only its
        PE's, re-summed as ``pe_units_map`` sums it (the PE's hosts in
        VM order, left to right from 0.0), and a revert restores it."""
        cfg = self.config
        df = self.dataflow
        floor = cfg.omega_min + cfg.epsilon
        caps = cluster.capacities(df, selection)
        while True:
            released = False
            # Prefer draining the most lightly used VM so it can retire.
            for vm in sorted(cluster.vms, key=lambda v: v.used_cores):
                if vm.idle:
                    continue
                pe_name = max(
                    vm.allocations, key=lambda p: vm.allocations[p]
                )
                if cluster.pe_cores(pe_name) <= 1:
                    continue  # every PE keeps at least one core
                vm.release(pe_name, 1)
                kept = caps[pe_name]
                units = 0.0
                for host in cluster.vms:
                    if pe_name in host.allocations:
                        units += host.units_for(pe_name)
                cost = df.active_alternate(selection, pe_name).cost
                caps[pe_name] = units / cost
                flow = constrained_rates(df, selection, input_rates, caps)
                omega = relative_application_throughput(df, flow)
                if omega >= floor - _EPS:
                    released = True
                    break
                vm.allocate(pe_name, 1)  # revert: too aggressive
                caps[pe_name] = kept
            if not released:
                break

    def _retire_idle_vms(self, cluster: ClusterView) -> None:
        """Drop idle VMs from the plan (the reconciler terminates them).

        The local strategy retires idle VMs immediately.  The global
        strategy parks idle *live* VMs while their already-billed hour
        lasts — restarting costs a fresh hour, parking is free — and
        retires them once the paid time is nearly exhausted.
        """
        cfg = self.config
        for vm in cluster.idle_vms():
            if vm.is_new:
                cluster.remove(vm.key)
            elif cfg.strategy == "local":
                cluster.remove(vm.key)
            elif vm.paid_seconds_remaining <= cfg.interval * 1.5:
                cluster.remove(vm.key)

    # -- demand estimation --------------------------------------------------------------

    def _demand_rate(self, snapshot: Snapshot, pe_name: str) -> float:
        """Arrival rate to size for: last observed rate plus the rate needed
        to drain the PE's backlog over the configured horizon.

        Input PEs additionally consider the observed *external* rate: when
        an input PE momentarily has no capacity (e.g. its host crashed),
        its measured arrival rate reads zero even though traffic keeps
        flowing, and sizing from it would wrongly conclude there is no
        demand.
        """
        cfg = self.config
        arrival = float(snapshot.arrival_rates.get(pe_name, 0.0))
        if pe_name in self.dataflow.inputs:
            arrival = max(arrival, float(snapshot.input_rates.get(pe_name, 0.0)))
        backlog = float(snapshot.backlogs.get(pe_name, 0.0))
        return arrival + backlog / (cfg.drain_intervals * cfg.interval)

    def _input_demand(self, snapshot: Snapshot) -> dict[str, float]:
        """Input-PE rates inflated by their backlog drain requirement.

        Computed incrementally against the previous interval's snapshot:
        an input PE whose observed rates and backlog are unchanged reuses
        its previous demand value instead of re-deriving it.  Steady
        workloads (and repeated adapt() calls on one snapshot) hit this
        every interval.
        """
        prev = self._prev_snapshot
        prev_demand = self._prev_input_demand
        out: dict[str, float] = {}
        if prev is snapshot:
            out.update(prev_demand)
        elif prev is None:
            for name in self.dataflow.inputs:
                out[name] = self._demand_rate(snapshot, name)
        else:
            for name in self.dataflow.inputs:
                if (
                    name in prev_demand
                    and snapshot.arrival_rates.get(name, 0.0)
                    == prev.arrival_rates.get(name, 0.0)
                    and snapshot.input_rates.get(name, 0.0)
                    == prev.input_rates.get(name, 0.0)
                    and snapshot.backlogs.get(name, 0.0)
                    == prev.backlogs.get(name, 0.0)
                ):
                    out[name] = prev_demand[name]
                else:
                    out[name] = self._demand_rate(snapshot, name)
        self._prev_snapshot = snapshot
        self._prev_input_demand = out
        return dict(out)


class HedgedAdaptation(RuntimeAdaptation):
    """Reliability-aware adaptation (S26): hedge against predicted crashes.

    Extends the base heuristic with a *hedging pre-pass* driven by
    :attr:`~repro.core.state.Snapshot.doomed` — the instances the failure
    oracle predicts will stop (revocation or crash) within its horizon.
    Before the ordinary two-stage heuristic runs, every doomed VM is

    1. removed from the planning cluster (the reconciler then drains its
       buffered state over the network *before* the crash destroys it),
    2. and its per-PE cores are re-placed: survivors' free (already-paid)
       cores first, then replacement VMs — preferring the *durable* (non
       spot) catalog twin of the doomed VM's class so the replacement is
       not itself on the revocation clock.

    The base stages then run on the hedged snapshot, so scale-out sizing,
    alternate selection and idle-VM retirement all see the post-hedge
    fleet.  With nothing doomed this is exactly the base heuristic.
    """

    def adapt(self, snapshot: Snapshot, interval_index: int) -> DeploymentPlan:
        doomed = {
            key: t
            for key, t in snapshot.doomed.items()
            if key in snapshot.cluster
        }
        if not doomed:
            return super().adapt(snapshot, interval_index)

        cluster = snapshot.cluster.clone()
        displaced: list[tuple[str, VMClass]] = []
        for key in sorted(doomed):
            vm = cluster.remove(key)
            for pe_name, cores in sorted(vm.allocations.items()):
                displaced.extend([(pe_name, vm.vm_class)] * cores)

        replaced = 0
        for pe_name, klass in displaced:
            vm = self._free_core(cluster, pe_name)
            if vm is None:
                vm = cluster.new_vm(self._durable_twin(klass))
                replaced += 1
            vm.allocate(pe_name, 1)

        if _trace.enabled():
            _trace.emit(
                "hedge_preprovision",
                t=snapshot.time,
                doomed={k: float(v) for k, v in sorted(doomed.items())},
                displaced_cores=len(displaced),
                replacement_vms=replaced,
            )

        hedged = replace(snapshot, cluster=cluster, doomed={})
        return super().adapt(hedged, interval_index)

    def _durable_twin(self, vm_class: VMClass) -> VMClass:
        """The non-spot catalog class matching ``vm_class``'s shape.

        Falls back to ``vm_class`` itself when no durable twin exists
        (e.g. an all-spot catalog).
        """
        if not getattr(vm_class, "spot", False):
            return vm_class
        for klass in self.catalog:
            if (
                not klass.spot
                and klass.cores == vm_class.cores
                and klass.core_speed == vm_class.core_speed
            ):
                return klass
        return vm_class
