"""Plan reconciliation: make the live fleet match a deployment plan.

The heuristics output a declarative :class:`~repro.core.state.DeploymentPlan`;
this module applies it to the :class:`~repro.cloud.provider.CloudProvider`
and resynchronizes the executor.  Actions, in order:

1. release cores that the plan shrinks or removes (frees capacity first),
2. terminate live VMs absent from the plan (their buffers migrate),
3. provision the plan's new VMs,
4. grow allocations on surviving VMs,
5. switch alternates and resync the executor.

The function is idempotent: applying the same plan twice is a no-op.

Degradation under a finite cloud (S27)
--------------------------------------
On an infinite cloud step 3 cannot fail; on a shared multi-tenant
provider it can be *denied* (class pool exhausted, admission policy).
The paper's heuristics are capacity-oblivious — they keep planning their
ideal fleet — so a denial must degrade the deployment instead of
aborting it, and it must degrade gracefully: a planned VM whose PE
allocations simply vanish can leave a PE with zero cores anywhere,
stalling the whole dataflow.  Three stages, each deterministic:

- **fallback**: shop the catalog (nearest smaller classes first, then
  larger) for a class the cloud *would* admit — probed side-effect-free
  via ``can_provision`` — and fit the denied VM's allocations into it;
- **re-home**: pack whatever cores still have no VM onto the surviving
  fleet's free cores, first-fit in fleet order;
- **drop**: cores that fit nowhere are dropped; the next adaptation
  round sees the smaller fleet and replans;
- **viability**: every PE the plan places must keep at least one core
  somewhere — a coreless PE stalls the entire pipeline, turning a
  marginal denial into total loss.  When dropping left a PE with
  nothing, one core is shifted from the fleet's best-served PE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cloud.provider import CloudProvider, ProvisionDenied
from ..cloud.resources import VMClass, VMInstance
from ..core.state import DeploymentPlan
from ..validate import invariants as _validate
from .executor import FluidExecutor

__all__ = ["ReconcileReport", "apply_plan"]


@dataclass
class ReconcileReport:
    """What a reconciliation actually did (for logging and tests).

    ``denied`` records the structured denials of planned-new VMs the
    shared cloud refused (finite capacity / admission policy); the plan's
    remaining actions still went through, so a denial degrades the
    deployment instead of aborting the reconciliation.  ``fallbacks``
    lists ``(planned_class, actual_class, instance_id)`` for denied VMs
    that were re-provisioned as a different class, and
    ``rehomed_cores`` counts allocation cores that found no VM of their
    own and were packed onto the surviving fleet's free cores instead.
    """

    provisioned: list[str] = field(default_factory=list)
    terminated: list[str] = field(default_factory=list)
    cores_allocated: int = 0
    cores_released: int = 0
    denied: list[ProvisionDenied] = field(default_factory=list)
    fallbacks: list[tuple[str, str, str]] = field(default_factory=list)
    rehomed_cores: int = 0
    dropped_cores: int = 0
    #: Single cores moved from the best-served PE to a PE the drops
    #: left coreless (a coreless PE stalls the whole dataflow).
    viability_shifts: int = 0

    @property
    def changed(self) -> bool:
        return bool(
            self.provisioned
            or self.terminated
            or self.cores_allocated
            or self.cores_released
        )


def _fallback_class(
    provider: CloudProvider, wanted: VMClass, now: float
) -> VMClass | None:
    """The admittable stand-in for a denied class, or ``None``.

    Candidates are ordered nearest-smaller first (cheaper, likelier to
    have free slots), then nearest-larger — the catalog is sorted by
    rated capacity, so walk outward from ``wanted``.
    """
    catalog = list(provider.catalog)
    below = [c for c in catalog if c.total_capacity < wanted.total_capacity]
    above = [
        c
        for c in catalog
        if c.total_capacity > wanted.total_capacity and c.name != wanted.name
    ]
    for candidate in list(reversed(below)) + above:
        if candidate.name == wanted.name:
            continue
        if provider.can_provision(candidate, now):
            return candidate
    return None


def _fit_allocations(
    allocations: dict[str, int], cores: int
) -> tuple[dict[str, int], dict[str, int]]:
    """Fit ``allocations`` into a VM with ``cores`` cores.

    Returns ``(fitted, leftover)``.  PEs are scaled down proportionally
    (largest first, deterministic tie-break by name), each keeping at
    least one core while cores remain — a PE squeezed to zero here would
    reintroduce the stall this machinery exists to avoid.
    """
    total = sum(allocations.values())
    if total <= cores:
        return dict(allocations), {}
    fitted: dict[str, int] = {}
    leftover: dict[str, int] = {}
    free = cores
    scale = cores / total
    for pe, want in sorted(allocations.items(), key=lambda kv: (-kv[1], kv[0])):
        take = min(free, max(1, int(want * scale))) if free > 0 else 0
        if take:
            fitted[pe] = take
            free -= take
        if want > take:
            leftover[pe] = want - take
    return fitted, leftover


def apply_plan(
    provider: CloudProvider,
    executor: FluidExecutor,
    plan: DeploymentPlan,
    now: float,
) -> ReconcileReport:
    """Apply ``plan`` to the provider and executor at time ``now``."""
    report = ReconcileReport()
    live: dict[str, VMInstance] = {
        r.instance_id: r for r in provider.active_instances()
    }
    planned_existing = {
        vm.instance_id: vm for vm in plan.cluster.vms if vm.instance_id
    }
    planned_new = [vm for vm in plan.cluster.vms if vm.instance_id is None]

    unknown = set(planned_existing) - set(live)
    if unknown:
        raise ValueError(
            f"plan references non-active instances: {sorted(unknown)}"
        )

    # What the fleet should look like afterwards: instance_id →
    # (class name, allocations).  Equals the plan exactly unless the
    # cloud denied something; the invariant checker audits against it.
    expected: dict[str, tuple[str, dict[str, int]]] = {}

    # 1. shrink allocations on surviving VMs.
    for instance_id, view in planned_existing.items():
        r = live[instance_id]
        for pe_name, current in list(r.allocations.items()):
            target = view.allocations.get(pe_name, 0)
            if target < current:
                report.cores_released += r.release(pe_name, current - target)

    # 2. terminate VMs not in the plan.
    for instance_id, r in live.items():
        if instance_id not in planned_existing:
            released = r.release_all()
            report.cores_released += sum(released.values())
            provider.terminate(r, now)
            report.terminated.append(instance_id)

    # 3. provision new VMs through ``try_provision``, which returns a
    # capacity/admission denial as a record instead of raising it.  A
    # denial degrades the plan rather than aborting: fall back to an
    # admittable class, re-home what still does not fit (below), and
    # replan next round.  An admission review reads only the fleet (the
    # contract on ``CloudProvider.admission``), and only a successful
    # provision changes it here, so each wanted class's fallback holds
    # until then.
    denied_views = []
    unhomed: list[tuple[str, int]] = []
    fallback: dict[str, VMClass | None] = {}
    for view in planned_new:
        fitted = {p: c for p, c in view.allocations.items() if c}
        r = provider.try_provision(view.vm_class, now)
        if isinstance(r, ProvisionDenied):
            report.denied.append(r)
            wanted = view.vm_class.name
            if wanted not in fallback:
                fallback[wanted] = _fallback_class(
                    provider, view.vm_class, now
                )
            stand_in = fallback[wanted]
            if stand_in is None:
                denied_views.append(view)
                unhomed.extend(sorted(fitted.items()))
                continue
            r = provider.provision(stand_in, now)
            fitted, leftover = _fit_allocations(fitted, stand_in.cores)
            unhomed.extend(sorted(leftover.items()))
            report.fallbacks.append(
                (view.vm_class.name, stand_in.name, r.instance_id)
            )
        fallback.clear()
        report.provisioned.append(r.instance_id)
        expected[r.instance_id] = (r.vm_class.name, dict(fitted))
        for pe_name, cores in fitted.items():
            r.allocate(pe_name, cores)
            report.cores_allocated += cores

    # 4. grow allocations on surviving VMs.
    for instance_id, view in planned_existing.items():
        r = live[instance_id]
        for pe_name, target in view.allocations.items():
            current = r.cores_for(pe_name)
            if target > current:
                r.allocate(pe_name, target - current)
                report.cores_allocated += target - current
        expected[instance_id] = (
            r.vm_class.name,
            {p: c for p, c in view.allocations.items() if c},
        )

    # 3½. re-home displaced cores onto free fleet capacity, first-fit in
    # fleet (provisioning) order.  Runs after step 4 so survivors' plan
    # growth is not crowded out; whatever finds no room is dropped.  The
    # loop only allocates, so the fleet is listed once, and a pass that
    # leaves cores unplaced has filled every VM: the rest is dropped.
    fleet = provider.active_instances() if unhomed else []
    for n, (pe_name, missing) in enumerate(unhomed):
        for r in fleet:
            if missing <= 0:
                break
            room = r.cores - r.used_cores
            if room <= 0:
                continue
            take = min(room, missing)
            r.allocate(pe_name, take)
            report.cores_allocated += take
            report.rehomed_cores += take
            missing -= take
            name, alloc = expected[r.instance_id]
            alloc[pe_name] = alloc.get(pe_name, 0) + take
        if missing > 0:
            report.dropped_cores += missing + sum(
                m for _, m in unhomed[n + 1:]
            )
            break

    # 4¾. viability: no planned PE may end up coreless — the fluid
    # pipeline's throughput is zero if any stage has zero capacity, so
    # shifting one core from the fleet's best-served PE strictly
    # improves the outcome.  Only reachable after a denial.
    if report.denied:
        placed: dict[str, int] = {}
        for r in provider.active_instances():
            for pe_name, c in r.allocations.items():
                placed[pe_name] = placed.get(pe_name, 0) + c
        planned_pes = sorted(
            {
                p
                for vm in plan.cluster.vms
                for p, c in vm.allocations.items()
                if c > 0
            }
        )
        for pe_name in planned_pes:
            if placed.get(pe_name, 0) > 0:
                continue
            donor = None
            for r in provider.active_instances():
                for dp, c in sorted(r.allocations.items()):
                    if c > 1 and (donor is None or c > donor[2]):
                        donor = (r, dp, c)
            if donor is None:
                continue
            r, dp, _ = donor
            r.release(dp, 1)
            r.allocate(pe_name, 1)
            report.viability_shifts += 1
            placed[pe_name] = 1
            placed[dp] -= 1
            _, alloc = expected[r.instance_id]
            alloc[dp] -= 1
            alloc[pe_name] = alloc.get(pe_name, 0) + 1

    # 5. alternates + executor resync.
    executor.set_selection(dict(plan.selection))
    executor.sync(now)
    if _validate.enabled():
        _validate.checker().check_reconcile(
            provider,
            executor,
            plan,
            report,
            now,
            denied_views=denied_views,
            expected=expected,
        )
    return report
