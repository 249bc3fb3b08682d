"""Elastic IaaS provider façade (paper §4–5).

The :class:`CloudProvider` is the single point through which schedulers
acquire and release VM instances.  It owns the fleet, the billing meters,
the performance model, and the network model, and exposes the monitored
quantities the heuristics are allowed to see (current CPU coefficients and
link qualities — never the underlying trace arrays).

Provisioning supports an optional startup delay, modelling the VM boot
latency clouds exhibit; during startup a VM is visible but not yet usable
(``ready_at > now``).

Multi-tenant fleets (S27) share one provider between N managed dataflows:
each instance carries its owning ``tenant``, each tenant bills against its
own :class:`~repro.cloud.billing.BillingMeter`, and provisioning funnels
through finite per-class ``capacity`` plus an optional ``admission``
policy.  A request the shared cloud cannot or will not satisfy produces a
structured :class:`ProvisionDenied` (and a ``vm_denied`` trace event)
instead of an untyped failure, so adaptation policies can react
deterministically.  Single-tenant runs see none of this: everything lands
on tenant ``0``, instance ids and billing are byte-identical to the
pre-multi-tenant provider.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Protocol, Sequence, Union

from ..obs import collector as _trace
from .billing import BillingMeter, BillingModel, OnDemandHourly
from .network import LinkQuality, NetworkModel
from .resources import VMClass, VMInstance
from .variability import ConstantPerformance, PerformanceModel

__all__ = [
    "AdmissionReviewer",
    "CapacityError",
    "CloudProvider",
    "ProvisionDenied",
    "ProvisioningError",
    "TenantProvider",
]


class ProvisioningError(RuntimeError):
    """Raised when a provisioning request cannot be satisfied."""


@dataclass(frozen=True)
class ProvisionDenied:
    """Structured outcome of a provisioning request the cloud refused.

    Attributes
    ----------
    tenant:
        The requesting dataflow.
    vm_class:
        Name of the class that was requested.
    reason:
        ``"capacity"`` when the per-class pool is exhausted, or the
        admission policy's stated reason (e.g. ``"fair-share"``).
    t:
        Simulation time of the request.
    """

    tenant: int
    vm_class: str
    reason: str
    t: float

    def __str__(self) -> str:
        return (
            f"tenant {self.tenant} denied {self.vm_class} at t={self.t:g}: "
            f"{self.reason}"
        )


class CapacityError(ProvisioningError):
    """A :meth:`CloudProvider.provision` call hit a structured denial.

    Carries the :class:`ProvisionDenied` so callers that must raise (the
    strict :meth:`~CloudProvider.provision` path) lose no information over
    callers using :meth:`~CloudProvider.try_provision`.
    """

    def __init__(self, denial: ProvisionDenied) -> None:
        super().__init__(str(denial))
        self.denial = denial


class AdmissionReviewer(Protocol):
    """Admission-control hook deciding whether a request may proceed.

    Returns ``None`` to admit or a short reason string to deny.  Called
    only after the hard per-class capacity check passed, so reviewers
    express *policy* (fairness, quotas), not physics.

    A review depends only on the fleet state, the tenant, the class and
    ``now`` — never on the denial ledger — as ``FreeForAll`` and
    ``FairShare`` do.  Callers rely on it: a denied request changes
    nothing a review reads, so
    :func:`~repro.engine.reconcile.apply_plan` keeps each class's
    fallback until its next successful provision.
    """

    def review(
        self,
        provider: "CloudProvider",
        tenant: int,
        vm_class: VMClass,
        now: float,
    ) -> Optional[str]: ...


class CloudProvider:
    """Owns the elastic VM fleet of one simulated cloud deployment.

    Parameters
    ----------
    catalog:
        Available VM resource classes.
    performance:
        The performance-variability model (default: constant/ideal).
    startup_delay:
        Either a constant number of seconds or a callable ``f(vm_class) →
        seconds`` giving the boot latency of new instances (default 0).
    max_instances:
        Safety cap on concurrently active VMs (default 1024) so runaway
        schedulers fail loudly instead of consuming unbounded memory.
    capacity:
        Optional finite pool sizes: VM-class name → maximum concurrently
        active instances of that class, shared by every tenant.  Classes
        absent from the mapping are unlimited (the single-tenant
        default).
    admission:
        Optional :class:`AdmissionReviewer` consulted after the capacity
        check; lets multi-tenant fleets arbitrate contention (e.g.
        fair-share on cores) without the provider knowing the policy.
    """

    def __init__(
        self,
        catalog: Sequence[VMClass],
        performance: Optional[PerformanceModel] = None,
        startup_delay: float | Callable[[VMClass], float] = 0.0,
        max_instances: int = 1024,
        capacity: Optional[Mapping[str, int]] = None,
        admission: Optional[AdmissionReviewer] = None,
        billing_model: Optional[BillingModel] = None,
    ) -> None:
        if not catalog:
            raise ValueError("catalog must not be empty")
        names = [c.name for c in catalog]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate VM class names: {names}")
        self._catalog = tuple(sorted(catalog))
        self._by_name = {c.name: c for c in self._catalog}
        self.performance: PerformanceModel = performance or ConstantPerformance()
        self.network = NetworkModel(self.performance)
        self._startup_delay = startup_delay
        self._max_instances = max_instances
        self._fleet: dict[str, VMInstance] = {}
        self._ready_at: dict[str, float] = {}
        self._failed_ids: set[str] = set()
        if capacity is not None:
            unknown = sorted(set(capacity) - set(self._by_name))
            if unknown:
                raise ValueError(
                    f"capacity names classes not in catalog: {unknown}"
                )
            bad = {k: v for k, v in capacity.items() if v < 0}
            if bad:
                raise ValueError(f"capacity must be ≥ 0: {bad}")
        self._capacity: dict[str, int] = dict(capacity or {})
        self.admission = admission
        # Per-tenant structures.  Tenant 0 is the single-tenant default:
        # its meter *is* ``self.billing`` and its instance ids carry no
        # tenant prefix, so existing runs are byte-identical.  One pricing
        # model (default: on-demand hourly) is shared by every tenant
        # meter — the cloud has one price list.
        self.billing_model: BillingModel = billing_model or OnDemandHourly()
        self.billing = BillingMeter(model=self.billing_model)
        self._meters: dict[int, BillingMeter] = {0: self.billing}
        self._counters: dict[int, "itertools.count[int]"] = {
            0: itertools.count()
        }
        self._by_tenant: dict[int, dict[str, VMInstance]] = {0: {}}
        self._cores_by_tenant: dict[int, int] = {}
        self._class_cores_by_tenant: dict[tuple[int, str], int] = {}
        # Contention accounting (kept incrementally so fleet utilization
        # reporting works identically in serial and SoA execution modes).
        # Live count mirrors the fleet dict so the per-provision
        # instance-cap check never scans the (ever-growing) fleet.
        self._n_active = 0
        self._active_by_class: dict[str, int] = {}
        self._peak_by_class: dict[str, int] = {}
        self._denials: list[ProvisionDenied] = []

    # -- catalog -----------------------------------------------------------------

    @property
    def catalog(self) -> tuple[VMClass, ...]:
        """Classes sorted ascending by total rated capacity."""
        return self._catalog

    @property
    def largest_class(self) -> VMClass:
        return self._catalog[-1]

    @property
    def smallest_class(self) -> VMClass:
        return self._catalog[0]

    def vm_class(self, name: str) -> VMClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown VM class {name!r}; known: {sorted(self._by_name)}"
            ) from None

    def classes_at_least(self, capacity: float) -> list[VMClass]:
        """Classes whose rated total capacity is ≥ ``capacity``, ascending —
        the candidates for a best-fit repack."""
        return [c for c in self._catalog if c.total_capacity >= capacity - 1e-12]

    # -- capacity / contention ---------------------------------------------------

    @property
    def capacity(self) -> Mapping[str, int]:
        """Finite per-class pool sizes (empty mapping = everything unlimited)."""
        return dict(self._capacity)

    def class_capacity(self, vm_class: VMClass | str) -> Optional[int]:
        """Pool size for one class, or ``None`` when unlimited."""
        name = vm_class if isinstance(vm_class, str) else vm_class.name
        return self._capacity.get(name)

    def active_count(self, vm_class: VMClass | str) -> int:
        """Currently active instances of one class, across all tenants."""
        name = vm_class if isinstance(vm_class, str) else vm_class.name
        return self._active_by_class.get(name, 0)

    def active_by_class(self) -> dict[str, int]:
        """Currently active instances per class, across all tenants."""
        return {k: v for k, v in self._active_by_class.items() if v}

    def capped_pool_cores(self) -> int:
        """Total cores in the finitely-capped classes (the contended pool
        fair-share admission arbitrates over)."""
        return sum(
            cap * self._by_name[name].cores
            for name, cap in self._capacity.items()
        )

    def cores_held(
        self, tenant: int, vm_class: Optional[VMClass | str] = None
    ) -> int:
        """Cores of active instances currently held by one tenant —
        fleet-wide, or within one class when ``vm_class`` is given."""
        if vm_class is None:
            return self._cores_by_tenant.get(tenant, 0)
        name = vm_class if isinstance(vm_class, str) else vm_class.name
        return self._class_cores_by_tenant.get((tenant, name), 0)

    def peak_active_by_class(self) -> dict[str, int]:
        """High-water mark of concurrently active instances per class."""
        return dict(self._peak_by_class)

    def denials(self) -> tuple[ProvisionDenied, ...]:
        """Every structured denial issued so far, in request order."""
        return tuple(self._denials)

    # -- tenancy -----------------------------------------------------------------

    def tenant_ids(self) -> list[int]:
        """Tenants that have provisioned (or pre-registered) so far."""
        return sorted(self._by_tenant)

    def tenant_billing(self, tenant: int) -> BillingMeter:
        """The per-tenant billing meter (created on first use)."""
        meter = self._meters.get(tenant)
        if meter is None:
            meter = self._meters[tenant] = BillingMeter(
                model=self.billing_model
            )
        return meter

    def tenant_view(self, tenant: int) -> "TenantProvider":
        """A provider façade scoped to one tenant (see :class:`TenantProvider`)."""
        return TenantProvider(self, tenant)

    def _tenant_fleet(self, tenant: int) -> dict[str, VMInstance]:
        fleet = self._by_tenant.get(tenant)
        if fleet is None:
            fleet = self._by_tenant[tenant] = {}
        return fleet

    # -- fleet lifecycle -----------------------------------------------------------

    def try_provision(
        self, vm_class: VMClass | str, now: float, tenant: int = 0
    ) -> VMInstance | ProvisionDenied:
        """Request a new instance; returns it or a structured denial.

        Billing starts immediately (clouds charge from launch); the
        instance becomes usable at :meth:`ready_at`.  Denials come from
        the finite per-class ``capacity`` pool ("capacity") or the
        ``admission`` policy (its stated reason); both are recorded and
        traced as ``vm_denied``.  Malformed requests (unknown class,
        runaway-scheduler instance cap) still raise — those are caller
        bugs, not cloud contention.
        """
        if isinstance(vm_class, str):
            vm_class = self.vm_class(vm_class)
        elif vm_class.name not in self._by_name:
            raise ProvisioningError(f"class {vm_class.name!r} not in catalog")
        if self._n_active >= self._max_instances:
            raise ProvisioningError(
                f"active-instance cap ({self._max_instances}) reached"
            )
        reason = self._review(vm_class, now, tenant)
        if reason is not None:
            denial = ProvisionDenied(
                tenant=tenant, vm_class=vm_class.name, reason=reason, t=now
            )
            self._denials.append(denial)
            if _trace.enabled():
                _trace.emit(
                    "vm_denied",
                    t=now,
                    tenant_id=tenant,
                    vm_class=vm_class.name,
                    reason=reason,
                )
            return denial
        counter = self._counters.get(tenant)
        if counter is None:
            counter = self._counters[tenant] = itertools.count()
        # The trace key stays unprefixed so a tenant's VMs replay the
        # same variability streams they would in an isolated run — the
        # bedrock of the shared-kernel vs isolated bit-identity oracle.
        local_id = f"{vm_class.name}-{next(counter)}"
        instance = VMInstance(
            vm_class,
            started_at=now,
            instance_id=local_id if tenant == 0 else f"t{tenant}/{local_id}",
            trace_key=local_id,
            tenant=tenant,
        )
        delay = (
            self._startup_delay(vm_class)
            if callable(self._startup_delay)
            else float(self._startup_delay)
        )
        if delay < 0:
            raise ProvisioningError(f"negative startup delay {delay}")
        self._fleet[instance.instance_id] = instance
        self._tenant_fleet(tenant)[instance.instance_id] = instance
        self._ready_at[instance.instance_id] = now + delay
        self.tenant_billing(tenant).register(instance)
        self._n_active += 1
        n = self._active_by_class.get(vm_class.name, 0) + 1
        self._active_by_class[vm_class.name] = n
        if n > self._peak_by_class.get(vm_class.name, 0):
            self._peak_by_class[vm_class.name] = n
        self._cores_by_tenant[tenant] = (
            self._cores_by_tenant.get(tenant, 0) + vm_class.cores
        )
        ck = (tenant, vm_class.name)
        self._class_cores_by_tenant[ck] = (
            self._class_cores_by_tenant.get(ck, 0) + vm_class.cores
        )
        if _trace.enabled():
            _trace.emit(
                "vm_provisioned",
                t=now,
                tenant_id=tenant,
                instance_id=instance.instance_id,
                vm_class=vm_class.name,
                ready_at=now + delay,
            )
        return instance

    def provision(
        self, vm_class: VMClass | str, now: float, tenant: int = 0
    ) -> VMInstance:
        """Acquire a new instance of ``vm_class`` at time ``now``.

        The strict variant of :meth:`try_provision`: a structured denial
        becomes a :class:`CapacityError` carrying it.
        """
        result = self.try_provision(vm_class, now, tenant=tenant)
        if isinstance(result, ProvisionDenied):
            raise CapacityError(result)
        return result

    def _review(
        self, vm_class: VMClass, now: float, tenant: int
    ) -> Optional[str]:
        """Denial reason a request would receive right now, or ``None``."""
        cap = self._capacity.get(vm_class.name)
        if cap is not None and self._active_by_class.get(vm_class.name, 0) >= cap:
            return "capacity"
        if self.admission is not None:
            return self.admission.review(self, tenant, vm_class, now)
        return None

    def can_provision(
        self, vm_class: VMClass | str, now: float, tenant: int = 0
    ) -> bool:
        """Dry-run :meth:`try_provision`: would the request be admitted?

        Unlike an actual request, a negative probe records nothing — no
        structured denial, no ``vm_denied`` trace event — so callers can
        shop for a fallback class without flooding the denial ledger.
        """
        if isinstance(vm_class, str):
            vm_class = self.vm_class(vm_class)
        elif vm_class.name not in self._by_name:
            return False
        if self._n_active >= self._max_instances:
            return False
        return self._review(vm_class, now, tenant) is None

    def _release_accounting(self, instance: VMInstance) -> None:
        name = instance.vm_class.name
        self._n_active -= 1
        self._active_by_class[name] = self._active_by_class.get(name, 1) - 1
        self._cores_by_tenant[instance.tenant] = (
            self._cores_by_tenant.get(instance.tenant, 0) - instance.cores
        )
        ck = (instance.tenant, name)
        self._class_cores_by_tenant[ck] = (
            self._class_cores_by_tenant.get(ck, instance.cores) - instance.cores
        )

    def terminate(self, instance: VMInstance, now: float) -> None:
        """Stop an instance.  Its cores must have been released first."""
        if instance.instance_id not in self._fleet:
            raise ProvisioningError(f"unknown instance {instance.instance_id!r}")
        if instance.used_cores:
            raise ProvisioningError(
                f"{instance.instance_id} still hosts PEs "
                f"{sorted(instance.allocations)}; release cores before terminate"
            )
        instance.stop(now)
        self._release_accounting(instance)
        if _trace.enabled():
            _trace.emit(
                "vm_stopped",
                t=now,
                tenant_id=instance.tenant,
                instance_id=instance.instance_id,
                vm_class=instance.vm_class.name,
            )

    def fail(
        self, instance: VMInstance, now: float, revoked: bool = False
    ) -> dict[str, int]:
        """Crash an instance: allocations are forcibly released.

        Unlike :meth:`terminate`, a crash may happen while PEs are hosted;
        the cores simply vanish.  On-demand billing still rounds up to the
        started hour (clouds charge for crashed instances' elapsed time);
        a spot ``revoked`` stop marks :attr:`VMInstance.revoked_at` so the
        meter never bills past the forced stop.  Returns the allocations
        that were lost.
        """
        if instance.instance_id not in self._fleet:
            raise ProvisioningError(f"unknown instance {instance.instance_id!r}")
        lost = instance.release_all()
        instance.stop(now)
        if revoked:
            instance.revoked_at = float(now)
        self._failed_ids.add(instance.instance_id)
        self._release_accounting(instance)
        return lost

    def failed_instances(self) -> list[VMInstance]:
        """Instances that ended by crashing (subset of stopped)."""
        return [
            self._fleet[i] for i in sorted(self._failed_ids) if i in self._fleet
        ]

    def instance(self, instance_id: str) -> VMInstance:
        try:
            return self._fleet[instance_id]
        except KeyError:
            raise KeyError(f"unknown instance {instance_id!r}") from None

    def all_instances(self) -> list[VMInstance]:
        """Every instance ever provisioned, including stopped ones."""
        return list(self._fleet.values())

    def active_instances(self) -> list[VMInstance]:
        """Instances currently running (may still be booting)."""
        return [r for r in self._fleet.values() if r.active]

    def ready_instances(self, now: float) -> list[VMInstance]:
        """Active instances whose startup delay has elapsed."""
        return [
            r
            for r in self._fleet.values()
            if r.active and self._ready_at[r.instance_id] <= now
        ]

    def ready_at(self, instance: VMInstance) -> float:
        """Time at which the instance is/was usable."""
        return self._ready_at[instance.instance_id]

    # -- monitored quantities ----------------------------------------------------------

    def cpu_coefficient(self, instance: VMInstance, now: float) -> float:
        """Monitored normalized-performance multiplier of one VM."""
        return self.performance.cpu_coefficient(instance.trace_key, now)

    def effective_core_speed(self, instance: VMInstance, now: float) -> float:
        """Current per-core speed: rated π × monitored coefficient."""
        return instance.vm_class.core_speed * self.cpu_coefficient(instance, now)

    def link(self, a: VMInstance, b: VMInstance, now: float) -> LinkQuality:
        """Monitored link quality between two instances."""
        return self.network.link(a, b, now)

    # -- cost ---------------------------------------------------------------------------

    def cost_at(self, now: float) -> float:
        """Cumulative dollar cost μ[t] of the whole fleet.

        Multi-tenant fleets sum the per-tenant meters in tenant order
        (each instance is registered with exactly one meter, so the sum
        covers the fleet without double counting).
        """
        if len(self._meters) == 1:
            return self.billing.cost_at(now)
        total = 0.0
        for tenant in sorted(self._meters):
            total += self._meters[tenant].cost_at(now)
        return total

    def paid_seconds_remaining(self, instance: VMInstance, now: float) -> float:
        """Seconds left in the instance's already-billed hour (0 under
        per-second pricing, where stopping saves money immediately)."""
        return self.billing_model.remaining_paid_seconds(instance, now)


class TenantProvider:
    """One tenant's view of a shared :class:`CloudProvider`.

    Exposes the full provider surface the engine uses —
    :class:`~repro.engine.manager.RunManager`,
    :class:`~repro.engine.executor.FluidExecutor`, the reconciler, and
    the failure drivers all run unmodified against it — while scoping
    fleet listings, billing, and provisioning to ``tenant_id``.  Shared
    monitored quantities (performance, network, catalog) pass straight
    through; ``cost_at`` is the tenant's own meter, so per-tenant μ rows
    fall out of the ordinary
    :class:`~repro.engine.manager.IntervalMetrics` machinery.
    """

    def __init__(self, parent: CloudProvider, tenant_id: int) -> None:
        self.parent = parent
        self.tenant_id = int(tenant_id)
        # Materialize the tenant's structures up front so registration
        # order (not first-provision order) fixes the meter/fleet tables.
        parent._tenant_fleet(self.tenant_id)
        self.billing = parent.tenant_billing(self.tenant_id)

    # -- catalog (shared) ---------------------------------------------------------

    @property
    def catalog(self) -> tuple[VMClass, ...]:
        return self.parent.catalog

    @property
    def largest_class(self) -> VMClass:
        return self.parent.largest_class

    @property
    def smallest_class(self) -> VMClass:
        return self.parent.smallest_class

    def vm_class(self, name: str) -> VMClass:
        return self.parent.vm_class(name)

    def classes_at_least(self, capacity: float) -> list[VMClass]:
        return self.parent.classes_at_least(capacity)

    # -- monitored quantities (shared) --------------------------------------------

    @property
    def performance(self) -> PerformanceModel:
        return self.parent.performance

    @property
    def network(self) -> NetworkModel:
        return self.parent.network

    def cpu_coefficient(self, instance: VMInstance, now: float) -> float:
        return self.parent.cpu_coefficient(instance, now)

    def effective_core_speed(self, instance: VMInstance, now: float) -> float:
        return self.parent.effective_core_speed(instance, now)

    def link(self, a: VMInstance, b: VMInstance, now: float) -> LinkQuality:
        return self.parent.link(a, b, now)

    # -- fleet lifecycle (tenant-scoped) ------------------------------------------

    def try_provision(
        self, vm_class: VMClass | str, now: float
    ) -> VMInstance | ProvisionDenied:
        return self.parent.try_provision(vm_class, now, tenant=self.tenant_id)

    def provision(self, vm_class: VMClass | str, now: float) -> VMInstance:
        return self.parent.provision(vm_class, now, tenant=self.tenant_id)

    def can_provision(self, vm_class: VMClass | str, now: float) -> bool:
        return self.parent.can_provision(vm_class, now, tenant=self.tenant_id)

    def terminate(self, instance: VMInstance, now: float) -> None:
        self._own(instance)
        self.parent.terminate(instance, now)

    def fail(
        self, instance: VMInstance, now: float, revoked: bool = False
    ) -> dict[str, int]:
        self._own(instance)
        return self.parent.fail(instance, now, revoked=revoked)

    def _own(self, instance: VMInstance) -> None:
        if instance.tenant != self.tenant_id:
            raise ProvisioningError(
                f"{instance.instance_id} belongs to tenant {instance.tenant}, "
                f"not {self.tenant_id}"
            )

    def instance(self, instance_id: str) -> VMInstance:
        found = self.parent._by_tenant.get(self.tenant_id, {}).get(instance_id)
        if found is None:
            raise KeyError(f"unknown instance {instance_id!r}") from None
        return found

    def all_instances(self) -> list[VMInstance]:
        return list(self.parent._by_tenant.get(self.tenant_id, {}).values())

    def active_instances(self) -> list[VMInstance]:
        return [r for r in self.all_instances() if r.active]

    def ready_instances(self, now: float) -> list[VMInstance]:
        ready = self.parent._ready_at
        return [
            r
            for r in self.all_instances()
            if r.active and ready[r.instance_id] <= now
        ]

    def ready_at(self, instance: VMInstance) -> float:
        return self.parent.ready_at(instance)

    def failed_instances(self) -> list[VMInstance]:
        return [
            r for r in self.parent.failed_instances()
            if r.tenant == self.tenant_id
        ]

    # -- cost (tenant-scoped) -----------------------------------------------------

    def cost_at(self, now: float) -> float:
        """Cumulative dollar cost μ[t] of this tenant's instances only."""
        return self.billing.cost_at(now)

    def paid_seconds_remaining(self, instance: VMInstance, now: float) -> float:
        return self.parent.paid_seconds_remaining(instance, now)

    def __repr__(self) -> str:
        return f"<TenantProvider tenant={self.tenant_id} of {self.parent!r}>"
