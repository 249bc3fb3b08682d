"""Planning state shared by the heuristics (paper §5–7).

The heuristics never touch live engine objects.  They see the world as a
:class:`Snapshot` — the monitored state at an interval boundary — and
manipulate a :class:`ClusterView`, a lightweight mutable model of the VM
fleet.  The engine reconciles the resulting :class:`DeploymentPlan`
against reality (provisioning, releasing, migrating buffers).

Capacity arithmetic (paper §3–4): a core of VM class ``k`` with monitored
coefficient ``κ`` supplies ``π_k · κ`` *standard core units*; a PE whose
active alternate costs ``c`` core-seconds/message sustains
``Σ units / c`` messages/second.

Each :class:`VMView` keeps ``used_cores``, an exact int that ``allocate`` /
``release`` (the only writers of ``allocations``) update and ``clone``
copies.  Float unit totals are never kept: they are re-summed in VM order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..cloud.resources import VMClass
from ..dataflow.graph import DynamicDataflow

__all__ = ["VMView", "ClusterView", "DeploymentPlan", "Snapshot"]

_new_vm_ids = itertools.count()


@dataclass
class VMView:
    """Planning view of one VM (existing or to-be-provisioned).

    Attributes
    ----------
    vm_class:
        The resource class.
    instance_id:
        Live instance id, or ``None`` for a VM the plan wants created.
    coefficient:
        Monitored CPU coefficient (rated = 1.0; planned VMs assume rated
        behaviour, as the paper's deployment stage does).
    allocations:
        PE name → cores held on this VM.
    paid_seconds_remaining:
        Seconds left in the already-billed hour (0 for planned VMs).
    """

    vm_class: VMClass
    instance_id: Optional[str] = None
    coefficient: float = 1.0
    allocations: dict[str, int] = field(default_factory=dict)
    paid_seconds_remaining: float = 0.0
    #: Stable key for planned VMs (so plans are diffable before provisioning).
    plan_key: str = field(default_factory=lambda: f"planned-{next(_new_vm_ids)}")
    #: Cores held across all PEs: ``sum(allocations.values())``, kept.
    used_cores: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.coefficient <= 0:
            raise ValueError("coefficient must be positive")
        self.used_cores = sum(self.allocations.values())
        if self.used_cores > self.vm_class.cores:
            raise ValueError(
                f"allocations exceed {self.vm_class.name} core count"
            )

    @property
    def key(self) -> str:
        """Identity used in plans: instance id if live, else the plan key."""
        return self.instance_id or self.plan_key

    @property
    def is_new(self) -> bool:
        return self.instance_id is None

    @property
    def free_cores(self) -> int:
        return self.vm_class.cores - self.used_cores

    @property
    def idle(self) -> bool:
        return self.used_cores == 0

    def core_units(self) -> float:
        """Standard capacity units supplied by ONE core of this VM."""
        return self.vm_class.core_speed * self.coefficient

    def units_for(self, pe_name: str) -> float:
        """Standard units this VM currently supplies to ``pe_name``."""
        return self.allocations.get(pe_name, 0) * self.core_units()

    def cores_for(self, pe_name: str) -> int:
        """Cores held by ``pe_name`` on this VM (0 if absent)."""
        return self.allocations.get(pe_name, 0)

    def allocate(self, pe_name: str, cores: int = 1) -> None:
        if cores < 1:
            raise ValueError("must allocate ≥ 1 core")
        if cores > self.free_cores:
            raise ValueError(
                f"{self.key}: want {cores} cores, only {self.free_cores} free"
            )
        self.allocations[pe_name] = self.allocations.get(pe_name, 0) + cores
        self.used_cores += cores

    def release(self, pe_name: str, cores: Optional[int] = None) -> int:
        held = self.allocations.get(pe_name, 0)
        n = held if cores is None else min(cores, held)
        if n == 0:
            return 0
        if n < held:
            self.allocations[pe_name] = held - n
        else:
            self.allocations.pop(pe_name, None)
        self.used_cores -= n
        return n

    def clone(self) -> "VMView":
        # Bypasses __init__/__post_init__: a valid view clones to a valid
        # view, and the adaptation loop clones whole fleets every interval.
        new = VMView.__new__(VMView)
        new.vm_class = self.vm_class
        new.instance_id = self.instance_id
        new.coefficient = self.coefficient
        new.allocations = dict(self.allocations)
        new.used_cores = self.used_cores
        new.paid_seconds_remaining = self.paid_seconds_remaining
        new.plan_key = self.plan_key
        return new


class ClusterView:
    """A mutable model of the fleet the heuristics plan against."""

    def __init__(self, vms: Iterable[VMView] = ()) -> None:
        self._vms: dict[str, VMView] = {}
        for vm in vms:
            self.add(vm)

    # -- membership --------------------------------------------------------

    def add(self, vm: VMView) -> VMView:
        if vm.key in self._vms:
            raise ValueError(f"duplicate VM key {vm.key!r}")
        self._vms[vm.key] = vm
        return vm

    def new_vm(self, vm_class: VMClass) -> VMView:
        """Plan a brand-new VM of ``vm_class`` (rated coefficient)."""
        return self.add(VMView(vm_class=vm_class))

    def remove(self, key: str) -> VMView:
        try:
            return self._vms.pop(key)
        except KeyError:
            raise KeyError(f"no VM with key {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._vms

    def __len__(self) -> int:
        return len(self._vms)

    def __getitem__(self, key: str) -> VMView:
        return self._vms[key]

    @property
    def vms(self) -> list[VMView]:
        return list(self._vms.values())

    def clone(self) -> "ClusterView":
        # Clones preserve keys by construction, so the duplicate check in
        # add() is skipped on this (hot) path.
        new = ClusterView.__new__(ClusterView)
        new._vms = {key: vm.clone() for key, vm in self._vms.items()}
        return new

    # -- queries -----------------------------------------------------------

    def vms_hosting(self, pe_name: str) -> list[VMView]:
        return [vm for vm in self._vms.values() if pe_name in vm.allocations]

    def idle_vms(self) -> list[VMView]:
        return [vm for vm in self._vms.values() if vm.idle]

    def with_free_cores(self) -> list[VMView]:
        return [vm for vm in self._vms.values() if vm.free_cores > 0]

    def pe_units(self, pe_name: str) -> float:
        """Total standard capacity units allocated to a PE: a ``sum()`` in
        VM order over its hosts (the other VMs would add exact zeros)."""
        hosts = (vm for vm in self._vms.values() if pe_name in vm.allocations)
        return sum((vm.units_for(pe_name) for vm in hosts), 0.0)

    def pe_units_map(self) -> dict[str, float]:
        """Standard capacity units per PE, for every hosted PE, in one pass.

        Each PE's total adds ``cores × core units`` left to right over its
        hosting VMs in VM order, from ``0.0``.  Code that must reproduce a
        total (``_scale_out``) does the same, never ``sum()``: Python ≥ 3.12
        compensates it, so :meth:`pe_units` matches only on 3.10 and 3.11.
        """
        totals: dict[str, float] = {}
        get = totals.get
        for vm in self._vms.values():
            core_units = vm.vm_class.core_speed * vm.coefficient
            for pe_name, cores in vm.allocations.items():
                totals[pe_name] = get(pe_name, 0.0) + cores * core_units
        return totals

    def pe_cores(self, pe_name: str) -> int:
        return sum(vm.allocations.get(pe_name, 0) for vm in self._vms.values())

    def total_used_cores(self) -> int:
        """Cores allocated across the whole fleet."""
        return sum(vm.used_cores for vm in self._vms.values())

    def capacities(
        self,
        dataflow: DynamicDataflow,
        selection: Mapping[str, str],
    ) -> dict[str, float]:
        """Sustainable messages/second per PE under ``selection``."""
        units = self.pe_units_map()
        out: dict[str, float] = {}
        for name in dataflow.pe_names:
            cost = dataflow.active_alternate(selection, name).cost
            out[name] = units.get(name, 0.0) / cost
        return out

    def total_hourly_price(self) -> float:
        """Sum of hourly prices of all VMs in the view (burn rate)."""
        return sum(vm.vm_class.hourly_price for vm in self._vms.values())

    def marginal_hourly_price(self) -> float:
        """Burn rate counting only VMs the plan would newly provision."""
        return sum(
            vm.vm_class.hourly_price for vm in self._vms.values() if vm.is_new
        )


@dataclass(frozen=True)
class DeploymentPlan:
    """The heuristics' output: a target configuration for the next interval.

    ``cluster`` holds the desired fleet (existing VM keys are kept, new
    VMs carry plan keys); live VMs absent from the cluster are terminated
    by the reconciler.
    """

    selection: Mapping[str, str]
    cluster: ClusterView

    def capacities(self, dataflow: DynamicDataflow) -> dict[str, float]:
        return self.cluster.capacities(dataflow, self.selection)

    def describe(self) -> str:
        """Human-readable one-plan summary (used in example scripts)."""
        lines = [f"selection: {dict(self.selection)}"]
        for vm in self.cluster.vms:
            tag = "NEW " if vm.is_new else ""
            lines.append(
                f"  {tag}{vm.key} [{vm.vm_class.name}] "
                f"alloc={vm.allocations} free={vm.free_cores}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Snapshot:
    """Monitored state handed to the runtime heuristics (paper §5).

    All quantities are *observations* from the monitoring framework over
    the previous interval — the heuristics may not peek at the underlying
    traces or the future.
    """

    #: Interval-boundary timestamp.
    time: float
    #: Current active alternate per PE.
    selection: Mapping[str, str]
    #: Monitored fleet state (coefficients, allocations, paid time).
    cluster: ClusterView
    #: Observed external input rate per input PE (msg/s, last interval).
    input_rates: Mapping[str, float]
    #: Observed arrival rate per PE (msg/s, last interval).
    arrival_rates: Mapping[str, float]
    #: Relative application throughput over the last interval.
    omega_last: float
    #: Running average throughput Ω̄ since the period started.
    omega_average: float
    #: Pending backlog per PE (messages queued, all VMs).
    backlogs: Mapping[str, float]
    #: Cumulative dollar cost μ[t].
    cumulative_cost: float
    #: Instance id → predicted stop time (s) within the reliability
    #: oracle's horizon.  Empty when no oracle is wired (the common case)
    #: or when nothing is predicted to fail soon.  Revocation notices and
    #: published spot-reclaim schedules make this observable in a real
    #: deployment, so it stays within the "no peeking" contract.
    doomed: Mapping[str, float] = field(default_factory=dict)
