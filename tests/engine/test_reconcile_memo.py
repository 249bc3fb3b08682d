"""``apply_plan``'s fallback memo and its short-circuited re-home.

A denied VM's stand-in class is shopped for once per wanted class and
kept until the next successful provision, the only fleet change in the
provisioning step (an admission review reads only the fleet, the
contract of ``repro.cloud.provider``'s admission protocol).  Re-homing
stops at the first pass that leaves cores unplaced, since every VM is
full from then on.  Every planned VM still asks the cloud, so each
denial is recorded and traced.
"""

from __future__ import annotations

from repro.cloud import CapacityError, CloudProvider, aws_2013_catalog
from repro.cloud.provider import ProvisionDenied
from repro.core import ClusterView, DeploymentPlan
from repro.engine import FluidExecutor, apply_plan
from repro.engine.tenants import AdmissionPolicy
from repro.obs import collector
from repro.sim import Environment
from repro.workloads import ConstantRate

CATALOG = {c.name: c for c in aws_2013_catalog()}
FULL = {"m1.xlarge": 0, "m1.large": 0, "m1.medium": 0, "m1.small": 0}


class OnePerClass(AdmissionPolicy):
    """Admits a tenant's first VM of each class only: its answer for a
    class changes once a VM of that class is provisioned."""

    name = "one-per-class"

    def review(self, provider, tenant, vm_class, now):
        return self.name if provider.cores_held(tenant, vm_class) else None


def _setup(chain3, capacity, admission=None):
    provider = CloudProvider(
        aws_2013_catalog(), capacity=capacity, admission=admission
    )
    executor = FluidExecutor(
        Environment(), chain3, provider, {"src": ConstantRate(2.0)},
        selection=chain3.default_selection(),
    )
    return provider, executor


def _plan(chain3, vm_specs) -> DeploymentPlan:
    cluster = ClusterView()
    for class_name, alloc in vm_specs:
        vm = cluster.new_vm(CATALOG[class_name])
        for pe, cores in alloc.items():
            vm.allocate(pe, cores)
    return DeploymentPlan(selection=chain3.default_selection(), cluster=cluster)


def test_fallback_is_shopped_again_after_a_provision(chain3):
    """Each fallback provision changes the admission's answer for its
    class, so the next denied VM must not reuse the previous stand-in."""
    provider, executor = _setup(
        chain3, {"m1.xlarge": 0}, admission=OnePerClass()
    )
    plan = _plan(chain3, [
        ("m1.xlarge", {"src": 1}),
        ("m1.xlarge", {"mid": 1}),
        ("m1.xlarge", {"out": 1}),
    ])
    report = apply_plan(provider, executor, plan, 0.0)
    assert [(p, a) for p, a, _ in report.fallbacks] == [
        ("m1.xlarge", "m1.large"),
        ("m1.xlarge", "m1.medium"),
        ("m1.xlarge", "m1.small"),
    ]
    assert [(d.vm_class, d.reason) for d in provider.denials()] == [
        ("m1.xlarge", "capacity")
    ] * 3
    assert report.dropped_cores == 0


def test_repeat_denials_reuse_one_fallback_search(chain3, monkeypatch):
    """With every pool full, the first denial probes each other class
    once and the later ones reuse its answer; each planned VM is still
    requested, recorded and traced."""
    provider, executor = _setup(chain3, FULL)
    probes = []
    probe = provider.can_provision

    def counted(vm_class, now, tenant=0):
        probes.append(vm_class.name)
        return probe(vm_class, now, tenant)

    monkeypatch.setattr(provider, "can_provision", counted)
    plan = _plan(chain3, [("m1.large", {pe: 1}) for pe in ("src", "mid")]
                 + [("m1.large", {"out": 2})])
    collector.reset()
    with collector.tracing():
        report = apply_plan(provider, executor, plan, 0.0)
        denied = [e for e in collector.events() if e.type == "vm_denied"]
    collector.reset()
    assert probes == ["m1.medium", "m1.small", "m1.xlarge"]
    assert len(report.denied) == len(provider.denials()) == len(denied) == 3
    assert report.fallbacks == []
    assert report.dropped_cores == 4


def test_full_fleet_drops_the_remaining_cores(chain3):
    """The re-home pass that leaves ``out`` a core short has filled the
    one VM, so that core and every later displaced one are dropped."""
    provider, executor = _setup(chain3, {**FULL, "m1.xlarge": 1})
    plan = _plan(chain3, [
        ("m1.xlarge", {"src": 1}),
        ("m1.xlarge", {"mid": 2, "out": 2}),  # denied: the pool is full
        ("m1.large", {"src": 2}),  # denied, no stand-in either
    ])
    report = apply_plan(provider, executor, plan, 0.0)
    assert len(report.denied) == 2
    assert report.rehomed_cores == 3
    assert report.dropped_cores == 3
    assert report.viability_shifts == 0
    (vm,) = provider.active_instances()
    assert vm.allocations == {"src": 1, "mid": 2, "out": 1}


def test_contended_reconcile_raises_no_capacity_error(chain3, monkeypatch):
    """Planned VMs are requested through ``try_provision``, whose denial
    comes back as the ledger's record: a contended reconcile raises (and
    unwinds) no ``CapacityError`` and reports each denial, capacity and
    admission alike, in request order, as the ledger records them."""
    raised = []
    init = CapacityError.__init__

    def counted(self, denial):
        raised.append(denial)
        init(self, denial)

    monkeypatch.setattr(CapacityError, "__init__", counted)
    provider, executor = _setup(
        chain3, {"m1.xlarge": 0}, admission=OnePerClass()
    )
    plan = _plan(chain3, [
        ("m1.xlarge", {"src": 1}),
        ("m1.large", {"mid": 1}),
        ("m1.large", {"out": 1}),
    ])
    report = apply_plan(provider, executor, plan, 0.0)
    assert raised == []
    assert report.denied == list(provider.denials()) == [
        ProvisionDenied(0, "m1.xlarge", "capacity", 0.0),
        ProvisionDenied(0, "m1.large", "one-per-class", 0.0),
        ProvisionDenied(0, "m1.large", "one-per-class", 0.0),
    ]
    assert [(p, a) for p, a, _ in report.fallbacks] == [
        ("m1.xlarge", "m1.large"),
        ("m1.large", "m1.medium"),
        ("m1.large", "m1.small"),
    ]
