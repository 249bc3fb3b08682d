"""The planners' kept capacities on the cases random draws rarely hit.

``RuntimeAdaptation._scale_out`` keeps each PE's host positions and unit
terms, re-sums a PE's capacity from the last host's term alone, reuses
the last core's VM instead of scanning for a free core where the scan's
answer is known, and sizes a new VM from the kept terms.
``_scale_in`` builds the capacities once and re-sums only the PE a trial
release touches, restoring it on a revert.  The hypothesis oracle in
``test_adapt_oracle.py`` draws small fleets; each case here is built to
take one of those paths, and must give the object-based reference's
plan, with the kept capacities equal to the plan's.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import adaptation
from repro.core.adaptation import AdaptationConfig, RuntimeAdaptation
from repro.core.state import ClusterView, Snapshot, VMView
from repro.experiments.scenarios import fig1_dataflow

from .test_adapt_oracle import CATALOG, ReferenceAdaptation, layout

SMALL, MEDIUM, LARGE, XLARGE = CATALOG
DF = fig1_dataflow()
SELECTION = {"E1": "e1", "E2": "e2.1", "E3": "e3.1", "E4": "e4"}


def _vm(i: int, klass, allocations: dict[str, int]) -> VMView:
    return VMView(vm_class=klass, instance_id=f"vm-{i}",
                  allocations=allocations)


def _snapshot(vms, rate: float = 3.0, backlogs=None) -> Snapshot:
    """Ω̄ below Ω̂, so the resource stage scales out."""
    return Snapshot(
        time=600.0,
        selection=SELECTION,
        cluster=ClusterView(vms),
        input_rates={"E1": rate},
        arrival_rates={pe: rate for pe in DF.pe_names},
        omega_last=0.5,
        omega_average=0.5,
        backlogs=backlogs or {},
        cumulative_cost=1.0,
    )


def _plan(snapshot: Snapshot, strategy: str):
    """The fast plan, after checking it against the reference and its
    kept capacities against the plan's own; also returns the PEs whose
    free core came from a scan, in order."""
    config = AdaptationConfig(strategy=strategy)
    scans: list[tuple[str, str | None]] = []
    kept: list[dict[str, float]] = []

    class Spied(RuntimeAdaptation):
        def _free_core(self, cluster, pe_name):
            vm = super()._free_core(cluster, pe_name)
            scans.append((pe_name, vm and vm.key))
            return vm

        def _scale_out(self, snap, cluster, selection, input_rates):
            build = cluster.capacities

            def capacities(*args):
                kept.append(build(*args))
                return kept[-1]

            cluster.capacities = capacities
            try:
                super()._scale_out(snap, cluster, selection, input_rates)
            finally:
                del cluster.capacities

    plan = Spied(DF, CATALOG, config).adapt(snapshot, 1)
    expected = ReferenceAdaptation(DF, CATALOG, config).adapt(snapshot, 1)
    assert layout(plan, snapshot) == layout(expected, snapshot)
    assert kept and all(
        caps == plan.cluster.capacities(DF, plan.selection) for caps in kept
    )
    return plan, scans


def test_bottleneck_switch_abandons_the_reused_vm():
    """E2 and E3 take turns as the bottleneck while both of their VMs
    have free cores: each switch must scan again, or E3 would follow E2
    onto vm-0."""
    snapshot = _snapshot([
        _vm(0, XLARGE, {"E1": 1}),
        _vm(1, XLARGE, {"E3": 1}),
        _vm(2, XLARGE, {"E4": 4}),
    ])
    plan, scans = _plan(snapshot, "local")
    assert scans[:2] == [("E2", "vm-0"), ("E3", "vm-1")]
    assert plan.cluster["vm-0"].allocations == {"E1": 1, "E2": 3}
    assert plan.cluster["vm-1"].allocations == {"E3": 4}


def test_core_on_a_middle_host_resums_the_head():
    """E3's hosts are vm-0 and vm-2, and the only free cores are on
    vm-0: the added core changes a term inside the kept head."""
    snapshot = _snapshot([
        _vm(0, XLARGE, {"E3": 1, "E1": 1}),
        _vm(1, XLARGE, {"E4": 4}),
        _vm(2, LARGE, {"E3": 2}),
        _vm(3, XLARGE, {"E2": 4}),
    ])
    plan, scans = _plan(snapshot, "local")
    assert scans == [("E3", "vm-0")]
    assert plan.cluster["vm-0"].allocations == {"E3": 2, "E1": 1}


def test_global_chain_of_new_vms():
    """No free core anywhere and a deep backlog: the global strategy
    provisions a chain of new VMs of several best-fit classes, the
    bottleneck switching while the newest VM still has free cores, all
    after one scan."""
    snapshot = _snapshot(
        [_vm(0, SMALL, {"E1": 1}), _vm(1, MEDIUM, {"E4": 1})],
        rate=6.0,
        backlogs={"E2": 900.0},
    )
    plan, scans = _plan(snapshot, "global")
    assert scans == [("E2", None)]
    new = [vm for vm in plan.cluster.vms if vm.is_new]
    assert len(new) >= 5
    assert {vm.vm_class.name for vm in new} >= {"m1.xlarge", "m1.small"}
    assert any(len(vm.allocations) > 1 for vm in new)


#: Two fleets on which scale-in makes several trial releases.  In the
#: first, E3's four hosts have unit terms (0.2, 0.4, 0.6, 2.0) that add up
#: differently in another order; in the second, E3's three hosts carry
#: most of the load and some trials miss Ω̂ + ε and are reverted.
SCALE_IN = {
    "order": (0.2, [
        (XLARGE, 0.05, {"E3": 2, "E1": 1}),
        (LARGE, 0.1, {"E3": 2}),
        (XLARGE, 0.15, {"E3": 2, "E2": 1}),
        (XLARGE, 1.0, {"E3": 1, "E4": 1, "E2": 2}),
    ]),
    "reverts": (2.0, [
        (XLARGE, 0.3, {"E3": 2, "E1": 2}),
        (LARGE, 0.3, {"E3": 2}),
        (XLARGE, 1.1, {"E3": 3, "E2": 1}),
        (XLARGE, 0.7, {"E4": 2, "E2": 2}),
    ]),
}


@pytest.mark.parametrize("case", sorted(SCALE_IN))
def test_scale_in_resums_a_pe_on_three_hosts(case, monkeypatch):
    """Every trial release is evaluated on capacities equal, bit for
    bit, to rebuilding them from the trial fleet, and the plan is the
    reference's."""
    rate, fleet = SCALE_IN[case]
    vms = [
        VMView(vm_class=klass, instance_id=f"vm-{i}", coefficient=c,
               allocations=dict(alloc))
        for i, (klass, c, alloc) in enumerate(fleet)
    ]
    snapshot = replace(_snapshot(vms, rate=rate), omega_last=1.0,
                       omega_average=1.0)
    config = AdaptationConfig(strategy="global")
    trials = []
    evaluate = adaptation.constrained_rates

    class Spied(RuntimeAdaptation):
        def _scale_in(self, cluster, selection, input_rates):
            def checked(df, sel, rates, caps):
                trials.append(caps == cluster.capacities(df, sel))
                return evaluate(df, sel, rates, caps)

            with monkeypatch.context() as m:
                m.setattr(adaptation, "constrained_rates", checked)
                super()._scale_in(cluster, selection, input_rates)

    plan = Spied(DF, CATALOG, config).adapt(snapshot, 1)
    expected = ReferenceAdaptation(DF, CATALOG, config).adapt(snapshot, 1)
    assert layout(plan, snapshot) == layout(expected, snapshot)
    assert len(trials) > 4 and all(trials)
