"""Annealing's energy and golden plans under every billing model.

The golden plans (fig1 at 4 msg/s, seed 0, 800 evaluations, each model
at its registry defaults) were recorded before annealing memoized its
energy: the memo must change neither the search path (RNG draws,
evaluation count) nor Θ's bits under any pricing regime.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.cloud.billing import BILLING_MODELS, make_billing_model
from repro.cloud.resources import aws_2013_catalog
from repro.core.anneal import AnnealConfig, AnnealingDeployment, _Energy
from repro.experiments.scenarios import fig1_dataflow, standard_spec

#: The plan every model returns at this size (catalog order).
PLAN = [
    ("m1.medium", [("E3", 1)]),
    ("m1.large", [("E3", 2)]),
    ("m1.large", [("E3", 2)]),
    ("m1.large", [("E2", 2)]),
    ("m1.xlarge", [("E2", 1), ("E4", 2), ("E1", 1)]),
]

BEST_THETA = {
    "on_demand_hourly": 0.9814375,
    "per_second": 0.9814375,
    "reserved": 0.977725,
    "sustained_use": 0.9814375,
    "spot_trace": 0.9878868596265262,
}


@pytest.mark.parametrize("model", BILLING_MODELS)
def test_golden_plan(model):
    df = fig1_dataflow()
    spec = standard_spec(4.0, df, period=3600.0)
    ann = AnnealingDeployment(
        df,
        aws_2013_catalog(),
        AnnealConfig(
            omega_min=0.7,
            sigma=spec.sigma,
            period_hours=1.0,
            max_evals=800,
            seed=0,
            billing=make_billing_model(model),
        ),
    )
    plan = ann.plan({"E1": 4.0})
    assert dict(sorted(plan.selection.items())) == {
        "E1": "e1",
        "E2": "e2.1",
        "E3": "e3.1",
        "E4": "e4",
    }
    assert [
        (vm.vm_class.name, list(vm.allocations.items()))
        for vm in plan.cluster.vms
    ] == PLAN
    assert ann.best_theta == BEST_THETA[model]
    assert ann.evaluations == 800


@pytest.mark.parametrize("model", (None,) + BILLING_MODELS)
def test_energy_prices_the_packed_cluster(model):
    """Θ of every configuration with up to three VMs per class equals
    pricing its packed cluster VM by VM, bit for bit, under two
    selections — asked twice, so memo hits are checked too."""
    df = fig1_dataflow()
    billing = None if model is None else make_billing_model(model)
    sigma, hours, rates = 0.02, 2.5, {"E1": 3.0}
    ann = AnnealingDeployment(
        df,
        aws_2013_catalog(),
        AnnealConfig(sigma=sigma, period_hours=hours, billing=billing),
    )
    energy = _Energy(ann, rates)
    for _ in range(2):
        for selection in (df.default_selection(), df.cheapest_selection()):
            demands = ann._bf._demands(selection, rates)
            gamma = df.application_value(selection)
            for counts in itertools.product(range(4), repeat=4):
                cluster = ann._bf._try_pack(list(counts), demands)
                if cluster is None:
                    expected = (False, -math.inf)
                else:
                    if billing is None:
                        cost = cluster.total_hourly_price() * hours
                    else:
                        cost = sum(
                            billing.lifetime_cost(vm.vm_class, hours * 3600.0)
                            for vm in cluster.vms
                        )
                    expected = (True, gamma - sigma * cost)
                assert energy(selection, list(counts)) == expected


def test_no_memo_survives_a_plan_call():
    """A reused searcher plans a second rate exactly as a fresh one."""
    df = fig1_dataflow()

    def annealer():
        return AnnealingDeployment(
            df, aws_2013_catalog(), AnnealConfig(max_evals=400, seed=3)
        )

    reused, fresh = annealer(), annealer()
    reused.plan({"E1": 4.0})
    plans = [ann.plan({"E1": 2.0}) for ann in (reused, fresh)]
    assert plans[0].selection == plans[1].selection
    layouts = [
        [(vm.vm_class.name, vm.allocations) for vm in plan.cluster.vms]
        for plan in plans
    ]
    assert layouts[0] == layouts[1]
    assert reused.best_theta == fresh.best_theta
    assert reused.evaluations == fresh.evaluations
