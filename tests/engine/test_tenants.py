"""Multi-tenant shared-provider fleet (S27).

The load-bearing property is the bit-identity oracle: an uncontended
fleet — shared provider, unlimited pools — must reproduce each tenant's
*isolated* run exactly, whichever engine (SoA kernel or serial loop)
carries it.  Contended fleets then add the degradation story: denials,
fallbacks, re-homing, and the viability guarantee that no tenant's
pipeline is silently zeroed by a coreless PE.
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudProvider, aws_2013_catalog
from repro.core import ClusterView, DeploymentPlan
from repro.engine import FluidExecutor, apply_plan
from repro.engine.tenants import TenantFleet, TenantRow
from repro.experiments.runner import build_fleet, run_fleet
from repro.experiments.scenarios import multi_tenant_scenario, run_policy
from repro.sim import Environment
from repro.validate import invariants
from repro.workloads import ConstantRate


def isolated_rows(mt):
    """The oracle: each tenant simulated alone on its own provider."""
    return [
        TenantRow.from_result(
            k, mt.tenant_rate(k), run_policy(mt.tenant_scenario(k), mt.policy)
        )
        for k in range(mt.n_tenants)
    ]


class TestBitIdentityOracle:
    def test_uncontended_fleet_matches_isolated_runs(self):
        mt = multi_tenant_scenario(
            n_tenants=4,
            period=300.0,
            rate_lo=2.0,
            rate_hi=6.0,
            capacity_tightness=None,
        )
        fleet = run_fleet(mt)
        assert [r.identity() for r in fleet.rows] == [
            r.identity() for r in isolated_rows(mt)
        ]

    def test_oracle_holds_under_wave_rates_and_variability(self):
        mt = multi_tenant_scenario(
            n_tenants=3,
            period=300.0,
            rate_kind="wave",
            variability="both",
            capacity_tightness=None,
        )
        fleet = run_fleet(mt)
        assert [r.identity() for r in fleet.rows] == [
            r.identity() for r in isolated_rows(mt)
        ]

    def test_soa_and_serial_modes_agree(self, monkeypatch):
        """The checker runs on the SoA kernel itself: a validated fleet
        stays in SoA mode, equals the unchecked fleet, and both equal
        each tenant's serial isolated run."""
        mt = multi_tenant_scenario(
            n_tenants=3, period=300.0, capacity_tightness=None
        )
        with invariants.checking():
            checked = build_fleet(mt).run()
        assert checked.mode == "soa"
        monkeypatch.setattr(invariants, "_enabled", False)
        assert build_fleet(mt).run().rows == checked.rows
        assert [r.identity() for r in checked.rows] == [
            r.identity() for r in isolated_rows(mt)
        ]

    def test_contended_fair_share_fleet_validated_on_soa(self, monkeypatch):
        """Contention is where a serial stand-in diverges: a validated
        16-tenant fair-share fleet runs SoA and matches the unchecked
        fleet row for row."""
        mt = multi_tenant_scenario(
            n_tenants=16,
            admission="fair-share",
            capacity_tightness=0.5,
            rate_kind="wave",
            variability="both",
            period=300.0,
        )
        with invariants.checking():
            checked = run_fleet(mt)
        assert checked.mode == "soa"
        assert checked.denied_total > 0
        monkeypatch.setattr(invariants, "_enabled", False)
        assert run_fleet(mt).rows == checked.rows

    def test_soa_mode_selected_when_possible(self):
        mt = multi_tenant_scenario(
            n_tenants=2, period=300.0, capacity_tightness=None
        )
        fleet = run_fleet(mt)
        assert fleet.mode == "soa"
        # One utilization sample per adaptation boundary.
        assert fleet.samples
        assert all(s.t > 0 for s in fleet.samples)


class TestFleetResult:
    def test_result_shape(self):
        mt = multi_tenant_scenario(n_tenants=3, period=300.0)
        fleet = run_fleet(mt)
        assert fleet.n_tenants == 3
        assert [r.tenant for r in fleet.rows] == [0, 1, 2]
        assert fleet.admission == "free-for-all"
        assert set(fleet.utilization) >= {
            "peak_active_by_class",
            "capacity",
            "denied",
            "denied_by_reason",
        }
        assert fleet.denied_total == sum(r.denials for r in fleet.rows)

    def test_fleet_mu_sums_per_tenant_meters(self):
        mt = multi_tenant_scenario(
            n_tenants=3, period=300.0, capacity_tightness=None
        )
        fleet = run_fleet(mt)
        total = 0.0
        for row in sorted(fleet.rows, key=lambda r: r.tenant):
            total += row.mu
        assert fleet.fleet_mu == total
        assert fleet.fleet_mu > 0

    def test_contended_fleet_records_denials(self):
        mt = multi_tenant_scenario(
            n_tenants=6,
            period=300.0,
            admission="fair-share",
            rate_lo=4.0,
            rate_hi=12.0,
            capacity_tightness=1.0,
        )
        fleet = run_fleet(mt)
        assert fleet.denied_total > 0
        assert set(fleet.utilization["denied_by_reason"]) <= {
            "capacity",
            "fair-share",
        }
        # The viability stage guarantees a degraded-but-running fleet:
        # no tenant's pipeline may be zeroed by a coreless PE.
        assert all(r.omega > 0 for r in fleet.rows)

    def test_free_for_all_only_physics_denies(self):
        mt = multi_tenant_scenario(
            n_tenants=6,
            period=300.0,
            admission="free-for-all",
            rate_lo=4.0,
            rate_hi=12.0,
            capacity_tightness=1.0,
        )
        fleet = run_fleet(mt)
        assert fleet.denied_total > 0
        assert set(fleet.utilization["denied_by_reason"]) == {"capacity"}


class TestTenantRow:
    def test_identity_neutralizes_only_the_tenant_id(self):
        mt = multi_tenant_scenario(n_tenants=2, period=300.0)
        result = run_policy(mt.tenant_scenario(1), mt.policy)
        row = TenantRow.from_result(1, mt.tenant_rate(1), result)
        assert row.tenant == 1
        assert row.omega == result.outcome.mean_throughput
        assert row.mu == result.outcome.total_cost
        neutral = row.identity()
        assert neutral.tenant == 0
        assert neutral == row.identity()
        assert (neutral.omega, neutral.mu, neutral.theta) == (
            row.omega,
            row.mu,
            row.theta,
        )


class TestTenantFleetConstruction:
    def test_rejects_empty_fleet(self):
        provider = CloudProvider(aws_2013_catalog())
        with pytest.raises(ValueError, match="at least one tenant"):
            TenantFleet([], provider)

    def test_rejects_duplicate_tenants(self):
        mt = multi_tenant_scenario(n_tenants=2, period=300.0)
        fleet = build_fleet(mt)
        with pytest.raises(ValueError, match="duplicate tenant"):
            TenantFleet(
                [fleet.managers[0], fleet.managers[0]], fleet.provider
            )

    def test_rejects_mismatched_rates(self):
        mt = multi_tenant_scenario(n_tenants=2, period=300.0)
        fleet = build_fleet(mt)
        with pytest.raises(ValueError, match="rates"):
            TenantFleet(fleet.managers, fleet.provider, rates=[1.0])


# -- degraded reconciliation under denial ----------------------------------------


def degradation_setup(chain3, capacity):
    env = Environment()
    provider = CloudProvider(aws_2013_catalog(), capacity=capacity)
    executor = FluidExecutor(
        env,
        chain3,
        provider,
        {"src": ConstantRate(2.0)},
        selection=chain3.default_selection(),
    )
    return provider, executor


def plan_of(chain3, vm_specs):
    catalog = {c.name: c for c in aws_2013_catalog()}
    cluster = ClusterView()
    for class_name, alloc in vm_specs:
        vm = cluster.new_vm(catalog[class_name])
        for pe, cores in alloc.items():
            vm.allocate(pe, cores)
    return DeploymentPlan(selection=chain3.default_selection(), cluster=cluster)


class TestDegradedReconcile:
    def test_denied_class_falls_back_to_nearest_smaller(self, chain3):
        provider, executor = degradation_setup(
            chain3, capacity={"m1.xlarge": 0}
        )
        plan = plan_of(chain3, [("m1.xlarge", {"src": 1, "mid": 1})])
        report = apply_plan(provider, executor, plan, 0.0)
        assert len(report.denied) == 1
        assert report.denied[0].vm_class == "m1.xlarge"
        assert [(p, a) for p, a, _ in report.fallbacks] == [
            ("m1.xlarge", "m1.large")
        ]
        vm = provider.active_instances()[0]
        assert vm.vm_class.name == "m1.large"
        assert vm.allocations == {"src": 1, "mid": 1}

    def test_unplaceable_cores_rehome_onto_fleet_free_cores(self, chain3):
        provider, executor = degradation_setup(
            chain3,
            capacity={
                "m1.xlarge": 1,
                "m1.large": 0,
                "m1.medium": 0,
                "m1.small": 0,
            },
        )
        plan = plan_of(
            chain3,
            [
                ("m1.xlarge", {"src": 1, "mid": 1}),  # leaves 2 free cores
                ("m1.xlarge", {"out": 1}),  # denied: pool of one is full
            ],
        )
        report = apply_plan(provider, executor, plan, 0.0)
        assert len(report.denied) >= 1
        assert report.rehomed_cores == 1
        assert report.dropped_cores == 0
        vm = provider.active_instances()[0]
        assert vm.allocations == {"src": 1, "mid": 1, "out": 1}

    def test_viability_shift_rescues_coreless_pe(self, chain3):
        provider, executor = degradation_setup(
            chain3,
            capacity={
                "m1.xlarge": 1,
                "m1.large": 0,
                "m1.medium": 0,
                "m1.small": 0,
            },
        )
        plan = plan_of(
            chain3,
            [
                ("m1.xlarge", {"src": 2, "mid": 2}),  # saturates the VM
                ("m1.xlarge", {"out": 4}),  # denied, nowhere to re-home
            ],
        )
        report = apply_plan(provider, executor, plan, 0.0)
        assert len(report.denied) >= 1
        assert report.dropped_cores > 0
        # A coreless `out` would zero the whole pipeline's throughput;
        # the viability stage moves one core from the best-served PE.
        assert report.viability_shifts == 1
        vm = provider.active_instances()[0]
        assert vm.allocations.get("out", 0) == 1
        assert sum(vm.allocations.values()) == 4
        assert all(c >= 1 for c in vm.allocations.values())

    def test_no_viability_shift_without_denial(self, chain3):
        provider, executor = degradation_setup(chain3, capacity=None)
        plan = plan_of(chain3, [("m1.xlarge", {"src": 1, "mid": 2, "out": 1})])
        report = apply_plan(provider, executor, plan, 0.0)
        assert report.denied == []
        assert report.viability_shifts == 0
        assert report.fallbacks == []
        assert report.rehomed_cores == 0
