"""Mutation-style negative tests: every corruption must be caught.

Each test injects one deliberate accounting bug through a test seam
(private executor arrays, billing-meter internals, VM state) and asserts
the invariant checker reports it — with the right *site* and a plausible
simulation time.  If one of these starts passing silently, the checker
has lost a detection capability.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cloud import CloudProvider, ConstantPerformance, aws_2013_catalog
from repro.core import DeploymentConfig, InitialDeployment
from repro.core.adaptation import AdaptationConfig, RuntimeAdaptation
from repro.core.state import Snapshot
from repro.engine import FluidExecutor
from repro.experiments.scenarios import fig1_dataflow
from repro.sim import Environment
from repro.validate import invariants
from repro.workloads import ConstantRate


def _deployed(df, rates):
    """A provisioned fluid executor (not yet started) plus its plan."""
    catalog = aws_2013_catalog()
    plan = InitialDeployment(
        df, catalog, DeploymentConfig(strategy="local", omega_min=0.7)
    ).plan(rates)
    env = Environment()
    provider = CloudProvider(
        aws_2013_catalog(), performance=ConstantPerformance()
    )
    for view in plan.cluster.vms:
        vm = provider.provision(view.vm_class, now=0.0)
        for pe, cores in view.allocations.items():
            vm.allocate(pe, cores)
    profiles = {n: ConstantRate(r) for n, r in rates.items()}
    ex = FluidExecutor(env, df, provider, profiles, selection=plan.selection)
    ex.sync()
    return env, provider, ex, plan


def test_corrupted_selectivity_breaks_conservation():
    """Halving a *non-output* PE's selectivity array entry starves its
    successor relative to the dataflow-derived ledger."""
    df = fig1_dataflow()
    env, provider, ex, _ = _deployed(df, {"E1": 4.0})
    with invariants.checking():
        ex.start()
        ex._selectivity[ex._pe_index["E3"]] *= 0.5
        env.run(until=300.0)
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            ex.roll_interval()
    exc = exc_info.value
    assert exc.site == "engine.executor.conservation"
    assert exc.t == 300.0


def test_negative_queue_caught_at_next_tick():
    """A negative holding buffer survives exactly one tick.

    (The input-queue array itself is self-repairing — ``step`` clamps it
    via ``served = min(queue, capacity)`` — so stealing from it shows up
    as a conservation drift at the interval boundary instead; the
    per-tick queue-sanity check watches the buffers ``step`` carries
    through untouched.)"""
    df = fig1_dataflow()
    env, provider, ex, _ = _deployed(df, {"E1": 4.0})
    # Out-of-band state pokes bypass the macro-step settle protocol
    # (real mutators call _macro_settle); per-tick semantics are what
    # this test is about, so run the engine tick by tick.
    ex.macro_enabled = False
    with invariants.checking():
        ex.start()
        env.run(until=10.0)
        ex._unhosted["E1"] = -3.0
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            env.run(until=12.0)
    exc = exc_info.value
    assert exc.site == "engine.executor.queue"
    assert 10.0 <= exc.t <= 12.0
    assert exc.details["pe"] == "E1"


def test_negative_buffer_in_one_batch_column_caught_at_next_tick():
    """The batch engine carries the same per-tick hook: a negative
    holding buffer poked into one column of a two-cell batch is caught
    within one tick, at the same site as on the serial engine."""
    from repro.engine.batch import BatchRunner
    from repro.experiments.scenarios import Scenario

    scenario = Scenario(rate=4.0, period=300.0, seed=3)
    runner = BatchRunner(
        [scenario.manager("local"), scenario.manager("static-local")],
        macrostep=False,
    )
    step = runner._phases

    def poked(pack, t, dt):
        if t == 10.0:
            pack.cols[1].ex._unhosted["E1"] = -3.0
        return step(pack, t, dt)

    runner._phases = poked
    with invariants.checking():
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            runner.run()
    exc = exc_info.value
    assert exc.site == "engine.executor.queue"
    assert 10.0 <= exc.t <= 11.0
    assert exc.details["pe"] == "E1"


def test_corrupted_middle_tick_of_a_window_caught(monkeypatch):
    """A window commits its last tick's state, but the checker sees the
    state after every tick it committed: a negative queue in a middle
    tick of a window's stacked backlog is caught even though the final
    state is clean."""
    from repro.engine import executor
    from repro.workloads import PeriodicWave

    df = fig1_dataflow()
    env, provider, ex, _ = _deployed(df, {"E1": 4.0})
    ex.profiles["E1"] = PeriodicWave(4.0, period=300.0)
    ex.macro_enabled = True  # windows on, whatever the environment says
    window_pass = executor._window_pass
    poked = []

    def corrupt(*args):
        m, rec, backlog, egress = window_pass(*args)
        if m >= 3 and not poked:
            backlog = backlog.copy()
            backlog[m // 2].flat[0] = -1.0
            poked.append(m)
        return m, rec, backlog, egress

    monkeypatch.setattr(executor, "_window_pass", corrupt)
    with invariants.checking():
        ex.start()
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            env.run(until=300.0)
    assert poked
    assert float(ex._backlog.min()) >= 0.0  # the committed state is clean
    exc = exc_info.value
    assert exc.site == "engine.executor.queue"
    assert exc.details["min_backlog"] == -1.0


def test_double_registered_instance_is_double_billing():
    catalog = aws_2013_catalog()
    provider = CloudProvider(catalog)
    vm = provider.provision(catalog[0], now=0.0)
    with invariants.checking():
        provider.cost_at(100.0)
        provider.billing._instances.append(vm)  # register twice
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            provider.cost_at(200.0)
    exc = exc_info.value
    assert exc.site == "cloud.billing.duplicate"
    assert exc.t == 200.0
    assert exc.details["instance"] == vm.instance_id


def test_rewritten_start_time_breaks_monotonicity():
    """Shifting a VM's start forward erases already-billed hours, so the
    (consistently) recomputed μ[t] goes *down* — monotonicity catches
    what the self-consistent recompute cannot."""
    catalog = aws_2013_catalog()
    provider = CloudProvider(catalog)
    vm = provider.provision(catalog[0], now=0.0)
    with invariants.checking():
        provider.cost_at(3 * 3600.0)  # 3 billed hours
        vm.started_at = 2 * 3600.0    # now only 1–2 hours elapsed
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            provider.cost_at(3 * 3600.0 + 60.0)
    exc = exc_info.value
    assert exc.site == "cloud.billing.monotone"


def test_midhour_price_change_charges_off_boundary():
    """Swapping the VM class for a pricier replica re-charges already
    billed hours without any instance crossing an hour boundary."""
    catalog = aws_2013_catalog()
    provider = CloudProvider(catalog)
    vm = provider.provision(catalog[0], now=0.0)
    with invariants.checking():
        provider.cost_at(3600.0 + 60.0)  # 2 billed hours
        vm.vm_class = dataclasses.replace(
            vm.vm_class, hourly_price=2.0 * vm.vm_class.hourly_price
        )
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            provider.cost_at(3600.0 + 120.0)  # same 2 hours, higher μ
    exc = exc_info.value
    assert exc.site == "cloud.billing.hour-boundary"
    assert exc.details["boundary_charges"] == 0.0


def test_midwindow_price_rewrite_caught_under_sustained_use():
    """The boundary check generalizes per model (S28): rewriting the
    price mid-window re-charges already-billed discounted hours without
    any instance crossing an hour boundary."""
    from repro.cloud.billing import SustainedUse

    catalog = aws_2013_catalog()
    provider = CloudProvider(
        catalog, billing_model=SustainedUse(discount=0.4, window_hours=8)
    )
    vm = provider.provision(catalog[0], now=0.0)
    with invariants.checking():
        provider.cost_at(3600.0 + 60.0)  # 2 billed hours, tiered prices
        vm.vm_class = dataclasses.replace(
            vm.vm_class, hourly_price=2.0 * vm.vm_class.hourly_price
        )
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            provider.cost_at(3600.0 + 120.0)  # same 2 hours, higher μ
    exc = exc_info.value
    assert exc.site == "cloud.billing.hour-boundary"
    assert exc.details["boundary_charges"] == 0.0


def test_reserved_upfront_double_count_diverges_from_mirror():
    """A cooked reserved model that charges the commitment's upfront fee
    twice diverges from the checker's params()-driven μ mirror."""
    from repro.cloud.billing import Reserved

    class DoubleUpfrontReserved(Reserved):
        # The mutation: the upfront fee is added on top of the already
        # upfront-inclusive parent cost.  params() still claims a single
        # fee, so the independent recompute disagrees.
        def instance_cost(self, instance, at):
            cost = super().instance_cost(instance, at)
            if cost > 0.0 and not instance.vm_class.spot:
                cost += (
                    self.commit_hours
                    * instance.vm_class.hourly_price
                    * self.discount
                    * self.upfront_fraction
                )
            return cost

    catalog = aws_2013_catalog()
    provider = CloudProvider(
        catalog,
        billing_model=DoubleUpfrontReserved(
            commit_hours=3, discount=0.4, upfront_fraction=0.5
        ),
    )
    provider.provision(catalog[0], now=0.0)
    with invariants.checking():
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            provider.cost_at(1800.0)
    exc = exc_info.value
    assert exc.site == "cloud.billing.mu"
    assert exc.details["model"] == "reserved"


def test_spot_charge_past_revocation_caught():
    """Unclamping a revoked spot instance's stop time bills time the
    cloud itself took away."""
    from repro.cloud import spot_variants

    catalog = aws_2013_catalog()
    spot_class = spot_variants(catalog, 0.7)[0]
    provider = CloudProvider(catalog + [spot_class])
    vm = provider.provision(spot_class, now=0.0)
    with invariants.checking():
        provider.fail(vm, 1800.0, revoked=True)
        provider.cost_at(1900.0)  # clamped at the forced stop: fine
        vm.stopped_at = 7200.0    # the mutation: billing runs past it
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            provider.cost_at(7300.0)
    exc = exc_info.value
    assert exc.site == "cloud.billing.revocation"
    assert exc.details["instance"] == vm.instance_id
    assert exc.details["revoked_at"] == 1800.0


def test_allocation_leaked_onto_failed_vm():
    df = fig1_dataflow()
    env, provider, ex, _ = _deployed(df, {"E1": 4.0})
    with invariants.checking():
        ex.start()
        env.run(until=120.0)
        vm = provider.active_instances()[0]
        provider.fail(vm, 120.0)       # releases its allocations...
        vm._allocations["E1"] = 1      # ...but one leaks back on
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            ex.roll_interval()
    exc = exc_info.value
    assert exc.site == "engine.executor.fleet"
    assert exc.details["instance"] == vm.instance_id


def test_out_of_range_omega_in_snapshot():
    df = fig1_dataflow()
    catalog = aws_2013_catalog()
    plan = InitialDeployment(
        df, catalog, DeploymentConfig(strategy="local", omega_min=0.7)
    ).plan({"E1": 4.0})
    adapter = RuntimeAdaptation(
        df, catalog, AdaptationConfig(strategy="local")
    )
    snapshot = Snapshot(
        time=120.0,
        selection=plan.selection,
        cluster=plan.cluster.clone(),
        input_rates={"E1": 4.0},
        arrival_rates={},
        omega_last=1.5,  # impossible: Ω is a ratio capped at 1
        omega_average=0.9,
        backlogs={},
        cumulative_cost=1.0,
    )
    with invariants.checking():
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            adapter.adapt(snapshot, 1)
    exc = exc_info.value
    assert exc.site == "core.adaptation.omega"
    assert exc.t == 120.0
    assert exc.details["omega_last"] == 1.5


def test_allocation_written_past_planned_vm_core_count():
    """A planned VM whose allocation dict is written directly, bypassing
    ``allocate``, keeps a stale core count: the decision check re-sums
    the dict and flags the difference."""
    df = fig1_dataflow()
    catalog = aws_2013_catalog()
    plan = InitialDeployment(
        df, catalog, DeploymentConfig(strategy="local", omega_min=0.7)
    ).plan({"E1": 4.0})
    adapter = RuntimeAdaptation(
        df, catalog, AdaptationConfig(strategy="local")
    )
    retire = adapter._retire_idle_vms
    poked_vm = []

    def poked(cluster):
        retire(cluster)
        vm = cluster.vms[0]
        # The mutation: one PE's cores leave the dict without release().
        removed = vm.allocations.pop(next(iter(vm.allocations)))
        poked_vm.append((vm.key, vm.used_cores, removed))

    adapter._retire_idle_vms = poked
    snapshot = Snapshot(
        time=120.0,
        selection=plan.selection,
        cluster=plan.cluster.clone(),
        input_rates={"E1": 4.0},
        arrival_rates={},
        omega_last=0.9,
        omega_average=0.9,
        backlogs={},
        cumulative_cost=1.0,
    )
    with invariants.checking():
        with pytest.raises(invariants.InvariantViolation) as exc_info:
            adapter.adapt(snapshot, 1)
    exc = exc_info.value
    key, counted, removed = poked_vm[0]
    assert exc.site == "core.adaptation.plan"
    assert exc.t == 120.0
    assert exc.details == {"vm": key, "used": counted - removed,
                           "counted": counted}
