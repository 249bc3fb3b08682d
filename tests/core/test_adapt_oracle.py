"""The runtime heuristics' incremental plan state against the old code.

``VMView`` keeps ``used_cores`` as a counter, ``_scale_out`` builds the
capacities once and re-sums only the bottleneck PE's units after each
added core, and ``_free_core`` takes ``min(...)`` where ``sorted(...)[0]``
was.  The reference below is the object-based code they replaced, kept
verbatim apart from reading core counts through :func:`ref_used_cores`:
core counts re-summed from the allocation dicts, every PE's capacity
(and an Ω nothing reads) rebuilt per added core, and ``pe_units`` over
every VM.  On every input both must return the same plan: the same
selection and the same VMs in the same order, with the same class and
allocations, dict order included.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.cloud.resources import VMClass, aws_2013_catalog, spot_variants
from repro.core.adaptation import (
    AdaptationConfig,
    HedgedAdaptation,
    RuntimeAdaptation,
)
from repro.core.state import ClusterView, Snapshot, VMView
from repro.dataflow.metrics import (
    constrained_rates,
    relative_application_throughput,
)
from repro.experiments.scenarios import fig1_dataflow, scaled_dataflow

_EPS = 1e-9


# -- the reference: the object-based planning code -----------------------------


def ref_used_cores(vm: VMView) -> int:
    """``VMView.used_cores`` as it was: a re-sum of the allocation dict."""
    return sum(vm.allocations.values())


def ref_pe_units(cluster: ClusterView, pe_name: str) -> float:
    """``ClusterView.pe_units`` as it was: a ``sum()`` over every VM."""
    return sum(vm.units_for(pe_name) for vm in cluster.vms)


def ref_with_free_cores(cluster: ClusterView) -> list[VMView]:
    return [
        vm for vm in cluster.vms if vm.vm_class.cores - ref_used_cores(vm) > 0
    ]


class ReferenceAdaptation(RuntimeAdaptation):
    """Algorithm 2 with the object-based scale-out, scale-in and retirement."""

    def _scale_out(
        self,
        snapshot: Snapshot,
        cluster: ClusterView,
        selection: Mapping[str, str],
        input_rates: Mapping[str, float],
    ) -> None:
        cfg = self.config
        df = self.dataflow
        target = min(1.0, cfg.omega_min + cfg.epsilon / 2)

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

        while True:
            caps = cluster.capacities(df, selection)
            flow = constrained_rates(df, selection, input_rates, caps)
            omega = relative_application_throughput(df, flow)

            bottleneck = None
            worst = 1.0 - 1e-6
            for name, required in required_by_pe:
                ratio = caps.get(name, 0.0) / required
                if ratio < worst:
                    bottleneck = name
                    worst = ratio
            if bottleneck is None:
                if omega >= target - _EPS:
                    break
                break
            if sum(ref_used_cores(vm) for vm in cluster.vms) >= cfg.max_cores:
                break
            self._add_core(cluster, bottleneck, snapshot, selection)

    def _add_core(
        self,
        cluster: ClusterView,
        pe_name: str,
        snapshot: Snapshot,
        selection: Mapping[str, str],
    ) -> None:
        neighbours = set(self.dataflow.successors(pe_name)) | set(
            self.dataflow.predecessors(pe_name)
        )
        free = sorted(
            ref_with_free_cores(cluster),
            key=lambda vm: (
                pe_name not in vm.allocations,
                not any(n in vm.allocations for n in neighbours),
                -vm.core_units(),
            ),
        )
        if free:
            free[0].allocate(pe_name, 1)
            return
        cluster.new_vm(
            self._provision_class(cluster, pe_name, snapshot, selection)
        ).allocate(pe_name, 1)

    def _provision_class(
        self,
        cluster: ClusterView,
        pe_name: str,
        snapshot: Snapshot,
        selection: Mapping[str, str],
    ) -> VMClass:
        if self.config.strategy == "local":
            return self.catalog[-1]
        cost = self.dataflow.active_alternate(selection, pe_name).cost
        demand_units = self._demand_rate(snapshot, pe_name) * cost
        deficit = max(demand_units - ref_pe_units(cluster, pe_name), 0.0)
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
        cfg = self.config
        df = self.dataflow
        floor = cfg.omega_min + cfg.epsilon
        while True:
            released = False
            for vm in sorted(cluster.vms, key=ref_used_cores):
                if ref_used_cores(vm) == 0:
                    continue
                pe_name = max(
                    vm.allocations, key=lambda p: vm.allocations[p]
                )
                if cluster.pe_cores(pe_name) <= 1:
                    continue
                vm.release(pe_name, 1)
                caps = cluster.capacities(df, selection)
                flow = constrained_rates(df, selection, input_rates, caps)
                omega = relative_application_throughput(df, flow)
                if omega >= floor - _EPS:
                    released = True
                    break
                vm.allocate(pe_name, 1)
            if not released:
                break

    def _retire_idle_vms(self, cluster: ClusterView) -> None:
        cfg = self.config
        for vm in [v for v in cluster.vms if ref_used_cores(v) == 0]:
            if vm.is_new:
                cluster.remove(vm.key)
            elif cfg.strategy == "local":
                cluster.remove(vm.key)
            elif vm.paid_seconds_remaining <= cfg.interval * 1.5:
                cluster.remove(vm.key)


class ReferenceHedged(ReferenceAdaptation, HedgedAdaptation):
    """The hedging pre-pass as it was, over the reference stages."""

    def adapt(self, snapshot: Snapshot, interval_index: int):
        doomed = {
            key: t
            for key, t in snapshot.doomed.items()
            if key in snapshot.cluster
        }
        if not doomed:
            return RuntimeAdaptation.adapt(self, snapshot, interval_index)

        cluster = snapshot.cluster.clone()
        displaced: list[tuple[str, VMClass]] = []
        for key in sorted(doomed):
            vm = cluster.remove(key)
            for pe_name, cores in sorted(vm.allocations.items()):
                displaced.extend([(pe_name, vm.vm_class)] * cores)

        for pe_name, klass in displaced:
            neighbours = set(self.dataflow.successors(pe_name)) | set(
                self.dataflow.predecessors(pe_name)
            )
            free = sorted(
                ref_with_free_cores(cluster),
                key=lambda vm: (
                    pe_name not in vm.allocations,
                    not any(n in vm.allocations for n in neighbours),
                    -vm.core_units(),
                ),
            )
            if free:
                free[0].allocate(pe_name, 1)
            else:
                cluster.new_vm(self._durable_twin(klass)).allocate(pe_name, 1)

        hedged = replace(snapshot, cluster=cluster, doomed={})
        return RuntimeAdaptation.adapt(self, hedged, interval_index)


# -- inputs ---------------------------------------------------------------------

CATALOG = aws_2013_catalog()
CATALOG_WITH_SPOT = CATALOG + spot_variants(CATALOG, 0.7)
DATAFLOWS = {"fig1": fig1_dataflow(), "diamonds": scaled_dataflow(2, 2)}
#: Monitored coefficients: rated, round decimals, and arbitrary floats,
#: whose unit sums round differently in another summation order.
COEFFICIENTS = st.one_of(
    st.sampled_from((1.0, 0.3, 0.7, 1.1, 1.3)), st.floats(0.25, 1.5)
)


@st.composite
def adapt_problems(draw):
    """``(dataflow, catalog, config, hedged, snapshot, interval index)``:
    live and planned VMs, monitored coefficients, backlogs, either
    strategy, doomed VMs for the hedged policy, and a ``max_cores`` that
    often binds."""
    df = DATAFLOWS[draw(st.sampled_from(sorted(DATAFLOWS)))]
    hedged = draw(st.booleans())
    catalog = CATALOG_WITH_SPOT if hedged else CATALOG
    selection = {
        p.name: draw(st.sampled_from([a.name for a in p.alternates]))
        for p in df.pes
    }

    def vm(i: int, klass: VMClass, allocations: dict[str, int], live: bool):
        return VMView(
            vm_class=klass,
            instance_id=f"vm-{i}" if live else None,
            coefficient=draw(COEFFICIENTS) if live else 1.0,
            allocations=allocations,
            paid_seconds_remaining=(
                draw(st.sampled_from((30.0, 600.0, 3000.0))) if live else 0.0
            ),
        )

    cluster = ClusterView()
    for i in range(draw(st.integers(0, 7))):
        klass = draw(st.sampled_from(catalog))
        free = klass.cores
        allocations: dict[str, int] = {}
        for pe in draw(st.permutations(df.pe_names)):
            if free and draw(st.booleans()):
                cores = draw(st.integers(1, free))
                allocations[pe] = cores
                free -= cores
        cluster.add(vm(i, klass, allocations, draw(st.booleans())))
    if draw(st.booleans()):
        # A multi-core VM per PE, so that light load can scale in.
        big = [klass for klass in catalog if klass.cores > 1]
        for pe in df.pe_names:
            klass = draw(st.sampled_from(big))
            cluster.add(vm(len(cluster), klass, {pe: klass.cores}, True))

    rate = draw(st.one_of(st.floats(0.2, 3.0), st.floats(0.5, 24.0)))
    arrivals = {
        pe: draw(st.floats(0.0, 2.0 * rate)) for pe in df.pe_names
    }
    backlogs = {
        pe: draw(st.sampled_from((0.0, 0.0, 150.0, 4000.0)))
        for pe in df.pe_names
    }
    live_keys = [vm.key for vm in cluster.vms if not vm.is_new]
    doomed = (
        {key: 900.0 for key in draw(st.lists(st.sampled_from(live_keys),
                                             unique=True, max_size=2))}
        if hedged and live_keys
        else {}
    )
    snapshot = Snapshot(
        time=600.0,
        selection=selection,
        cluster=cluster,
        input_rates={pe: rate for pe in df.inputs},
        arrival_rates=arrivals,
        omega_last=draw(st.floats(0.0, 1.0)),
        omega_average=draw(st.one_of(st.floats(0.0, 1.0), st.just(0.9))),
        backlogs=backlogs,
        cumulative_cost=1.0,
        doomed=doomed,
    )
    used = sum(vm.used_cores for vm in cluster.vms)
    # Binding, or (+400) above anything the correct loop plans here.
    max_cores = used + draw(st.one_of(st.integers(0, 12), st.just(400)))
    config = AdaptationConfig(
        strategy=draw(st.sampled_from(("local", "global"))),
        max_cores=max_cores,
    )
    return df, catalog, config, hedged, snapshot, draw(st.integers(1, 4))


def spread_problem():
    """E3 short of cores on three live VMs whose units (0.6, 0.6, 2.2 at
    the start) add up differently left to right than under Python ≥
    3.12's compensated ``sum()``."""
    df = DATAFLOWS["fig1"]
    large, xlarge = CATALOG[2], CATALOG[3]
    cluster = ClusterView(
        [VMView(vm_class=xlarge, instance_id="vm-0",
                allocations={"E1": 1, "E2": 2, "E4": 1})]
        + [
            VMView(vm_class=large, instance_id=f"vm-{i}", coefficient=c,
                   allocations={"E3": 1})
            for i, c in enumerate((0.3, 0.3, 1.1), start=1)
        ]
    )
    snapshot = Snapshot(
        time=600.0,
        selection={"E1": "e1", "E2": "e2.1", "E3": "e3.1", "E4": "e4"},
        cluster=cluster,
        input_rates={"E1": 3.0},
        arrival_rates={pe: 3.0 for pe in df.pe_names},
        omega_last=0.5,
        omega_average=0.5,
        backlogs={},
        cumulative_cost=1.0,
    )
    return df, CATALOG, AdaptationConfig(), False, snapshot, 1


def layout(plan, snapshot: Snapshot):
    """Selection and per-VM (identity, class, coefficient, allocations) in
    cluster order; VMs the plan created are named by position only."""
    return (
        list(plan.selection.items()),
        [
            (
                vm.key if vm.key in snapshot.cluster else "new",
                vm.vm_class.name,
                vm.coefficient,
                list(vm.allocations.items()),
            )
            for vm in plan.cluster.vms
        ],
    )


class TestAdaptMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(adapt_problems())
    @example(spread_problem())
    def test_same_plan(self, problem):
        df, catalog, config, hedged, snapshot, interval = problem
        fast_cls, ref_cls = (
            (HedgedAdaptation, ReferenceHedged)
            if hedged
            else (RuntimeAdaptation, ReferenceAdaptation)
        )
        before = layout(snapshot, snapshot)
        plan = fast_cls(df, catalog, config).adapt(snapshot, interval)
        expected = ref_cls(df, catalog, config).adapt(snapshot, interval)
        assert layout(plan, snapshot) == layout(expected, snapshot)
        assert layout(snapshot, snapshot) == before  # the snapshot is intact
        for vm in plan.cluster.vms:
            assert vm.used_cores == sum(vm.allocations.values())

    @settings(max_examples=250, deadline=None)
    @given(adapt_problems())
    @example(spread_problem())
    def test_scale_out_capacities_stay_exact(self, problem):
        """The capacities ``_scale_out`` updates one PE at a time end equal,
        bit for bit, to rebuilding every PE's from the planned fleet."""
        df, catalog, config, _, snapshot, interval = problem
        adapter = RuntimeAdaptation(df, catalog, config)
        kept: list[dict[str, float]] = []
        scale_out = adapter._scale_out

        def spied(snap, cluster, selection, input_rates):
            build = cluster.capacities

            def capacities(*args):
                kept.append(build(*args))
                return kept[-1]

            cluster.capacities = capacities
            try:
                scale_out(snap, cluster, selection, input_rates)
            finally:
                del cluster.capacities

        adapter._scale_out = spied
        plan = adapter.adapt(snapshot, interval)
        for caps in kept:
            assert caps == plan.cluster.capacities(df, plan.selection)


# -- the core counter -------------------------------------------------------------

PES = ("A", "B", "C")
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.sampled_from(PES),
                  st.integers(0, 5)),
        st.tuples(st.just("release"), st.sampled_from(PES),
                  st.one_of(st.none(), st.integers(0, 5))),
        st.tuples(st.just("clone"), st.just(""), st.just(0)),
    ),
    max_size=30,
)


class TestCoreCounter:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(CATALOG),
        st.dictionaries(st.sampled_from(PES), st.integers(1, 2), max_size=2),
        OPS,
    )
    def test_counter_equals_allocations(self, klass, initial, ops):
        initial = {p: c for p, c in initial.items() if c <= klass.cores}
        while sum(initial.values()) > klass.cores:
            initial.popitem()
        vm = VMView(vm_class=klass, allocations=dict(initial))
        assert vm.used_cores == sum(vm.allocations.values())
        for op, pe, n in ops:
            if op == "allocate":
                try:
                    vm.allocate(pe, n)
                except ValueError:
                    pass  # zero cores or too few free: nothing changes
            elif op == "release":
                vm.release(pe, n)
            else:
                vm = vm.clone()
            assert vm.used_cores == sum(vm.allocations.values())
            assert 0 <= vm.free_cores <= klass.cores
