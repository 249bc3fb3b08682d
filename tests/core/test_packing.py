"""The planners' first-fit packing kernel.

``BruteForceDeployment._first_fit`` scores every candidate configuration
of the brute force and of annealing on plain per-VM lists; ``_try_pack``
builds a cluster from its result.  The reference below is the
object-based packer the kernel replaced, kept verbatim: on every input
it packs without raising, the kernel must agree with it VM by VM.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.cloud.resources import VMClass, aws_2013_catalog
from repro.core.anneal import AnnealConfig, AnnealingDeployment
from repro.core.bruteforce import BruteForceConfig, BruteForceDeployment
from repro.core.state import ClusterView, VMView
from repro.experiments.scenarios import fig1_dataflow

_EPS = 1e-9


def reference_pack(
    catalog: list[VMClass], counts: list[int], demands: Mapping[str, float]
) -> Optional[ClusterView]:
    """First-fit-decreasing pack into VM views (the kernel's oracle)."""
    cluster = ClusterView()
    views: list[VMView] = []
    for count, klass in zip(counts, catalog):
        for _ in range(count):
            views.append(cluster.new_vm(klass))
    if not views:
        return None
    views.sort(key=lambda vm: vm.vm_class.core_speed, reverse=True)

    for name, demand in sorted(
        demands.items(), key=lambda kv: kv[1], reverse=True
    ):
        remaining = demand
        placed_any = False
        for vm in views:
            if remaining <= _EPS and placed_any:
                break
            if vm.free_cores == 0:
                continue
            speed = vm.vm_class.core_speed
            need = math.ceil(max(remaining, _EPS) / speed - 1e-9)
            cores = min(need, vm.free_cores)
            vm.allocate(name, cores)
            remaining -= cores * speed
            placed_any = True
        if remaining > _EPS or not placed_any:
            return None
    return cluster


def layout(cluster: Optional[ClusterView]):
    """Per VM in cluster order: class and allocations in insertion order."""
    if cluster is None:
        return None
    return [
        (vm.vm_class.name, list(vm.allocations.items())) for vm in cluster.vms
    ]


#: Equal speeds (several classes at 2.0) and fractional ones.
SPEEDS = (0.5, 0.75, 1.0, 1.5, 2.0, 2.0, 3.25)


@st.composite
def packing_problems(draw):
    n_classes = draw(st.integers(1, 4))
    catalog = [
        VMClass(
            name=f"c{i}",
            cores=draw(st.integers(1, 4)),
            core_speed=draw(st.sampled_from(SPEEDS)),
            hourly_price=0.1,
        )
        for i in range(n_classes)
    ]
    # All-zero counts are drawn too: both packers return None.
    counts = draw(st.lists(st.integers(0, 3), min_size=n_classes,
                           max_size=n_classes))
    demand = st.one_of(
        st.floats(0.01, 12.0),
        # Exact multiples of a core, where ``need`` sits on an integer.
        st.builds(lambda k, s: k * s, st.integers(1, 6),
                  st.sampled_from(SPEEDS)),
    )
    n_pes = draw(st.integers(1, 5))
    demands = {f"P{j}": draw(demand) for j in range(n_pes)}
    return catalog, counts, demands


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(packing_problems())
    def test_same_feasibility_and_allocations(self, problem):
        catalog, counts, demands = problem
        bf = BruteForceDeployment(fig1_dataflow(), catalog)
        try:
            expected = reference_pack(bf.catalog, counts, demands)
        except ValueError:
            # The reference crashes where ``need`` rounds to 0 cores;
            # TestAtLeastOneCore pins the kernel's answer there.
            assume(False)
        assert layout(bf._try_pack(counts, demands)) == layout(expected)

    def test_aws_catalog_speed_ties(self):
        """Three aws classes share speed 2.0: they are visited in catalog
        order, and the cluster lists VMs in catalog order."""
        bf = BruteForceDeployment(fig1_dataflow(), aws_2013_catalog())
        demands = {"A": 3.0, "B": 2.0, "C": 5.0}
        for counts in ([0, 1, 1, 1], [2, 1, 1, 1], [1, 2, 0, 1], [0, 0, 0, 0]):
            expected = reference_pack(bf.catalog, counts, demands)
            assert layout(bf._try_pack(counts, demands)) == layout(expected)
        assert layout(bf._try_pack([0, 1, 1, 1], demands)) == [
            ("m1.medium", [("C", 1)]),
            ("m1.large", [("C", 2)]),
            ("m1.xlarge", [("A", 2), ("B", 1)]),
        ]


class TestAtLeastOneCore:
    """A positive demand or residue at most about ``core_speed × 1e-9``
    used to round ``need`` to 0 cores and raise in ``VMView.allocate``."""

    def test_float_residue_takes_one_more_core(self):
        bf = BruteForceDeployment(fig1_dataflow(), aws_2013_catalog())
        cluster = bf._try_pack([0, 2, 0, 0], {"E1": 2.0 + 1.5e-9})
        assert layout(cluster) == [
            ("m1.medium", [("E1", 1)]),
            ("m1.medium", [("E1", 1)]),
        ]

    def test_zero_rate_brute_force_gives_every_pe_a_core(self):
        df = fig1_dataflow()
        plan = BruteForceDeployment(df, aws_2013_catalog()).plan({"E1": 0.0})
        for name in df.pe_names:
            assert plan.cluster.pe_cores(name) >= 1

    def test_zero_rate_anneal_gives_every_pe_a_core(self):
        df = fig1_dataflow()
        ann = AnnealingDeployment(
            df, aws_2013_catalog(), AnnealConfig(max_evals=200)
        )
        plan = ann.plan({"E1": 0.0})
        for name in df.pe_names:
            assert plan.cluster.pe_cores(name) >= 1
        assert math.isfinite(ann.best_theta)


def _smalls(*pes: tuple[str, int]) -> list:
    """m1.small VMs, one core each: ``(PE, how many VMs)``."""
    return [("m1.small", [(pe, 1)]) for pe, n in pes for _ in range(n)]


class TestBruteForceGolden:
    """Plans and search counts recorded before the kernel existed."""

    @pytest.mark.parametrize(
        "rate, config, examined, expected, price",
        [
            (
                5.0,
                BruteForceConfig(),
                11558,
                _smalls(("E3", 1), ("E2", 7), ("E4", 5), ("E1", 2))
                + [("m1.medium", [("E3", 1)]), ("m1.xlarge", [("E3", 4)])],
                1.5000000000000004,
            ),
            (
                3.0,
                BruteForceConfig(sigma=0.05, period_hours=1.0),
                3099,
                _smalls(("E3", 1), ("E2", 5), ("E4", 3), ("E1", 2))
                + [("m1.medium", [("E3", 1)]), ("m1.large", [("E3", 2)])],
                1.02,
            ),
        ],
    )
    def test_fig1(self, rate, config, examined, expected, price):
        bf = BruteForceDeployment(fig1_dataflow(), aws_2013_catalog(), config)
        plan = bf.plan({"E1": rate})
        assert dict(sorted(plan.selection.items())) == {
            "E1": "e1",
            "E2": "e2.1",
            "E3": "e3.1",
            "E4": "e4",
        }
        assert layout(plan.cluster) == expected
        assert plan.cluster.total_hourly_price() == price
        assert bf.examined_configurations == examined
