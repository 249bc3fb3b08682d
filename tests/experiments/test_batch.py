"""Batched sweep execution (engine.batch behind runner.run_cells, S25).

The batch engine's contract is *bit-identity*: every row it produces
must equal the serial engine's row exactly (dataclass equality compares
floats bitwise).  These tests pin that contract across variability
modes, policies, heterogeneous topologies and cache interleavings, and
pin the sweep routing: the width rule (a clock group of two or more
cells batches, a lone cell runs serially), the shared cache gate,
reliability cells on the serial engine, and validation on the batch.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.batch import BatchRunner
from repro.experiments import Scenario, runner, sweep
from repro.experiments import cache
from repro.experiments.runner import SweepRow, run_cells
from repro.experiments.scenarios import run_policy, scaled_dataflow
from repro.util import perf
from repro.validate import invariants

FIG8_POLICIES = ["global", "global-nodyn", "local", "local-nodyn"]


def quick_scenario(**overrides) -> Scenario:
    base = dict(rate=3.0, seed=5, period=300.0, variability="both")
    base.update(overrides)
    return Scenario(**base)


def serial_rows(scenarios, policies) -> list[SweepRow]:
    return [
        SweepRow.from_result(s, run_policy(s, p))
        for s in scenarios
        for p in policies
    ]


def batch_rows(scenarios, policies) -> list[SweepRow]:
    cells = [(s, p) for s in scenarios for p in policies]
    managers = [s.manager(p) for s, p in cells]
    results = BatchRunner(
        managers, rate_keys=[id(s) for s, _p in cells]
    ).run()
    return [
        SweepRow.from_result(s, r) for (s, _p), r in zip(cells, results)
    ]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "variability", ["none", "data", "infra", "both"]
    )
    def test_all_variability_modes_all_policies(self, variability):
        """Batch rows equal serial rows bitwise, per variability mode,
        across the four fig8 policies."""
        scenarios = [
            quick_scenario(rate=r, variability=variability)
            for r in (2.0, 5.0)
        ]
        assert batch_rows(scenarios, FIG8_POLICIES) == serial_rows(
            scenarios, FIG8_POLICIES
        )

    def test_heterogeneous_topologies_in_one_batch(self):
        """Cells with different dataflow shapes (fig1 + a scaled diamond
        chain) stack into one batch without cross-talk."""
        scenarios = [
            quick_scenario(rate=3.0),
            quick_scenario(
                rate=2.0, dataflow=scaled_dataflow(stages=2, alternates=2)
            ),
        ]
        policies = ["local", "static-local"]
        assert batch_rows(scenarios, policies) == serial_rows(
            scenarios, policies
        )

    def test_single_cell_batch(self):
        scenarios = [quick_scenario()]
        assert batch_rows(scenarios, ["global"]) == serial_rows(
            scenarios, ["global"]
        )

    @settings(max_examples=6, deadline=None)
    @given(
        rate=st.floats(min_value=1.0, max_value=12.0),
        seed=st.integers(min_value=0, max_value=2**16),
        kind=st.sampled_from(["constant", "wave", "walk"]),
    )
    def test_property_random_cells_identical(self, rate, seed, kind):
        """Any (rate, seed, profile) cell batches bit-identically."""
        scenario = Scenario(
            rate=rate, rate_kind=kind, variability="both", seed=seed,
            period=300.0,
        )
        assert batch_rows([scenario], ["local"]) == serial_rows(
            [scenario], ["local"]
        )


class TestBatchRunnerContract:
    def test_rejects_mixed_clock_grids(self):
        managers = [
            quick_scenario(period=300.0).manager("local"),
            quick_scenario(period=600.0).manager("local"),
        ]
        with pytest.raises(ValueError, match="interval"):
            BatchRunner(managers)

    def test_rejects_failure_cells(self):
        manager = quick_scenario(mtbf_hours=0.05).manager("local")
        with pytest.raises(ValueError, match="failure"):
            BatchRunner([manager])

    def test_rejects_spot_and_checkpoint_cells(self):
        """Scenario.manager carries revocations and checkpointing, which
        the batch cannot run: it must refuse them, not drop them."""
        for overrides in (
            {"spot_mtbf_hours": 0.5},
            {"checkpoint_interval": 60.0},
        ):
            manager = quick_scenario(**overrides).manager("local")
            with pytest.raises(ValueError, match="serially"):
                BatchRunner([manager])

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchRunner([])


class TestSweepRouting:
    @pytest.fixture(autouse=True)
    def _cache_on(self, monkeypatch):
        # Validated cells bypass the cache by design; the warm-path
        # assertions below scope an ambient REPRO_VALIDATE=1 off.
        monkeypatch.setattr(cache, "_enabled", True)
        monkeypatch.setattr(invariants, "_enabled", False)
        perf.reset()
        yield
        perf.reset()

    def test_runner_sweep_routes_through_batch(self):
        scenarios = [quick_scenario(rate=r) for r in (2.0, 4.0)]
        with perf.collecting():
            rows = sweep(scenarios, ["local", "static-local"])
            counters = perf.snapshot()["counters"]
        assert counters.get("batch.cells") == 4
        assert rows == serial_rows(scenarios, ["local", "static-local"])

    def test_one_cell_group_never_builds_a_batch(self, monkeypatch):
        """Width rule: a lone cell per clock runs on the serial engine,
        and a two-cell group runs in one batch."""
        built = []

        class CountingRunner(BatchRunner):
            def __init__(self, managers, **kwargs):
                built.append(len(managers))
                super().__init__(managers, **kwargs)

        monkeypatch.setattr(runner, "BatchRunner", CountingRunner)
        lone = quick_scenario(rate=2.0, period=600.0)
        pair = quick_scenario(rate=2.0)
        with perf.collecting():
            rows = run_cells(
                [(lone, "local"), (pair, "local"), (pair, "static-local")]
            )
            counters = perf.snapshot()["counters"]
        assert built == [2]
        assert counters.get("batch.cells") == 2
        assert rows == serial_rows([lone], ["local"]) + serial_rows(
            [pair], ["local", "static-local"]
        )

    def test_mid_sweep_cache_hits_are_served_not_recomputed(self):
        """Pre-cached cells are hits; the batch computes only misses,
        and the assembled rows still match the fully serial grid."""
        scenarios = [quick_scenario(rate=r) for r in (2.0, 4.0, 6.0)]
        # Warm exactly one scenario's cell (a lone cell: serial engine).
        warmed = sweep([scenarios[1]], ["local"])
        with perf.collecting():
            rows = sweep(scenarios, ["local"])
            counters = perf.snapshot()["counters"]
        assert counters.get("cache.hits") == 1
        assert counters.get("batch.cells") == 2
        assert rows[1] == warmed[0]
        assert rows == serial_rows(scenarios, ["local"])

    def test_batch_rows_are_stored_as_cache_entries(self):
        scenario = quick_scenario(rate=2.0)
        policies = ["local", "static-local"]
        with perf.collecting():
            sweep([scenario], policies)
            assert perf.snapshot()["counters"].get("batch.cells") == 2
        key = cache.cache_key(scenario, "local")
        assert cache.lookup(key) is not None
        # A later one-cell run (serial engine) hits on the batch entry.
        with perf.collecting():
            again = run_cells([(scenario, "local")])
            counters = perf.snapshot()["counters"]
        assert counters.get("cache.hits") == 1
        assert again == [cache.lookup(key)]

    def test_delta_variants_answered_without_simulation(self):
        """Billing variants of a cached static-local base come from the
        delta index, not the batch, and equal their cold rows."""
        run_cells([(quick_scenario(), "static-local")])
        variants = [
            quick_scenario(billing_model=model)
            for model in ("reserved", "per_second")
        ]
        with perf.collecting():
            rows = sweep(variants, ["static-local"])
            counters = perf.snapshot()["counters"]
        assert counters.get("cache.delta_hits") == 2
        assert counters.get("batch.cells", 0) == 0
        assert rows == serial_rows(variants, ["static-local"])

    def test_failure_cells_fall_back_to_serial(self):
        scenario = quick_scenario(rate=2.0, mtbf_hours=0.05)
        policies = ["local", "static-local"]
        with perf.collecting():
            rows = sweep([scenario], policies)
            counters = perf.snapshot()["counters"]
        assert counters.get("batch.cells", 0) == 0
        assert rows == serial_rows([scenario], policies)

    def test_validated_grid_runs_the_batch_stores_nothing(self):
        """Under the invariant checker the grid still takes the batch
        (its hooks run on every column), stores nothing — a cached row
        would skip the checks — and equals the unchecked rows."""
        scenarios = [quick_scenario(rate=2.0)]
        policies = ["local", "static-local"]
        with invariants.checking(), perf.collecting():
            rows = sweep(scenarios, policies)
            counters = perf.snapshot()["counters"]
        assert counters.get("batch.cells") == 2
        assert cache.stats()["entries"] == 0
        assert rows == serial_rows(scenarios, policies)

    def test_mixed_clock_grid_forms_separate_batches(self):
        scenarios = [
            quick_scenario(rate=2.0, period=300.0),
            quick_scenario(rate=2.0, period=600.0),
        ]
        policies = ["local", "static-local"]
        with perf.collecting():
            rows = sweep(scenarios, policies)
            counters = perf.snapshot()["counters"]
        assert counters.get("batch.groups") == 2
        assert rows == serial_rows(scenarios, policies)


class TestRunResultParity:
    def test_full_result_fields_match_serial(self):
        """Beyond SweepRow: the timeline, peak and adaptation counters
        of the batch RunResult match the serial run exactly."""
        scenario = quick_scenario(rate=4.0)
        serial = run_policy(scenario, "global")
        batched = BatchRunner([scenario.manager("global")]).run()[0]
        assert batched.outcome == serial.outcome
        assert batched.vms_peak == serial.vms_peak
        assert batched.adaptations == serial.adaptations
        assert batched.final_selection == serial.final_selection
        assert len(batched.timeline) == len(serial.timeline)
        for a, b in zip(batched.timeline, serial.timeline):
            assert a == b
        assert math.isfinite(batched.outcome.theta)
