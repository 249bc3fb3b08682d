"""Tests for the content-addressed result cache (experiments.cache)."""

from __future__ import annotations

import dataclasses
import json
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.experiments import Scenario, sweep
from repro.experiments import cache
from repro.experiments.runner import SweepRow
from repro.experiments.scenarios import run_policy
from repro.util import perf


def quick_scenario(**overrides) -> Scenario:
    base = dict(rate=3.0, seed=5, period=300.0, variability="both")
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture(autouse=True)
def _enabled_cache(monkeypatch):
    """These tests exercise the cache, so force it on regardless of the
    ambient REPRO_CACHE (the per-test directory comes from conftest).
    Perf counters are process-global, so start each test from zero."""
    monkeypatch.setattr(cache, "_enabled", True)
    perf.reset()
    yield
    perf.reset()


class TestBitIdentity:
    def test_warm_row_equals_cold_row(self):
        scenario = quick_scenario()
        with perf.collecting():
            cold = cache.run_cell(scenario, "local")
            warm = cache.run_cell(quick_scenario(), "local")
            counters = perf.snapshot()["counters"]
        assert warm == cold  # dataclass eq → bit-identical floats
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1

    def test_sweep_warm_rerun_identical(self):
        scenarios = [quick_scenario(rate=r) for r in (2.0, 4.0)]
        cold = sweep(scenarios, ["static-local", "local"])
        warm = sweep(scenarios, ["static-local", "local"])
        assert warm == cold
        assert cache.stats()["entries"] == 4


class TestInvalidation:
    def test_config_change_changes_key(self):
        base = cache.cache_key(quick_scenario(), "local")
        assert cache.cache_key(quick_scenario(rate=4.0), "local") != base
        assert cache.cache_key(quick_scenario(period=600.0), "local") != base
        assert cache.cache_key(quick_scenario(), "global") != base

    def test_reliability_knobs_change_key(self):
        # S26: every reliability knob is part of the fingerprint, so
        # cached pre-reliability rows can never be served for runs that
        # checkpoint, use spot capacity, or hedge.
        base = cache.cache_key(quick_scenario(), "local")
        for knob, value in (
            ("checkpoint_interval", 120.0),
            ("restore_latency", 10.0),
            ("spot_mtbf_hours", 0.5),
            ("spot_notice_s", 60.0),
            ("spot_discount", 0.5),
            ("hedge_horizon", 240.0),
        ):
            key = cache.cache_key(quick_scenario(**{knob: value}), "local")
            assert key != base, f"{knob} not in fingerprint"

    def test_pricing_knobs_change_key(self):
        # S28: every pricing knob is part of the fingerprint, so cached
        # on-demand rows can never be served for runs billed under a
        # different model (or the same model with different parameters).
        base = cache.cache_key(quick_scenario(), "local")
        for knob, value in (
            ("billing_model", "per_second"),
            ("billing_model", "reserved"),
            ("billing_model", "sustained_use"),
            ("billing_model", "spot_trace"),
            ("billing_commit_hours", 6),
            ("billing_discount", 0.2),
            ("billing_upfront_fraction", 0.25),
            ("billing_window_hours", 4),
            ("billing_trace_resolution_s", 600.0),
            ("billing_trace_floor", 0.5),
            ("billing_trace_cap", 0.9),
        ):
            key = cache.cache_key(quick_scenario(**{knob: value}), "local")
            assert key != base, f"{knob} not in fingerprint"

    def test_unchanged_pricing_defaults_keep_warm_rows(self):
        """Spelling out the default pricing knobs is the same scenario:
        warm sweeps stay bit-identical."""
        cold = cache.run_cell(quick_scenario(), "local")
        warm = cache.run_cell(
            quick_scenario(
                billing_model="on_demand_hourly",
                billing_commit_hours=3,
                billing_discount=0.4,
            ),
            "local",
        )
        assert warm == cold
        assert cache.stats()["entries"] == 1

    def test_seed_change_changes_key(self):
        assert cache.cache_key(quick_scenario(seed=5), "local") != \
            cache.cache_key(quick_scenario(seed=6), "local")

    def test_code_fingerprint_change_invalidates(self, monkeypatch):
        scenario = quick_scenario()
        key = cache.cache_key(scenario, "local")
        cache.run_cell(scenario, "local")
        assert cache.lookup(key) is not None
        # Simulate an edit to the simulated stack: new code fingerprint.
        monkeypatch.setattr(cache, "_code_fp", "0" * 64)
        new_key = cache.cache_key(scenario, "local")
        assert new_key != key
        assert cache.lookup(new_key) is None  # old row not served

    def test_key_is_stable_within_process(self):
        assert cache.cache_key(quick_scenario(), "local") == \
            cache.cache_key(quick_scenario(), "local")


class TestCorruptionRecovery:
    def _stored_entry(self) -> tuple[str, SweepRow]:
        scenario = quick_scenario()
        key = cache.cache_key(scenario, "local")
        row = cache.run_cell(scenario, "local")
        return key, row

    def test_truncated_entry_is_a_miss_and_deleted(self):
        key, row = self._stored_entry()
        path = cache.cache_dir() / f"{key}.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.lookup(key) is None
        assert not path.exists()
        # The cell simply reruns and repopulates the entry.
        assert cache.run_cell(quick_scenario(), "local") == row
        assert cache.lookup(key) == row

    def test_garbage_entry_is_a_miss_and_deleted(self):
        key, _ = self._stored_entry()
        path = cache.cache_dir() / f"{key}.json"
        path.write_text("not json at all")
        assert cache.lookup(key) is None
        assert not path.exists()

    def test_wrong_schema_is_a_miss(self):
        key, row = self._stored_entry()
        path = cache.cache_dir() / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["schema"] = 999
        path.write_text(json.dumps(entry))
        assert cache.lookup(key) is None

    def test_bad_row_fields_are_a_miss(self):
        key, _ = self._stored_entry()
        path = cache.cache_dir() / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["row"] = {"unexpected": 1}
        path.write_text(json.dumps(entry))
        assert cache.lookup(key) is None


class TestEviction:
    def test_size_cap_evicts_oldest_but_never_newest(self, monkeypatch):
        # A cap of ~1 KiB holds at most one ~600-byte entry.
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.001")
        keys = []
        for rate in (2.0, 3.0, 4.0):
            scenario = quick_scenario(rate=rate)
            keys.append(cache.cache_key(scenario, "static-local"))
            cache.run_cell(scenario, "static-local")
        # The just-written entry always survives eviction.
        assert cache.lookup(keys[-1]) is not None
        assert cache.stats()["entries"] < 3

    def test_generous_cap_keeps_everything(self):
        for rate in (2.0, 3.0, 4.0):
            cache.run_cell(quick_scenario(rate=rate), "static-local")
        assert cache.stats()["entries"] == 3


class TestBypass:
    def test_scenario_subclass_is_never_cached(self):
        class TweakedScenario(Scenario):
            pass

        with perf.collecting():
            cache.run_cell(TweakedScenario(rate=3.0, period=300.0), "local")
            cache.run_cell(TweakedScenario(rate=3.0, period=300.0), "local")
            counters = perf.snapshot()["counters"]
        assert counters.get("cache.hits", 0) == 0
        assert counters.get("cache.misses", 0) == 0
        assert cache.stats()["entries"] == 0

    def test_disabled_cache_writes_nothing(self, monkeypatch):
        monkeypatch.setattr(cache, "_enabled", False)
        row = cache.run_cell(quick_scenario(), "local")
        assert isinstance(row, SweepRow)
        assert cache.stats()["entries"] == 0


class TestMaintenance:
    def test_stats_and_clear(self):
        cache.run_cell(quick_scenario(), "static-local")
        st = cache.stats()
        assert st["entries"] == 1
        assert st["bytes"] > 0
        assert st["enabled"] is True
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_stored_entry_round_trips_every_field(self):
        scenario = quick_scenario()
        key = cache.cache_key(scenario, "local")
        cold = cache.run_cell(scenario, "local")
        entry = json.loads((cache.cache_dir() / f"{key}.json").read_text())
        assert entry["key"] == key
        assert entry["policy"] == "local"
        assert SweepRow(**entry["row"]) == cold
        assert set(entry["row"]) == {
            f.name for f in dataclasses.fields(SweepRow)
        }


def _dummy_row(**overrides) -> SweepRow:
    base = dict(
        policy="static-local",
        rate=1.0,
        rate_kind="wave",
        variability="none",
        seed=1,
        omega=1.0,
        gamma=1.0,
        cost=1.0,
        theta=1.0,
        constraint_met=True,
        vms_peak=1,
        adaptations=0,
    )
    base.update(overrides)
    return SweepRow(**base)


class TestConcurrency:
    """S29: the serve daemon stores and reads from many threads at once."""

    def test_two_writers_racing_one_key(self):
        key = "ab" * 32
        rows = [_dummy_row(cost=1.0), _dummy_row(cost=2.0)]
        barrier = threading.Barrier(2)
        failures: list[BaseException] = []

        def write(row):
            try:
                barrier.wait()
                for _ in range(20):
                    cache.store(key, "static-local", row)
            except BaseException as exc:  # noqa: BLE001 — collected
                failures.append(exc)

        threads = [threading.Thread(target=write, args=(r,)) for r in rows]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        # One complete winner, never a torn entry or a leaked temp file.
        assert cache.lookup(key) in rows
        assert cache.stats()["entries"] == 1
        assert not list(cache.cache_dir().glob("*.tmp"))

    def test_racing_run_cell_same_cell_single_simulation_winner(self):
        scenario = quick_scenario()
        results: list[SweepRow] = []
        failures: list[BaseException] = []
        barrier = threading.Barrier(4)

        def run():
            try:
                barrier.wait()
                results.append(cache.run_cell(quick_scenario(), "static-local"))
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert len(results) == 4
        assert all(r == results[0] for r in results)
        assert cache.lookup(cache.cache_key(scenario, "static-local")) \
            == results[0]

    def test_reader_during_eviction_sees_row_or_clean_miss(self, monkeypatch):
        # A ~1 KiB cap evicts on almost every store; a concurrent reader
        # must only ever observe a complete row or a miss — never a torn
        # entry, never an exception.
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.001")
        key = "cd" * 32
        row = _dummy_row()
        cache.store(key, "static-local", row)
        stop = threading.Event()
        observed: list = []
        failures: list[BaseException] = []

        def read():
            try:
                while not stop.is_set():
                    observed.append(cache.lookup(key))
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for i in range(30):
                cache.store(f"{i:02x}" * 32, "static-local", _dummy_row())
        finally:
            stop.set()
            reader.join()
        assert not failures
        assert observed, "reader never got a turn"
        assert all(r is None or r == row for r in observed)


class TestDeltaServing:
    """S29: billing-only what-ifs answered without re-simulation."""

    def _seed(self, policy="static-local", **overrides):
        scenario = quick_scenario(**overrides)
        row = cache.run_cell(scenario, policy)
        return scenario, row

    def test_inert_knob_serves_base_row_verbatim(self):
        # billing_discount is only read by reserved/sustained_use; under
        # the default on_demand_hourly model the runs are bit-identical.
        self._seed()
        with perf.collecting():
            got = cache.serve_lookup(
                quick_scenario(billing_discount=0.25), "static-local"
            )
            counters = perf.snapshot()["counters"]
        assert got is not None
        row, tier = got
        assert tier == "delta"
        assert counters["cache.delta_hits"] == 1
        cold = SweepRow.from_result(
            quick_scenario(billing_discount=0.25),
            run_policy(quick_scenario(billing_discount=0.25), "static-local"),
        )
        assert row == cold

    @pytest.mark.parametrize("model", ["reserved", "per_second",
                                       "sustained_use"])
    @pytest.mark.parametrize("policy", ["static-local", "static-global"])
    def test_billing_replay_bit_identical_to_cold(self, model, policy):
        self._seed(policy=policy)
        variant = quick_scenario(billing_model=model)
        got = cache.serve_lookup(variant, policy)
        assert got is not None, f"{model}/{policy} missed the delta index"
        row, tier = got
        assert tier == "delta"
        cold = SweepRow.from_result(variant, run_policy(variant, policy))
        assert row == cold  # dataclass eq → bit-identical floats
        assert row.billing_model == model

    def test_spot_trace_knob_replay_bit_identical(self):
        base = quick_scenario(billing_model="spot_trace")
        cache.run_cell(base, "static-local")
        variant = quick_scenario(
            billing_model="spot_trace", billing_trace_floor=0.5
        )
        got = cache.serve_lookup(variant, "static-local")
        assert got is not None
        cold = SweepRow.from_result(
            variant, run_policy(variant, "static-local")
        )
        assert got[0] == cold

    def test_hedge_horizon_inert_without_failure_model(self):
        _, row = self._seed()
        got = cache.serve_lookup(
            quick_scenario(hedge_horizon=240.0), "static-local"
        )
        assert got is not None
        assert got[0] == row  # served verbatim: no failure oracle exists

    def test_adaptive_policy_never_served_from_delta(self):
        self._seed(policy="local")
        # Adaptive policies observe μ, so a billing change may alter the
        # trajectory: the delta path must refuse and force a cold run.
        assert cache.serve_lookup(
            quick_scenario(billing_model="reserved"), "local"
        ) is None

    def test_two_field_difference_never_served(self):
        self._seed()
        assert cache.serve_lookup(
            quick_scenario(billing_model="reserved", billing_discount=0.1),
            "static-local",
        ) is None

    def test_delta_hit_materializes_full_entry(self):
        self._seed()
        variant = quick_scenario(billing_model="per_second")
        row, tier = cache.serve_lookup(variant, "static-local")
        assert tier == "delta"
        # The derived row is now a first-class entry: the next request is
        # a plain disk hit, and the entry can itself serve future deltas.
        key = cache.cache_key(variant, "static-local")
        assert cache.lookup(key) == row
        row2, tier2 = cache.serve_lookup(variant, "static-local")
        assert tier2 == "disk"
        assert row2 == row


class TestFingerprintOncePerProcess:
    def test_edit_on_disk_keeps_the_process_fingerprint(
        self, tmp_path, monkeypatch
    ):
        """A process keeps running the code it imported, so an edit to a
        fingerprinted file must not re-key it: a re-keyed daemon would
        store old-code rows under the new code's key, and a fresh
        process would serve them as warm hits."""
        pkg = tmp_path / "repro"
        files = [
            pkg / sub / "module.py" for sub in cache._FINGERPRINTED_PACKAGES
        ] + [pkg / rel for rel in cache._FINGERPRINTED_MODULES]
        for path in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("VALUE = 1\n")
        # Point the fingerprint at the temporary tree and hash it afresh.
        monkeypatch.setattr(
            cache, "__file__", str(pkg / "experiments" / "cache.py")
        )
        monkeypatch.setattr(cache, "_code_fp", None)
        first = cache.code_fingerprint()
        files[0].write_text("VALUE = 2  # edited while running\n")
        assert cache.code_fingerprint() == first


class TestManifest:
    def test_deleted_manifest_is_rebuilt_with_delta_index(self):
        for rate in (2.0, 3.0):
            cache.run_cell(quick_scenario(rate=rate), "static-local")
        manifest_path = cache.cache_dir() / "manifest.json"
        manifest_path.unlink()
        with perf.collecting():
            st_ = cache.stats()
            counters = perf.snapshot()["counters"]
        assert counters["cache.manifest_rebuilds"] == 1
        assert st_["entries"] == 2
        # Masked keys are recovered from the entries themselves, so
        # delta serving survives the rebuild.
        assert st_["delta_keys"] == 2 * len(cache.DELTA_FIELDS)
        got = cache.serve_lookup(
            quick_scenario(rate=2.0, billing_model="reserved"),
            "static-local",
        )
        assert got is not None and got[1] == "delta"

    def test_corrupt_manifest_is_rebuilt(self):
        cache.run_cell(quick_scenario(), "static-local")
        manifest_path = cache.cache_dir() / "manifest.json"
        manifest_path.write_text("{ not json")
        assert cache.stats()["entries"] == 1
        # The rebuilt manifest is persisted by the next store.
        cache.run_cell(quick_scenario(rate=4.0), "static-local")
        rebuilt = json.loads(manifest_path.read_text())
        assert len(rebuilt["entries"]) == 2

    def test_eviction_prunes_delta_index(self, monkeypatch):
        cache.run_cell(quick_scenario(rate=2.0), "static-local")
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.001")
        cache.run_cell(quick_scenario(rate=3.0), "static-local")
        st_ = cache.stats()
        assert st_["entries"] == 1
        # Only the surviving entry's masked keys remain.
        assert st_["delta_keys"] == len(cache.DELTA_FIELDS)


class TestServeTier:
    @pytest.fixture(autouse=True)
    def _lru(self):
        cache.enable_serve_tier(8)
        yield
        cache.disable_serve_tier()

    def test_tiers_in_order_lru_last(self):
        scenario = quick_scenario()
        assert cache.serve_lookup(scenario, "static-local") is None
        cold = cache.run_cell(scenario, "static-local")  # miss → fills LRU
        row, tier = cache.serve_lookup(quick_scenario(), "static-local")
        assert tier == "lru" and row == cold
        cache._serve_lru.clear()
        row, tier = cache.serve_lookup(quick_scenario(), "static-local")
        assert tier == "disk" and row == cold
        # The disk hit refilled the LRU.
        row, tier = cache.serve_lookup(quick_scenario(), "static-local")
        assert tier == "lru"

    def test_lru_capacity_bounded(self):
        cache.enable_serve_tier(2)
        for rate in (2.0, 3.0, 4.0):
            cache.run_cell(quick_scenario(rate=rate), "static-local")
        assert len(cache._serve_lru) == 2
        assert cache.stats()["lru_entries"] == 2

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(
        rate=st.sampled_from([2.0, 2.5, 3.0, 4.0]),
        seed=st.integers(min_value=0, max_value=3),
        policy=st.sampled_from(["static-local", "static-global"]),
    )
    def test_lru_disk_cold_bit_identity(self, rate, seed, policy):
        """Property: every serving tier returns the cold row bit-for-bit."""
        scenario = quick_scenario(rate=rate, seed=seed)
        try:
            cache.enable_serve_tier(8)
            ref = SweepRow.from_result(scenario, run_policy(scenario, policy))
            mine = cache.run_cell(quick_scenario(rate=rate, seed=seed), policy)
            assert mine == ref  # cold path through the cache
            lru_row, lru_tier = cache.serve_lookup(
                quick_scenario(rate=rate, seed=seed), policy
            )
            assert lru_tier == "lru" and lru_row == ref
            cache._serve_lru.clear()
            disk_row, disk_tier = cache.serve_lookup(
                quick_scenario(rate=rate, seed=seed), policy
            )
            assert disk_tier == "disk" and disk_row == ref
        finally:
            cache.disable_serve_tier()
