"""Wire-protocol validation (serve.protocol)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.policies import POLICY_NAMES
from repro.experiments import Scenario
from repro.serve import ProtocolError, parse_run_request
from repro.serve.protocol import SCENARIO_FIELDS, row_payload


class TestParseRunRequest:
    def test_minimal_request_defaults(self):
        scenario, policies = parse_run_request({"scenario": {"rate": 3.0}})
        assert isinstance(scenario, Scenario)
        assert scenario.rate == 3.0
        assert policies == ["static-local"]

    def test_missing_rate_is_a_protocol_error(self):
        # Scenario has no default rate; the constructor failure must
        # surface as a 400, not a 500.
        with pytest.raises(ProtocolError, match="invalid scenario"):
            parse_run_request({})

    def test_scenario_fields_applied(self):
        scenario, _ = parse_run_request(
            {"scenario": {"rate": 4.5, "seed": 9, "variability": "both"}}
        )
        assert scenario.rate == 4.5
        assert scenario.seed == 9
        assert scenario.variability == "both"

    def test_single_policy_spelling(self):
        _, policies = parse_run_request(
            {"scenario": {"rate": 3.0}, "policy": "local"}
        )
        assert policies == ["local"]

    def test_policies_list_order_preserved(self):
        _, policies = parse_run_request(
            {
                "scenario": {"rate": 3.0},
                "policies": ["local", "static-global", "static-local"],
            }
        )
        assert policies == ["local", "static-global", "static-local"]

    def test_every_known_policy_accepted(self):
        _, policies = parse_run_request(
            {"scenario": {"rate": 3.0}, "policies": list(POLICY_NAMES)}
        )
        assert policies == list(POLICY_NAMES)

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_run_request([1, 2])

    def test_unknown_scenario_field_rejected(self):
        # A typo must never silently select the default scenario.
        with pytest.raises(ProtocolError, match="unknown scenario fields"):
            parse_run_request({"scenario": {"ratee": 3.0}})

    def test_structural_fields_rejected(self):
        with pytest.raises(ProtocolError, match="structural"):
            parse_run_request({"scenario": {"dataflow": None}})
        with pytest.raises(ProtocolError, match="structural"):
            parse_run_request({"scenario": {"catalog": []}})

    def test_unknown_policy_rejected(self):
        with pytest.raises(ProtocolError, match="unknown policies"):
            parse_run_request({"policies": ["nope"]})

    def test_empty_policies_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_run_request({"policies": []})

    @pytest.mark.parametrize("body", [
        {"policies": [{}]},
        {"policies": [["local"]]},
        {"policy": {}},
        {"policies": [1, "bogus"]},
    ])
    def test_non_string_policy_rejected(self, body):
        with pytest.raises(ProtocolError, match="policy names"):
            parse_run_request({"scenario": {"rate": 3.0}, **body})

    def test_invalid_scenario_value_rejected(self):
        with pytest.raises(ProtocolError, match="invalid scenario"):
            parse_run_request({"scenario": {"rate_kind": "warble"}})

    def test_scenario_fields_exclude_structural(self):
        assert "dataflow" not in SCENARIO_FIELDS
        assert "catalog" not in SCENARIO_FIELDS
        assert "rate" in SCENARIO_FIELDS
        assert "billing_model" in SCENARIO_FIELDS


class TestRowPayload:
    def test_round_trips_through_json_types(self):
        from repro.experiments.runner import SweepRow

        row = SweepRow(
            policy="static-local",
            rate=3.0,
            rate_kind="wave",
            variability="both",
            seed=5,
            omega=0.93,
            gamma=0.88,
            cost=1.152,
            theta=0.7,
            constraint_met=True,
            vms_peak=3,
            adaptations=0,
            mean_recovery_s=None,
        )
        payload = row_payload(row)
        assert SweepRow(**payload) == row
        # The flat payload is asdict's, key order included.
        assert list(payload.items()) == list(dataclasses.asdict(row).items())
