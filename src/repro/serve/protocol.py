"""Wire protocol for the serve daemon: JSON in, JSON out.

A run request is a flat JSON object::

    {"scenario": {"rate": 3.0, "seed": 5, ...},   # Scenario kwargs
     "policies": ["static-local", "local"]}        # or "policy": "..."

Scenario fields are whitelisted against the dataclass — structural
members that cannot travel as JSON (the dataflow and the VM catalog) are
rejected rather than silently defaulted wrong, and unknown keys are an
error so a typo can never select the default scenario.  Responses carry,
per policy, the :class:`~repro.experiments.runner.SweepRow` as a dict,
the serving ``tier`` (``lru`` / ``disk`` / ``delta`` / ``cold``), and
the cell's content hash ``key`` — the isolation handle the load test
checks for cross-request leaks.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.policies import POLICY_NAMES
from ..experiments.runner import SweepRow
from ..experiments.scenarios import Scenario

__all__ = [
    "ProtocolError",
    "SCENARIO_FIELDS",
    "parse_run_request",
    "row_payload",
]


class ProtocolError(ValueError):
    """A malformed request; maps to a 400 with the message as detail."""


#: Scenario members a request may set: every dataclass field except the
#: structural ones that cannot be expressed as flat JSON.
_STRUCTURAL = ("dataflow", "catalog")
SCENARIO_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(Scenario)
    if f.name not in _STRUCTURAL
)


def parse_run_request(obj: Any) -> tuple[Scenario, list[str]]:
    """Validate and materialize one run request.

    Returns ``(scenario, policies)``; raises :class:`ProtocolError` on
    any defect (non-object body, unknown scenario field, structural
    field, unknown policy, invalid field values).
    """
    if not isinstance(obj, dict):
        raise ProtocolError("request body must be a JSON object")
    raw = obj.get("scenario", {})
    if not isinstance(raw, dict):
        raise ProtocolError("'scenario' must be an object of Scenario fields")
    unknown = sorted(set(raw) - set(SCENARIO_FIELDS))
    if unknown:
        structural = [f for f in unknown if f in _STRUCTURAL]
        if structural:
            raise ProtocolError(
                f"structural fields cannot be submitted: {structural}"
            )
        raise ProtocolError(f"unknown scenario fields: {unknown}")

    policies = obj.get("policies")
    if policies is None:
        single = obj.get("policy", "static-local")
        policies = [single]
    if not isinstance(policies, list) or not policies:
        raise ProtocolError("'policies' must be a non-empty list")
    if not all(isinstance(p, str) for p in policies):
        raise ProtocolError("'policies' entries must be policy names")
    bad = sorted(set(policies) - set(POLICY_NAMES))
    if bad:
        raise ProtocolError(
            f"unknown policies: {bad}; valid: {list(POLICY_NAMES)}"
        )

    try:
        scenario = Scenario(**raw)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid scenario: {exc}") from exc
    return scenario, [str(p) for p in policies]


#: SweepRow's fields in declaration order: the wire form's keys.
_ROW_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))


def row_payload(row: SweepRow) -> dict:
    """A SweepRow as its JSON wire form (floats via repr).

    Equal to ``dataclasses.asdict(row)``, keys in the same order, since
    every field is a scalar; built directly, it skips asdict's recursive
    copy on the warm path.
    """
    return {name: getattr(row, name) for name in _ROW_FIELDS}
