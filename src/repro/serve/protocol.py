"""Wire protocol for the serve daemon: JSON over lean HTTP/1.1.

Both ends share one HTTP/1.1 codec: :func:`read_head` reads a message
head (a start line and its header lines, within the stdlib's bounds)
and :func:`write_head` formats one, so neither end runs
:mod:`http.client` or the :mod:`email` header parser on a request.

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
from typing import Any, BinaryIO, Iterable, Optional

from ..core.policies import POLICY_NAMES
from ..experiments.runner import SweepRow
from ..experiments.scenarios import Scenario

__all__ = [
    "HeadTooLarge",
    "ProtocolError",
    "SCENARIO_FIELDS",
    "parse_run_request",
    "read_head",
    "row_payload",
    "write_head",
]

#: The stdlib's bounds on a message head (``http.client``'s): bytes per
#: line, line end included, and lines after the start line, the blank
#: line that ends the head included.
MAX_LINE = 65536
MAX_HEADERS = 100


class ProtocolError(ValueError):
    """A malformed message: a request (answered 400 with the message as
    detail) or a response (raised by the client)."""


class HeadTooLarge(ProtocolError):
    """A message head past the bounds; ``status`` answers it: 414 for a
    long start line, 431 for a long header line or too many of them."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def read_head(
    rfile: BinaryIO, start: Optional[bytes] = None
) -> tuple[str, dict[str, str]]:
    """Read one message head from the buffered stream ``rfile``.

    Reads the start line, unless the caller already read it as
    ``start``, and the header lines up to the blank line that ends the
    head (or the end of the stream).  Returns the start line without its
    line end, ``""`` when the stream ended before it, and the headers as
    lower-cased names to values; of a repeated name the first counts, as
    with the stdlib's ``headers.get``.  Raises :class:`HeadTooLarge`
    past :data:`MAX_LINE` or :data:`MAX_HEADERS`.
    """
    if start is None:
        start = rfile.readline(MAX_LINE + 1)
        if len(start) > MAX_LINE:
            raise HeadTooLarge(414, "start line too long")
        if not start:
            return "", {}
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadTooLarge(431, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            return str(start, "latin-1").rstrip("\r\n"), headers
        name, colon, value = str(line, "latin-1").partition(":")
        if colon:
            headers.setdefault(name.strip().lower(), value.strip())
    raise HeadTooLarge(431, f"more than {MAX_HEADERS} header lines")


def write_head(start: str, headers: Iterable[tuple[str, object]]) -> bytes:
    """A message head as bytes: ``start``, one ``name: value`` line per
    header and the blank line."""
    lines = [start, *(f"{name}: {value}" for name, value in headers), "\r\n"]
    return "\r\n".join(lines).encode("latin-1")


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
