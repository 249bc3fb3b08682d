"""Infrastructure performance-variability abstraction (paper §4).

Virtualized clouds exhibit performance variability over *time* (the same
VM fluctuates due to multi-tenancy) and *space* (two instances of the same
class differ due to placement and hardware diversity).  The execution
engine and the monitoring framework consume that behaviour exclusively
through the :class:`PerformanceModel` interface:

* ``cpu_coefficient(trace_key, t)`` — multiplicative factor applied to a
  VM's *rated* core speed at time ``t`` (1.0 = exactly as rated),
* ``latency_s(a, b, t)`` — one-way network latency between two VMs,
* ``bandwidth_mbps(a, b, t)`` — available bandwidth between two VMs.

Implementations: :class:`ConstantPerformance` (the idealized cloud every
static scheduler assumes) and
:class:`~repro.cloud.traces.TraceReplayPerformance` (replays measured or
synthetic trace series).
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np

__all__ = ["PerformanceModel", "ConstantPerformance"]


@runtime_checkable
class PerformanceModel(Protocol):
    """Time-varying performance of VMs and their interconnect."""

    def cpu_coefficient(self, trace_key: str, t: float) -> float:
        """Multiplier on the rated core speed of VM ``trace_key`` at ``t``."""
        ...

    def latency_s(self, key_a: str, key_b: str, t: float) -> float:
        """One-way latency in seconds between two VMs at time ``t``."""
        ...

    def bandwidth_mbps(self, key_a: str, key_b: str, t: float) -> float:
        """Available bandwidth in Mbit/s between two VMs at time ``t``."""
        ...


class ConstantPerformance:
    """The idealized, variability-free cloud.

    Every VM performs exactly as rated forever; the network between any
    two distinct VMs has a fixed latency and bandwidth.  This is the model
    the paper's *static* strategies implicitly assume, and the deployment
    default ("during the deployment stage, we assume that the network
    bandwidth between two VMs is equal to the rated values").

    Parameters
    ----------
    cpu:
        CPU coefficient returned for every VM (default exactly rated).
    latency_s:
        Pairwise latency in seconds (default 0.5 ms).
    bandwidth_mbps:
        Pairwise bandwidth (default the paper's assumed 100 Mbps average).
    """

    def __init__(
        self,
        cpu: float = 1.0,
        latency_s: float = 0.0005,
        bandwidth_mbps: float = 100.0,
    ) -> None:
        if cpu <= 0:
            raise ValueError("cpu coefficient must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        self._cpu = float(cpu)
        self._latency = float(latency_s)
        self._bandwidth = float(bandwidth_mbps)
        self._cpu_series = np.array([self._cpu])
        #: Colocation mask per (keys_a, keys_b), ``None`` when no pair
        #: is colocated (see bandwidth_matrix).
        self._colocated: dict[tuple[tuple, tuple], Optional[np.ndarray]] = {}

    def cpu_coefficient(self, trace_key: str, t: float) -> float:
        return self._cpu

    def cpu_series_view(
        self, trace_key: str
    ) -> Optional[tuple[np.ndarray, int, float]]:
        """Vectorization hook (see ``TraceReplayPerformance``): a constant
        coefficient is a one-sample series, letting the execution engine
        gather the whole fleet's coefficients in one indexing operation."""
        return self._cpu_series, 0, 1.0

    def bandwidth_matrix(
        self, keys_a: list, keys_b: list, t: float
    ) -> np.ndarray:
        """Vectorization hook: pairwise bandwidth as one ``(A, B)`` array.

        The execution engine uses this to price a whole edge's VM-pair
        links per network refresh instead of one model call per pair.
        Identical keys (colocation) report infinite bandwidth, matching
        :meth:`bandwidth_mbps`; the colocation mask is memoized per key
        tuple, as ``TraceReplayPerformance`` memoizes its pair table.
        """
        table_key = (tuple(keys_a), tuple(keys_b))
        try:
            eq = self._colocated[table_key]
        except KeyError:
            eq = np.equal.outer(
                np.asarray(keys_a, dtype=object),
                np.asarray(keys_b, dtype=object),
            )
            eq = self._colocated[table_key] = eq if eq.any() else None
        mat = np.full((len(keys_a), len(keys_b)), self._bandwidth)
        if eq is not None:
            mat[eq] = float("inf")
        return mat

    def latency_s(self, key_a: str, key_b: str, t: float) -> float:
        return 0.0 if key_a == key_b else self._latency

    def bandwidth_mbps(self, key_a: str, key_b: str, t: float) -> float:
        return float("inf") if key_a == key_b else self._bandwidth
