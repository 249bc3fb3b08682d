"""One-pass link pricing against the per-edge refresh it replaced.

``FluidExecutor._refresh_network`` prices every edge of a fleet at once:
each edge's destination shares are summed under a padding mask, one
``bandwidth_matrix`` call covers the VMs some edge prices, and one masked
left-to-right sum adds each source's terms.  The reference below is the
per-edge refresh it replaced, verbatim apart from building its plan on
every call instead of caching it in ``_net_plan`` (which now holds the
one-pass plan).  After a refresh both must leave the same
``_remote_budget`` bytes.

The suite's rows cannot see these bits on its workloads, where no link
budget binds, so this file is the oracle: random fleets under both
performance models, sampled and wide edges (where ``ndarray.sum()``
groups its terms pairwise), colocated pairs, a destination PE whose
shares sum to 0, and the padded columns of a batch pack.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cloud import CloudProvider, ConstantPerformance, aws_2013_catalog
from repro.cloud.resources import VMClass
from repro.cloud.traces import TraceLibrary, TraceReplayPerformance
from repro.engine import FluidExecutor
from repro.engine.batch import BatchRunner
from repro.engine.executor import _seqsum
from repro.experiments import Scenario, fig1_dataflow
from repro.experiments.scenarios import scaled_dataflow
from repro.sim import Environment
from repro.workloads import ConstantRate


def reference_refresh(self, t: float, shares: np.ndarray) -> None:
    """The per-edge ``_refresh_network``, its plan built afresh."""
    # In place (not a fresh array): the batch executor aliases this
    # buffer into its stacked state, and the values are identical.
    self._remote_budget.fill(np.inf)
    per_msg_mbit = self.message_size_mb * 8.0
    performance = self.provider.performance
    matrix_fn = getattr(performance, "bandwidth_matrix", None)
    # Everything except the measured bandwidth and the routing shares
    # is a pure function of the placement: cache the per-edge index
    # sets, trace-key tuples and rated-NIC caps until the next fleet
    # rebuild (``sync`` clears the plan).
    net_plan = None
    if net_plan is None:
        net_plan = []
        for u, w in self._edges:
            iu, iw = self._pe_index[u], self._pe_index[w]
            src_idx = np.flatnonzero(self._alloc[iu] > 0)
            dst_idx = np.flatnonzero(self._alloc[iw] > 0)
            if src_idx.size == 0 or dst_idx.size == 0:
                net_plan.append(None)
                continue
            n_pairs = src_idx.size * dst_idx.size
            if n_pairs > self.network_pair_cap:
                # Subsample destinations deterministically (evenly
                # spaced).
                keep = max(1, self.network_pair_cap // src_idx.size)
                step = max(1, dst_idx.size // keep)
                dst_sample = dst_idx[::step]
            else:
                dst_sample = dst_idx
            net_plan.append((
                iw,
                src_idx,
                dst_sample,
                tuple(self._vms[si].trace_key for si in src_idx),
                tuple(self._vms[dj].trace_key for dj in dst_sample),
                np.minimum.outer(
                    self._rated_bw[src_idx], self._rated_bw[dst_sample]
                ),
                src_idx[:, np.newaxis] == dst_sample[np.newaxis, :],
            ))
    for k, plan in enumerate(net_plan):
        if plan is None:
            continue
        iw, src_idx, dst_sample, src_keys, dst_keys, rated, same = plan
        budget = self._remote_budget[k]
        dst_share = shares[iw][dst_sample]
        share_sum = dst_share.sum()
        if matrix_fn is not None:
            # One batched model call for the whole edge: measured
            # pairwise bandwidth, capped at the slower endpoint's
            # rated NIC, weighted by the destination routing shares.
            measured = matrix_fn(src_keys, dst_keys, t)
            bw = np.minimum(measured, rated)
            weights = (
                dst_share / share_sum
                if share_sum > 0
                else np.ones_like(dst_share)
            )
            contrib = (bw / per_msg_mbit) * weights[np.newaxis, :]
            excluded = np.isinf(bw) | same
            # Sequential sum with excluded terms as exact +0.0 matches
            # the scalar fallback's accumulation order bit for bit.
            contrib[excluded] = 0.0
            total = _seqsum(contrib)
            budget[src_idx] = np.where(total > 0, total, np.inf)
            continue
        for si in src_idx:
            src_key = self._vms[si].trace_key
            src_rated = self._rated_bw[si]
            total_rate = 0.0
            for kk, dj in enumerate(dst_sample):
                if dj == si:
                    continue
                bw = min(
                    performance.bandwidth_mbps(
                        src_key, self._vms[dj].trace_key, t
                    ),
                    src_rated,
                    self._rated_bw[dj],
                )
                if bw == np.inf:
                    continue  # colocated: in-memory transfer
                total_rate += (bw / per_msg_mbit) * (
                    dst_share[kk] / share_sum if share_sum > 0 else 1.0
                )
            budget[si] = total_rate if total_rate > 0 else np.inf


def assert_same_budgets(ex: FluidExecutor, t: float, shares,
                        refresh=FluidExecutor._refresh_network) -> None:
    """``ex``'s refresh leaves the reference's budget bytes."""
    twin = copy.copy(ex)
    twin._remote_budget = np.array(ex._remote_budget)
    reference_refresh(twin, t, shares)
    refresh(ex, t, shares)
    assert ex._remote_budget.tobytes() == twin._remote_budget.tobytes()


class _PerPair:
    """A performance model without ``bandwidth_matrix``: the refresh
    asks it for each VM pair."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        if name == "bandwidth_matrix":
            raise AttributeError(name)
        return getattr(self._inner, name)


#: The paper's catalog plus classes with slower and faster NICs, so the
#: rated cap binds on some pairs.
CATALOG = aws_2013_catalog() + [
    VMClass(name="n.slow", cores=2, core_speed=1.5, bandwidth_mbps=40.0),
    VMClass(name="n.fast", cores=4, core_speed=2.5, bandwidth_mbps=250.0),
]
DATAFLOWS = (fig1_dataflow(), scaled_dataflow(2, 2), scaled_dataflow(4, 3))


def _performance(kind: str):
    """``constant``, or trace replay: with the network replayed
    (``trace``), rated (``trace-rated``), or asked pair by pair
    (``per-pair``)."""
    if kind == "constant":
        return ConstantPerformance(bandwidth_mbps=90.0)
    replay = TraceReplayPerformance(TraceLibrary(seed=5, n_network_series=4),
                                    network_enabled=kind != "trace-rated")
    return _PerPair(replay) if kind == "per-pair" else replay


def _executor(df, performance, fleet) -> FluidExecutor:
    """``df`` on VMs ``fleet``: (class name, {PE: cores}) each."""
    provider = CloudProvider(CATALOG, performance=performance)
    for name, alloc in fleet:
        vm = provider.provision(name, now=0.0)
        for pe, cores in alloc.items():
            vm.allocate(pe, cores)
    ex = FluidExecutor(
        Environment(), df, provider,
        {n: ConstantRate(3.0) for n in df.inputs},
        selection=df.default_selection(),
    )
    ex.sync(0.0)
    return ex


def _random_fleet(rng, df):
    """One to thirty VMs of random classes, each hosting one to three
    PEs."""
    fleet = []
    for _ in range(int(rng.integers(1, 31))):
        klass = CATALOG[int(rng.integers(len(CATALOG)))]
        m = int(rng.integers(1, min(3, klass.cores) + 1))
        pes = [str(p) for p in rng.permutation(df.pe_names)[:m]]
        alloc = dict.fromkeys(pes, 1)
        alloc[pes[0]] += int(rng.integers(0, klass.cores - m + 1))
        fleet.append((klass.name, alloc))
    return fleet


def _random_shares(rng, ex) -> np.ndarray:
    """Routing shares of random magnitude, some PE rows all zero."""
    P, V = ex._alloc.shape
    shares = rng.random((P, V)) * (ex._alloc > 0)
    shares[rng.random(P) < 0.15] = 0.0
    return shares


@pytest.mark.parametrize("kind", ["constant", "trace", "trace-rated",
                                  "per-pair"])
def test_random_fleets_match_the_per_edge_refresh(kind):
    rng = np.random.default_rng(11)
    for n in range(24):
        df = DATAFLOWS[n % len(DATAFLOWS)]
        ex = _executor(df, _performance(kind), _random_fleet(rng, df))
        for t in rng.uniform(0.0, 2 * 86400.0, size=3).tolist():
            # The second and third refresh reuse the cached plan.
            assert_same_budgets(ex, t, _random_shares(rng, ex))
        sp = ex._speed_phase()
        sp.update(600.0, 1.0)
        assert_same_budgets(ex, 600.0, sp.shares)


@pytest.mark.parametrize("kind", ["constant", "trace", "per-pair"])
def test_sampled_and_wide_edges(kind):
    """E1 on 10 one-core VMs and E2 on 60: 600 pairs, so E1→E2 prices a
    sample of 30 destinations; E3's 12 hosts make E1→E3 price more than
    eight destinations unsampled, where ``ndarray.sum()`` groups its
    terms pairwise, not left to right."""
    df = fig1_dataflow()
    fleet = ([("m1.small", {"E1": 1})] * 10 + [("m1.small", {"E2": 1})] * 60
             + [("m1.medium", {"E3": 1})] * 12 + [("m1.large", {"E4": 2})])
    ex = _executor(df, _performance(kind), fleet)
    rng = np.random.default_rng(3)
    for t in (0.0, 4321.0, 86399.0):
        assert_same_budgets(ex, t, _random_shares(rng, ex))
    sizes = [d.size for *_, d in ex._net_plan.edges]
    assert 30 in sizes and 12 in sizes


def test_one_source_to_many_destinations():
    """One source, 9 to 40 destinations of unequal shares."""
    rng = np.random.default_rng(8)
    df = fig1_dataflow()
    for n_dst in (9, 17, 40):
        fleet = ([("m1.small", {"E1": 1})]
                 + [("m1.small", {"E2": 1})] * n_dst
                 + [("m1.small", {"E3": 1}), ("m1.small", {"E4": 1})])
        for kind in ("constant", "trace"):
            ex = _executor(df, _performance(kind), fleet)
            for t in rng.uniform(0.0, 86400.0, size=4).tolist():
                assert_same_budgets(ex, t, _random_shares(rng, ex) + 1e-3)


@pytest.mark.parametrize("kind", ["constant", "trace", "per-pair"])
def test_colocated_pairs_and_a_zero_share_destination(kind):
    """VMs hosting both ends of an edge skip their link to themselves;
    a destination PE whose shares sum to 0 weighs its links equally."""
    df = fig1_dataflow()
    fleet = [("m1.xlarge", {"E1": 1, "E2": 1, "E3": 1, "E4": 1}),
             ("m1.xlarge", {"E1": 2, "E2": 2}),
             ("n.slow", {"E2": 1, "E4": 1}),
             ("n.fast", {"E3": 2, "E4": 2})]
    ex = _executor(df, _performance(kind), fleet)
    rng = np.random.default_rng(4)
    shares = _random_shares(rng, ex)
    shares[ex._pe_index["E4"]] = 0.0
    shares[ex._pe_index["E2"]] = 0.0
    for t in (0.0, 777.0):
        assert_same_budgets(ex, t, shares)
    assert np.isfinite(ex._remote_budget).any()


def test_columns_of_a_padded_batch_pack(monkeypatch):
    """Each column of a batch refreshes through its executor, on views
    of the pack padded to the widest fleet: the budgets it writes into
    the pack equal the reference's on the same padded shares."""
    refresh = FluidExecutor._refresh_network
    padded = []

    def checked(self, t, shares):
        assert_same_budgets(self, t, shares, refresh)
        padded.append(shares.shape[-1] > self._alloc.shape[1])

    monkeypatch.setattr(FluidExecutor, "_refresh_network", checked)
    scenarios = [
        Scenario(rate=r, rate_kind="wave", variability="both", period=600.0,
                 interval=60.0, seed=7)
        for r in (3.0, 9.0)
    ]
    runner = BatchRunner([s.manager(p) for s in scenarios
                          for p in ("global", "local")])
    runner.run()
    assert any(padded) and len(padded) > 8
