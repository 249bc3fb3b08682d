"""Load test for the serve daemon → ``BENCH_serve.json``.

Boots an in-process :class:`repro.serve.ServeDaemon` against a fresh
temporary cache directory and drives it over real HTTP with concurrent
clients through four phases:

1. **cold** — seed the scenario pool through the worker pool; measures
   ``cold_rps`` (simulation-bound, sets the baseline the warm tier is
   beating).
2. **warm** — re-request the seeded pool; every answer must come from
   the serving tier (LRU/disk).  Measures ``warm_rps``, the warm-path
   ``warm_p50_ms`` / ``warm_p95_ms`` (the server's own ``elapsed_ms``:
   parse → tier lookup → serialize, the latency the serving engine
   controls), and client-side ``warm_p50_wall_ms`` (adds the transport
   over each client thread's kept-alive connection and the benchmark
   harness's own thread contention).
3. **delta** — request single-field billing variants of the seeded
   scenarios; answers must come from the delta index *without
   re-simulation*.  Measures ``delta_hit_ratio``.
4. **mixed** — concurrent clients issue a warm-dominated warm/cold mix;
   measures ``mixed_rps`` (the ≥200 req/s acceptance gate).

Every response is checked for cross-request leaks: the content hash a
scenario is served under must be stable across repeats, distinct per
scenario, and the row must echo the submitted scenario's fields
(rate, seed, policy, billing model).  Any 5xx fails the run.

``--smoke`` runs a scaled-down pass with the same assertions and skips
the BENCH append — the CI service job uses it as the liveness +
isolation gate.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke] [--clients N]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import ServeClient, ServeDaemon, ServerBusy  # noqa: E402

import bench_common  # noqa: E402

SEED = 7
POLICY = "static-local"

#: Billing variants answered through the delta index: each differs from
#: a seeded base scenario in exactly one non-structural field.
DELTA_VARIANTS = (
    {"billing_discount": 0.25},            # inert under on_demand_hourly
    {"billing_model": "reserved"},         # ledger replay
    {"billing_model": "per_second"},       # ledger replay
    {"billing_model": "sustained_use"},    # ledger replay
)


def _pool(n: int) -> list[dict]:
    return [
        {
            "rate": 2.0 + 0.5 * i,
            "rate_kind": "wave",
            "variability": "both",
            "seed": SEED,
            "period": 300.0,
        }
        for i in range(n)
    ]


class LeakChecker:
    """Asserts responses never bleed between scenarios or requests."""

    def __init__(self) -> None:
        self._keys: dict[str, str] = {}
        self._lock = threading.Lock()
        self.checked = 0

    def check(self, scenario: dict, response: dict) -> None:
        for result in response["results"]:
            row = result["row"]
            assert row["rate"] == scenario["rate"], (
                f"row echoes rate {row['rate']} for submitted "
                f"{scenario['rate']}: cross-request leak"
            )
            assert row["seed"] == scenario["seed"]
            assert row["policy"] == result["policy"]
            expected_model = scenario.get("billing_model", "on_demand_hourly")
            assert row["billing_model"] == expected_model
            ident = f"{sorted(scenario.items())}|{result['policy']}"
            with self._lock:
                seen = self._keys.setdefault(ident, result["key"])
                self.checked += 1
            assert seen == result["key"], (
                f"content hash changed across repeats for {ident}: "
                "fingerprint leak"
            )
        with self._lock:
            n_keys = len(set(self._keys.values()))
            n_cells = len(self._keys)
        assert n_keys == n_cells, "distinct cells share a content hash"


def _drive(
    client: ServeClient,
    scenarios: list[dict],
    checker: LeakChecker,
    latencies: list[tuple[float, float]],
    errors: list[str],
    tiers: list[str],
) -> None:
    for scenario in scenarios:
        t0 = time.perf_counter()
        try:
            resp = client.run(scenario, [POLICY], retries=8)
        except ServerBusy:
            errors.append("429-exhausted")
            continue
        except Exception as exc:  # noqa: BLE001 — tally, keep driving
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        wall_ms = (time.perf_counter() - t0) * 1e3
        latencies.append((wall_ms, resp["elapsed_ms"]))
        checker.check(scenario, resp)
        tiers.extend(r["tier"] for r in resp["results"])


def _phase(
    client_url: str,
    scenarios: list[dict],
    checker: LeakChecker,
    clients: int,
) -> tuple[float, list[tuple[float, float]], list[str], list[str]]:
    """Run one phase with ``clients`` concurrent drivers; returns
    (wall_s, [(wall_ms, server_ms), ...], tiers, errors)."""
    latencies: list[tuple[float, float]] = []
    errors: list[str] = []
    tiers: list[str] = []
    shards = [scenarios[i::clients] for i in range(clients)]
    threads = [
        threading.Thread(
            target=_drive,
            args=(
                ServeClient(client_url),
                shard,
                checker,
                latencies,
                errors,
                tiers,
            ),
        )
        for shard in shards
        if shard
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, latencies, tiers, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="scaled-down CI pass: same assertions, no BENCH append",
    )
    parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent client threads for warm/mixed phases (default 8)",
    )
    parser.add_argument(
        "--warm-repeats", type=int, default=None,
        help="warm-phase repetitions of the pool (default 40; smoke 5)",
    )
    args = parser.parse_args(argv)

    n_pool = 4 if args.smoke else 8
    warm_repeats = (
        args.warm_repeats
        if args.warm_repeats is not None
        else (5 if args.smoke else 40)
    )
    mixed_repeats = 3 if args.smoke else 25

    pool_scenarios = _pool(n_pool)
    checker = LeakChecker()
    metrics: dict[str, float] = {}

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        os.environ.pop("REPRO_CACHE", None)
        from repro.experiments import cache as result_cache

        result_cache.enable()
        daemon = ServeDaemon(workers=2, queue_depth=64).start()
        client = ServeClient(daemon.url)
        try:
            assert client.health()["ok"]

            # -- phase 1: cold ------------------------------------------------
            wall, lat, tiers, errors = _phase(
                daemon.url, pool_scenarios, checker, clients=2
            )
            assert not errors, f"cold phase errors: {errors[:3]}"
            metrics["cold_rps"] = len(lat) / wall
            print(
                f"cold : {len(lat)} req in {wall:.2f}s "
                f"({metrics['cold_rps']:.1f} req/s)"
            )

            # -- phase 2: warm ------------------------------------------------
            warm_set = pool_scenarios * warm_repeats
            wall, lat, tiers, errors = _phase(
                daemon.url, warm_set, checker, clients=args.clients
            )
            assert not errors, f"warm phase errors: {errors[:3]}"
            assert all(t in ("lru", "disk") for t in tiers), (
                f"warm phase left the serving tier: {set(tiers)}"
            )
            server_ms = [s for _, s in lat]
            metrics["warm_rps"] = len(lat) / wall
            metrics["warm_p50_ms"] = statistics.median(server_ms)
            metrics["warm_p95_ms"] = statistics.quantiles(server_ms, n=20)[-1]
            metrics["warm_p50_wall_ms"] = statistics.median(
                [w for w, _ in lat]
            )
            print(
                f"warm : {len(lat)} req in {wall:.2f}s "
                f"({metrics['warm_rps']:.0f} req/s, "
                f"p50 {metrics['warm_p50_ms']:.2f} ms, "
                f"p95 {metrics['warm_p95_ms']:.2f} ms, "
                f"wall p50 {metrics['warm_p50_wall_ms']:.2f} ms)"
            )

            # -- phase 3: delta -----------------------------------------------
            delta_set = [
                dict(base, **variant)
                for base in pool_scenarios
                for variant in DELTA_VARIANTS
            ]
            wall, lat, tiers, errors = _phase(
                daemon.url, delta_set, checker, clients=args.clients
            )
            assert not errors, f"delta phase errors: {errors[:3]}"
            hits = sum(1 for t in tiers if t in ("delta", "lru", "disk"))
            metrics["delta_hit_ratio"] = hits / len(tiers) if tiers else 0.0
            assert metrics["delta_hit_ratio"] == 1.0, (
                f"delta requests re-simulated: {set(tiers)}"
            )
            print(
                f"delta: {len(lat)} req in {wall:.2f}s "
                f"(hit ratio {metrics['delta_hit_ratio']:.2f}, "
                f"tiers {sorted(set(tiers))})"
            )

            # -- phase 4: mixed warm/cold -------------------------------------
            fresh = [
                dict(s, seed=SEED + 1) for s in pool_scenarios[: n_pool // 2]
            ]
            mixed = (pool_scenarios + delta_set) * mixed_repeats + fresh
            wall, lat, tiers, errors = _phase(
                daemon.url, mixed, checker, clients=args.clients
            )
            assert not errors, f"mixed phase errors: {errors[:3]}"
            metrics["mixed_rps"] = len(lat) / wall
            print(
                f"mixed: {len(lat)} req in {wall:.2f}s "
                f"({metrics['mixed_rps']:.0f} req/s, "
                f"{tiers.count('cold')} cold)"
            )

            stats = client.stats()
            assert stats["requests"].get("errors", 0) == 0, (
                f"server-side 5xx: {stats['requests']}"
            )
            print(
                f"leak checker: {checker.checked} responses verified, "
                f"{len(checker._keys)} distinct cells, 0 leaks"
            )
        finally:
            daemon.stop()
            os.environ.pop("REPRO_CACHE_DIR", None)

    if args.smoke:
        print("smoke pass OK (no BENCH append)")
        return 0

    assert metrics["warm_p50_ms"] < 5.0, (
        f"warm p50 {metrics['warm_p50_ms']:.2f} ms ≥ 5 ms gate"
    )
    assert metrics["mixed_rps"] >= 200.0, (
        f"mixed throughput {metrics['mixed_rps']:.0f} req/s < 200 req/s gate"
    )

    path = bench_common.bench_path("serve")
    bench_common.append_entry(
        path,
        "serve",
        metrics,
        meta={
            "host_cpus": os.cpu_count(),
            "seed": SEED,
            "policy": POLICY,
            "pool": n_pool,
            "clients": args.clients,
            "responses_checked": checker.checked,
        },
    )
    print(f"appended -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
