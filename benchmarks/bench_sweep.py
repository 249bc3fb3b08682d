"""Bench driver: sweep-grid throughput → ``BENCH_sweep.json``.

Times the fig8-style (policy × rate) grid — the shape behind every cost
figure — one cell at a time (each a lone cell, so the serial engine)
and as one sweep (one clock group, so one structure-of-arrays batch),
asserts the batch rows equal the serial rows bitwise, and appends
cells/s plus ``batch_speedup`` to the repo-root ``BENCH_sweep.json``.
Both sections run with the result cache disabled; a cache section then
measures the cache itself — a cold sweep into a fresh cache directory
versus the warm re-run — and records the warm speedup plus hit/miss
counts in the entry meta, asserting warm rows stay bit-identical to
cold rows.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--quick]
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
import time
from typing import Iterator, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import Scenario
from repro.experiments import cache as result_cache
from repro.experiments import runner
from repro.util import perf

import bench_common

FIG8_POLICIES = ("global", "global-nodyn", "local", "local-nodyn")
SEED = 7


def _grid(quick: bool) -> tuple[list[Scenario], list[str]]:
    if quick:
        rates, period = (2.0,), 600.0
        policies = ["static-local", "local"]
    else:
        # Wide enough (32 cells) for the batch engine's fixed per-tick
        # cost to amortize; rates stay moderate so no one cell's fleet
        # width inflates the whole stacked state.
        rates, period = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0), 1800.0
        policies = list(FIG8_POLICIES)
    scenarios = [
        Scenario(
            rate=r, rate_kind="wave", variability="both", seed=SEED,
            period=period,
        )
        for r in rates
    ]
    return scenarios, policies


@contextlib.contextmanager
def _cache_env(enabled: bool, directory: Optional[str] = None) -> Iterator[None]:
    """Pin the result-cache state (and directory) for a measured
    section, then restore."""
    saved_dir = os.environ.get("REPRO_CACHE_DIR")
    was_enabled = result_cache.enabled()
    if directory is not None:
        os.environ["REPRO_CACHE_DIR"] = directory
    (result_cache.enable if enabled else result_cache.disable)()
    try:
        yield
    finally:
        if saved_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_dir
        (result_cache.enable if was_enabled else result_cache.disable)()


def _cache_counts() -> tuple[int, int]:
    counters = perf.snapshot()["counters"]
    return (
        int(counters.get("cache.hits", 0)),
        int(counters.get("cache.misses", 0)),
    )


def run_sweep_bench(
    quick: bool = False,
    output: Optional[os.PathLike] = None,
    write: bool = True,
) -> dict:
    """Measure serial vs batched sweep throughput and (optionally) record."""
    scenarios, policies = _grid(quick)
    cells = [(s, p) for s in scenarios for p in policies]
    n_cells = len(cells)

    # Serial vs batch with the cache OFF: both must do the work.
    with _cache_env(enabled=False):
        t0 = time.perf_counter()
        serial_rows = [row for cell in cells for row in runner.run_cells([cell])]
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        batch_rows = runner.sweep(scenarios, policies)
        batch_s = time.perf_counter() - t0

    batch_identical = batch_rows == serial_rows
    assert batch_identical, "batch sweep diverged from serial rows"
    batch_speedup = serial_s / max(batch_s, 1e-9)

    # Cache section: cold sweep into a fresh directory, then the warm
    # re-run of the identical grid (this is the `figures` re-run shape).
    with tempfile.TemporaryDirectory(prefix="repro-cache-bench-") as tmp:
        with _cache_env(enabled=True, directory=tmp), perf.collecting():
            hits0, misses0 = _cache_counts()
            t0 = time.perf_counter()
            cold_rows = runner.sweep(scenarios, policies)
            cache_cold_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            warm_rows = runner.sweep(scenarios, policies)
            cache_warm_s = time.perf_counter() - t0
            hits1, misses1 = _cache_counts()

    cache_identical = warm_rows == cold_rows == serial_rows
    assert cache_identical, "cached rows diverged from fresh rows"
    cache_warm_speedup = cache_cold_s / max(cache_warm_s, 1e-9)

    metrics = {
        "cells": float(n_cells),
        "serial_s": serial_s,
        "cells_per_s_serial": n_cells / serial_s,
        "cache_cold_s": cache_cold_s,
        "cache_warm_s": cache_warm_s,
        "cache_warm_speedup": cache_warm_speedup,
        "batch_s": batch_s,
        "cells_per_s_batch": n_cells / batch_s,
        "batch_speedup": batch_speedup,
    }
    meta = {
        "quick": quick,
        "seed": SEED,
        "host_cpus": os.cpu_count() or 1,
        "policies": list(policies),
        "rates": [s.rate for s in scenarios],
        "cache_rows_identical": cache_identical,
        "batch_rows_identical": batch_identical,
        "cache_warm_speedup": cache_warm_speedup,
        "cache_hits": hits1 - hits0,
        "cache_misses": misses1 - misses0,
    }
    if write:
        path = output or bench_common.bench_path("sweep")
        bench_common.append_entry(path, "sweep", metrics, meta)
    return {"metrics": metrics, "meta": meta}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny grid (smoke test)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure only; do not append to BENCH_sweep.json")
    parser.add_argument("--output", default=None,
                        help="override the BENCH json path")
    args = parser.parse_args(argv)
    result = run_sweep_bench(
        quick=args.quick, output=args.output, write=not args.no_write,
    )
    for key, value in result["metrics"].items():
        print(f"{key:>22}: {value:10.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
