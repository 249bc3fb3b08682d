"""Shared benchmark configuration.

Every ``test_bench_fig*`` benchmark regenerates one figure of the paper's
evaluation and prints the rows/series it plots.  By default the drivers
run in *fast* mode (shortened periods / fewer rates) so the whole suite
completes in a few minutes; set ``REPRO_BENCH_FULL=1`` to run the paper's
full-scale configuration (6 h periods, 10 h for the cost figures,
2–50 msg/s sweeps).

Rendered tables are also written to ``benchmarks/results/`` so the
EXPERIMENTS.md paper-vs-measured record can reference them.  Each bench
header (and each recorded table) states the default scenario seed and
the host's CPU count so a recorded number can always be traced back to
the exact configuration that produced it.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import cache as result_cache
from repro.util import perf

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0", "false")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Default scenario seed shared by the figure drivers (figures 4–9).
DEFAULT_SEED = 7

# Collect perf counters for the whole bench session so the headers can
# report result-cache hit/miss counts alongside the seed.
perf.enable()


def bench_header() -> str:
    """One-line run context: seed, host CPUs, scale, cache state."""
    counters = perf.snapshot()["counters"]
    return (
        f"bench config: seed={DEFAULT_SEED} "
        f"host_cpus={os.cpu_count() or 1} "
        f"scale={'full' if FULL else 'fast'} "
        f"cache={'on' if result_cache.enabled() else 'off'} "
        f"cache_hits={int(counters.get('cache.hits', 0))} "
        f"cache_misses={int(counters.get('cache.misses', 0))}"
    )


def pytest_report_header(config):
    return bench_header()


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Per-test cache directory: benchmarks must measure fresh runs, not
    rows another test (or a developer's repo-local cache) left behind."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(autouse=True)
def _print_bench_header(request):
    """Bracket every benchmark's captured output with the run context
    (the trailing line carries the test's cache hit/miss deltas)."""
    print(f"\n[{request.node.name}] {bench_header()}")
    yield
    print(f"[{request.node.name} done] {bench_header()}")


@pytest.fixture(scope="session")
def full_scale() -> bool:
    """Whether to run the paper's full configuration."""
    return FULL


@pytest.fixture(scope="session")
def record_figure():
    """Persist a rendered figure table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, rendered: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(
            f"# {bench_header()}\n{rendered}\n", encoding="utf-8"
        )

    return _record
