"""Smoke test of the benchmark suite (tier 2).

Runs ``run.py --smoke`` untraced and traced, and checks that both exit
cleanly, that each emits exactly the metrics ``BENCHMARK.json`` declares
for its mode with the declared units, and that traced jobs produce the
same output rows as untraced ones::

    PYTHONPATH=src python -m pytest -m bench_smoke benchmarks/suite/
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

pytestmark = pytest.mark.bench_smoke


def _smoke(tmp_path: Path, trace: int) -> dict:
    out = tmp_path / f"trace{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return json.loads(out.read_text("utf-8"))


def test_smoke_metrics_and_traced_digests(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        result = _smoke(tmp_path, trace)
        assert [r["workload"] for r in result["runs"]] == workloads
        for run in result["runs"]:
            emitted = {name: m["unit"] for name, m in run["metrics"].items()}
            assert emitted == declared, run["workload"]
            digests.setdefault(run["workload"], set()).add(run["digest"])
    for workload, seen in digests.items():
        assert len(seen) == 1, f"{workload}: traced rows differ: {seen}"
