"""Compare two sets of suite result files, per workload and metric.

    python benchmarks/suite/compare.py A/*.json B/*.json
    python benchmarks/suite/compare.py A B            # directories of them
    python benchmarks/suite/compare.py --summarize A  # one side, as JSON

Result files are what ``run.py --out`` writes.  Files are grouped by
their directory: the first group is the parent commit (A), the second
the change (B); runs pair up in file-name order, so name the files of
an alternating A/B measurement ``1.json``, ``2.json``, … in both.

For every (workload, metric) it prints both sides' medians and
quartiles, and a verdict by the rules the benchmark is judged by:

``unresolved``  either side's spread (interquartile distance over
                median) is wider than the metric's bound — unless every
                B run beats every A run, which is ``better``;
``worse``       B's median is worse than A's by more than the bound;
``better``      over at least ten pairs, B wins at least nine tenths of
                them and the medians differ by more than A's
                interquartile distance;
``same``        none of the above.

Bounds come from ``BENCHMARK.json``; per-layer metrics have none and
get no verdict.  Runs made with different ``--seconds`` (or smoke
sizes) are refused: run length sets how many rounds a fastest time is
taken over.  Failed operations are compared per workload (any rise
is ``worse``), and every run's ``calib_ms`` host probe is listed so a
slow episode of the host can be told apart from a slow change.

``--summarize`` prints one side's medians, quartiles and spreads with
its hosts and runs; ``baseline.json`` is that output for the recorded
baseline.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Fewest A/B pairs on which a win rate can support a ``better`` verdict.
MIN_PAIRS = 10


def load_groups(args: list[str]) -> list[list[Path]]:
    groups: dict[Path, list[Path]] = {}
    for arg in args:
        path = Path(arg)
        if path.is_dir():
            groups.setdefault(path, []).extend(sorted(path.glob("*.json")))
        else:
            groups.setdefault(path.parent, []).append(path)
    return [sorted(files) for files in groups.values()]


def collect(files: list[Path]) -> tuple[dict, list[dict], list[dict]]:
    """(workload, metric) → values in file order; every run record; the
    distinct hosts."""
    values: dict[tuple[str, str], list[float]] = {}
    runs, hosts = [], []
    for path in files:
        result = json.loads(path.read_text("utf-8"))
        if result["host"] not in hosts:
            hosts.append(result["host"])
        for run in result["runs"]:
            run = dict(run, file=str(path))
            runs.append(run)
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"])
    return values, runs, hosts


def failed_share(runs: list[dict], workload: str) -> float:
    mine = [r for r in runs if r["workload"] == workload]
    return sum(r["failed"] for r in mine) / max(1, sum(r["attempted"]
                                                       for r in mine))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, higher: bool) -> str:
    def better(x, y):
        return x > y if higher else x < y

    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = statistics.median(a), statistics.median(b)
    spread = max((q[2] - q[0]) / abs(m) if m else 0.0
                 for q, m in ((qa, med_a), (qb, med_b)))
    if spread > bound:
        if all(better(y, x) for x in a for y in b):
            return "better"
        return "unresolved"
    if better(med_a, med_b) and abs(med_b - med_a) > bound * abs(med_a):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and better(med_b, med_a) and abs(med_b - med_a) > qa[2] - qa[0]):
        return "better"
    return "same"


def summarize(files: list[Path]) -> dict:
    """Median, quartiles and spread per (workload, metric), with the hosts
    and seeds behind them — the form of ``baseline.json``."""
    values, runs, hosts = collect(files)
    workloads: dict[str, dict] = {}
    for (workload, name), xs in sorted(values.items()):
        q1, med, q3 = quartiles(xs)
        workloads.setdefault(workload, {})[name] = {
            "median": med, "q1": q1, "q3": q3, "n": len(xs),
            "spread": (q3 - q1) / abs(med) if med else 0.0,
        }
    return {
        "hosts": hosts,
        "runs": [{k: r[k] for k in ("workload", "seed", "seconds", "trace",
                                    "calib_ms", "loadavg")} for r in runs],
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--summarize"]:
        files = [f for group in load_groups(args[1:]) for f in group]
        print(json.dumps(summarize(files), indent=1))
        return 0
    groups = load_groups(args)
    if len(groups) != 2 or not all(groups):
        print("usage: compare.py A/*.json B/*.json  (two directories)",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    decl = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    (va, runs_a, _), (vb, runs_b, _) = collect(groups[0]), collect(groups[1])
    settings = {(r["seconds"], r["smoke"]) for r in runs_a + runs_b}
    if len(settings) != 1:
        # Run length sets the number of rounds behind a fastest time.
        print(f"runs differ in (seconds, smoke): {sorted(settings)}",
              file=sys.stderr)
        return 2

    print(f"A: {len(groups[0])} files in {groups[0][0].parent}")
    print(f"B: {len(groups[1])} files in {groups[1][0].parent}")
    print(f"{'workload':8} {'metric':44} {'A median':>11} {'A q1..q3':>23} "
          f"{'B median':>11} {'B q1..q3':>23} {'bound':>6}  verdict")
    worse = 0
    for key in sorted(set(va) & set(vb)):
        workload, name = key
        a, b = va[key], vb[key]
        meta = decl.get(name)
        qa, qb = quartiles(a), quartiles(b)
        if meta is not None and "bound" in meta:
            v = verdict(a, b, meta["bound"], meta["better"] == "higher")
            bound = f"{meta['bound']:.2f}"
        else:
            v, bound = "-", "-"
        worse += v == "worse"
        print(f"{workload:8} {name:44} {statistics.median(a):11.4g} "
              f"{qa[0]:11.4g}..{qa[2]:<10.4g} {statistics.median(b):11.4g} "
              f"{qb[0]:11.4g}..{qb[2]:<10.4g} {bound:>6}  {v}")

    print()
    for workload in sorted({r["workload"] for r in runs_a + runs_b}):
        failed_a = failed_share(runs_a, workload)
        failed_b = failed_share(runs_b, workload)
        v = "worse" if failed_b > failed_a else "same"
        worse += v == "worse"
        print(f"{workload:8} failed/attempted  A {failed_a:.4g}  "
              f"B {failed_b:.4g}  {v}")

    print()
    print(f"{'side':4} {'file':40} {'workload':8} {'seed':>5} "
          f"{'calib_ms':>9}  loadavg")
    for side, runs in (("A", runs_a), ("B", runs_b)):
        for r in runs:
            load = " ".join(f"{x:.2f}" for x in r["loadavg"])
            print(f"{side:4} {r['file'][-40:]:40} {r['workload']:8} "
                  f"{r['seed']:>5} {r['calib_ms']:9.1f}  {load}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
