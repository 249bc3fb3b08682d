"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python benchmarks/suite/run.py [--workload W]... [--seed N] [--seconds S]
        [--trace [0|1]] [--smoke] [--out PATH] [--spans PATH]

Without ``--workload`` every workload runs (``figures``, ``sweep``,
``serve``); ``--seed`` defaults to 7 and ``--seconds`` to
``run_seconds`` in ``BENCHMARK.json``.  ``figures`` and ``sweep`` run in
one job process each (``workloads.py``), which repeats a fixed list of
ops for ``--seconds`` and keeps each op's fastest time; ``serve`` drives
the daemon in its own process (``serve_load.py``) with a fixed batch of
queries and keeps each query's fastest time.

An untraced run reports the end-to-end metrics: ``latency_ms`` is the
time of one pass over the workload (the sum of the ops' fastest times;
for ``serve``, the mean of the queries' fastest times), ``cells_per_s``
the cells (requests) of one pass over that time.  Set-up time is the
median of the job's set-ups, timed over the run (``workloads.SETUPS``;
for ``serve``, of its daemons' set-ups), memory the job's peak RSS
after its first pass (for ``serve``, the daemons' median peak RSS).
``--trace`` spends half the run traced and reports the per-layer
metrics instead: span counts, time per call and share of wall time per
layer, ratios from the program's counters, and the tracing coverage and
overhead.  ``--smoke`` runs toy sizes of every workload once with every
check.

Each metric prints as ``workload metric value unit``; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Outputs are checked (structural checks, the same rows on every
repetition, traced against untraced rows, and the stored digests of
``expected.json`` at seeds 7 and 11); any failed check makes the exit
code 1.  The program must be at ``src/repro`` under the repository root,
or the suite exits with code 2 without a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

WORKLOADS = ("figures", "sweep", "serve")
#: A fixed pure-Python loop (≈0.25 s on a quiet 2-vCPU Xeon) timed before
#: each workload, so slow episodes of a shared host show in the result.
CALIB_ITERS = 5_000_000


def calibrate_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc ^= i * 7
    return (time.perf_counter() - t0) * 1e3


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = ""
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def job_env(extra: dict) -> dict:
    """The environment scrubbed of every ``REPRO_*`` variable but the
    workload's own, so ambient settings cannot change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Result:
    """One workload's metrics, operation counts and failed checks."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = ""
        self.digest_status = "unchecked"
        #: Raw values behind the metrics.
        self.samples: dict[str, list[float]] = {}

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        self.errors.append(message)

    def check_digest(self, digest: str, expected: Optional[str]) -> None:
        """The rows must match the stored digest when there is one."""
        self.digest = digest
        if expected is None:
            return
        self.digest_status = "ok" if digest == expected else "MISMATCH"
        if digest != expected:
            self.fail(self.attempted - self.failed,
                      f"digest {digest} != expected {expected}")


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(summary: dict, runs: int, wall_s: float) -> dict:
    """Span and counter metrics from a span summary.

    ``runs`` divides totals into per-pass counts; ``wall_s`` is the time
    the spans' shares are taken against (the traced ops' wall time, or
    the daemon's summed request time)."""
    import spans

    layers, counts, perf = summary["layers"], summary["counts"], summary["perf"]
    out: dict[str, float] = {}
    covered = 0
    for name in spans.LAYER_NAMES:
        calls, self_ns = layers[name]
        covered += self_ns
        out[f"{name}.calls"] = calls / runs
        out[f"{name}.us_per_call"] = self_ns / calls / 1e3 if calls else 0.0
        out[f"{name}.share"] = self_ns / 1e9 / wall_s
    skipped = (perf.get("engine.macro_ticks_skipped", 0)
               + perf.get("batch.macro_ticks_skipped", 0))
    stepped = layers["engine.executor.step"][0] + perf.get("batch.ticks", 0)
    adapts = layers["core.policy.adapt"][0]
    provisions = layers["cloud.provider.try_provision"][0]
    out["engine.ticks"] = perf.get("engine.ticks", 0) / runs
    out["engine.macro.jump_ratio"] = (
        skipped / (skipped + stepped) if skipped + stepped else 0.0)
    out["core.policy.change_ratio"] = (
        counts.get("core.policy.adaptations", 0) / adapts if adapts else 0.0)
    out["cloud.provider.denied_ratio"] = (
        counts.get("cloud.provider.denied", 0) / provisions
        if provisions else 0.0)
    out["trace.coverage"] = covered / 1e9 / wall_s
    return out


SERVE_ONLY = (
    "serve.server_ms_p50", "serve.wait_ms_p50", "serve.read_p99_ms",
    "serve.write_p50_ms", "experiments.cache.read_hit_ratio",
    "experiments.cache.delta_ratio",
)


# -- the in-process workloads --------------------------------------------------


def run_job(workload: str, seed: int, seconds: float, smoke: bool,
            flags: list[str], env: dict) -> dict:
    cmd = [sys.executable, str(SUITE / "workloads.py"), workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=seconds + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"job exited {proc.returncode}: {proc.stderr.strip()[-1500:]}")
    return json.loads(lines[-1])


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, spans_path: Optional[str],
              expected: Optional[str]) -> Result:
    import workloads

    env = job_env(workloads.ENV[workload])
    result = Result(workload)
    flags = []
    if trace:
        flags = ["--trace"] + (["--spans", spans_path] if spans_path else [])
    try:
        job = run_job(workload, seed, 0 if smoke else seconds, smoke, flags,
                      env)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        result.attempted = 1
        result.fail(1, f"job failed: {exc}")
        return result
    result.attempted = job["attempted"]
    if job["failed"]:
        result.fail(job["failed"], "; ".join(job["errors"][:5]))
    result.check_digest(job["digest"], expected)

    setups = job["setups"]
    pass_s = sum(job["best_s"].values())
    result.samples = {"setup_s": setups, "rounds": [job["rounds"]],
                      "best_s": list(job["best_s"].values())}
    if not trace:
        result.metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": job["rss_mb"],
            "latency_ms": pass_s * 1e3,
            "cells_per_s": job["cells"] / pass_s,
        }
        return result
    traced = job["traced"]
    metrics = layer_metrics(job, traced["rounds"], traced["wall_s"])
    metrics.update(dict.fromkeys(SERVE_ONLY, 0.0))
    metrics["trace.overhead"] = sum(traced["best_s"].values()) / pass_s - 1.0
    result.metrics = metrics
    return result


# -- serve -----------------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool, smoke: bool,
              spans_path: Optional[str], expected: Optional[str]) -> Result:
    import serve_load

    result = Result("serve")
    workload = serve_load.Serve(ROOT, job_env({}), seed,
                                0 if smoke else seconds, smoke, trace,
                                spans_path)
    try:
        out = workload.run()
    except (RuntimeError, OSError) as exc:
        result.attempted = max(1, workload.recorder.attempted)
        result.fail(result.attempted, f"serve workload failed: {exc}")
        return result
    rec = workload.recorder
    result.attempted = rec.attempted
    result.failed = rec.failed
    result.errors = rec.errors[:10]
    result.check_digest(out["digest"], expected)
    if not trace:
        result.samples = {k: out[k]
                          for k in ("setups", "rss_mb", "best_s", "query_s")}
        batch_s = sum(out["query_s"])
        result.metrics = {
            "setup_s": statistics.median(out["setups"]),
            "peak_rss_mb": statistics.median(out["rss_mb"]),
            "latency_ms": batch_s / len(workload.queries) * 1e3,
            "cells_per_s": len(workload.queries) / batch_s,
        }
        return result
    if out["spans"] is None:
        result.fail(rec.attempted - result.failed,
                    "the traced daemon wrote no span summary")
        return result
    metrics = layer_metrics(out["spans"], 1, out["server_s"])
    metrics.update(serve_load.client_metrics(out["seeding"], out["records"]))
    metrics["trace.overhead"] = out["overhead"]
    result.metrics = metrics
    return result


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository's benchmark suite.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced rounds")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one pass per workload, every check")
    parser.add_argument("--out", default=None,
                        help="write the full result (host, runs) as JSON")
    parser.add_argument("--spans", default=None,
                        help="write every traced span as JSONL")
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if not bench_path.is_file():
        print(f"run.py: {bench_path} is missing", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text("utf-8"))
    declared = {
        m["name"]: m["unit"]
        for m in bench["per_layer" if args.trace else "end_to_end"]
    }
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    expected = json.loads((SUITE / "expected.json").read_text("utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"run.py: repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    if args.spans:
        open(args.spans, "w").close()

    host = host_fingerprint()
    for key, value in host.items():
        print(f"host {key} {value}")
    records, results = [], []
    for workload in args.workload or WORKLOADS:
        calib_ms = calibrate_ms()
        loadavg = os.getloadavg()
        stored = None if args.smoke else expected[workload].get(str(args.seed))
        if workload == "serve":
            result = run_serve(args.seed, seconds, bool(args.trace),
                               args.smoke, args.spans, stored)
        else:
            result = run_batch(workload, args.seed, seconds, bool(args.trace),
                               args.smoke, args.spans, stored)
        if not result.failed:
            emitted = set(result.metrics)
            if emitted != set(declared):
                result.fail(1, "metrics differ from BENCHMARK.json: missing "
                               f"{sorted(set(declared) - emitted)}, "
                               f"undeclared {sorted(emitted - set(declared))}")
        print(f"{workload} host.calib_ms {calib_ms:.1f} ms")
        print(f"{workload} digest {result.digest or '-'} {result.digest_status}")
        for message in result.errors[:10]:
            print(f"{workload} FAILED {message}")
        for name in declared:
            if name in result.metrics:
                print(f"{workload} {name} {result.metrics[name]:.6g} "
                      f"{declared[name]}")
        results.append(result)
        records.append({
            "workload": workload, "seed": args.seed, "seconds": seconds,
            "trace": bool(args.trace), "smoke": args.smoke,
            "calib_ms": calib_ms, "loadavg": list(loadavg),
            "attempted": result.attempted, "failed": result.failed,
            "digest": result.digest, "digest_status": result.digest_status,
            "errors": result.errors, "samples": result.samples,
            "metrics": {k: {"value": v, "unit": declared.get(k, "")}
                        for k, v in result.metrics.items()},
        })

    if args.out:
        Path(args.out).write_text(
            json.dumps({"host": host, "runs": records}, indent=1) + "\n",
            "utf-8")
    single = len(results) == 1
    metrics = {
        (name if single else f"{r.workload}.{name}"): {
            "value": r.metrics[name], "unit": declared[name]}
        for r in results for name in declared if name in r.metrics
    }
    correct = all(not r.failed for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
