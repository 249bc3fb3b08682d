"""The ``serve`` workload: the what-if daemon answering a fixed batch of queries.

The daemon runs as its own process (``python -m repro serve --workers 1
--port 0``, or through ``spans.py`` when traced) with a fresh cache
directory, ``.suite-serve-*`` in the repository root: the benchmark
reads and writes nothing outside its checkout, and the directory is
removed when the daemon stops.  Set-up boots it and seeds a pool of
scenarios (wave rates, both variability modes, 300 s, ``static-local``):
every pool request is a cold write, simulated and stored.

The client is the program's own (``repro.serve.ServeClient``: one
connection per request), in the suite's process, one request at a time.
It sends a fixed *batch* of ``BATCH`` queries drawn from the seed: five
(8%) are one-field billing variants of pool scenarios, answered through
the delta index without re-simulation, the rest warm reads of the pool.
After one warm-up batch it repeats the batch until its share of the run
is used and keeps each query's fastest time: on a shared host
interference only ever adds time, so the fastest of some hundred
repetitions is a steady estimate of the daemon's own cost where
percentiles of single requests are not.  The client and the daemon run
on different CPUs and swap them each batch (see :func:`pin`).  An
untraced run boots ``DAEMONS`` daemons one after another and gives each
an equal share.  Every response goes through :class:`LeakChecker`.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.serve.client import ServeClient, ServerBusy, ServerError

from workloads import digest, peak_rss_mb

POLICY = "static-local"
BATCH = 64
DELTA_SHARE = 0.08
DAEMONS = 3
BOOT_TIMEOUT_S = 60.0

#: One-field billing variants the delta index answers (replay or inert).
DELTA_VARIANTS = (
    {"billing_discount": 0.25},
    {"billing_model": "reserved"},
    {"billing_model": "per_second"},
    {"billing_model": "sustained_use"},
)

WARM_TIERS = ("lru", "disk", "delta")


def pool(seed: int, n: int) -> list[dict]:
    return [
        {"rate": 2.0 + 0.5 * i, "rate_kind": "wave", "variability": "both",
         "seed": seed, "period": 300.0}
        for i in range(n)
    ]


def batch(seed: int, scenarios: list[dict], n: int) -> list[tuple[str, dict]]:
    """The seed's fixed query batch: (kind, scenario) pairs.  The seed
    picks the scenarios and where the delta queries go; their number and
    variants are the same for every seed, so every seed asks the daemon
    for the same work."""
    rng = random.Random(seed)
    deltas = sorted(rng.sample(range(n), max(1, round(DELTA_SHARE * n))))
    queries = []
    for i in range(n):
        base = rng.choice(scenarios)
        if i in deltas:
            variant = DELTA_VARIANTS[deltas.index(i) % len(DELTA_VARIANTS)]
            queries.append(("delta", dict(base, **variant)))
        else:
            queries.append(("read", base))
    return queries


def pin(pid: int, cpu: int) -> None:
    """Move every thread of process ``pid`` onto ``cpu``; the threads it
    starts later (the daemon's request handlers) inherit it.

    Left to the scheduler, the client and the daemon share a CPU on some
    batches and not on others, and a request takes about a quarter longer
    when they share; pinned apart, every batch runs the same way."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # a request handler that has just ended


class LeakChecker:
    """Responses must never bleed between scenarios or requests: each row
    echoes its scenario, and one scenario keeps one content hash and one
    row across repeats while distinct scenarios never share a hash."""

    def __init__(self) -> None:
        self._seen: dict[str, tuple[str, str]] = {}
        self._keys: set[str] = set()

    def check(self, scenario: dict, response: dict) -> list[str]:
        errors = []
        for result in response["results"]:
            row = result["row"]
            expected = (scenario["rate"], scenario["seed"], POLICY,
                        scenario.get("billing_model", "on_demand_hourly"))
            echoed = (row["rate"], row["seed"], row["policy"],
                      row["billing_model"])
            if echoed != expected:
                errors.append(f"row echoes {echoed} for {expected}")
            ident = json.dumps([scenario, result["policy"]], sort_keys=True)
            seen = self._seen.get(ident)
            if seen is None:
                if result["key"] in self._keys:
                    errors.append(f"two scenarios share key {result['key']}")
                self._keys.add(result["key"])
                self._seen[ident] = (result["key"], digest(row))
            elif seen != (result["key"], digest(row)):
                errors.append(f"key or row changed across repeats: {ident}")
        return errors


class Recorder:
    """Per-request outcomes; a 429, another error status, an exception or
    a failed leak check counts a request as failed."""

    def __init__(self) -> None:
        self.checker = LeakChecker()
        self.records: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, *errors: str) -> None:
        self.failed += 1
        self.errors += errors

    def send(self, client: ServeClient, kind: str,
             scenario: dict) -> tuple[Optional[dict], float]:
        """One request: the response (None if it failed) and its time."""
        self.attempted += 1
        sent = time.perf_counter()
        try:
            response = client.run(scenario, [POLICY])
        except ServerBusy:
            self.fail("429 from the daemon")
            return None, math.inf
        except (ServerError, OSError, ValueError) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None, math.inf
        took = time.perf_counter() - sent
        problems = self.checker.check(scenario, response)
        if problems:
            self.fail(*problems)
        self.records.append({
            "kind": kind, "scenario": json.dumps(scenario, sort_keys=True),
            "ms": took * 1e3,
            "server_ms": response["elapsed_ms"],
            "tier": response["results"][0]["tier"],
        })
        return response, took


class Daemon:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, root: Path, env: dict, traced: bool,
                 spans_path: Optional[str]) -> None:
        self.work = work = Path(tempfile.mkdtemp(prefix=".suite-serve-",
                                                 dir=root))
        env = dict(env, REPRO_CACHE="1", REPRO_CACHE_DIR=str(work / "cache"))
        serve_args = ["serve", "--workers", "1", "--port", "0"]
        if traced:
            self.summary_path = work / "summary.json"
            cmd = [sys.executable, str(Path(__file__).with_name("spans.py")),
                   "--summary", str(self.summary_path)]
            if spans_path:
                cmd += ["--spans", spans_path]
            cmd += ["--", *serve_args]
        else:
            self.summary_path = None
            cmd = [sys.executable, "-m", "repro", *serve_args]
        self._stderr = open(work / "stderr.log", "wb")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr)
        self.url: Optional[str] = None
        try:
            self.url = self._await_url()
        except BaseException:
            self.close()
            raise
        self.client = ServeClient(self.url, timeout=60.0)

    def _await_url(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if "listening on " in line:
                    return line.split("listening on ")[1].split()[0]
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        raise RuntimeError(f"daemon did not boot: {self._stderr_tail()}")

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        text = (self.work / "stderr.log").read_text("utf-8", "replace")
        return text[-2000:]

    def close(self) -> Optional[dict]:
        """Stop the daemon, wait for it, and return its span summary."""
        try:
            if self.url is not None and self.proc.poll() is None:
                try:
                    ServeClient(self.url, timeout=10.0).shutdown()
                    self.proc.wait(timeout=15)
                except (ServerError, OSError, ValueError,
                        subprocess.TimeoutExpired):
                    pass
            if self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
            self._stderr.close()
            if self.summary_path is not None and self.summary_path.exists():
                return json.loads(self.summary_path.read_text("utf-8"))
            return None
        finally:
            shutil.rmtree(self.work, ignore_errors=True)


class Serve:
    """One run of the workload; :meth:`run` returns its measurements."""

    def __init__(self, root: Path, env: dict, seed: int, seconds: float,
                 smoke: bool, trace: bool, spans_path: Optional[str]) -> None:
        self.root = root
        self.env = env
        self.seconds = seconds
        self.smoke = smoke
        self.trace = trace
        self.spans_path = spans_path
        self.scenarios = pool(seed, 4 if smoke else 16)
        self.queries = batch(seed, self.scenarios, 8 if smoke else BATCH)
        self.recorder = Recorder()
        #: Digest of the rows of every batch (and of the seeded pool).
        self.digests: set[str] = set()

    def _send_all(self, client: ServeClient,
                  queries) -> tuple[list, list[float]]:
        """Send ``queries`` in order; their rows and times."""
        rows, times = [], []
        for kind, scenario in queries:
            response, took = self.recorder.send(client, kind, scenario)
            rows.append(response["results"][0]["row"] if response else None)
            times.append(took)
        return rows, times

    def _boot(self, traced: bool = False) -> tuple[Daemon, float, list[dict]]:
        """Boot a daemon and seed its pool; returns it, the set-up time and
        the seeding requests' records."""
        t0 = time.perf_counter()
        daemon = Daemon(self.root, self.env, traced, self.spans_path)
        first = len(self.recorder.records)
        try:
            rows, _ = self._send_all(daemon.client,
                                     [("write", s) for s in self.scenarios])
        except BaseException:
            daemon.close()
            raise
        setup_s = time.perf_counter() - t0
        self.digests.add("pool:" + digest(rows))
        return daemon, setup_s, self.recorder.records[first:]

    def _batches(self, daemon: Daemon,
                 seconds: float) -> tuple[list[float], list]:
        """One warm-up batch, then batches until ``seconds`` are used;
        returns each query's fastest time and every batch's records."""
        first = len(self.recorder.records)
        rows, _ = self._send_all(daemon.client, self.queries)
        self.digests.add("batch:" + digest(rows))
        fastest = [math.inf] * len(self.queries)
        cpus = sorted(os.sched_getaffinity(0))
        n = 0
        start = time.perf_counter()
        try:
            while n < 1 or (time.perf_counter() - start) * (1 + 1 / n) <= seconds:
                os.sched_setaffinity(0, {cpus[n % len(cpus)]})
                pin(daemon.proc.pid, cpus[(n + 1) % len(cpus)])
                rows, times = self._send_all(daemon.client, self.queries)
                fastest = [min(a, b) for a, b in zip(fastest, times)]
                self.digests.add("batch:" + digest(rows))
                n += 1
        finally:
            os.sched_setaffinity(0, cpus)
        return fastest, self.recorder.records[first:]

    def run(self) -> dict:
        """Untraced: ``DAEMONS`` daemons, each set up and then given an
        equal share of batches; ``query_s`` is each query's fastest time
        over all of them.  Traced: an untraced and a traced daemon with
        half the run each, so their fastest times give the tracing
        overhead."""
        out: dict = {"setups": [], "rss_mb": [], "best_s": []}
        if not self.trace:
            daemons = 1 if self.smoke else DAEMONS
            query_s = [math.inf] * len(self.queries)
            for _ in range(daemons):
                daemon, setup_s, _ = self._boot()
                out["setups"].append(setup_s)
                try:
                    fastest, _ = self._batches(daemon, self.seconds / daemons)
                    out["best_s"].append(sum(fastest))
                    query_s = [min(a, b) for a, b in zip(query_s, fastest)]
                    out["rss_mb"].append(peak_rss_mb(daemon.proc.pid))
                finally:
                    daemon.close()
            out["query_s"] = query_s
        else:
            daemon, _, _ = self._boot()
            try:
                untraced, _ = self._batches(daemon, self.seconds / 2)
            finally:
                daemon.close()
            first = len(self.recorder.records)
            daemon, _, seeding = self._boot(traced=True)
            try:
                traced, records = self._batches(daemon, self.seconds / 2)
            finally:
                out["spans"] = daemon.close()
            out["overhead"] = sum(traced) / sum(untraced) - 1.0
            out["seeding"], out["records"] = seeding, records
            # The spans cover every request the traced daemon served.
            out["server_s"] = sum(
                r["server_ms"] for r in self.recorder.records[first:]) / 1e3
        kinds = {d.split(":")[0] for d in self.digests}
        if len(self.digests) != len(kinds):
            self.recorder.fail("rows differ between daemons or batches")
        out["digest"] = digest(sorted(self.digests))
        return out


def client_metrics(seeding: list[dict], records: list[dict]) -> dict:
    """The traced daemon's request split, measured outside the daemon.

    ``experiments.cache.delta_ratio`` is taken over the first answer to
    each billing variant: the daemon keeps that answer, so repeats of the
    variant are plain warm reads."""
    reads = [r for r in records if r["kind"] in ("read", "delta")]
    first_delta: dict[str, dict] = {}
    for r in records:
        if r["kind"] == "delta":
            first_delta.setdefault(r["scenario"], r)
    deltas = list(first_delta.values())
    read_ms = sorted(r["ms"] for r in reads)
    return {
        "serve.server_ms_p50": statistics.median(
            r["server_ms"] for r in records),
        "serve.wait_ms_p50": statistics.median(
            r["ms"] - r["server_ms"] for r in records),
        "serve.read_p99_ms": (
            read_ms[min(len(read_ms) - 1, int(0.99 * len(read_ms)))]
            if read_ms else 0.0),
        "serve.write_p50_ms": statistics.median(r["ms"] for r in seeding),
        "experiments.cache.read_hit_ratio": (
            sum(r["tier"] in WARM_TIERS for r in reads) / len(reads)
            if reads else 0.0),
        "experiments.cache.delta_ratio": (
            sum(r["tier"] == "delta" for r in deltas) / len(deltas)
            if deltas else 0.0),
    }
