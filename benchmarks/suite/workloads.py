"""The suite's in-process workloads, and the job process that runs one.

A workload is a fixed list of *ops* built from ``--seed``: each op is one
call into the program's public API (one sweep cell, one batch sweep, one
fleet) that returns rows.  ``run.py`` starts the job in a fresh process
(this file as a script) and reads back one JSON line::

    python benchmarks/suite/workloads.py WORKLOAD --seed N --seconds S \\
        [--smoke] [--trace] [--spans PATH] [--setup-only]

The job builds its ops (the set-up: interpreter start, imports, inputs),
runs every op once to warm up, and then runs *rounds* — every op once, in
order — until ``--seconds`` are used.  It reports each op's fastest
round: on a shared host interference only ever adds time, and with a few
dozen short ops spread over the whole run the fastest repetition of each
is a steady estimate of the program's own cost where a median over the
run is not.  Every repetition of an op must return the same rows.

The line carries the set-up times, each op's fastest time, the round
count, cells, peak RSS, a SHA-256 digest of the rows, the structural
check failures, and — with ``--trace`` — the same for traced rounds plus
the per-layer span summary and the program's own ``util.perf``
counters.  An untraced run also times ``SETUPS - 1`` fresh set-ups
(``--setup-only`` child processes) spread evenly over its rounds.
``--trace`` spends the first half of the run untraced and the second
half traced, so both fastest times come from one process.
``--setup-only`` stops after the set-up and reports its time.

Why these two workloads (``serve`` lives in ``serve_load.py``):

``figures``  the cells the paper-figure drivers run, one op per cell on
             the serial engine, cache off: fig4's static and brute-force
             deployments, fig5–fig7's static and adaptive cells, the
             failure storm, the pricing figure's annealing and billing
             models, random-walk cells on a 6,561-selection dataflow, and
             fig2/fig3's trace statistics.  The per-tick executor does
             most of the work; planners and adaptation the rest.
``sweep``    the structure-of-arrays batch engine: the fig8 grid through
             ``runner.sweep`` with ``REPRO_BATCH=1`` and two fleets on one
             shared provider, fair-share on tight pools (many denials,
             slow ``adapt`` calls) and free-for-all.  No serial executor,
             no macro jumps (wave rates).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
#: Set-ups timed per untraced run (the job's own and the rest spread over
#: its rounds); ``setup_s`` is their median.
SETUPS = 9

#: Environment each workload's job process runs under (all other
#: ``REPRO_*`` variables are scrubbed by ``run.py``).
ENV = {
    "figures": {"REPRO_CACHE": "0"},
    "sweep": {"REPRO_CACHE": "0", "REPRO_BATCH": "1"},
}

FIG8_POLICIES = ("global", "global-nodyn", "local", "local-nodyn")
STORM_POLICIES = ("static-global", "local", "global", "hedged")
BILLING_MODELS = ("on_demand_hourly", "per_second", "reserved",
                  "sustained_use", "spot_trace")

#: Op sizes.  Cells run 10 min (the walk cells 30 min) instead of the
#: figure drivers' 30 min / 6 h so that no op takes more than a few
#: hundred milliseconds on a 2-vCPU Xeon and a run repeats each op ten
#: times or more.  Smoke sizes are toy runs of the same code paths.
SIZES = {
    "full": {
        "figures": {"period": 600.0, "rates": (2.0, 5.0, 10.0),
                    "anneal": ("on_demand_hourly", "spot_trace"),
                    "walk_period": 1800.0, "walk_rates": (6.0,)},
        "sweep": {"period": 600.0, "rates": (2.0, 4.0, 6.0, 8.0, 10.0, 12.0),
                  "n_tenants": 16},
    },
    "smoke": {
        "figures": {"period": 300.0, "rates": (5.0,),
                    "anneal": ("reserved",),
                    "walk_period": 600.0, "walk_rates": (6.0,)},
        "sweep": {"period": 300.0, "rates": (2.0, 6.0), "n_tenants": 4},
    },
}


def _plain(obj):
    """JSON fallback for numpy scalars in figure rows."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(rows) -> str:
    """SHA-256 of the rows' canonical JSON (floats via ``repr``: exact)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_sweep_rows(rows, expected: list[tuple[str, float]]) -> list[str]:
    """Rows must echo their (policy, rate) cell, in order, with finite Θ/Ω/μ."""
    errors = []
    if len(rows) != len(expected):
        return [f"{len(rows)} rows for {len(expected)} cells"]
    for row, (policy, rate) in zip(rows, expected):
        if (row["policy"], row["rate"]) != (policy, rate):
            errors.append(
                f"row ({row['policy']}, {row['rate']}) in cell ({policy}, {rate})"
            )
        for key in ("omega", "cost", "theta"):
            if not math.isfinite(row[key]):
                errors.append(f"{policy}@{rate}: {key}={row[key]!r}")
        if not 0.0 <= row["omega"] <= 1.0 + 1e-9 or row["cost"] < 0:
            errors.append(f"{policy}@{rate}: omega/cost out of range")
    return errors


# -- ops: build(seed, size) → [(name, op)]; op() → (rows, cells, errors) ------


def _cell_op(run_cells, scenario, policy: str):
    """One sweep cell through ``runner.run_cells`` (the figure drivers'
    path), checked against its scenario."""

    def op():
        rows = [dataclasses.asdict(r) for r in run_cells([(scenario, policy)])]
        errors = _check_sweep_rows(rows, [(policy, scenario.rate)])
        if rows and rows[0]["billing_model"] != scenario.billing_model:
            errors.append(f"{policy}: billed {rows[0]['billing_model']}, "
                          f"scenario {scenario.billing_model}")
        return rows, 1, errors

    return op


def _figure_op(fn, seed: int):
    """A trace-statistics figure (no cells): rows must be non-empty."""

    def op():
        rows = fn(fast=True, seed=seed).rows
        return rows, 0, [] if rows else [f"{fn.__name__}: no rows"]

    return op


def build_figures(seed: int, size):
    from repro.experiments.figures import figure2, figure3
    from repro.experiments.runner import run_cells
    from repro.experiments.scenarios import (
        Scenario, failure_storm_scenario, scaled_dataflow)

    period, rates = size["period"], size["rates"]
    cells = []
    for mode in ("none", "data", "infra", "both"):  # fig4
        sc = Scenario(rate=5.0, variability=mode, seed=seed, period=period)
        cells += [(f"fig4/{mode}/{p}", sc, p) for p in
                  ("static-bruteforce", "static-local", "static-global")]
    for kind, mode, policies, fig in (
            ("constant", "none", ("static-local", "static-global"), "fig5"),
            ("constant", "infra", ("local", "global"), "fig6"),
            ("wave", "data", ("local", "global"), "fig7")):
        for r in rates:
            sc = Scenario(rate=r, rate_kind=kind, variability=mode, seed=seed,
                          period=period)
            cells += [(f"{fig}/{r:g}/{p}", sc, p) for p in policies]
    storm = failure_storm_scenario(rate=5.0, period=period, seed=seed)
    cells += [(f"storm/{p}", storm, p) for p in STORM_POLICIES]
    for model in BILLING_MODELS:  # the pricing figure
        sc = Scenario(rate=8.0, rate_kind="wave", variability="both",
                      seed=seed, period=period, billing_model=model)
        policy = "anneal" if model in size["anneal"] else "global"
        cells.append((f"pricing/{model}/{policy}", sc, policy))
    dataflow = scaled_dataflow(4, 3)
    for k, r in enumerate(size["walk_rates"]):
        for j, policy in enumerate(("global", "local")):
            # One random walk per cell.
            sc = Scenario(rate=r, rate_kind="walk", variability="none",
                          seed=seed * 16 + 2 * k + j,
                          period=size["walk_period"], dataflow=dataflow)
            cells.append((f"walk/{r:g}/{policy}", sc, policy))
    ops = [(name, _cell_op(run_cells, sc, p)) for name, sc, p in cells]
    ops += [("fig2", _figure_op(figure2, seed)),
            ("fig3", _figure_op(figure3, seed))]
    return ops


def _fleet_rows(fr, mt):
    """A fleet's tenant rows, and the structural check failures."""
    rows = [dataclasses.asdict(r) for r in fr.rows]
    errors = []
    if fr.mode != "soa":
        errors.append(f"fleet ran {fr.mode}, expected soa")
    if [r["tenant"] for r in rows] != list(range(mt.n_tenants)):
        errors.append("tenant rows out of order")
    if mt.admission == "fair-share" and fr.denied_total == 0:
        errors.append("no provision denials: the pools are not contended")
    for r in rows:
        if not (math.isfinite(r["theta"]) and math.isfinite(r["mu"])):
            errors.append(f"tenant {r['tenant']}: non-finite theta/mu")
    return rows, errors


def build_sweep(seed: int, size):
    from repro.experiments import runner
    from repro.experiments.scenarios import Scenario, multi_tenant_scenario

    scenarios = [
        Scenario(rate=r, rate_kind="wave", variability="both", seed=seed,
                 period=size["period"])
        for r in size["rates"]
    ]
    expected = [(p, s.rate) for s in scenarios for p in FIG8_POLICIES]

    def fig8():
        rows = [dataclasses.asdict(r)
                for r in runner.sweep(scenarios, list(FIG8_POLICIES))]
        return rows, len(expected), _check_sweep_rows(rows, expected)

    def fleet_op(mt):
        def op():
            rows, errors = _fleet_rows(runner.run_fleet(mt), mt)
            return rows, mt.n_tenants, errors
        return op

    fleets = [
        multi_tenant_scenario(
            n_tenants=size["n_tenants"], admission="fair-share",
            capacity_tightness=0.5, rate_kind="wave", variability="both",
            rate_lo=2.0, rate_hi=8.0, period=size["period"], seed=seed),
        multi_tenant_scenario(
            n_tenants=size["n_tenants"], admission="free-for-all",
            capacity_tightness=1.0, rate_kind="wave", variability="both",
            rate_lo=2.0, rate_hi=20.0, period=size["period"], seed=seed + 1),
    ]
    return [("fig8", fig8)] + [(f"fleet/{mt.admission}", fleet_op(mt))
                               for mt in fleets]


def count_adaptations(rows) -> int:
    """Interval boundaries at which a cell changed its deployment, summed
    over an op's rows (figure rows of trace statistics have none)."""
    return sum(r["adaptations"] for r in rows if isinstance(r, dict))


BUILDERS = {"figures": build_figures, "sweep": build_sweep}


def time_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh job process (``--setup-only``)."""
    proc = subprocess.run(
        [sys.executable, __file__, workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def peak_rss_mb(pid: object = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


class Rounds:
    """Repeats every op in order and keeps each op's fastest time."""

    def __init__(self, ops, expected: dict[str, str]) -> None:
        self.ops = ops
        self.expected = expected
        self.best = {name: math.inf for name, _ in ops}
        self.rounds = 0
        self.wall_s = 0.0
        self.cells = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, seconds: float, at_least: int,
            setups: Optional[list[float]] = None, workload: str = "",
            seed: int = 0) -> None:
        """Rounds until ``seconds`` are used.  With ``setups``, a fresh
        set-up of ``workload`` is timed at the first round boundary past
        each ``seconds / SETUPS`` and appended, so set-up time is sampled
        over the whole run, not in one burst a slow spell can cover."""
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        try:
            while self.rounds < at_least or (time.perf_counter() - start) * (
                    1 + 1 / self.rounds) <= seconds:
                # Each round runs on the next CPU in turn.  On a shared host
                # one vCPU can run this job half again slower than another
                # for minutes, and a process otherwise stays where it
                # started; this way each op's fastest time is the faster
                # CPU's, whichever the job started on.
                os.sched_setaffinity(0, {cpus[self.rounds % len(cpus)]})
                self._round()
                self.rounds += 1
                if setups is not None and len(setups) < SETUPS and (
                        time.perf_counter() - start
                        >= len(setups) * seconds / SETUPS):
                    setups.append(time_setup(workload, seed))
        finally:
            os.sched_setaffinity(0, cpus)

    def _round(self) -> None:
        for name, op in self.ops:
            t0 = time.perf_counter()
            rows, cells, errors = op()
            took = time.perf_counter() - t0
            self.best[name] = min(self.best[name], took)
            self.wall_s += took
            self.cells += cells
            if digest(rows) != self.expected[name]:
                errors = errors + [f"{name}: rows differ between rounds"]
            if errors:
                self.failed += cells
                self.errors += errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark job")
    parser.add_argument("workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro

    src = ROOT / "src"
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")

    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    ops = BUILDERS[args.workload](args.seed, size)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Warm-up: each op once, cold.  Its rows are what every later
    # repetition must reproduce.
    op_digests, cells, adaptations, errors = {}, 0, 0, []
    for name, op in ops:
        rows, n, errs = op()
        op_digests[name] = digest(rows)
        cells += n
        adaptations += count_adaptations(rows)
        errors += errs
    # Peak memory of one pass.  Later rounds raise it a little each
    # (allocator fragmentation), so it would grow with the round count
    # and so with the host's speed.
    rss_mb = peak_rss_mb()

    at_least = 1 if args.smoke else 3
    setups = [setup_s]
    plain = Rounds(ops, op_digests)
    if args.trace or args.smoke:
        plain.run(args.seconds / 2 if args.trace else args.seconds, at_least)
    else:
        plain.run(args.seconds, at_least, setups, args.workload, args.seed)
    out = {
        "setups": setups,
        "ops": len(ops),
        "cells": cells,
        "best_s": plain.best,
        "rounds": plain.rounds,
        "attempted": cells + plain.cells,
        "failed": (cells if errors else 0) + plain.failed,
        "errors": (errors + plain.errors)[:20],
        "digest": digest(op_digests),
    }
    if args.trace:
        import spans
        from repro.util import perf

        recorder = spans.Recorder()
        spans.install(recorder)
        perf.enable()
        traced = Rounds(ops, op_digests)
        traced.run(args.seconds / 2, at_least)
        out.update(recorder.summary())
        out["perf"] = perf.snapshot()["counters"]
        out["counts"]["core.policy.adaptations"] = adaptations * traced.rounds
        out["traced"] = {"best_s": traced.best, "rounds": traced.rounds,
                         "wall_s": traced.wall_s}
        out["attempted"] += traced.cells
        out["failed"] += traced.failed
        out["errors"] = (out["errors"] + traced.errors)[:20]
        if args.spans:
            recorder.write_jsonl(args.spans, pid=os.getpid(),
                                 workload=args.workload)
    out["rss_mb"] = rss_mb
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
