"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Execute one policy on one scenario and print the outcome
    (``--trace PATH`` records a JSONL event trace of the run).
``compare``
    Race several policies on the same scenario.
``figures``
    Regenerate the paper's evaluation figures (Figs. 2–9).
``tenants``
    Run a multi-tenant fleet — many dataflows sharing one finite
    provider — and print per-tenant Θ/Ω/μ rows plus fleet utilization.
``trace``
    Summarize / filter / dump a JSONL run trace (see ``repro.obs``).
``policies``
    List the available scheduling policies.
``cache``
    Inspect (``stats``, with age/size/hit-latency columns and
    ``--top N`` hottest entries) or empty (``clear``) the sweep result
    cache.
``serve``
    Boot the always-on what-if daemon (``repro.serve``): local HTTP
    API answering scenario submissions from the warm serving tier
    (in-memory LRU → disk cache → delta-keyed index) or a bounded cold
    worker pool, with live trace streaming on ``/events``.
``verify``
    Run the verification suite (runtime invariants, differential and
    metamorphic harnesses — see ``repro.validate``).

Sweep-backed commands (``compare``, ``figures``) consult the
content-addressed result cache by default; pass ``--no-cache`` (or set
``REPRO_CACHE=0``) to force fresh runs.  Cache misses that share a clock
(interval, horizon, tick) run together in the structure-of-arrays batch
engine when there are two or more of them, one vectorized tick for the
whole group; a lone cell runs on the serial engine.  Rows are
bit-identical either way.

The fluid engine macro-steps through provably stationary stretches by
default (bit-identical results, large speedups on steady-state-heavy
scenarios); set ``REPRO_MACROSTEP=0`` to force per-tick stepping, e.g.
when profiling the per-tick path itself.

Service-mode knobs (``repro serve``; flags take precedence):

``REPRO_SERVE_WORKERS``
    Cold-run worker threads (default: min(4, cpus-1)).
``REPRO_SERVE_QUEUE``
    Bounded submission queue depth; a full queue is answered with
    ``429`` + ``Retry-After`` (default 32).
``REPRO_SERVE_LRU``
    In-memory serving LRU capacity in entries (default 512).
``REPRO_SERVE_TIMEOUT_S``
    Per-request wait bound on cold cells (default 600).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import obs
from .cloud.billing import BILLING_MODELS
from .core.policies import POLICY_NAMES
from .experiments import cache as result_cache
from .experiments.figures import ALL_FIGURES
from .experiments.runner import sweep
from .experiments.scenarios import Scenario, run_policy
from .obs.events import EVENT_TYPES
from .obs.trace import (
    filter_events,
    load_jsonl,
    render_adaptation_timeline,
    render_events,
    render_summary,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dynamic dataflows on elastic clouds — reproduction of "
            "Kumbhare et al., SC'13"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rate", type=float, default=5.0,
                       help="mean input rate in msg/s (default 5)")
        p.add_argument("--rate-kind", choices=("constant", "wave", "walk"),
                       default="constant", help="rate profile shape")
        p.add_argument("--variability",
                       choices=("none", "data", "infra", "both"),
                       default="none", help="variability mode")
        p.add_argument("--period", type=float, default=3600.0,
                       help="optimization period in seconds (default 3600)")
        p.add_argument("--interval", type=float, default=60.0,
                       help="decision interval in seconds (default 60)")
        p.add_argument("--seed", type=int, default=0, help="experiment seed")
        p.add_argument("--billing", choices=BILLING_MODELS,
                       default="on_demand_hourly",
                       help="pricing model (default on_demand_hourly)")

    def add_cache_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--no-cache", action="store_true",
            help="bypass the sweep result cache (same as REPRO_CACHE=0)",
        )

    run_p = sub.add_parser("run", help="run one policy on one scenario")
    run_p.add_argument("policy", choices=POLICY_NAMES)
    add_scenario_args(run_p)
    run_p.add_argument("--timeline", action="store_true",
                       help="print the per-interval metrics")
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="record the run's event trace to a JSONL file")

    cmp_p = sub.add_parser("compare", help="race several policies")
    cmp_p.add_argument("policies", nargs="+", choices=POLICY_NAMES)
    add_scenario_args(cmp_p)
    add_cache_arg(cmp_p)

    fig_p = sub.add_parser("figures", help="regenerate evaluation figures")
    fig_p.add_argument(
        "which", nargs="*", default=[],
        help=f"figure ids, e.g. fig4 fig8 (default all: {sorted(ALL_FIGURES)})",
    )
    fig_p.add_argument("--full", action="store_true",
                       help="paper-scale configuration (slow)")
    add_cache_arg(fig_p)

    tenants_p = sub.add_parser(
        "tenants",
        help="run a multi-tenant fleet on one shared provider",
    )
    tenants_p.add_argument(
        "--tenants", type=int, default=16, metavar="N",
        help="number of dataflows sharing the provider (default 16)",
    )
    tenants_p.add_argument(
        "--admission", choices=("free-for-all", "fair-share"),
        default="free-for-all",
        help="admission policy arbitrating the shared pools",
    )
    tenants_p.add_argument(
        "--policy", choices=POLICY_NAMES, default="global",
        help="per-tenant scheduling policy (default global)",
    )
    tenants_p.add_argument(
        "--period", type=float, default=900.0,
        help="optimization period in seconds (default 900)",
    )
    tenants_p.add_argument(
        "--tightness", type=float, default=0.5, metavar="T",
        help="per-class pool size as a fraction of the tenant count "
             "(default 0.5; negative = unlimited pools)",
    )
    tenants_p.add_argument(
        "--rate-lo", type=float, default=2.0,
        help="slowest tenant's input rate in msg/s (default 2)",
    )
    tenants_p.add_argument(
        "--rate-hi", type=float, default=8.0,
        help="fastest tenant's input rate in msg/s (default 8)",
    )
    tenants_p.add_argument("--seed", type=int, default=0,
                           help="experiment seed")
    tenants_p.add_argument(
        "--rows", action="store_true",
        help="print every tenant's row (default: first/last 20)",
    )

    trace_p = sub.add_parser(
        "trace", help="summarize / filter / dump a JSONL run trace"
    )
    trace_p.add_argument("file", help="JSONL trace written by run --trace")
    trace_p.add_argument(
        "--type", action="append", dest="types", metavar="EVENT",
        choices=sorted(EVENT_TYPES),
        help="keep only this event type (repeatable)",
    )
    trace_p.add_argument("--pe", default=None,
                         help="keep only events referencing this PE")
    trace_p.add_argument("--vm", default=None,
                         help="keep only events for this VM instance id")
    trace_p.add_argument("--tenant", type=int, default=None, metavar="K",
                         help="keep only events from this tenant")
    trace_p.add_argument("--events", action="store_true",
                         help="print the matching events as a table")
    trace_p.add_argument("--timeline", action="store_true",
                         help="render the adaptation timeline table")
    trace_p.add_argument("--dump", action="store_true",
                         help="dump the matching events as JSONL")
    trace_p.add_argument("--limit", type=int, default=50, metavar="N",
                         help="row cap for --events (default 50)")

    sub.add_parser("policies", help="list available policies")

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the sweep result cache"
    )
    cache_p.add_argument("action", choices=("stats", "clear"))
    cache_p.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="with stats: also list the N hottest entries "
             "(hits, age, size, mean hit latency)",
    )

    serve_p = sub.add_parser(
        "serve", help="run the always-on what-if HTTP daemon"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="bind port (default 8642; 0 = ephemeral)")
    serve_p.add_argument("--workers", type=int, default=None, metavar="N",
                         help="cold-run worker threads "
                              "(default: REPRO_SERVE_WORKERS)")
    serve_p.add_argument("--queue", type=int, default=None, metavar="N",
                         help="bounded cold queue depth; overflow is 429 "
                              "(default: REPRO_SERVE_QUEUE)")
    serve_p.add_argument("--lru", type=int, default=None, metavar="N",
                         help="serving-LRU capacity in entries "
                              "(default: REPRO_SERVE_LRU)")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")

    verify_p = sub.add_parser(
        "verify", help="run the verification suite (repro.validate)"
    )
    verify_p.add_argument(
        "--scenario", default=None, metavar="S",
        help="restrict the invariant pillar to one built-in scenario",
    )
    verify_p.add_argument(
        "--level", choices=("quick", "full"), default="quick",
        help="quick: CI smoke pass; full: every scenario, case, transform",
    )
    return parser


def _apply_no_cache(args: argparse.Namespace) -> None:
    """Honour ``--no-cache``."""
    if getattr(args, "no_cache", False):
        result_cache.disable()


def _scenario_from(args: argparse.Namespace) -> Scenario:
    return Scenario(
        rate=args.rate,
        rate_kind=args.rate_kind,
        variability=args.variability,
        seed=args.seed,
        period=args.period,
        interval=args.interval,
        billing_model=getattr(args, "billing", "on_demand_hourly"),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    if args.trace:
        obs.reset()
        with obs.tracing():
            result = run_policy(scenario, args.policy)
        n = obs.flush_jsonl(args.trace)
        print(f"trace: {n} events -> {args.trace}")
    else:
        result = run_policy(scenario, args.policy)
    print(result.summary())
    print(
        f"VMs provisioned={result.vms_provisioned} peak={result.vms_peak} "
        f"adaptations={result.adaptations}"
    )
    print(f"final selection: {result.final_selection}")
    if args.timeline:
        print(f"\n{'t (min)':>8}  {'Ω(t)':>6}  {'Γ(t)':>6}  {'μ[t] $':>8}")
        for m in result.timeline:
            print(
                f"{m.t / 60:8.1f}  {m.throughput:6.3f}  {m.value:6.3f}  "
                f"{m.cumulative_cost:8.2f}"
            )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _apply_no_cache(args)
    scenario = _scenario_from(args)
    print(
        f"{'policy':>18}  {'Θ':>8}  {'Γ̄':>6}  {'Ω̄':>6}  {'ok':>3}  "
        f"{'cost $':>8}  {'peak VMs':>8}"
    )
    rows = sweep([scenario], args.policies)
    for r in rows:
        print(
            f"{r.policy:>18}  {r.theta:+8.4f}  {r.gamma:6.3f}  "
            f"{r.omega:6.3f}  {'✓' if r.constraint_met else '✗':>3}  "
            f"{r.cost:8.2f}  {r.vms_peak:8d}"
        )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    _apply_no_cache(args)
    which = args.which or sorted(ALL_FIGURES)
    unknown = [w for w in which if w not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {unknown}; known: {sorted(ALL_FIGURES)}",
              file=sys.stderr)
        return 2
    for name in which:
        result = ALL_FIGURES[name](fast=not args.full)
        print(result.render())
        print()
    return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    from .experiments.runner import run_fleet
    from .experiments.scenarios import multi_tenant_scenario

    tightness = args.tightness if args.tightness >= 0 else None
    mt = multi_tenant_scenario(
        n_tenants=args.tenants,
        admission=args.admission,
        policy=args.policy,
        seed=args.seed,
        period=args.period,
        rate_lo=args.rate_lo,
        rate_hi=args.rate_hi,
        capacity_tightness=tightness,
    )
    fr = run_fleet(mt)
    rows = fr.rows
    elided = 0
    if not args.rows and len(rows) > 40:
        elided = len(rows) - 40
        rows = rows[:20] + rows[-20:]
    print(
        f"{'tenant':>6}  {'rate':>6}  {'Ω̄':>6}  {'Θ':>8}  {'μ $':>8}  "
        f"{'peak':>4}  {'denied':>6}  {'ok':>3}"
    )
    for i, r in enumerate(rows):
        if elided and i == 20:
            print(f"{'...':>6}  ({elided} tenants elided; --rows shows all)")
        print(
            f"{r.tenant:6d}  {r.rate:6.2f}  {r.omega:6.3f}  {r.theta:+8.4f}  "
            f"{r.mu:8.2f}  {r.vms_peak:4d}  {r.denials:6d}  "
            f"{'✓' if r.constraint_met else '✗':>3}"
        )
    met = sum(1 for r in fr.rows if r.constraint_met)
    cap = fr.utilization["capacity"]
    pools = (
        ", ".join(f"{name}×{n}" for name, n in sorted(cap.items()))
        if cap
        else "unlimited"
    )
    print(
        f"\n{fr.n_tenants} tenants ({args.admission}, mode={fr.mode}): "
        f"fleet Ω̄={fr.fleet_omega:.3f} μ=${fr.fleet_mu:.2f} "
        f"Ω̄≥Ω̂-ε {met}/{fr.n_tenants}"
    )
    print(f"pools: {pools}; {fr.denied_total} provisions denied "
          f"{fr.utilization['denied_by_reason']}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        events = load_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    selected = filter_events(
        events, types=args.types, pe=args.pe, vm=args.vm, tenant=args.tenant
    )
    if args.dump:
        for event in selected:
            print(event.to_json())
        return 0
    if args.timeline:
        print(render_adaptation_timeline(selected))
        return 0
    if args.events:
        print(render_events(selected, limit=args.limit))
        return 0
    filtered = len(selected) != len(events)
    if filtered:
        print(
            f"{len(selected)}/{len(events)} events match the filter\n"
        )
    print(render_summary(selected))
    return 0


def _cmd_policies(_args: argparse.Namespace) -> int:
    for name in POLICY_NAMES:
        print(name)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "clear":
        removed = result_cache.clear()
        print(f"cache clear: removed {removed} entries")
        return 0
    info = result_cache.stats()
    print(f"cache dir:  {info['dir']}")
    print(f"enabled:    {info['enabled']}")
    print(f"entries:    {info['entries']}")
    print(
        f"size:       {info['bytes'] / 1024:.1f} KiB "
        f"(cap {info['max_bytes'] / (1024 * 1024):.0f} MiB)"
    )
    print(f"delta keys: {info['delta_keys']}")
    hit_ms = (
        f"{info['mean_hit_ms']:.3f} ms"
        if info["mean_hit_ms"] is not None
        else "n/a"
    )
    print(f"hits:       {info['hits']} (mean latency {hit_ms})")
    if args.top > 0:
        rows = result_cache.top_entries(args.top)
        if not rows:
            print("\n(no entries)")
            return 0
        print(
            f"\n{'key':>12}  {'policy':>18}  {'hits':>5}  {'age':>8}  "
            f"{'size':>9}  {'hit ms':>7}"
        )
        for r in rows:
            ms = f"{r['mean_hit_ms']:7.3f}" if r["mean_hit_ms"] else "      -"
            print(
                f"{r['key'][:12]:>12}  {r['policy']:>18}  {r['hits']:5d}  "
                f"{r['age_s']:7.0f}s  {r['size'] / 1024:8.1f}K  {ms}"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeDaemon

    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue,
        lru_capacity=args.lru,
        verbose=args.verbose,
    )
    pool = daemon.pool.stats()
    print(
        f"repro serve: listening on {daemon.url} "
        f"({pool['workers']} workers, queue {pool['queue_depth']})",
        flush=True,
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro serve: stopping", flush=True)
        daemon.stop()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .validate import suite

    seen: list[str] = []

    def progress(line: str) -> None:
        seen.append(line)
        print(line, flush=True)

    try:
        report = suite.run(
            level=args.level, scenario=args.scenario, progress=progress
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # The per-check lines already streamed; finish with the verdict.
    print()
    print(report.render().rsplit("\n", 1)[-1])
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figures": _cmd_figures,
        "tenants": _cmd_tenants,
        "trace": _cmd_trace,
        "policies": _cmd_policies,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream consumer (head, a pager) closed the pipe mid-print;
        # point stdout at devnull so interpreter shutdown stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
