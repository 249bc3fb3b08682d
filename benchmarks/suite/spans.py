"""Layer spans for traced benchmark runs, recorded from outside the program.

:func:`install` wraps public callables of the ``repro`` package (the
layers listed in :data:`LAYERS`) so that every call records a span:
its layer name, start and end (``perf_counter_ns``), the span that was
open when it started (its parent) and an op id shared by every span
under one root span — one cell run, one fleet, one request.  Spans stay
in memory; :meth:`Recorder.summary` folds them into per-layer call
counts and *self* time (a span's duration minus the part its child spans
cover), and :meth:`Recorder.write_jsonl` dumps them one JSON object per
line.

Nothing under ``src/`` changes: the wrappers are installed on the
classes and modules where callers look the names up.  ``apply_plan`` is
imported by name into the run manager and the batch engine, so it is
patched at those two import sites.

Run as a script, this module is the traced launcher for the serve
daemon::

    python benchmarks/suite/spans.py --summary S.json [--spans S.jsonl] \\
        -- serve --workers 1 --port 0

It installs the wrappers, turns on the program's ``util.perf`` counters,
runs ``repro.cli.main`` with the arguments after ``--`` and, once the
CLI returns, writes the summary with the counters (and the raw spans
when ``--spans`` is given).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Optional

#: (layer name, module, attribute path) — the public callables timed.
LAYERS = (
    ("sim.run", "repro.sim.kernel", "Environment.run"),
    ("engine.executor.step", "repro.engine.executor", "FluidExecutor.step"),
    ("engine.manager.run", "repro.engine.manager", "RunManager.run"),
    ("engine.batch.run", "repro.engine.batch", "BatchRunner.run"),
    ("engine.tenants.run", "repro.engine.tenants", "TenantFleet.run"),
    ("engine.monitor.snapshot", "repro.engine.monitor", "Monitor.snapshot"),
    ("engine.reconcile.apply_plan", "repro.engine.manager", "apply_plan"),
    ("engine.reconcile.apply_plan", "repro.engine.batch", "apply_plan"),
    ("core.policy.initial_plan", "repro.core.policies", "Policy.initial_plan"),
    ("core.policy.adapt", "repro.core.policies", "Policy.adapt"),
    ("cloud.billing.cost_at", "repro.cloud.billing", "BillingMeter.cost_at"),
    (
        "cloud.provider.try_provision",
        "repro.cloud.provider",
        "CloudProvider.try_provision",
    ),
    ("experiments.cache.serve_lookup", "repro.experiments.cache", "serve_lookup"),
    ("experiments.cache.store", "repro.experiments.cache", "store"),
    ("experiments.cache.run_cell", "repro.experiments.cache", "run_cell"),
)

#: Layer names in report order (``apply_plan`` appears once).
LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        #: (id, name, start_ns, end_ns, parent_id, op_id, self_ns)
        self.spans: list[tuple] = []
        #: Provision attempts the cloud denied.
        self.denied = 0
        self._local = threading.local()
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        # Denials are counted where provisioning happens.
        denial = None
        if name == "cloud.provider.try_provision":
            from repro.cloud.provider import ProvisionDenied as denial

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent_id, op = stack[-1][0], stack[-1][2]
            else:
                parent_id, op = -1, next(self._ops)
            # [id, ns covered by children, op]
            frame = [sid, 0, op]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.spans.append(
                    (sid, name, t0, t1, parent_id, op, t1 - t0 - frame[1])
                )
            if denial is not None and isinstance(result, denial):
                with self._lock:
                    self.denied += 1
            return result

        return span

    def summary(self) -> dict:
        """Per-layer ``[calls, self_ns]`` plus the denial counter."""
        layers = {name: [0, 0] for name in LAYER_NAMES}
        for span in list(self.spans):
            cell = layers[span[1]]
            cell[0] += 1
            cell[1] += span[6]
        return {"layers": layers,
                "counts": {"cloud.provider.denied": self.denied}}

    def write_jsonl(self, path: str, **tags) -> None:
        """Append every span as one JSON object per line."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, _ in list(self.spans):
                fh.write(
                    json.dumps(
                        {
                            **tags,
                            "id": sid,
                            "name": name,
                            "start_ns": t0,
                            "end_ns": t1,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def install(recorder: Recorder) -> None:
    """Wrap every layer in :data:`LAYERS`; call once per process."""
    for name, module_name, attr in LAYERS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf)))


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: spans.py --summary PATH [--spans PATH] -- CLI-ARGS",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description="traced repro CLI launcher")
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv[:split])

    from repro import cli
    from repro.util import perf

    recorder = Recorder()
    install(recorder)
    perf.enable()
    try:
        return cli.main(argv[split + 1:])
    finally:
        summary = recorder.summary()
        summary["perf"] = perf.snapshot()["counters"]
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        if args.spans:
            recorder.write_jsonl(args.spans, pid=os.getpid(), workload="serve")


if __name__ == "__main__":
    raise SystemExit(main())
