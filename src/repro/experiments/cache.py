"""Content-addressed result cache + warm serving tier (S22, S29).

Every (scenario, policy) grid cell is a pure function of its
configuration: all randomness derives from the scenario seed, so an
unchanged cell always reproduces the same :class:`~repro.experiments.runner.SweepRow`.
This module memoizes that function on disk and — for the always-on
service mode — in memory.  A cache key is the SHA-256 of the canonical
JSON of

* the scenario's structural fingerprint (:meth:`Scenario.fingerprint` —
  every field, with the dataflow and catalog serialized value by value),
* the policy name,
* a *code fingerprint* hashing the source of every module a run
  executes (``repro.{cloud,core,dataflow,engine,sim,workloads}`` plus
  the scenario/runner layer),

so a config edit invalidates only the affected cells and any code change
invalidates everything — without ever serving a stale row.  Entries are
single JSON files under a repo-local ``.repro-cache/`` directory, written
atomically (same-directory unique temp file + ``os.replace``, so racing
writers on one key resolve to one winner with no torn reads) and evicted
oldest-first once the directory exceeds a size cap.

Rows survive the JSON round-trip bit-identically: ``json`` serializes
floats via ``repr`` and parses them back to the exact same IEEE-754
double, so a warm run equals a cold run (test-enforced).

S29 adds three warm-path layers in front of the disk entries:

* a **code fingerprint hashed once per process** — a process runs the
  code it imported, so its keys must not follow later edits on disk
  (a re-keyed daemon would store old-code rows under the new code's
  key, and a fresh process would serve them as warm hits).
* a **serving LRU** of deserialized rows keyed by the content hash,
  owned by whoever serves (each serve daemon has its own; one-shot CLI
  runs have none) and passed to :func:`serve_lookup` — a warm hit
  skips JSON parsing entirely.
* a **delta-keyed secondary index**: every stored entry also registers
  one masked key per :data:`DELTA_FIELDS` member (the fingerprint minus
  that field).  A request differing from a cached base in only that
  field is answered without re-simulation when provably sound:

  - *inert-knob rule* (any policy): the changed knob is not consumed by
    the active billing model (e.g. ``billing_discount`` under
    ``on_demand_hourly``), or ``hedge_horizon`` with no failure model —
    the run would be bit-identical, so the base row is served verbatim.
  - *billing-replay rule* (non-adaptive policies, which never observe
    μ): the VM lifecycle ledger stored with the base entry is replayed
    through the new scenario's billing model — only cost and Θ change,
    recomputed bit-identically to a cold run (test-enforced).

Eviction bookkeeping lives in a small ``manifest.json`` (size, last
touch, hit counts, hit latency, masked keys per entry), so stores no
longer stat-scan the whole directory; the manifest is advisory and is
rebuilt from the entry files whenever it is missing or corrupt.

Knobs (resolved per call, so tests can redirect freely):

``REPRO_CACHE=0``
    Disable the cache (also :func:`disable` / the CLI ``--no-cache``).
``REPRO_CACHE_DIR``
    Cache directory (default ``.repro-cache`` under the repo root).
``REPRO_CACHE_MAX_MB``
    Size cap in MiB before oldest-first eviction (default 64).
``REPRO_SERVE_LRU``
    Default capacity in entries of a serve daemon's LRU
    (:func:`serving_lru`; default 512, 0 for none).  The daemon bounds
    its request memo by the same capacity.

Hits and misses are counted via :mod:`repro.util.perf` (``cache.hits`` /
``cache.misses``, plus ``cache.lru_hits`` / ``cache.delta_hits`` /
``cache.manifest_rebuilds``) and emitted as ``cache_hit`` /
``cache_miss`` / ``cache_evicted`` trace events via :mod:`repro.obs`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional

from ..cloud.resources import VMClass, VMInstance
from ..obs import collector as _trace
from ..util import perf
from ..validate import invariants as _validate
from .runner import SweepRow, run_cells
from .scenarios import Scenario

__all__ = [
    "enable",
    "disable",
    "enabled",
    "cache_dir",
    "max_bytes",
    "code_fingerprint",
    "cache_key",
    "masked_key",
    "lookup",
    "store",
    "delta_lookup",
    "serve_lookup",
    "gate",
    "run_cell",
    "BoundedLRU",
    "serving_lru",
    "stats",
    "top_entries",
    "clear",
    "DELTA_FIELDS",
    "DELTA_REPLAY_POLICIES",
]

#: Entry format version; bumping invalidates every stored row.
#: 2 = S29: entries carry the scenario fingerprint, the VM lifecycle
#: ledger, and the masked delta keys alongside the row.
SCHEMA = 2

_DEFAULT_DIR_NAME = ".repro-cache"
_DEFAULT_MAX_MB = 64.0
_DEFAULT_LRU_CAPACITY = 512

_enabled: bool = os.environ.get("REPRO_CACHE", "") not in ("0", "false")

#: Entry files are ``<64-hex-sha256>.json``; everything else in the
#: directory (the manifest, foreign files) is never treated as an entry.
_ENTRY_STEM = re.compile(r"^[0-9a-f]{64}$")

#: The code fingerprint, hashed on first use (see code_fingerprint).
_code_fp: Optional[str] = None

#: Subpackages whose source a sweep cell executes.  Harness-only layers
#: (figures, cli, report, obs, util, serve, this module) are excluded:
#: they shape orchestration, not row values.
_FINGERPRINTED_PACKAGES = (
    "cloud",
    "core",
    "dataflow",
    "engine",
    "sim",
    "workloads",
)
_FINGERPRINTED_MODULES = (
    os.path.join("experiments", "scenarios.py"),
    os.path.join("experiments", "runner.py"),
)

# -- delta index configuration ------------------------------------------------

#: Scenario fields a warm request may differ in and still be answered
#: from a cached base entry (when one of the soundness rules applies).
DELTA_FIELDS = (
    "billing_model",
    "billing_commit_hours",
    "billing_discount",
    "billing_upfront_fraction",
    "billing_window_hours",
    "billing_trace_resolution_s",
    "billing_trace_floor",
    "billing_trace_cap",
    "hedge_horizon",
)

#: Billing models that actually consume each parametric knob; under any
#: other model the knob is inert (the constructed model ignores it), so
#: the run is bit-identical and the base row can be served verbatim.
_KNOB_MODELS = {
    "billing_commit_hours": ("reserved",),
    "billing_discount": ("reserved", "sustained_use"),
    "billing_upfront_fraction": ("reserved",),
    "billing_window_hours": ("sustained_use",),
    "billing_trace_resolution_s": ("spot_trace",),
    "billing_trace_floor": ("spot_trace",),
    "billing_trace_cap": ("spot_trace",),
}

#: Policies whose trajectory never observes μ: no runtime adaptation
#: (``adapter is None``) and no billing model in the planner
#: (:func:`~repro.core.policies.make_policy` feeds billing only to
#: ``anneal``).  For these, a billing change alters cost and Θ but not
#: the VM lifecycle, so the ledger can be replayed under the new model.
DELTA_REPLAY_POLICIES = ("static-bruteforce", "static-local", "static-global")

# -- manifest / serving-tier process state ------------------------------------

_MANIFEST_NAME = "manifest.json"
#: Manifest format version (independent of the entry SCHEMA).
MANIFEST_SCHEMA = 1

_tmp_counter = itertools.count()

#: Hit stats accumulated since the last manifest write (write-behind:
#: folding on every warm hit would turn reads into writes).
_pending_hits: dict[str, list] = {}
_pending_lock = threading.Lock()

#: Serializes in-process manifest read-modify-write cycles (the server
#: stores from many worker threads).  Cross-process races stay benign:
#: the manifest is advisory and self-corrects via rebuild/eviction.
_manifest_lock = threading.RLock()


def enable() -> None:
    """Turn the result cache on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the result cache off (stored entries are kept)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether the cache is currently consulted."""
    return _enabled


def cache_dir() -> Path:
    """Resolved cache directory (``REPRO_CACHE_DIR`` or repo-local)."""
    override = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if override:
        return Path(override)
    # src/repro/experiments/cache.py → repo root is four levels up.
    root = Path(__file__).resolve().parents[3]
    return root / _DEFAULT_DIR_NAME


def max_bytes() -> int:
    """Eviction threshold in bytes (``REPRO_CACHE_MAX_MB``, default 64)."""
    raw = os.environ.get("REPRO_CACHE_MAX_MB", "").strip()
    try:
        mb = float(raw) if raw else _DEFAULT_MAX_MB
    except ValueError:
        mb = _DEFAULT_MAX_MB
    return max(0, int(mb * 1024 * 1024))


def _lru_capacity() -> int:
    raw = os.environ.get("REPRO_SERVE_LRU", "").strip()
    try:
        return max(0, int(raw)) if raw else _DEFAULT_LRU_CAPACITY
    except ValueError:
        return _DEFAULT_LRU_CAPACITY


# -- serving LRU --------------------------------------------------------------


class BoundedLRU:
    """Tiny thread-safe LRU map holding at most ``capacity`` entries.

    The serving tier keys deserialized rows by content hash; the serve
    daemon keys parsed request bodies by their bytes.  Every reader
    shares the stored object, so values must hold no per-request state
    to leak: rows are frozen dataclasses, and a parsed body's encoded
    results, filled on first use, are the same bytes for every request.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def get(self, key):
        """The value under ``key`` (now the most recent), or ``None``."""
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Store ``value`` as the most recent; evict the least recent
        entries beyond the capacity."""
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()


def serving_lru(capacity: Optional[int] = None) -> Optional[BoundedLRU]:
    """A fresh serving LRU of ``capacity`` entries (default
    ``REPRO_SERVE_LRU``), or ``None`` for a capacity of 0.

    Its owner passes it to :func:`serve_lookup` and puts the rows it
    simulates into it: each serve daemon has its own, so one daemon's
    boot or stop never touches another's.  The one-shot CLI runs cells
    once per process and has none.
    """
    cap = max(0, _lru_capacity() if capacity is None else int(capacity))
    return BoundedLRU(cap) if cap else None


# -- keys ---------------------------------------------------------------------


def _source_paths() -> list[Path]:
    pkg_root = Path(__file__).resolve().parents[1]  # src/repro
    paths: list[Path] = []
    for sub in _FINGERPRINTED_PACKAGES:
        paths.extend((pkg_root / sub).rglob("*.py"))
    paths.extend(pkg_root / rel for rel in _FINGERPRINTED_MODULES)
    return sorted(paths)


def code_fingerprint() -> str:
    """SHA-256 over the source of every module a sweep cell executes.

    Hashed file-by-file (relative path + bytes) in sorted order, so the
    value is stable across hosts and invalidates on any code change in
    the simulated stack.  Hashed once per process: the process keeps
    running the code it imported, so an edit on disk must not re-key it.
    """
    global _code_fp
    if _code_fp is None:
        pkg_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in _source_paths():
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fp = digest.hexdigest()
    return _code_fp


def cache_key(scenario: Scenario, policy_name: str) -> str:
    """Content address of one grid cell (hex SHA-256)."""
    payload = {
        "schema": SCHEMA,
        "policy": policy_name,
        "scenario": scenario.fingerprint(),
        "code": code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def masked_key(fingerprint: dict, policy_name: str, field: str) -> str:
    """Delta-index address: the cell's key with ``field`` masked out.

    Two scenarios that differ only in ``field`` (same policy, same code)
    produce the same masked key — that collision *is* the index: a
    request probes its own masked keys and finds bases it differs from
    in exactly that field.
    """
    fp = {k: v for k, v in fingerprint.items() if k != field}
    payload = {
        "schema": SCHEMA,
        "policy": policy_name,
        "field": field,
        "scenario": fp,
        "code": code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _masked_hashes(fingerprint: dict, policy_name: str) -> dict[str, str]:
    return {
        field: masked_key(fingerprint, policy_name, field)
        for field in DELTA_FIELDS
    }


# -- manifest -----------------------------------------------------------------


def _manifest_path(directory: Path) -> Path:
    return directory / _MANIFEST_NAME


def _blank_manifest() -> dict:
    return {"schema": MANIFEST_SCHEMA, "entries": {}, "delta": {}}


def _rebuild_manifest(directory: Path) -> dict:
    """Reconstruct the manifest by scanning the entry files.

    Only runs when the manifest is missing or corrupt — the steady-state
    path never stat-scans the directory.  Masked delta keys are
    recovered from the entries themselves (they are stored alongside the
    row), so the delta index survives a rebuild.
    """
    perf.add("cache.manifest_rebuilds")
    manifest = _blank_manifest()
    if not directory.is_dir():
        return manifest
    for path in directory.glob("*.json"):
        if not _ENTRY_STEM.match(path.stem):
            continue
        try:
            st = path.stat()
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(entry, dict) or entry.get("key") != path.stem:
            continue
        manifest["entries"][path.stem] = {
            "size": st.st_size,
            "atime": st.st_mtime,
            "hits": 0,
            "hit_ns": 0,
            "policy": entry.get("policy", ""),
        }
        masked = entry.get("masked")
        if isinstance(masked, dict):
            for mhash in masked.values():
                if isinstance(mhash, str):
                    manifest["delta"][mhash] = path.stem
    return manifest


def _load_manifest(directory: Path) -> dict:
    """Parse the manifest, rebuilding from disk if missing or corrupt."""
    try:
        raw = json.loads(
            _manifest_path(directory).read_text(encoding="utf-8")
        )
        if (
            raw.get("schema") != MANIFEST_SCHEMA
            or not isinstance(raw.get("entries"), dict)
            or not isinstance(raw.get("delta"), dict)
        ):
            raise ValueError("bad manifest shape")
        return raw
    except FileNotFoundError:
        # A directory with no entries has nothing to rebuild; don't
        # count a rebuild for the empty case.
        if directory.is_dir() and any(
            _ENTRY_STEM.match(p.stem) for p in directory.glob("*.json")
        ):
            return _rebuild_manifest(directory)
        return _blank_manifest()
    except (OSError, ValueError, AttributeError):
        return _rebuild_manifest(directory)


def _save_manifest(directory: Path, manifest: dict) -> None:
    path = _manifest_path(directory)
    tmp = path.with_name(
        f".{_MANIFEST_NAME}.{os.getpid()}.{next(_tmp_counter)}.tmp"
    )
    try:
        tmp.write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass


def _record_hit(key: str, elapsed_ns: int) -> None:
    with _pending_lock:
        pending = _pending_hits.setdefault(key, [0, 0, 0.0])
        pending[0] += 1
        pending[1] += elapsed_ns
        pending[2] = time.time()


def _fold_pending(manifest: dict) -> bool:
    """Merge write-behind hit stats into the manifest; True if dirty."""
    with _pending_lock:
        if not _pending_hits:
            return False
        drained = dict(_pending_hits)
        _pending_hits.clear()
    dirty = False
    for key, (hits, hit_ns, atime) in drained.items():
        meta = manifest["entries"].get(key)
        if meta is None:
            continue
        meta["hits"] = int(meta.get("hits", 0)) + hits
        meta["hit_ns"] = int(meta.get("hit_ns", 0)) + hit_ns
        meta["atime"] = max(float(meta.get("atime", 0.0)), atime)
        dirty = True
    return dirty


# -- storage ------------------------------------------------------------------


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.json"


def _load_entry(key: str) -> Optional[dict]:
    """Parse the full entry JSON under ``key``; ``None`` on any defect.

    A corrupted or truncated entry (unparsable JSON, wrong schema, bad
    fields) is deleted and treated as a miss — the cell simply reruns
    and overwrites it.
    """
    path = _entry_path(key)
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        if entry["schema"] != SCHEMA or entry["key"] != key:
            raise ValueError("schema/key mismatch")
        # Validate the row eagerly so defects surface as a miss here,
        # not as a TypeError at the caller.
        SweepRow(**entry["row"])
        return entry
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError):
        try:
            path.unlink()
        except OSError:
            pass
        return None


def lookup(key: str) -> Optional[SweepRow]:
    """Load the row stored under ``key``; ``None`` on miss."""
    t0 = time.perf_counter_ns()
    entry = _load_entry(key)
    if entry is None:
        return None
    _record_hit(key, time.perf_counter_ns() - t0)
    return SweepRow(**entry["row"])


def store(
    key: str,
    policy_name: str,
    row: SweepRow,
    *,
    fingerprint: Optional[dict] = None,
    ledger: Optional[list] = None,
) -> None:
    """Persist ``row`` under ``key`` atomically, then enforce the cap.

    ``fingerprint`` (the scenario's structural fingerprint) and
    ``ledger`` (the run's VM lifecycle, from
    :attr:`~repro.engine.manager.RunResult.vm_ledger`) enable the delta
    index: when both are present the entry registers one masked key per
    :data:`DELTA_FIELDS` member.  Entries stored without them (older
    callers) stay plain full-key entries.
    """
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = _entry_path(key)
    entry = {
        "schema": SCHEMA,
        "key": key,
        "policy": policy_name,
        "row": asdict(row),
    }
    masked: dict[str, str] = {}
    if fingerprint is not None and ledger is not None:
        masked = _masked_hashes(fingerprint, policy_name)
        entry["fingerprint"] = fingerprint
        entry["ledger"] = ledger
        entry["masked"] = masked
    blob = json.dumps(entry, sort_keys=True)
    # Unique temp name per writer: two processes racing on one key must
    # not share a temp file, and `os.replace` makes the last full write
    # win with readers only ever seeing a complete entry.
    tmp = path.with_name(
        f".{key[:16]}.{os.getpid()}.{next(_tmp_counter)}.tmp"
    )
    with _manifest_lock:
        # Load before writing the entry: a fresh directory then parses
        # as a blank manifest instead of triggering a rebuild scan that
        # would see the just-written file.
        manifest = _load_manifest(directory)
        tmp.write_text(blob, encoding="utf-8")
        os.replace(tmp, path)
        _fold_pending(manifest)
        prior = manifest["entries"].get(key, {})
        manifest["entries"][key] = {
            "size": len(blob.encode("utf-8")),
            "atime": time.time(),
            "hits": int(prior.get("hits", 0)),
            "hit_ns": int(prior.get("hit_ns", 0)),
            "policy": policy_name,
        }
        for mhash in masked.values():
            manifest["delta"][mhash] = key
        _evict(directory, manifest, keep=key)
        _save_manifest(directory, manifest)


def _evict(directory: Path, manifest: dict, keep: str) -> None:
    """Drop oldest entries (atime, then key) until under the size cap.

    Driven entirely by the manifest — no directory scan.  The
    just-written entry is never evicted, so a pathologically small cap
    still caches the current cell.  Stale manifest rows (entry deleted
    behind our back) are dropped and their phantom bytes reclaimed from
    the running total, so the estimate self-corrects.
    """
    cap = max_bytes()
    entries = manifest["entries"]
    total = sum(int(m.get("size", 0)) for m in entries.values())
    if total <= cap:
        return
    order = sorted(
        entries, key=lambda k: (float(entries[k].get("atime", 0.0)), k)
    )
    evicted: list[str] = []
    for key in order:
        if key == keep:
            continue
        size = int(entries[key].get("size", 0))
        try:
            (directory / f"{key}.json").unlink()
            perf.add("cache.evictions")
            _trace.emit("cache_evicted", t=0.0, key=key)
        except OSError:
            pass  # already gone: just reconcile the books
        evicted.append(key)
        total -= size
        if total <= cap:
            break
    for key in evicted:
        entries.pop(key, None)
    if evicted:
        gone = set(evicted)
        manifest["delta"] = {
            m: k for m, k in manifest["delta"].items() if k not in gone
        }


# -- delta serving ------------------------------------------------------------


def _replay_billing(
    scenario: Scenario, row: SweepRow, ledger: list
) -> Optional[SweepRow]:
    """Recompute cost and Θ by replaying ``ledger`` under the scenario's
    billing model.

    Mirrors the cold path exactly: the final cost snapshot is
    ``BillingMeter.cost_at(T)`` — a builtin ``sum`` of per-instance
    costs in registration order at ``T = n_intervals · interval`` — and
    Θ is ``spec.theta(Γ̄, μ)``.  Same floats in, same IEEE-754 ops, same
    bits out (test-enforced).
    """
    try:
        model = scenario.billing()
        spec = scenario.spec
        at = spec.n_intervals * spec.interval
        probes = []
        for name, price, spot, started, stopped in ledger:
            cls = VMClass(
                name=str(name),
                cores=1,
                core_speed=1.0,
                bandwidth_mbps=1.0,
                hourly_price=float(price),
                spot=bool(spot),
            )
            probe = VMInstance(cls, started_at=float(started))
            if stopped is not None:
                probe.stopped_at = float(stopped)
            probes.append(probe)
        cost = sum(model.instance_cost(p, at) for p in probes)
        return dataclasses.replace(
            row,
            cost=cost,
            theta=spec.theta(row.gamma, cost),
            billing_model=scenario.billing_model,
        )
    except Exception:
        return None  # any surprise disqualifies the shortcut, not the run


def _derive_row(
    scenario: Scenario,
    policy_name: str,
    field: str,
    row: SweepRow,
    ledger: list,
) -> Optional[SweepRow]:
    """Apply the soundness rules for a single-field delta; None = unsafe."""
    if field == "hedge_horizon":
        # The hedge horizon only shapes the failure oracle feeding
        # Snapshot.doomed.  With no failure/revocation model the oracle
        # is never built; with one, only adaptive policies consume the
        # snapshot.  Either way the run is bit-identical.
        if scenario.mtbf_hours is None and scenario.spot_mtbf_hours is None:
            return row
        if policy_name in DELTA_REPLAY_POLICIES:
            return row
        return None
    if field in _KNOB_MODELS:
        if scenario.billing_model not in _KNOB_MODELS[field]:
            # Inert knob: the active model (unchanged — only `field`
            # differs) never reads it, so both runs are bit-identical.
            return row
        if policy_name in DELTA_REPLAY_POLICIES:
            return _replay_billing(scenario, row, ledger)
        return None
    if field == "billing_model":
        if policy_name in DELTA_REPLAY_POLICIES:
            return _replay_billing(scenario, row, ledger)
        return None
    return None


def delta_lookup(
    scenario: Scenario, policy_name: str
) -> Optional[tuple[SweepRow, str, str]]:
    """Answer a cell from a base entry differing in one delta field.

    Probes the masked-key index for each :data:`DELTA_FIELDS` member; on
    a hit, applies the soundness rules (inert knob or billing replay).
    Returns ``(row, field, base_key)`` or ``None`` when no base
    qualifies — the caller then falls through to a cold run.
    """
    directory = cache_dir()
    if not directory.is_dir():
        return None
    manifest = _load_manifest(directory)
    index = manifest.get("delta", {})
    if not index:
        return None
    fp = scenario.fingerprint()
    for field in DELTA_FIELDS:
        base_key = index.get(masked_key(fp, policy_name, field))
        if base_key is None:
            continue
        entry = _load_entry(base_key)
        if entry is None:
            continue  # stale index row; the next store prunes it
        base_fp = entry.get("fingerprint")
        ledger = entry.get("ledger")
        if not isinstance(base_fp, dict) or not isinstance(ledger, list):
            continue
        # Belt and braces against hash collisions: the masked
        # fingerprints must literally agree (canonical JSON compare —
        # the stored copy went through JSON, so tuples became lists).
        mine = json.dumps(
            {k: v for k, v in fp.items() if k != field}, sort_keys=True
        )
        theirs = json.dumps(
            {k: v for k, v in base_fp.items() if k != field}, sort_keys=True
        )
        if mine != theirs:
            continue
        derived = _derive_row(
            scenario, policy_name, field, SweepRow(**entry["row"]), ledger
        )
        if derived is not None:
            return derived, field, base_key
    return None


# -- the warm path ------------------------------------------------------------


def _bypass(scenario: Scenario) -> bool:
    """Whether this cell must not touch the cache at all.

    Scenario *subclasses* bypass: they can override behaviour
    (providers, profiles) the structural fingerprint cannot see.
    Validation-checked runs (``REPRO_VALIDATE=1``) bypass too: a cache
    hit skips the run entirely, so nothing would be checked.
    """
    return (
        not _enabled
        or type(scenario) is not Scenario
        or _validate.enabled()
    )


def serve_lookup(
    scenario: Scenario,
    policy_name: str,
    key: Optional[str] = None,
    lru: Optional[BoundedLRU] = None,
) -> Optional[tuple[SweepRow, str]]:
    """Warm-path lookup: the caller's serving LRU → disk entry → delta
    index.

    Returns ``(row, tier)`` with ``tier`` one of ``"lru"``, ``"disk"``,
    ``"delta"``; ``None`` means the cell is cold (or bypassed) and must
    be simulated.  Disk and delta rows are put in ``lru``.
    Delta-derived rows are materialized as full entries (inheriting the
    base ledger), so the next identical request is a plain warm hit.
    ``key`` is the cell's :func:`cache_key`, for callers that already
    hashed it (hashing costs tens of µs).
    """
    if _bypass(scenario):
        return None
    if key is None:
        key = cache_key(scenario, policy_name)
    if lru is not None:
        row = lru.get(key)
        if row is not None:
            perf.add("cache.hits")
            perf.add("cache.lru_hits")
            _trace.emit("cache_hit", t=0.0, key=key, policy=policy_name)
            _record_hit(key, 0)
            return row, "lru"
    row = lookup(key)
    if row is not None:
        perf.add("cache.hits")
        _trace.emit("cache_hit", t=0.0, key=key, policy=policy_name)
        if lru is not None:
            lru.put(key, row)
        return row, "disk"
    derived = delta_lookup(scenario, policy_name)
    if derived is not None:
        row, field, base_key = derived
        perf.add("cache.hits")
        perf.add("cache.delta_hits")
        _trace.emit(
            "cache_hit",
            t=0.0,
            key=key,
            policy=policy_name,
            delta_field=field,
            base_key=base_key,
        )
        base = _load_entry(base_key)
        store(
            key,
            policy_name,
            row,
            fingerprint=scenario.fingerprint(),
            ledger=base.get("ledger") if base else None,
        )
        if lru is not None:
            lru.put(key, row)
        return row, "delta"
    return None


def gate(
    cells: list[tuple[Scenario, str]],
    simulate: Callable[[list[tuple[Scenario, str]]], list],
) -> list[SweepRow]:
    """Pass ``cells`` through the cache, simulating only the misses.

    Every sweep cell goes through here, whichever engine runs it.  Warm
    answers come from :func:`serve_lookup` (disk / delta).  The
    remaining cells go to ``simulate`` in one call, which returns one
    :class:`~repro.engine.manager.RunResult` per cell, in order.  Each
    fresh row is stored with its fingerprint and VM ledger.  Bypassed
    cells (:func:`_bypass`) are simulated
    but never looked up or stored.  Rows come back in input order.
    """
    rows: list[Optional[SweepRow]] = [None] * len(cells)
    misses: list[tuple[int, Optional[str]]] = []
    for i, (scenario, policy_name) in enumerate(cells):
        if _bypass(scenario):
            misses.append((i, None))
            continue
        key = cache_key(scenario, policy_name)
        warm = serve_lookup(scenario, policy_name, key)
        if warm is not None:
            rows[i] = warm[0]
            continue
        perf.add("cache.misses")
        _trace.emit("cache_miss", t=0.0, key=key, policy=policy_name)
        misses.append((i, key))
    results = simulate([cells[i] for i, _ in misses])
    for (i, key), result in zip(misses, results):
        scenario, policy_name = cells[i]
        row = rows[i] = SweepRow.from_result(scenario, result)
        if key is None:
            continue
        store(
            key,
            policy_name,
            row,
            fingerprint=scenario.fingerprint(),
            ledger=result.vm_ledger,
        )
    return rows  # type: ignore[return-value]


def run_cell(
    scenario: Scenario, policy_name: str, lru: Optional[BoundedLRU] = None
) -> SweepRow:
    """One cell through :func:`repro.experiments.runner.run_cells`.

    The serve daemon's cold path: the pool runs one cell per job, and
    the row goes into the daemon's serving ``lru`` unless the cell
    bypasses the cache.
    """
    row = run_cells([(scenario, policy_name)])[0]
    if lru is not None and not _bypass(scenario):
        lru.put(cache_key(scenario, policy_name), row)
    return row


# -- maintenance --------------------------------------------------------------


def stats(lru: Optional[BoundedLRU] = None) -> dict:
    """Cache state: directory, enablement, entry count, sizes, hit stats,
    and the fill of a serving LRU, when one is given."""
    directory = cache_dir()
    with _manifest_lock:
        manifest = (
            _load_manifest(directory)
            if directory.is_dir()
            else _blank_manifest()
        )
        if _fold_pending(manifest) and directory.is_dir():
            _save_manifest(directory, manifest)
    entries = manifest["entries"]
    hits = sum(int(m.get("hits", 0)) for m in entries.values())
    hit_ns = sum(int(m.get("hit_ns", 0)) for m in entries.values())
    return {
        "dir": str(directory),
        "enabled": _enabled,
        "entries": len(entries),
        "bytes": sum(int(m.get("size", 0)) for m in entries.values()),
        "max_bytes": max_bytes(),
        "hits": hits,
        "mean_hit_ms": (hit_ns / hits / 1e6) if hits else None,
        "delta_keys": len(manifest.get("delta", {})),
        "lru_entries": len(lru) if lru is not None else 0,
        "lru_capacity": lru.capacity if lru is not None else 0,
    }


def top_entries(n: int = 10) -> list[dict]:
    """The ``n`` hottest entries (by hit count) with manifest metadata.

    Each item: ``key``, ``policy``, ``hits``, ``size`` (bytes), ``age_s``
    (since last touch), ``mean_hit_ms`` (None before the first hit).
    """
    directory = cache_dir()
    if not directory.is_dir():
        return []
    with _manifest_lock:
        manifest = _load_manifest(directory)
        if _fold_pending(manifest):
            _save_manifest(directory, manifest)
    now = time.time()
    rows = []
    for key, meta in manifest["entries"].items():
        hits = int(meta.get("hits", 0))
        hit_ns = int(meta.get("hit_ns", 0))
        rows.append(
            {
                "key": key,
                "policy": meta.get("policy", ""),
                "hits": hits,
                "size": int(meta.get("size", 0)),
                "age_s": max(0.0, now - float(meta.get("atime", now))),
                "mean_hit_ms": (hit_ns / hits / 1e6) if hits else None,
            }
        )
    rows.sort(key=lambda r: (-r["hits"], r["age_s"], r["key"]))
    return rows[: max(0, int(n))]


def clear() -> int:
    """Delete every cache entry; returns the number removed.

    The manifest is dropped too (not counted)."""
    directory = cache_dir()
    removed = 0
    if directory.is_dir():
        for path in directory.glob("*.json"):
            if not _ENTRY_STEM.match(path.stem):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        try:
            _manifest_path(directory).unlink()
        except OSError:
            pass
    with _pending_lock:
        _pending_hits.clear()
    return removed
