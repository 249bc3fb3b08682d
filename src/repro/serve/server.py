"""The serve daemon: stdlib HTTP front end over the warm/cold paths.

One :class:`ServeDaemon` owns

* a :class:`~http.server.ThreadingHTTPServer` (one handler thread per
  connection — cheap, since warm requests are sub-millisecond and cold
  requests spend their time parked on a pool job),
* a :class:`~repro.serve.scheduler.WorkerPool` running cold cells,
* the serving tier in :mod:`repro.experiments.cache` (enabled at boot),
* a broadcast hub fanning live trace events to ``/events`` streamers.

API (all JSON):

=======  =============  ====================================================
Method   Path           Semantics
=======  =============  ====================================================
GET      ``/healthz``   liveness probe: ``{"ok": true}``
GET      ``/stats``     cache + pool + request counters
POST     ``/run``       ``{"scenario": {...}, "policies": [...]}`` →
                        per-policy rows with serving tier and content hash;
                        ``400`` on malformed requests, ``429`` +
                        ``Retry-After`` under backpressure
GET      ``/events``    live trace stream, chunked NDJSON; query params
                        ``max`` (close after N events) and ``timeout_s``
POST     ``/shutdown``  graceful stop (drain pool, close listener)
=======  =============  ====================================================

Isolation: every request materializes its own scenario and every cold
run owns its engine state, so concurrent clients cannot contaminate each
other's rows (test-enforced bit-for-bit against isolated serial runs).
The one process-global the server does share — the observability clock —
only stamps *trace* timestamps, never row values.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from ..experiments import cache
from ..obs import collector as _trace
from ..util import perf
from .protocol import ProtocolError, parse_run_request, row_payload
from .scheduler import QueueFull, WorkerPool

__all__ = ["ServeDaemon"]

_DEFAULT_COLD_TIMEOUT_S = 600.0


def _env_float(name: str, default: float) -> float:
    import os

    raw = os.environ.get(name, "").strip()
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


class _Broadcast:
    """Fans trace events to connected ``/events`` streamers.

    While at least one streamer is attached the hub is a collector
    sink, so watching a live run needs no ambient ``REPRO_TRACE``, and
    the streamed events are not buffered in the collector unless
    tracing is on.  Each subscriber gets a bounded queue; a slow reader
    drops events rather than stalling the simulation thread.
    """

    def __init__(self, depth: int = 4096) -> None:
        self._depth = depth
        self._subs: list[queue.Queue] = []
        self._lock = threading.Lock()

    def _fan(self, event) -> None:
        with self._lock:
            subs = list(self._subs)
        for q in subs:
            try:
                q.put_nowait(event)
            except queue.Full:
                pass  # slow consumer: drop, never block the emitter

    def attach(self) -> queue.Queue:
        q: queue.Queue = queue.Queue(maxsize=self._depth)
        with self._lock:
            if not self._subs:
                _trace.add_sink(self._fan)
            self._subs.append(q)
        return q

    def detach(self, q: queue.Queue) -> None:
        with self._lock:
            try:
                self._subs.remove(q)
            except ValueError:
                return
            if not self._subs:
                _trace.remove_sink(self._fan)

    def streamers(self) -> int:
        with self._lock:
            return len(self._subs)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Keep-alive clients otherwise stall ~40 ms per request on Nagle's
    # algorithm meeting the client's delayed ACK.
    disable_nagle_algorithm = True
    daemon: "ServeDaemon"  # bound by ServeDaemon via a subclass

    # -- plumbing -------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: D102 — silence stderr spam
        if self.daemon.verbose:
            super().log_message(fmt, *args)

    def _json(self, status: int, obj: dict, headers: dict = ()) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in dict(headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(f"body is not valid JSON: {exc}") from exc

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        url = urlparse(self.path)
        if url.path == "/healthz":
            self._json(200, {"ok": True, "uptime_s": self.daemon.uptime_s})
        elif url.path == "/stats":
            self._json(200, self.daemon.stats())
        elif url.path == "/events":
            self._stream_events(parse_qs(url.query))
        else:
            self._json(404, {"error": f"no such endpoint: {url.path}"})

    def do_POST(self) -> None:  # noqa: N802
        url = urlparse(self.path)
        try:
            if url.path == "/run":
                self._run()
            elif url.path == "/shutdown":
                self._json(200, {"ok": True, "stopping": True})
                threading.Thread(
                    target=self.daemon.stop, daemon=True
                ).start()
            else:
                self._json(404, {"error": f"no such endpoint: {url.path}"})
        except ProtocolError as exc:
            self.daemon.count("bad_requests")
            self._json(400, {"error": str(exc)})
        except QueueFull as exc:
            self.daemon.count("rejected")
            self._json(
                429,
                {"error": str(exc), "pending": exc.pending},
                headers={"Retry-After": str(exc.retry_after_s)},
            )
        except BrokenPipeError:
            raise
        except Exception as exc:  # noqa: BLE001 — 500, never a dead thread
            self.daemon.count("errors")
            self._json(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- /run -----------------------------------------------------------------

    def _run(self) -> None:
        t0 = time.perf_counter()
        daemon = self.daemon
        daemon.count("requests")
        perf.add("serve.requests")
        scenario, policies = parse_run_request(self._read_body())

        results = []
        cold: list[tuple[str, str, object]] = []
        for policy in policies:
            key = cache.cache_key(scenario, policy)
            warm = cache.serve_lookup(scenario, policy, key)
            if warm is not None:
                row, tier = warm
                daemon.count("warm_rows")
                if tier == "delta":
                    daemon.count("delta_rows")
                results.append((policy, key, row, tier))
            else:
                # QueueFull propagates → 429 for the whole request; jobs
                # already queued still run and warm the cache for the
                # client's retry.
                job = daemon.pool.submit(
                    lambda s=scenario, p=policy: cache.run_cell(s, p)
                )
                cold.append((policy, key, job))
        for policy, key, job in cold:
            row = job.result(timeout=daemon.cold_timeout_s)
            daemon.count("cold_rows")
            results.append((policy, key, row, "cold"))

        order = {p: i for i, p in enumerate(policies)}
        results.sort(key=lambda r: order[r[0]])
        self._json(
            200,
            {
                "results": [
                    {
                        "policy": policy,
                        "tier": tier,
                        "key": key,
                        "row": row_payload(row),
                    }
                    for policy, key, row, tier in results
                ],
                "elapsed_ms": (time.perf_counter() - t0) * 1e3,
            },
        )

    # -- /events --------------------------------------------------------------

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _stream_events(self, params: dict) -> None:
        try:
            max_events = int(params.get("max", [0])[0]) or None
        except ValueError:
            max_events = None
        try:
            timeout_s = float(params.get("timeout_s", [0])[0]) or None
        except ValueError:
            timeout_s = None

        sub = self.daemon.broadcast.attach()
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        sent = 0
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        try:
            while True:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                try:
                    event = sub.get(timeout=0.25)
                except queue.Empty:
                    continue
                self._write_chunk(event.to_json().encode("utf-8") + b"\n")
                sent += 1
                if max_events is not None and sent >= max_events:
                    break
            self._write_chunk(b"")  # terminal chunk is written by close
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; nothing to do
        finally:
            self.daemon.broadcast.detach(sub)
            self.close_connection = True


class ServeDaemon:
    """The always-on what-if service (see the package docstring).

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`).  The daemon can either block the calling thread
    (:meth:`serve_forever`, the CLI path) or run in a background thread
    (:meth:`start`, the test/bench path).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
        lru_capacity: Optional[int] = None,
        cold_timeout_s: Optional[float] = None,
        verbose: bool = False,
    ) -> None:
        cache.enable_serve_tier(lru_capacity)
        # Key every row by the code this process imported, not by
        # whatever is on disk at its first request.
        cache.code_fingerprint()
        self.verbose = verbose
        self.cold_timeout_s = (
            cold_timeout_s
            if cold_timeout_s is not None
            else _env_float("REPRO_SERVE_TIMEOUT_S", _DEFAULT_COLD_TIMEOUT_S)
        )
        self.pool = WorkerPool(workers=workers, queue_depth=queue_depth)
        self.broadcast = _Broadcast()
        self._counters: dict[str, int] = {}
        self._counters_lock = threading.Lock()
        self._started_at = time.time()
        handler = type("_BoundHandler", (_Handler,), {"daemon": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_s(self) -> float:
        return time.time() - self._started_at

    def serve_forever(self) -> None:
        """Block and serve until :meth:`stop` (or process death)."""
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self._stopped.set()

    def start(self) -> "ServeDaemon":
        """Serve from a background thread; returns immediately."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: close the listener, drain the worker pool."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.pool.shutdown(timeout=timeout)
        cache.disable_serve_tier()
        if self._thread is not None:
            self._thread.join(timeout)
        self._stopped.set()

    # -- bookkeeping ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._counters_lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def stats(self) -> dict:
        with self._counters_lock:
            counters = dict(self._counters)
        return {
            "uptime_s": self.uptime_s,
            "requests": counters,
            "streamers": self.broadcast.streamers(),
            "pool": self.pool.stats(),
            "cache": cache.stats(),
        }
