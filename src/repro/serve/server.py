"""The serve daemon: a lean HTTP/1.1 front end over the warm/cold paths.

One :class:`ServeDaemon` owns

* a :class:`~http.server.ThreadingHTTPServer` (one handler thread per
  connection — cheap, since warm requests are sub-millisecond and cold
  requests spend their time parked on a pool job).  Connections are
  HTTP/1.1 and stay open between requests; the daemon tracks them, so
  :meth:`ServeDaemon.stop` closes them all and ``/stats`` counts them.
  The handler keeps the stdlib's connection loop and request-line
  rules but reads headers with the shared head reader
  (:func:`~repro.serve.protocol.read_head`) and sends every response,
  protocol errors included, in one write,
* a :class:`~repro.serve.scheduler.WorkerPool` running cold cells,
* the serving tier in :mod:`repro.experiments.cache` (enabled at boot),
* a broadcast hub fanning live trace events to ``/events`` streamers.

API (all JSON):

=======  =============  ====================================================
Method   Path           Semantics
=======  =============  ====================================================
GET      ``/healthz``   liveness probe: ``{"ok": true}``
GET      ``/stats``     cache + pool + request + connection counters
POST     ``/run``       ``{"scenario": {...}, "policies": [...]}`` →
                        per-policy rows with serving tier and content hash;
                        ``400`` on malformed requests, ``429`` +
                        ``Retry-After`` under backpressure
GET      ``/events``    live trace stream, chunked NDJSON; query params
                        ``max`` (close after N events) and ``timeout_s``
POST     ``/shutdown``  graceful stop (close listener and connections,
                        drain pool); the response closes its connection
=======  =============  ====================================================

Protocol errors (a bad request line, an oversized head, an unknown
method) are answered like the routes' errors, ``{"error": ...}``, and
close the connection.

Warm requests skip parsing and encoding: the daemon remembers, per
exact ``/run`` body bytes, the scenario, policies and content keys that
parsing the body produced, and each warm result object of its answer
as JSON bytes, encoded on first use per policy and serving tier.
Parsing is deterministic, the code fingerprint is fixed at boot and a
content key's row never changes, so a body's parse, keys and encoded
results hold for the daemon's lifetime; an answer is those bytes
joined, byte for byte what ``json.dumps`` writes.  The memo is bounded
like the serving LRU (``REPRO_SERVE_LRU`` entries, least recently used
first out, 0 = no memo), and ``/stats`` counts its hits as
``memo_hits``.  A body it has not seen, or one that failed to parse,
takes the full path, and only bodies that parsed and hashed are
remembered.  A request's counters are applied at once, before its
answer is sent.

Isolation: requests with identical bodies share one read-only scenario
(as a sweep shares one across its policies), every cold run owns its
engine state, and no run writes to its scenario, so concurrent clients
cannot contaminate each other's rows (test-enforced bit-for-bit against
isolated serial runs).  The one process-global the server does share —
the observability clock — only stamps *trace* timestamps, never row
values.
"""

from __future__ import annotations

import email.utils
import json
import queue
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from ..experiments import cache
from ..experiments.scenarios import Scenario
from ..obs import collector as _trace
from ..util import perf
from .protocol import (
    HeadTooLarge,
    ProtocolError,
    parse_run_request,
    read_head,
    row_payload,
    write_head,
)
from .scheduler import QueueFull, WorkerPool

__all__ = ["ServeDaemon"]

_DEFAULT_COLD_TIMEOUT_S = 600.0

#: Larger ``/run`` bodies are parsed every time: the memo bounds its
#: entry count, so each entry's size must be bounded too.  A request
#: setting every scenario field and naming every policy is under 1 KiB.
_MEMO_MAX_BODY = 4096


def _http_version(word: str) -> Optional[tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` word, ``None`` if malformed
    (by :class:`~http.server.BaseHTTPRequestHandler`'s rules)."""
    major, dot, minor = word[5:].partition(".")
    if not (word.startswith("HTTP/") and dot and major.isdigit()
            and minor.isdigit() and len(major) <= 10 and len(minor) <= 10):
        return None
    try:
        return int(major), int(minor)
    except ValueError:  # a non-ASCII digit
        return None


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
    #: The ``Server`` header, the stdlib's ``version_string()``.
    server_header = (f"{BaseHTTPRequestHandler.server_version} "
                     f"{BaseHTTPRequestHandler.sys_version}")

    # -- plumbing -------------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.daemon._opened(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.daemon._closed(self.connection)

    def log_message(self, fmt, *args):  # noqa: D102 — silence stderr spam
        if self.daemon.verbose:
            super().log_message(fmt, *args)

    def parse_request(self) -> bool:
        """The stdlib's request-line and header rules over the shared
        head reader: 400 on a malformed line or version, 505 on HTTP/2
        and later, 431 on an oversized head; ``Connection`` and
        ``Expect: 100-continue`` are honoured.  ``self.headers`` maps
        lower-cased names to values."""
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = line = str(
            self.raw_requestline, "latin-1"
        ).rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        if len(words) >= 3:
            version = _http_version(words[-1])
            if version is None:
                self.send_error(400, f"Bad request version ({words[-1]!r})")
                return False
            if version >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({words[-1]})")
                return False
            self.close_connection = version < (1, 1)
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({line!r})")
            return False
        self.command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if self.command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type "
                                     f"({self.command!r})")
                return False
        # As the stdlib: a leading '//' would read as a scheme-less URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            _, self.headers = read_head(self.rfile, self.raw_requestline)
        except HeadTooLarge as exc:
            self.send_error(exc.status, str(exc))
            return False
        conntype = self.headers.get("connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        if (self.headers.get("expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> None:
        """Answer a protocol error like a route's, ``{"error": ...}``,
        and close the connection."""
        if message is None:
            message = self.responses.get(code, ("",))[0]
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._json(int(code), {"error": message})

    def _respond(self, status: int, body: bytes, headers) -> None:
        """Send one response in a single write: the head, with
        ``headers`` and ``Connection: close`` when the connection ends
        after it, then ``body``.  Unlike the stdlib, an answer to a
        request line without a usable version has a head too."""
        self.log_request(status)
        fields = [("Server", self.server_header),
                  ("Date", self.daemon.http_date()), *headers]
        if self.close_connection:
            fields.append(("Connection", "close"))
        reason = self.responses.get(status, ("",))[0]
        self.wfile.write(write_head(
            f"{self.protocol_version} {status} {reason}", fields) + body)

    def _json(self, status: int, obj, headers=()) -> None:
        """Answer ``obj`` as JSON; bytes are sent as they are."""
        body = obj if isinstance(obj, bytes) else json.dumps(obj).encode()
        self._respond(status, body, [
            ("Content-Type", "application/json"),
            ("Content-Length", len(body)),
            *headers,
        ])

    def _read_body(self) -> bytes:
        """Read the whole request body, before any routing.

        Unread body bytes would be parsed as the next request on a
        kept-alive connection, so until the read completes the
        connection closes after its response.
        """
        close_after = self.close_connection
        self.close_connection = True
        if "transfer-encoding" in self.headers:
            raise ProtocolError("send the body with a Content-Length")
        try:
            length = int(self.headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise ProtocolError("bad Content-Length")
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:
            raise ProtocolError("body shorter than its Content-Length")
        self.close_connection = close_after
        return raw

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
        path = self.path
        if path not in ("/run", "/shutdown"):
            path = urlparse(path).path
        counts: list[str] = []
        headers = ()
        try:
            body = self._read_body()
            if path == "/run":
                status, answer = 200, self._run(body, counts)
            elif path == "/shutdown":
                self.close_connection = True
                status, answer = 200, {"ok": True, "stopping": True}
            else:
                status, answer = 404, {"error": f"no such endpoint: {path}"}
        except ProtocolError as exc:
            counts.append("bad_requests")
            status, answer = 400, {"error": str(exc)}
        except QueueFull as exc:
            counts.append("rejected")
            status, answer = 429, {"error": str(exc), "pending": exc.pending}
            headers = [("Retry-After", exc.retry_after_s)]
        except Exception as exc:  # noqa: BLE001 — 500, never a dead thread
            counts.append("errors")
            status, answer = 500, {"error": f"{type(exc).__name__}: {exc}"}
        # Under one lock, and before the answer: a /stats read sent
        # after it sees this request's counts.
        self.daemon.count(*counts)
        self._json(status, answer, headers)
        if path == "/shutdown" and status == 200:
            threading.Thread(target=self.daemon.stop, daemon=True).start()

    # -- /run -----------------------------------------------------------------

    def _run(self, body: bytes, counts: list[str]) -> bytes:
        """The answer to a ``/run`` body, as JSON bytes; the request's
        counter names go to ``counts``."""
        t0 = time.perf_counter()
        daemon = self.daemon
        counts.append("requests")
        perf.add("serve.requests")
        scenario, cells = daemon._parse_run(body, counts)

        results: list[bytes] = []
        cold = []
        lru = daemon.lru
        for policy, key, encoded in cells:
            warm = cache.serve_lookup(scenario, policy, key, lru)
            if warm is not None:
                row, tier = warm
                counts.append("warm_rows")
                if tier == "delta":
                    counts.append("delta_rows")
                result = encoded.get(tier)
                if result is None:  # racing requests encode equal bytes
                    result = encoded[tier] = _result(policy, key, row, tier)
                results.append(result)
            else:
                # QueueFull propagates → 429 for the whole request; jobs
                # already queued still run and warm the cache for the
                # client's retry.
                job = daemon.pool.submit(
                    lambda s=scenario, p=policy: cache.run_cell(s, p, lru)
                )
                cold.append((len(results), policy, key, job))
                results.append(b"")
        for i, policy, key, job in cold:
            row = job.result(timeout=daemon.cold_timeout_s)
            counts.append("cold_rows")
            results[i] = _result(policy, key, row, "cold")
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        # As json.dumps writes the whole answer: default separators,
        # floats by float.__repr__.
        return (b'{"results": [' + b", ".join(results)
                + b'], "elapsed_ms": ' + repr(elapsed_ms).encode() + b"}")

    # -- /events --------------------------------------------------------------

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))

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
        self._respond(200, b"", [("Content-Type", "application/x-ndjson"),
                                 ("Transfer-Encoding", "chunked")])
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
        # Key every row by the code this process imported, not by
        # whatever is on disk at its first request.
        cache.code_fingerprint()
        self.verbose = verbose
        self.cold_timeout_s = (
            cold_timeout_s
            if cold_timeout_s is not None
            else _env_float("REPRO_SERVE_TIMEOUT_S", _DEFAULT_COLD_TIMEOUT_S)
        )
        self.broadcast = _Broadcast()
        self._counters: dict[str, int] = {}
        self._counters_lock = threading.Lock()
        #: Open handler connections; ``None`` once :meth:`stop` began.
        self._conns: Optional[set[socket.socket]] = set()
        self._accepted = 0
        self._conns_lock = threading.Lock()
        self._started_at = time.time()
        #: The ``Date`` header of the current second, ``(second, text)``.
        self._date: tuple[int, str] = (-1, "")
        self._thread: Optional[threading.Thread] = None
        #: Whether a serve loop began, and whether stop() began (both
        #: under ``_conns_lock``): a loop never begins after a stop.
        self._serving = self._stopping = False
        self._stopped = threading.Event()
        # Bind before starting anything: a busy port raises here, with
        # no worker running and the serving tier as it was.
        handler = type("_BoundHandler", (_Handler,), {"daemon": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.pool = WorkerPool(workers=workers, queue_depth=queue_depth)
        #: This daemon's serving LRU: content key → row.
        self.lru = cache.serving_lru(lru_capacity)
        #: Exact ``/run`` body bytes → (scenario, ((policy, key,
        #: encoded results), ...)), bounded like the LRU.
        self._memo = (
            cache.BoundedLRU(self.lru.capacity)
            if self.lru is not None else None
        )

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
        with self._conns_lock:
            self._serving = not self._stopping
        try:
            if self._serving:
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
        """Graceful stop: close the listener and every open connection,
        so no request is answered after it, then drain the worker pool."""
        with self._conns_lock:
            self._stopping = True
        # shutdown() waits until a serve loop exits, so it is called
        # only if one began: never on a daemon that was never started.
        if self._serving:
            self.httpd.shutdown()
        self.httpd.server_close()
        with self._conns_lock:
            conns, self._conns = self._conns or set(), None
        for conn in conns:
            _hang_up(conn)
        self.pool.shutdown(timeout=timeout)
        if self.lru is not None:
            self.lru.clear()
        if self._thread is not None:
            self._thread.join(timeout)
        self._stopped.set()

    # -- bookkeeping ----------------------------------------------------------

    def _opened(self, conn: socket.socket) -> None:
        with self._conns_lock:
            self._accepted += 1
            if self._conns is not None:
                self._conns.add(conn)
                return
        _hang_up(conn)  # accepted while stopping

    def _closed(self, conn: socket.socket) -> None:
        with self._conns_lock:
            if self._conns is not None:
                self._conns.discard(conn)

    def _parse_run(
        self, body: bytes, counts: Optional[list[str]] = None
    ) -> tuple[Scenario, tuple]:
        """A ``/run`` body's scenario and its ``(policy, key, encoded)``
        cells, ``encoded`` mapping a serving tier to the cell's result
        object as JSON bytes (filled by the caller; a policy's cells
        share one).

        A remembered body skips decoding, validation and hashing, and
        keeps its encoded results; any other body is parsed, and
        remembered once it parsed and hashed without error.  A memo hit
        is added to ``counts``, or counted at once if none is given.
        Raises :class:`ProtocolError` on a bad body.
        """
        memo = self._memo if len(body) <= _MEMO_MAX_BODY else None
        if memo is not None:
            parsed = memo.get(body)
            if parsed is not None:
                if counts is None:
                    self.count("memo_hits")
                else:
                    counts.append("memo_hits")
                return parsed
        try:
            obj = json.loads(body) if body else {}
        except ValueError as exc:
            raise ProtocolError(f"body is not valid JSON: {exc}") from exc
        scenario, policies = parse_run_request(obj)
        encoded: dict[str, dict[str, bytes]] = {}
        parsed = scenario, tuple(
            (policy, cache.cache_key(scenario, policy),
             encoded.setdefault(policy, {}))
            for policy in policies
        )
        if memo is not None:
            memo.put(body, parsed)
        return parsed

    def http_date(self) -> str:
        """The ``Date`` header's value, formatted at most once per
        second.  Handler threads replace the cached pair whole, so none
        reads one second's text for another's."""
        second = int(time.time())
        cached = self._date
        if cached[0] != second:
            cached = self._date = (
                second, email.utils.formatdate(second, usegmt=True))
        return cached[1]

    def count(self, *names: str) -> None:
        """Add one to each named counter, under one lock."""
        with self._counters_lock:
            for name in names:
                self._counters[name] = self._counters.get(name, 0) + 1

    def stats(self) -> dict:
        with self._counters_lock:
            counters = dict(self._counters)
        with self._conns_lock:
            connections = {
                "accepted": self._accepted,
                "open": len(self._conns or ()),
            }
        return {
            "uptime_s": self.uptime_s,
            "requests": counters,
            "connections": connections,
            "streamers": self.broadcast.streamers(),
            "pool": self.pool.stats(),
            "cache": cache.stats(self.lru),
        }


def _result(policy: str, key: str, row, tier: str) -> bytes:
    """One result object of a ``/run`` answer, as ``json.dumps`` of the
    answer writes it."""
    return json.dumps({"policy": policy, "tier": tier, "key": key,
                       "row": row_payload(row)}).encode()


def _hang_up(conn: socket.socket) -> None:
    """End both directions of a handler connection: its thread reads EOF
    and exits, and the peer reads EOF instead of another response."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the peer already went away
