"""Stdlib client for the serve daemon (:mod:`http.client` — no new deps).

Used by the CLI, the load-test script, and the test suite.  The client
is deliberately thin: JSON in, JSON out, with backpressure surfaced as
:class:`ServerBusy` (carrying the server's ``Retry-After`` hint) so
callers choose their own retry discipline.

Requests reuse idle HTTP/1.1 connections, so one client thread keeps
one connection open; threads sharing a client send on their own.  The
client talks to the daemon directly: it does not read ``http_proxy``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Iterator, Optional, Sequence
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServerBusy", "ServerError"]

#: How a request fails on a kept connection the daemon has closed
#: (``RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE = (ConnectionResetError, BrokenPipeError)


class ServerError(RuntimeError):
    """A non-2xx response that is not backpressure."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class ServerBusy(ServerError):
    """429: the worker queue is full; retry after ``retry_after_s``."""

    def __init__(self, detail: str, retry_after_s: float) -> None:
        super().__init__(429, detail)
        self.retry_after_s = retry_after_s


class ServeClient:
    """Talk to one serve daemon at ``base_url``.

    Safe to share between threads.  :meth:`close` (or leaving a
    ``with`` block) closes the idle connections.
    """

    def __init__(self, base_url: str, timeout: float = 630.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"not an http:// URL: {base_url!r}")
        self._host = url.hostname
        self._port = url.port or 80
        self._prefix = url.path
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections; the client stays usable."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- plumbing -------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout
        )

    def _send(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        data: Optional[bytes],
    ) -> http.client.HTTPResponse:
        conn.request(
            method,
            self._prefix + path,
            body=data,
            headers={"Content-Type": "application/json"},
        )
        return conn.getresponse()

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        try:
            if conn is not None:
                try:
                    resp = self._send(conn, method, path, data)
                except _STALE:
                    # Cells are content-addressed, so every request is
                    # idempotent: resend once, on a fresh connection.
                    conn.close()
                    conn = None
            if conn is None:
                conn = self._connect()
                resp = self._send(conn, method, path, data)
            payload = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        if resp.status >= 400:
            raise _error(resp, payload)
        return json.loads(payload)

    # -- API ------------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def run(
        self,
        scenario: dict,
        policies: Sequence[str] = ("static-local",),
        retries: int = 0,
    ) -> dict:
        """Submit one scenario; returns the full response payload.

        ``retries`` > 0 sleeps out ``Retry-After`` on 429 and resubmits —
        the loop a well-behaved client runs under backpressure.
        """
        body = {"scenario": scenario, "policies": list(policies)}
        attempt = 0
        while True:
            try:
                return self._request("POST", "/run", body)
            except ServerBusy as busy:
                if attempt >= retries:
                    raise
                attempt += 1
                time.sleep(busy.retry_after_s)

    def stream_events(
        self,
        max_events: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> Iterator[dict]:
        """Yield live trace events from ``/events`` as dicts.

        The server closes the stream after ``max_events`` events or
        ``timeout_s`` seconds (whichever is given first); chunked
        transfer decoding is handled by :mod:`http.client`.  The stream
        has its own connection, closed when the generator ends.
        """
        params = []
        if max_events is not None:
            params.append(f"max={int(max_events)}")
        if timeout_s is not None:
            params.append(f"timeout_s={float(timeout_s)}")
        path = "/events" + ("?" + "&".join(params) if params else "")
        conn = self._connect()
        try:
            resp = self._send(conn, "GET", path, None)
            if resp.status >= 400:
                raise _error(resp, resp.read())
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")


def _error(resp: http.client.HTTPResponse, payload: bytes) -> ServerError:
    """The exception for an error response: 429 is :class:`ServerBusy`."""
    try:
        detail = json.loads(payload).get("error", "")
    except (ValueError, AttributeError):  # detail is best-effort
        detail = ""
    if resp.status == 429:
        retry = float(resp.getheader("Retry-After", 1) or 1)
        return ServerBusy(detail, retry)
    return ServerError(resp.status, detail or resp.reason)
