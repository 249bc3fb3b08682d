"""Stdlib client for the serve daemon: lean HTTP/1.1 over a socket.

Used by the CLI, the load-test script, and the test suite.  The client
is deliberately thin: JSON in, JSON out, with backpressure surfaced as
:class:`ServerBusy` (carrying the server's ``Retry-After`` hint) so
callers choose their own retry discipline.

Requests reuse idle HTTP/1.1 connections, so one client thread keeps
one connection open; threads sharing a client send on their own.  A
connection is a ``TCP_NODELAY`` socket and its buffered reader; a
request goes out in one ``sendall``, and its response head is read by
the daemon's own head reader (:func:`~repro.serve.protocol.read_head`),
so no exchange runs :mod:`http.client` or the :mod:`email` parser.  The
client talks to the daemon directly: it does not read ``http_proxy``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import BinaryIO, Iterator, NamedTuple, Optional, Sequence
from urllib.parse import urlsplit

from .protocol import MAX_LINE, ProtocolError, read_head

__all__ = ["ServeClient", "ServerBusy", "ServerError"]

#: How a request fails on a kept connection the daemon has closed.
_STALE = (ConnectionResetError, BrokenPipeError)

#: An open connection: the socket and its buffered reader.
_Conn = tuple[socket.socket, BinaryIO]

#: The end of a request head that carries a body of ``%d`` bytes.
_BODY_HEAD = b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"


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


class _Response(NamedTuple):
    """A response head; ``keep`` says whether the connection carries
    another exchange once the body is read."""

    status: int
    reason: str
    headers: dict[str, str]
    keep: bool

    def error(self, payload: bytes) -> ServerError:
        """The exception for an error response: 429 is
        :class:`ServerBusy`."""
        try:
            detail = json.loads(payload).get("error", "")
        except (ValueError, AttributeError):  # detail is best-effort
            detail = ""
        if self.status == 429:
            retry = float(self.headers.get("retry-after") or 1)
            return ServerBusy(detail, retry)
        return ServerError(self.status, detail or self.reason)


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
        self._authority = url.netloc
        self._prefix = url.path
        self._idle: list[_Conn] = []
        self._lock = threading.Lock()
        #: ``(method, path)`` → its head's fixed part (see :meth:`_head`).
        self._heads: dict[tuple[str, str], bytes] = {}

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections; the client stays usable."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            _close(conn)

    # -- plumbing -------------------------------------------------------------

    def _open(self) -> _Conn:
        sock = socket.create_connection((self._host, self._port),
                                        self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def _head(self, method: str, path: str) -> bytes:
        """A request head's fixed part: its start line and ``Host``."""
        return (f"{method} {self._prefix}{path} HTTP/1.1\r\n"
                f"Host: {self._authority}\r\n").encode("latin-1")

    def _exchange(self, conn: _Conn, head: bytes,
                  data: Optional[bytes]) -> _Response:
        """Send one request on ``conn``, its head's fixed part ``head``
        and ``data``, and read its response head."""
        sock, rfile = conn
        end = b"\r\n" if data is None else _BODY_HEAD % len(data)
        sock.sendall(head + end + (data or b""))
        start, headers = read_head(rfile)
        if not start:
            raise ConnectionResetError(
                "the daemon closed the connection without answering")
        version, _, rest = start.partition(" ")
        code, _, reason = rest.partition(" ")
        if not (version.startswith("HTTP/") and len(code) == 3
                and code.isdigit()):
            raise ProtocolError(f"malformed status line: {start!r}")
        framed = "content-length" in headers or _chunked(headers)
        keep = (version == "HTTP/1.1" and framed
                and "close" not in headers.get("connection", "").lower())
        return _Response(int(code), reason, headers, keep)

    def _request(
        self, method: str, path: str, data: Optional[bytes] = None
    ) -> dict:
        head = self._heads.get((method, path))
        if head is None:
            head = self._heads[method, path] = self._head(method, path)
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        try:
            if conn is not None:
                try:
                    resp = self._exchange(conn, head, data)
                except _STALE:
                    # Cells are content-addressed, so every request is
                    # idempotent: resend once, on a fresh connection.
                    _close(conn)
                    conn = None
            if conn is None:
                conn = self._open()
                resp = self._exchange(conn, head, data)
            payload = b"".join(_body(conn[1], resp))
        except BaseException:
            if conn is not None:
                _close(conn)
            raise
        if resp.keep:
            with self._lock:
                self._idle.append(conn)
        else:
            _close(conn)
        if resp.status >= 400:
            raise resp.error(payload)
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
        data = json.dumps(
            {"scenario": scenario, "policies": list(policies)}
        ).encode("utf-8")
        attempt = 0
        while True:
            try:
                return self._request("POST", "/run", data)
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
        ``timeout_s`` seconds (whichever is given first).  Events are
        NDJSON lines in chunked encoding, and a line may span chunks.
        The stream has its own connection, closed when the generator
        ends.
        """
        params = []
        if max_events is not None:
            params.append(f"max={int(max_events)}")
        if timeout_s is not None:
            params.append(f"timeout_s={float(timeout_s)}")
        path = "/events" + ("?" + "&".join(params) if params else "")
        conn = self._open()
        try:
            resp = self._exchange(conn, self._head("GET", path), None)
            chunks = _body(conn[1], resp)
            if resp.status >= 400:
                raise resp.error(b"".join(chunks))
            tail = b""
            for chunk in chunks:
                *lines, tail = (tail + chunk).split(b"\n")
                for line in lines:
                    if line.strip():
                        yield json.loads(line)
            if tail.strip():
                yield json.loads(tail)
        finally:
            _close(conn)

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown", b"")


def _body(rfile: BinaryIO, resp: _Response) -> Iterator[bytes]:
    """A response body's pieces: its chunks in chunked encoding, else
    ``Content-Length`` bytes, else everything up to the close."""
    if _chunked(resp.headers):
        while True:
            line = rfile.readline(MAX_LINE + 1)
            if not line:
                raise _cut_short()
            size = _size(line.split(b";", 1)[0], 16)
            if size < 0:
                raise ProtocolError(f"bad chunk size: {line!r}")
            if size == 0:
                read_head(rfile, b"")  # the trailer fields
                return
            chunk = rfile.read(size)
            if len(chunk) < size or not rfile.read(2):
                raise _cut_short()
            yield chunk
    length = resp.headers.get("content-length")
    if length is None:
        yield rfile.read()
        return
    size = _size(length, 10)
    if size < 0:
        raise ProtocolError(f"bad Content-Length: {length!r}")
    data = rfile.read(size)
    if len(data) < size:
        raise _cut_short()
    yield data


def _size(text, base: int) -> int:
    """A body or chunk size, or -1 when ``text`` is not one."""
    try:
        return int(text, base)
    except ValueError:
        return -1


def _chunked(headers: dict[str, str]) -> bool:
    return "chunked" in headers.get("transfer-encoding", "").lower()


def _cut_short() -> ConnectionError:
    return ConnectionError("the daemon closed the connection mid-response")


def _close(conn: _Conn) -> None:
    """Close a connection's reader and its socket."""
    sock, rfile = conn
    rfile.close()
    sock.close()
