"""The serve daemon and its client on the wire: raw sockets on one end.

The daemon's cases hold for the stdlib ``BaseHTTPRequestHandler`` rules
it keeps, so they compare status codes only: error bodies are JSON.
The client's cases run against stub servers on ``socket.create_server``
that send exactly the bytes a case needs.  The lean-path guard pins
that warm requests run no ``email`` header parsing and leave the
handler in one write each.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import socketserver
import threading

import pytest

from repro.serve import ServeClient, ServeDaemon
from repro.serve.protocol import ProtocolError

SCENARIO = {"rate": 3.0, "seed": 5, "period": 300.0, "variability": "both"}


@pytest.fixture
def daemon():
    d = ServeDaemon(workers=1, queue_depth=4, lru_capacity=16).start()
    yield d
    d.stop()


@pytest.fixture
def conn(daemon):
    """A raw connection to the daemon and its buffered reader."""
    sock = socket.create_connection((daemon.host, daemon.port), timeout=10)
    rfile = sock.makefile("rb")
    yield sock, rfile
    rfile.close()
    sock.close()


def read_response(rfile) -> tuple[int, dict, bytes]:
    """One response: status, lower-cased headers, body.

    A response without a status line is the stdlib's HTTP/0.9-style
    answer to a request line it cannot parse: its error page names the
    code, and the body runs to the close."""
    line = rfile.readline()
    if not line.startswith(b"HTTP/"):
        page = line + rfile.read()
        return int(re.search(rb"Error code: (\d+)", page).group(1)), {}, page
    status = int(line.split()[1])
    headers = {}
    while True:
        line = rfile.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if 100 <= status < 200:
        return status, headers, b""
    length = headers.get("content-length")
    body = rfile.read(int(length)) if length is not None else rfile.read()
    return status, headers, body


def answer(daemon, data: bytes) -> int:
    """The status the daemon answers ``data`` with, on a fresh
    connection.  A request past the head bounds is answered before it
    is read whole, so the send may fail once the daemon has closed."""
    with socket.create_connection((daemon.host, daemon.port),
                                  timeout=10) as sock:
        try:
            sock.sendall(data)
        except OSError:
            pass
        with sock.makefile("rb") as rfile:
            return read_response(rfile)[0]


def closed(sock: socket.socket) -> bool:
    """Whether the peer closed ``sock``'s connection (it reads EOF)."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def get(path: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"GET {path} {version}", "Host: localhost", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1")


class TestDaemonWire:
    def test_pipelined_requests_are_answered_in_order(self, conn):
        sock, rfile = conn
        sock.sendall(get("/healthz") + get("/stats"))
        status, _, body = read_response(rfile)
        assert status == 200 and json.loads(body)["ok"] is True
        status, _, body = read_response(rfile)
        assert status == 200 and "connections" in json.loads(body)

    def test_http10_without_keep_alive_closes_after_the_answer(self, conn):
        sock, rfile = conn
        sock.sendall(get("/healthz", version="HTTP/1.0"))
        assert read_response(rfile)[0] == 200
        assert rfile.read() == b""

    def test_connection_close_closes_after_the_answer(self, conn):
        sock, rfile = conn
        sock.sendall(get("/healthz", "Connection: close"))
        assert read_response(rfile)[0] == 200
        assert rfile.read() == b""

    def test_expect_100_continue_before_the_body(self, conn):
        sock, rfile = conn
        body = json.dumps({"scenario": {"bogus": 1}}).encode()
        sock.sendall(
            b"POST /run HTTP/1.1\r\nHost: localhost\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        assert read_response(rfile)[0] == 100
        sock.sendall(body)
        assert read_response(rfile)[0] == 400

    def test_lower_case_content_length_frames_the_body(self, conn):
        sock, rfile = conn
        body = json.dumps({"scenario": {"bogus": 1}}).encode()
        sock.sendall(
            b"POST /run HTTP/1.1\r\nhost: localhost\r\n"
            b"content-length: %d\r\n\r\n%s" % (len(body), body)
        )
        status, _, payload = read_response(rfile)
        assert status == 400 and b"bogus" in payload
        # The body was read whole: the next request parses cleanly.
        sock.sendall(get("/healthz"))
        assert read_response(rfile)[0] == 200

    def test_request_line_past_the_bound_is_414(self, daemon):
        assert answer(daemon, get("/" + "a" * 70_000)) == 414

    def test_101_header_lines_are_431(self, daemon):
        many = [f"X-Header-{i}: {i}" for i in range(101)]
        assert answer(daemon, get("/healthz", *many)) == 431

    def test_header_line_past_the_bound_is_431(self, daemon):
        assert answer(daemon, get("/healthz", "X-Big: " + "a" * 70_000)) == 431

    @pytest.mark.parametrize("line, status", [
        ("GET /healthz junk HTTP/1.1", 400),
        ("GARBAGE", 400),
        ("GET /healthz HTTP/1.x", 400),
        ("GET /healthz HTTP/2.0", 505),
        ("BREW /healthz HTTP/1.1", 501),
    ])
    def test_bad_request_lines(self, daemon, line, status):
        assert answer(daemon, line.encode() + b"\r\n\r\n") == status


class _Stub:
    """A one-thread server that runs ``serve(conn, rfile)`` on each of
    the first ``connections`` connections it accepts, in turn."""

    def __init__(self, serve, connections: int = 1) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10)
        self.accepted = 0
        self.errors: list[BaseException] = []
        host, port = self.listener.getsockname()
        self.url = f"http://{host}:{port}"
        self._thread = threading.Thread(target=self._run,
                                        args=(serve, connections))
        self._thread.start()

    def _run(self, serve, connections: int) -> None:
        try:
            for _ in range(connections):
                conn, _ = self.listener.accept()
                self.accepted += 1
                with conn, conn.makefile("rb") as rfile:
                    serve(conn, rfile)
        except BaseException as exc:  # reported on leaving the block
            self.errors.append(exc)

    def __enter__(self) -> "_Stub":
        return self

    def __exit__(self, *exc) -> None:
        self._thread.join(10)
        self.listener.close()
        assert not self._thread.is_alive()
        assert not self.errors, self.errors


def read_request(rfile) -> bytes:
    """One request head (the client's GETs carry no body)."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = rfile.readline()
        assert line, "the client closed before its request was whole"
        head += line
    return head


def chunk(data: bytes) -> bytes:
    return b"%X\r\n%s\r\n" % (len(data), data)


def ok(body: bytes, *headers: bytes) -> bytes:
    return b"\r\n".join([
        b"HTTP/1.1 200 OK", b"Content-Length: %d" % len(body), *headers,
        b"", body,
    ])


class TestClientWire:
    def test_response_sent_one_byte_per_send(self):
        def serve(conn, rfile):
            read_request(rfile)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in ok(b'{"ok": true}', b"Connection: close"):
                conn.sendall(bytes([byte]))
            assert closed(conn)

        with _Stub(serve) as stub:
            with ServeClient(stub.url, timeout=10) as client:
                assert client.health() == {"ok": True}

    def test_close_delimited_body(self):
        def serve(conn, rfile):
            read_request(rfile)
            conn.sendall(b'HTTP/1.1 200 OK\r\n\r\n{"ok": ')
            conn.sendall(b"true}")

        with _Stub(serve) as stub:
            with ServeClient(stub.url, timeout=10) as client:
                assert client.health() == {"ok": True}
                assert client._idle == []

    def test_connection_close_response_is_not_reused(self):
        seen: list[bytes] = []

        def serve(conn, rfile):
            seen.append(read_request(rfile))
            conn.sendall(ok(b'{"n": %d}' % len(seen), b"Connection: close"))
            assert closed(conn)

        with _Stub(serve, connections=2) as stub:
            with ServeClient(stub.url, timeout=10) as client:
                assert client.health() == {"n": 1}
                assert client.health() == {"n": 2}
        assert stub.accepted == 2
        assert all(b"\r\nHost: 127.0.0.1:" in head for head in seen)

    def test_ndjson_line_split_across_chunks(self):
        def serve(conn, rfile):
            read_request(rfile)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                + chunk(b'{"type": "a",')
                + chunk(b' "seq": 1}\n{"type": "b"}\n')
                + chunk(b"")
            )
            assert closed(conn)

        with _Stub(serve) as stub:
            events = list(ServeClient(stub.url, timeout=10).stream_events())
        assert events == [{"type": "a", "seq": 1}, {"type": "b"}]

    def test_close_closes_the_kept_connection(self):
        def serve(conn, rfile):
            read_request(rfile)
            conn.sendall(ok(b'{"ok": true}'))
            assert closed(conn)

        with _Stub(serve) as stub:
            client = ServeClient(stub.url, timeout=10)
            assert client.health() == {"ok": True}
            assert len(client._idle) == 1
            client.close()

    @pytest.mark.parametrize("response", [
        b"SPDY/3 200 OK\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"-2\r\n{}\r\n0\r\n\r\n",
    ])
    def test_malformed_response_closes_the_connection(self, response):
        def serve(conn, rfile):
            read_request(rfile)
            conn.sendall(response)
            assert closed(conn)

        with _Stub(serve) as stub:
            with ServeClient(stub.url, timeout=10) as client:
                with pytest.raises(ProtocolError):
                    client.health()
                assert client._idle == []


def test_warm_runs_take_the_lean_path(daemon, monkeypatch):
    """50 warm ``/run`` requests from a ``ServeClient``: no ``email``
    header parsing on either end, and each response leaves the handler
    in one write."""
    with ServeClient(daemon.url) as client:
        client.run(SCENARIO)  # the cold run warms the cell

        def refuse(*args, **kwargs):
            raise AssertionError("http.client.parse_headers was called")

        monkeypatch.setattr(http.client, "parse_headers", refuse)
        writes: list[int] = []
        write = socketserver._SocketWriter.write

        def counted(self, data):
            writes.append(len(data))
            return write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counted)
        for _ in range(50):
            (result,) = client.run(SCENARIO)["results"]
            assert result["tier"] == "lru"
    assert len(writes) == 50
