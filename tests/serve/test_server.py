"""End-to-end daemon tests over real HTTP (serve.server + serve.client).

The isolation class is the tentpole contract: concurrent interleaved
clients must receive rows bit-identical to isolated serial runs — zero
cross-request leaks.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.runner import SweepRow
from repro.experiments.scenarios import Scenario, run_policy
from repro.obs import collector as _trace
from repro.serve import ServeClient, ServeDaemon, ServerBusy, ServerError

SCENARIO = {"rate": 3.0, "seed": 5, "period": 300.0, "variability": "both"}


@pytest.fixture
def daemon():
    d = ServeDaemon(workers=2, queue_depth=8, lru_capacity=16).start()
    yield d
    d.stop()


@pytest.fixture
def client(daemon):
    with ServeClient(daemon.url) as c:
        yield c


def oracle_row(scenario_kwargs: dict, policy: str) -> dict:
    """The isolated serial run this cell must reproduce bit-for-bit.

    The wire form round-trips floats via ``repr``, so JSON-parsed
    responses compare exactly against this dict.
    """
    scenario = Scenario(**scenario_kwargs)
    row = SweepRow.from_result(scenario, run_policy(scenario, policy))
    return dataclasses.asdict(row)


class TestEndpoints:
    def test_healthz(self, client):
        body = client.health()
        assert body["ok"] is True
        assert body["uptime_s"] >= 0

    def test_stats_shape(self, client):
        stats = client.stats()
        assert set(stats) >= {"uptime_s", "requests", "pool", "cache"}
        assert stats["pool"]["workers"] == 2
        assert stats["cache"]["lru_capacity"] == 16

    def test_unknown_paths_404(self, daemon, client):
        with pytest.raises(ServerError) as exc_info:
            client._request("GET", "/nope")
        assert exc_info.value.status == 404
        with pytest.raises(ServerError) as exc_info:
            client._request("POST", "/nope", {})
        assert exc_info.value.status == 404

    def test_base_url_path_prefix_is_kept(self, daemon):
        with ServeClient(daemon.url + "/api/") as client:
            with pytest.raises(ServerError) as exc_info:
                client.health()
        assert exc_info.value.status == 404
        assert exc_info.value.detail == "no such endpoint: /api/healthz"

    def test_unknown_scenario_field_400(self, daemon, client):
        with pytest.raises(ServerError) as exc_info:
            client.run({"ratee": 3.0})
        assert exc_info.value.status == 400
        assert "unknown scenario fields" in exc_info.value.detail
        assert client.stats()["requests"]["bad_requests"] == 1

    def test_unhashable_policy_400(self, daemon, client):
        with pytest.raises(ServerError) as exc_info:
            client.run({"rate": 3.0}, policies=[{}])
        assert exc_info.value.status == 400
        assert "policy names" in exc_info.value.detail
        assert client.stats()["requests"]["bad_requests"] == 1

    def test_invalid_json_body_400(self, daemon):
        req = urllib.request.Request(
            daemon.url + "/run",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=10)
        exc_info.value.close()  # the error holds the response's socket
        assert exc_info.value.code == 400


class TestRunEndpoint:
    def test_cold_then_warm_same_row_and_key(self, client):
        first = client.run(SCENARIO)
        second = client.run(SCENARIO)
        (r1,), (r2,) = first["results"], second["results"]
        assert r1["tier"] == "cold"
        assert r2["tier"] in ("lru", "disk")
        assert r1["row"] == r2["row"]
        assert r1["key"] == r2["key"]
        assert len(r1["key"]) == 64 and int(r1["key"], 16) >= 0

    def test_row_is_bit_identical_to_isolated_run(self, client):
        resp = client.run(SCENARIO, ["static-local"])
        assert resp["results"][0]["row"] == oracle_row(
            SCENARIO, "static-local"
        )

    def test_multi_policy_request_preserves_order(self, client):
        resp = client.run(SCENARIO, ["local", "static-local"])
        assert [r["policy"] for r in resp["results"]] == [
            "local",
            "static-local",
        ]
        for r in resp["results"]:
            assert r["row"]["policy"] == r["policy"]

    def test_warm_and_cold_policies_mix_in_one_request(self, client):
        client.run(SCENARIO, ["static-local"])
        resp = client.run(SCENARIO, ["static-local", "local"])
        tiers = {r["policy"]: r["tier"] for r in resp["results"]}
        assert tiers["static-local"] in ("lru", "disk")
        assert tiers["local"] == "cold"

    def test_delta_request_served_without_simulation(self, client):
        client.run(SCENARIO, ["static-local"])
        variant = dict(SCENARIO, billing_model="reserved")
        resp = client.run(variant, ["static-local"])
        (r,) = resp["results"]
        assert r["tier"] == "delta"
        # Bit-identical to a from-scratch simulation of the variant.
        assert r["row"] == oracle_row(variant, "static-local")
        assert client.stats()["requests"]["delta_rows"] == 1

    def test_distinct_scenarios_distinct_keys(self, client):
        k1 = client.run(SCENARIO)["results"][0]["key"]
        k2 = client.run(dict(SCENARIO, rate=4.0))["results"][0]["key"]
        assert k1 != k2


def _saturate(pool, gate) -> list:
    """Deterministically fill the pool: one blocker per worker (waiting
    until each is picked up), then one per queue slot."""
    import time as _time

    blockers = []
    for _ in range(pool.workers):
        blockers.append(pool.submit(gate.wait))
        deadline = _time.monotonic() + 5
        while pool.pending() and _time.monotonic() < deadline:
            _time.sleep(0.005)
    for _ in range(pool.queue_depth):
        blockers.append(pool.submit(gate.wait))
    return blockers


class TestBackpressure:
    def test_429_with_retry_after_when_saturated(self, daemon, client):
        gate = threading.Event()
        blockers = _saturate(daemon.pool, gate)
        try:
            with pytest.raises(ServerBusy) as exc_info:
                client.run(SCENARIO)
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after_s >= 1
            assert client.stats()["requests"]["rejected"] == 1
        finally:
            gate.set()
            for job in blockers:
                job.result(timeout=5)

    def test_client_retry_rides_out_backpressure(self, daemon, client):
        gate = threading.Event()
        blockers = _saturate(daemon.pool, gate)
        threading.Timer(0.3, gate.set).start()
        try:
            resp = client.run(SCENARIO, retries=10)
            assert resp["results"][0]["row"] == oracle_row(
                SCENARIO, "static-local"
            )
        finally:
            gate.set()
            for job in blockers:
                job.result(timeout=5)

    def test_warm_requests_served_even_when_pool_full(self, daemon, client):
        client.run(SCENARIO)  # warm the cell first
        gate = threading.Event()
        blockers = _saturate(daemon.pool, gate)
        try:
            # The warm path never touches the pool: no 429.
            resp = client.run(SCENARIO)
            assert resp["results"][0]["tier"] in ("lru", "disk")
        finally:
            gate.set()
            for job in blockers:
                job.result(timeout=5)


class TestStreaming:
    def test_live_trace_events_reach_streamer(self, daemon, client):
        was_tracing = _trace.enabled()
        events: list[dict] = []
        ready = threading.Event()

        def stream():
            streamer = ServeClient(daemon.url)
            it = streamer.stream_events(max_events=3, timeout_s=20)
            ready.set()
            events.extend(it)

        t = threading.Thread(target=stream)
        t.start()
        ready.wait(5)
        # Wait until the subscription is actually attached server-side.
        for _ in range(200):
            if daemon.broadcast.streamers() > 0:
                break
            threading.Event().wait(0.01)
        client.run(dict(SCENARIO, seed=11))
        t.join(20)
        assert not t.is_alive()
        assert len(events) == 3
        kinds = {e["type"] for e in events}
        assert kinds & {"cache_miss", "vm_provisioned", "run_started"}
        assert all("seq" in e and "t" in e for e in events)
        # Emitting followed the stream; once it detached the flag is
        # back to the ambient tracing state.
        assert daemon.broadcast.streamers() == 0
        assert _trace.enabled() == was_tracing

    def test_stream_timeout_closes_with_no_events(self, daemon):
        streamer = ServeClient(daemon.url)
        assert list(streamer.stream_events(timeout_s=0.3)) == []

    def test_attached_stream_does_not_grow_the_collector(self, daemon, client):
        """Streamed events reach the client without piling up in the
        collector's buffer while tracing is off."""
        tracing = _trace.enabled()
        _trace.disable()
        events: list[dict] = []

        def stream():
            events.extend(ServeClient(daemon.url).stream_events(timeout_s=3))

        t = threading.Thread(target=stream)
        t.start()
        try:
            for _ in range(200):
                if daemon.broadcast.streamers() > 0:
                    break
                threading.Event().wait(0.01)
            before = len(_trace.events())
            for i in range(50):
                client.run(dict(SCENARIO, seed=20 + i % 5))
            assert daemon.broadcast.streamers() == 1
            assert len(_trace.events()) == before
        finally:
            t.join(20)
            if tracing:
                _trace.enable()
        assert len(events) >= 50


def _raw(daemon) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)


def _get(conn: http.client.HTTPConnection, path: str):
    conn.request("GET", path)
    resp = conn.getresponse()
    resp.read()
    return resp


class TestKeepAlive:
    """One connection carries many requests, and the daemon keeps its
    side of each connection in step with the client's."""

    def test_keep_alive_requests_do_not_stall(self, daemon):
        """20 requests on one keep-alive connection: without TCP_NODELAY
        each response waits on the client's delayed ACK (~40 ms)."""
        import http.client
        import time

        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.5, f"20 keep-alive requests took {elapsed:.2f} s"

    def test_post_to_unknown_path_reads_its_body(self, daemon):
        """The 404's body bytes must not be parsed as the next request."""
        conn = _raw(daemon)
        try:
            conn.request("POST", "/nope", body=json.dumps({"scenario": {}}))
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404
            assert not resp.will_close
            assert _get(conn, "/healthz").status == 200
        finally:
            conn.close()

    def test_unread_body_closes_the_connection(self, daemon):
        conn = _raw(daemon)
        try:
            conn.request(
                "POST", "/run", body=b"{}", headers={"Content-Length": "x"}
            )
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 400
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_stop_closes_kept_alive_connections(self, daemon):
        """No request is answered after stop(), not even on connections
        opened before it."""
        probe, cold = _raw(daemon), _raw(daemon)
        try:
            assert _get(probe, "/healthz").status == 200
            assert _get(cold, "/stats").status == 200
            daemon.stop()
            with pytest.raises((http.client.HTTPException, ConnectionError)):
                _get(probe, "/healthz")
            with pytest.raises((http.client.HTTPException, ConnectionError)):
                cold.request("POST", "/run", body=json.dumps(
                    {"scenario": dict(SCENARIO, seed=41)}))
                cold.getresponse().read()
        finally:
            probe.close()
            cold.close()

    def test_shutdown_response_closes_its_connection(self):
        daemon = ServeDaemon(workers=1, queue_depth=4).start()
        conn = _raw(daemon)
        try:
            conn.request("POST", "/shutdown")
            resp = conn.getresponse()
            assert json.loads(resp.read())["stopping"] is True
            assert resp.getheader("Connection") == "close"
            assert resp.will_close
            assert daemon._stopped.wait(10)
        finally:
            conn.close()
            daemon.stop()


def _open_connections(daemon, want: int, timeout: float = 5.0) -> int:
    """The daemon's open-connection count, once it reaches ``want`` (a
    handler sees its peer hang up only when its read returns)."""
    deadline = time.monotonic() + timeout
    while True:
        n = daemon.stats()["connections"]["open"]
        if n == want or time.monotonic() >= deadline:
            return n
        time.sleep(0.01)


class TestConnectionReuse:
    def test_sequential_runs_share_one_connection(self, daemon, client):
        for _ in range(50):
            assert client.run(SCENARIO)["results"][0]["row"]["seed"] == 5
        assert client.stats()["connections"] == {"accepted": 1, "open": 1}

    def test_dead_connection_is_retried_once_on_a_fresh_one(
        self, daemon, client
    ):
        key = client.run(SCENARIO)["results"][0]["key"]
        daemon.stop()
        restarted = ServeDaemon(port=daemon.port, workers=1).start()
        try:
            # The kept connection died with the first daemon: the request
            # is sent once more, on a fresh connection, and succeeds.
            assert client.run(SCENARIO)["results"][0]["key"] == key
            assert restarted.stats()["connections"]["accepted"] == 1
        finally:
            restarted.stop()
        # A request that fails on its fresh connection raises.
        with pytest.raises(ConnectionError):
            client.health()

    def test_failure_on_a_fresh_connection_is_not_retried(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10)

            def hang_up_once():
                conn, _ = listener.accept()
                conn.close()

            server = threading.Thread(target=hang_up_once)
            server.start()
            host, port = listener.getsockname()
            with pytest.raises(ConnectionError):
                ServeClient(f"http://{host}:{port}", timeout=10).health()
            server.join(10)
            assert not server.is_alive()
            # A retry would have connected before the client raised.
            listener.settimeout(0.2)
            with pytest.raises(TimeoutError):
                listener.accept()

    def test_threads_sharing_a_client_send_on_their_own_connections(
        self, daemon, client
    ):
        """8 threads (more than the cores) share one client under a
        short switch interval: every response answers its own thread's
        scenario, and the client opens at most one connection each."""
        scenarios = [dict(SCENARIO, rate=2.0 + 0.5 * i) for i in range(8)]
        keys = [client.run(s)["results"][0]["key"] for s in scenarios]
        answered: list[int] = []
        failures: list[str] = []

        def drive(i: int) -> None:
            for _ in range(25):
                (result,) = client.run(scenarios[i])["results"]
                if (
                    result["key"] != keys[i]
                    or result["row"]["rate"] != scenarios[i]["rate"]
                ):
                    failures.append(f"thread {i} got {result['key']}")
                answered.append(i)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:3]
        assert len(answered) == 8 * 25
        assert daemon.stats()["connections"]["accepted"] <= 8

    def test_close_closes_the_idle_connections(self, daemon):
        with ServeClient(daemon.url) as client:
            client.run(SCENARIO)
            assert client.health()["ok"]
            assert _open_connections(daemon, 1) == 1
        assert _open_connections(daemon, 0) == 0


class TestIsolation:
    """Zero cross-request leaks: concurrent interleaved clients receive
    exactly what isolated serial runs produce, bit for bit."""

    CELLS = [
        (dict(SCENARIO, rate=rate, seed=seed), policy)
        for rate in (2.0, 3.0)
        for seed in (5, 6)
        for policy in ("static-local", "local")
    ]

    def test_concurrent_interleaved_clients_match_serial_oracle(self, daemon):
        oracle = {
            json.dumps((kw, p), sort_keys=True): oracle_row(kw, p)
            for kw, p in self.CELLS
        }
        failures: list[str] = []

        def drive(worker_id: int):
            # Each client interleaves the cells in a different order and
            # hits every cell twice (cold-ish pass, then warm pass).
            cells = self.CELLS[worker_id:] + self.CELLS[:worker_id]
            with ServeClient(daemon.url) as local:
                for kw, policy in cells * 2:
                    try:
                        resp = local.run(kw, [policy], retries=20)
                    except ServerBusy:
                        failures.append("backpressure never drained")
                        return
                    got = resp["results"][0]["row"]
                    want = oracle[json.dumps((kw, policy), sort_keys=True)]
                    if got != want:
                        failures.append(
                            f"leak in {policy}@rate={kw['rate']},seed="
                            f"{kw['seed']}: {got} != {want}"
                        )

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(600)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:3]
        with ServeClient(daemon.url) as client:
            stats = client.stats()
        assert "errors" not in stats["requests"]
        # Clients racing the same cold cell may each simulate it (the
        # cache dedupes storage, not in-flight work), but each client
        # warms up by its second pass: no client simulates a cell twice.
        assert stats["requests"]["cold_rows"] <= 4 * len(self.CELLS)
        assert stats["requests"]["warm_rows"] > 0


class TestShutdown:
    def test_shutdown_endpoint_stops_daemon(self):
        daemon = ServeDaemon(workers=1, queue_depth=4).start()
        client = ServeClient(daemon.url, timeout=10)
        assert client.shutdown()["stopping"] is True
        daemon._stopped.wait(10)
        assert daemon._stopped.is_set()
        with pytest.raises((urllib.error.URLError, ServerError, OSError)):
            client.health()


def _workers() -> set[threading.Thread]:
    return {
        t
        for t in threading.enumerate()
        if t.name.startswith("repro-serve-worker-")
    }


class TestBoot:
    def test_stop_without_start_returns(self):
        """stop() on a daemon that never served returns promptly, with
        its workers gone and its serving LRU emptied, as after a start."""
        before = _workers()
        daemon = ServeDaemon(workers=1)
        daemon.lru.put("key", "row")
        stopper = threading.Thread(target=daemon.stop, daemon=True)
        stopper.start()
        stopper.join(10)
        assert not stopper.is_alive()
        assert len(daemon.lru) == 0
        assert not _workers() - before

    def test_failed_bind_starts_nothing(self):
        """A busy port fails the constructor before any worker starts,
        and a running daemon's serving LRU stays as it was."""
        running = ServeDaemon(workers=1, lru_capacity=4)
        running.lru.put("key", "row")
        before = _workers()
        try:
            with socket.create_server(("127.0.0.1", 0)) as busy:
                port = busy.getsockname()[1]
                for _ in range(3):
                    with pytest.raises(OSError):
                        ServeDaemon(port=port, workers=2)
                leaked = _workers() - before
                assert running.lru.get("key") == "row"
        finally:
            running.stop()
        assert not leaked, sorted(t.name for t in leaked)

    def test_stopping_one_daemon_keeps_the_others_lru(self):
        """Each daemon owns its serving LRU: starting and stopping a
        second daemon leaves the first one answering from its own."""
        a = ServeDaemon(workers=1, lru_capacity=8).start()
        try:
            with ServeClient(a.url) as client:
                first = client.run(SCENARIO, ["static-local"])
                assert first["results"][0]["tier"] == "cold"
                b = ServeDaemon(workers=1, lru_capacity=8).start()
                b.stop()
                again = client.run(SCENARIO, ["static-local"])
        finally:
            a.stop()
        assert again["results"][0]["tier"] == "lru"
        assert again["results"][0]["row"] == first["results"][0]["row"]

