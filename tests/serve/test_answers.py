"""A ``/run`` answer's bytes and the counters it moves.

The daemon keeps each warm result object of an answer as JSON bytes,
encoded once per policy, content key and serving tier, and joins them
into the answer.  Every answer must still be byte for byte
``json.dumps`` of the dict it stands for, in the request's policy
order, and a request's counters must be exact, applied before its
answer is sent.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import sys
import threading
import time

import pytest

from repro.experiments import cache
from repro.experiments.runner import SweepRow
from repro.experiments.scenarios import Scenario, run_policy
from repro.serve import ServeClient, ServeDaemon, ServerBusy, ServerError
from repro.serve import server

SCENARIO = {"rate": 3.0, "seed": 5, "period": 300.0, "variability": "both"}
VARIANT = dict(SCENARIO, billing_model="reserved")


def body(scenario: dict, policies=("static-local",)) -> bytes:
    """The bytes :class:`ServeClient` sends for this request."""
    payload = {"scenario": scenario, "policies": list(policies)}
    return json.dumps(payload).encode("utf-8")


def post(daemon: ServeDaemon, data: bytes) -> bytes:
    """POST ``data`` to ``/run`` on a fresh connection: the answer's
    body bytes."""
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)
    try:
        conn.request("POST", "/run", body=data,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = resp.read()
    finally:
        conn.close()
    assert resp.status == 200, payload
    return payload


def expected(answer: bytes, scenario: dict, cells) -> bytes:
    """``json.dumps`` of the answer as a dict: one result per
    ``(policy, tier)`` of ``cells``, in order, its key hashed and its row
    from an isolated serial run; ``elapsed_ms`` is the answer's own."""
    s = Scenario(**scenario)
    results = [
        {
            "policy": policy,
            "tier": tier,
            "key": cache.cache_key(s, policy),
            "row": dataclasses.asdict(
                SweepRow.from_result(s, run_policy(s, policy))
            ),
        }
        for policy, tier in cells
    ]
    elapsed_ms = json.loads(answer)["elapsed_ms"]
    return json.dumps({"results": results, "elapsed_ms": elapsed_ms}).encode()


def check(daemon, data: bytes, scenario: dict, *answers) -> None:
    """Send ``data`` once per item of ``answers``, each the ``(policy,
    tier)`` pairs that answer must carry, and compare the bytes."""
    for cells in answers:
        got = post(daemon, data)
        assert got == expected(got, scenario, cells)


@pytest.fixture
def daemon():
    d = ServeDaemon(workers=1, queue_depth=4, lru_capacity=16).start()
    yield d
    d.stop()


class TestSameBytes:
    def test_cold_lru_then_disk_after_a_restart(self):
        data = body(SCENARIO)
        cold, lru, disk = ([("static-local", tier)]
                           for tier in ("cold", "lru", "disk"))
        first = ServeDaemon(workers=1, lru_capacity=16).start()
        try:
            check(first, data, SCENARIO, cold, lru, lru)
        finally:
            first.stop()
        # A new daemon on the same cache directory reads the disk entry.
        again = ServeDaemon(workers=1, lru_capacity=16).start()
        try:
            check(again, data, SCENARIO, disk, lru)
        finally:
            again.stop()

    def test_tier_moves_from_delta_to_lru(self, daemon):
        """Each answer to one body carries its own tier, though the
        body's encoded results outlive the answer."""
        check(daemon, body(SCENARIO), SCENARIO, [("static-local", "cold")])
        check(daemon, body(VARIANT), VARIANT, [("static-local", "delta")],
              [("static-local", "lru")], [("static-local", "lru")])

    def test_warm_and_cold_cells_follow_the_request_order(self, daemon):
        check(daemon, body(SCENARIO), SCENARIO, [("static-local", "cold")])
        check(daemon, body(SCENARIO, ["local", "static-local"]), SCENARIO,
              [("local", "cold"), ("static-local", "lru")],
              [("local", "lru"), ("static-local", "lru")])

    def test_daemon_without_a_memo(self):
        d = ServeDaemon(workers=1, lru_capacity=0).start()
        try:
            check(d, body(SCENARIO), SCENARIO, [("static-local", "cold")],
                  [("static-local", "disk")], [("static-local", "disk")])
            assert d._memo is None
        finally:
            d.stop()

    def test_body_over_4_kib_is_encoded_every_time(self, daemon):
        padded = body(SCENARIO) + b" " * 4096
        check(daemon, padded, SCENARIO, [("static-local", "cold")],
              [("static-local", "lru")], [("static-local", "lru")])
        assert len(daemon._memo) == 0


class TestEncodeOnce:
    def test_warm_answers_reuse_the_encoded_result(self, daemon, monkeypatch):
        """200 warm answers to one body build the row's wire form once."""
        calls: list[tuple] = []
        payload = server.row_payload

        def counted(row):
            calls.append((row.policy, row.rate, row.seed))
            return payload(row)

        with ServeClient(daemon.url) as client:
            assert client.run(SCENARIO)["results"][0]["tier"] == "cold"
            monkeypatch.setattr(server, "row_payload", counted)
            for _ in range(200):
                (result,) = client.run(SCENARIO)["results"]
                assert result["tier"] == "lru"
        assert calls == [("static-local", 3.0, 5)]


class TestCounters:
    def test_concurrent_clients_count_exactly(self):
        """8 clients (more than the cores) under a short switch interval,
        50 warm requests each: every counter is exact."""
        scenarios = [dict(SCENARIO, rate=2.0 + 0.5 * i) for i in range(4)]
        daemon = ServeDaemon(workers=1, lru_capacity=16).start()
        failures: list[str] = []

        def drive(i: int) -> None:
            with ServeClient(daemon.url) as client:
                for n in range(50):
                    (result,) = client.run(scenarios[(i + n) % 4])["results"]
                    if result["tier"] != "lru":
                        failures.append(f"client {i}: {result['tier']}")

        try:
            with ServeClient(daemon.url) as client:
                for scenario in scenarios:
                    client.run(scenario)  # cold once, warm from here on
            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            counts = daemon.stats()["requests"]
        finally:
            daemon.stop()
        assert not failures, failures[:3]
        assert counts == {"requests": 4 + 400, "cold_rows": 4,
                          "warm_rows": 400, "memo_hits": 400}

    def test_failed_requests_count(self, monkeypatch):
        """A 400, a 429 and a 500 each count as a request."""
        daemon = ServeDaemon(workers=1, queue_depth=1, lru_capacity=16).start()
        gate = threading.Event()
        try:
            with ServeClient(daemon.url) as client:
                with pytest.raises(ServerError) as bad:
                    client._request("POST", "/run", b"{not json")
                assert bad.value.status == 400
                assert daemon.stats()["requests"] == {
                    "requests": 1, "bad_requests": 1}

                held = [daemon.pool.submit(gate.wait)]  # the worker's
                deadline = time.monotonic() + 5
                while daemon.pool.pending() and time.monotonic() < deadline:
                    time.sleep(0.005)
                held.append(daemon.pool.submit(gate.wait))  # the queue's
                with pytest.raises(ServerBusy):
                    client.run(SCENARIO)
                assert daemon.stats()["requests"] == {
                    "requests": 2, "bad_requests": 1, "rejected": 1}
                gate.set()
                for job in held:
                    job.result(timeout=5)

                def fail(*args):
                    raise RuntimeError("the cell failed")

                monkeypatch.setattr(cache, "run_cell", fail)
                with pytest.raises(ServerError) as error:
                    client.run(SCENARIO)  # the 429's body, remembered
                assert error.value.status == 500
                assert daemon.stats()["requests"] == {
                    "requests": 3, "bad_requests": 1, "rejected": 1,
                    "memo_hits": 1, "errors": 1}
        finally:
            gate.set()
            daemon.stop()

    def test_stats_read_after_an_answer_sees_its_counts(self, daemon):
        """The counts are applied before the answer is sent: a ``/stats``
        read on another connection right after it sees them."""
        with ServeClient(daemon.url) as runner, \
                ServeClient(daemon.url) as reader:
            runner.run(SCENARIO)
            for n in range(1, 51):
                runner.run(SCENARIO)
                assert reader.stats()["requests"] == {
                    "requests": 1 + n, "cold_rows": 1,
                    "warm_rows": n, "memo_hits": n}
