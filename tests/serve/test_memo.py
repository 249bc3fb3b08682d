"""The daemon's request memo: exact ``/run`` body bytes → the scenario,
policies and content keys that parsing the body produced.

A remembered body must be answered exactly as the full parse answers
it, with the same side effects, and the memo stays within the serving
LRU's bound.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading

import pytest

from repro.experiments import cache
from repro.experiments.scenarios import Scenario
from repro.obs import collector as _trace
from repro.serve import ServeClient, ServeDaemon
from repro.util import perf
from repro.validate import invariants as _validate

SCENARIO = {"rate": 3.0, "seed": 5, "period": 300.0, "variability": "both"}
POLICIES = ["static-local", "local"]


def body(scenario: dict, policies=("static-local",)) -> bytes:
    """The bytes :class:`ServeClient` sends for this request."""
    payload = {"scenario": scenario, "policies": list(policies)}
    return json.dumps(payload).encode("utf-8")


def want_key(scenario: dict, policy: str) -> str:
    return cache.cache_key(Scenario(**scenario), policy)


@pytest.fixture
def daemon():
    d = ServeDaemon(workers=2, queue_depth=8, lru_capacity=16).start()
    yield d
    d.stop()


@pytest.fixture
def post(daemon):
    """POST exact body bytes to ``/run``: ``(status, payload)``."""
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)

    def send(data: bytes) -> tuple[int, dict]:
        conn.request(
            "POST", "/run", body=data,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    yield send
    conn.close()


def answers(response: dict) -> list[tuple]:
    return [
        (r["policy"], r["key"], r["tier"], r["row"])
        for r in response["results"]
    ]


def requests(daemon) -> dict:
    return daemon.stats()["requests"]


class TestExactness:
    def test_memo_hits_answer_like_the_full_parse(self, tmp_path, monkeypatch):
        """The same requests, to a daemon with the memo and to one
        without it, get the same rows, keys and tiers."""

        def replay(memo: bool) -> tuple[list, dict]:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / str(memo)))
            d = ServeDaemon(workers=1, lru_capacity=16).start()
            if not memo:
                d._memo = None
            try:
                with ServeClient(d.url) as a, ServeClient(d.url) as b:
                    got = [
                        answers(client.run(SCENARIO, POLICIES))
                        for client in (a, a, b, b)
                    ]
                return got, requests(d)
            finally:
                d.stop()

        fast, fast_counts = replay(memo=True)
        slow, slow_counts = replay(memo=False)
        assert fast == slow
        assert fast_counts.pop("memo_hits") == 3
        assert fast_counts == slow_counts
        assert [tier for _, _, tier, _ in fast[0]] == ["cold", "cold"]
        for got in fast[1:]:
            assert [tier for _, _, tier, _ in got] == ["lru", "lru"]
        for got in fast:
            assert [(p, k) for p, k, _, _ in got] == [
                (p, want_key(SCENARIO, p)) for p in POLICIES
            ]

    def test_formatting_is_part_of_the_memo_key(self, daemon, post):
        """Bodies equal as JSON but not as bytes are parsed separately and
        answered alike."""
        compact = body(SCENARIO).replace(b", ", b",").replace(b": ", b":")
        status, first = post(body(SCENARIO))
        assert status == 200
        status, second = post(compact)
        assert status == 200
        assert answers(second)[0][:2] == answers(first)[0][:2]
        assert "memo_hits" not in requests(daemon)
        assert len(daemon._memo) == 2


class TestInvalidBodies:
    @pytest.mark.parametrize(
        "data",
        [b"{not json", body({"ratee": 3.0}), body(SCENARIO, ["nope"])],
        ids=["malformed", "unknown-field", "unknown-policy"],
    )
    def test_a_bad_body_is_a_400_every_time(self, daemon, post, data):
        for _ in range(2):
            status, payload = post(data)
            assert status == 400
            assert payload["error"]
        counts = requests(daemon)
        assert counts["bad_requests"] == 2
        assert "memo_hits" not in counts
        assert len(daemon._memo) == 0


class TestValidation:
    def test_remembered_body_is_simulated_and_not_stored(self, daemon, post):
        """Validated cells bypass the warm tiers: with the checker on, a
        remembered body still runs cold, and nothing is cached."""
        with _validate.checking():
            for _ in range(3):
                status, payload = post(body(SCENARIO))
                assert status == 200
                assert answers(payload)[0][2] == "cold"
        stats = daemon.stats()
        assert stats["requests"]["memo_hits"] == 2
        assert stats["requests"]["cold_rows"] == 3
        assert stats["pool"]["executed"] == 3
        assert stats["cache"]["entries"] == 0
        assert stats["cache"]["lru_entries"] == 0


class TestBound:
    def test_least_recent_bodies_go_first(self):
        capacity, extra = 4, 3
        daemon = ServeDaemon(workers=1, lru_capacity=capacity).start()
        try:
            bodies = [
                body(dict(SCENARIO, seed=seed))
                for seed in range(capacity + extra)
            ]
            for data in bodies:
                daemon._parse_run(data)
            assert len(daemon._memo) == capacity
            # The newest bodies are remembered ...
            for data in bodies[extra:]:
                daemon._parse_run(data)
            assert daemon.stats()["requests"]["memo_hits"] == capacity
            # ... and the oldest are gone.
            for data in bodies[:extra]:
                daemon._parse_run(data)
            assert daemon.stats()["requests"]["memo_hits"] == capacity
            assert len(daemon._memo) == capacity
        finally:
            daemon.stop()

    def test_large_bodies_are_not_remembered(self, daemon, post):
        """Entries are bounded in size as well as in number: a valid body
        padded past the limit is parsed on every request."""
        padded = body(SCENARIO) + b" " * 4096
        for _ in range(2):
            status, payload = post(padded)
            assert status == 200
            assert answers(payload)[0][1] == want_key(SCENARIO, "static-local")
        assert "memo_hits" not in requests(daemon)
        assert len(daemon._memo) == 0

    def test_bound_follows_the_lru_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_LRU", "3")
        daemon = ServeDaemon(workers=1).start()
        try:
            assert daemon._memo.capacity == 3
            assert daemon.stats()["cache"]["lru_capacity"] == 3
        finally:
            daemon.stop()

    def test_capacity_zero_means_no_memo(self):
        daemon = ServeDaemon(workers=1, lru_capacity=0).start()
        try:
            assert daemon._memo is None
            data = body(SCENARIO)
            (first, keys), (again, again_keys) = (
                daemon._parse_run(data), daemon._parse_run(data)
            )
            assert again is not first
            assert again.fingerprint() == first.fingerprint()
            assert again_keys == keys
            assert "memo_hits" not in daemon.stats()["requests"]
        finally:
            daemon.stop()


class TestSideEffects:
    COUNTERS = ("serve.requests", "cache.hits", "cache.lru_hits",
                "cache.delta_hits")

    def measure(self, daemon, send) -> tuple[dict, dict, list]:
        """What one request moves: daemon counters, perf counters, and
        the ``cache_hit`` events it emits (key dropped)."""
        counts = requests(daemon)
        before = perf.snapshot()["counters"]
        seen = len(_trace.events())
        status, payload = send()
        assert status == 200
        after = perf.snapshot()["counters"]
        moved = {
            name: n - counts.get(name, 0)
            for name, n in requests(daemon).items()
            if n != counts.get(name, 0)
        }
        perf_moved = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in self.COUNTERS
        }
        events = [
            {k: v for k, v in e.payload.items() if "key" not in k}
            for e in _trace.events()[seen:]
            if e.type == "cache_hit"
        ]
        return moved, perf_moved, events

    def test_memo_hit_moves_what_the_full_parse_moves(self, daemon, post):
        base = body(SCENARIO)
        reordered = json.dumps(
            {"policies": ["static-local"], "scenario": SCENARIO}
        ).encode("utf-8")
        reserved = body(dict(SCENARIO, billing_model="reserved"))
        per_second = body(dict(SCENARIO, billing_model="per_second"))
        assert post(base)[0] == 200  # cold: stores the base row
        daemon._parse_run(per_second)  # remembered, never sent yet
        with perf.collecting(), _trace.tracing():
            # Warm LRU reads: a fresh body (full parse) vs a memo hit.
            slow = self.measure(daemon, lambda: post(reordered))
            fast = self.measure(daemon, lambda: post(base))
            # Delta-derived rows: a fresh body vs a remembered one.
            slow_delta = self.measure(daemon, lambda: post(reserved))
            fast_delta = self.measure(daemon, lambda: post(per_second))

        for (moved, perf_moved, events), (ref, ref_perf, ref_events) in (
            (fast, slow), (fast_delta, slow_delta)
        ):
            assert moved.pop("memo_hits") == 1
            assert moved == ref
            assert perf_moved == ref_perf
            assert events == ref_events
        assert slow[0] == {"requests": 1, "warm_rows": 1}
        assert slow[1]["cache.lru_hits"] == 1
        assert slow_delta[0] == {"requests": 1, "warm_rows": 1,
                                 "delta_rows": 1}
        assert slow_delta[2] == [{"policy": "static-local",
                                  "delta_field": "billing_model"}]

    def test_memo_hits_still_record_write_behind_hits(self, daemon, post):
        data = body(SCENARIO)
        assert post(data)[0] == 200
        for _ in range(3):
            assert post(data)[0] == 200
        stats = daemon.stats()
        assert stats["requests"]["memo_hits"] == 3
        assert stats["cache"]["hits"] == 3


class TestStress:
    def test_threads_sharing_and_not_sharing_bodies(self):
        """8 threads under a short switch interval: each sends bodies it
        shares with others and bodies of its own through a memo smaller
        than the set, and every answer echoes its own scenario and key."""
        shared = [dict(SCENARIO, rate=2.0 + 0.5 * i) for i in range(3)]
        own = [dict(SCENARIO, seed=10 + i) for i in range(8)]
        daemon = ServeDaemon(workers=2, lru_capacity=8).start()
        failures: list[str] = []
        answered: list[int] = []
        try:
            with ServeClient(daemon.url) as client:
                for scenario in shared + own:
                    client.run(scenario)  # cold once, warm from here on

                def drive(i: int) -> None:
                    mine = [shared[i % 3], own[i], shared[(i + 1) % 3]]
                    keys = [want_key(s, "static-local") for s in mine]
                    for n in range(24):
                        scenario, key = mine[n % 3], keys[n % 3]
                        (result,) = client.run(scenario)["results"]
                        row = result["row"]
                        if result["key"] != key or (
                            row["rate"], row["seed"]
                        ) != (scenario["rate"], scenario["seed"]):
                            failures.append(f"thread {i}: {result['key']}")
                        answered.append(i)

                threads = [
                    threading.Thread(target=drive, args=(i,))
                    for i in range(8)
                ]
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
                stats = client.stats()
        finally:
            daemon.stop()
        assert not failures, failures[:3]
        assert len(answered) == 8 * 24
        counts = stats["requests"]
        assert "errors" not in counts and "bad_requests" not in counts
        assert counts["cold_rows"] == len(shared) + len(own)
        assert counts["memo_hits"] > 0
        assert len(daemon._memo) == 8
