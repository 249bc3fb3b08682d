"""Worker pool: backpressure, error relay (serve.scheduler)."""

from __future__ import annotations

import threading

import pytest

from repro.serve import QueueFull, WorkerPool


@pytest.fixture
def pool():
    p = WorkerPool(workers=2, queue_depth=32)
    yield p
    p.shutdown()


class TestExecution:
    def test_jobs_run_and_return_results(self, pool):
        jobs = [pool.submit(lambda i=i: i * i) for i in range(8)]
        assert [j.result(timeout=5) for j in jobs] == [
            i * i for i in range(8)
        ]
        assert pool.stats()["executed"] == 8

    def test_job_error_is_relayed_not_fatal(self, pool):
        def boom():
            raise ValueError("cell exploded")

        job = pool.submit(boom)
        with pytest.raises(ValueError, match="cell exploded"):
            job.result(timeout=5)
        # The worker survived the error and keeps serving.
        assert pool.submit(lambda: 42).result(timeout=5) == 42
        assert pool.stats()["alive"] == 2

    def test_result_timeout(self, pool):
        gate = threading.Event()
        job = pool.submit(gate.wait)
        with pytest.raises(TimeoutError):
            job.result(timeout=0.05)
        gate.set()
        job.result(timeout=5)


class TestBackpressure:
    def test_queue_full_raises_not_blocks(self):
        pool = WorkerPool(workers=1, queue_depth=2)
        gate = threading.Event()
        blocked = [pool.submit(gate.wait)]
        try:
            # Fill the queue behind the blocked worker; the next submit
            # must fail fast with the backpressure hint, never block.
            with pytest.raises(QueueFull) as exc_info:
                for _ in range(10):
                    blocked.append(pool.submit(gate.wait))
            assert exc_info.value.pending >= 2
            assert exc_info.value.retry_after_s >= 1
        finally:
            gate.set()
            pool.shutdown()

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(workers=1, queue_depth=2)
        pool.shutdown()
        with pytest.raises(QueueFull):
            pool.submit(lambda: 1)
