"""Unit tests for the FIFO store."""

from __future__ import annotations

import pytest

from repro.sim import Store


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        env.process(consumer())
        store.put("hello")
        env.run()
        assert got == ["hello"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(5.0)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(5.0, "late")]

    def test_fifo_order(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        got = []

        def consumer():
            for _ in range(5):
                got.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=2)
        done = []

        def producer():
            for i in range(4):
                yield store.put(i)
                done.append(i)

        env.process(producer())
        env.run()
        assert done == [0, 1]  # third put blocks
        assert len(store) == 2

    def test_capacity_put_resumes_after_get(self, env):
        store = Store(env, capacity=1)
        done = []

        def producer():
            yield store.put("a")
            yield store.put("b")
            done.append("produced-b")

        def consumer():
            yield env.timeout(3.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert done == ["produced-b"]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)
