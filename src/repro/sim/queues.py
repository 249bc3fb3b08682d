"""A waiting queue for the simulation kernel.

Provides the SimPy-style :class:`Store` the per-message execution engine
buffers messages in: a FIFO of arbitrary items, unbounded or bounded,
with blocking ``put``/``get`` events that interoperate with
:class:`repro.sim.kernel.Process`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generic, TypeVar

from .kernel import Environment, Event

__all__ = ["Store", "StorePut", "StoreGet"]

T = TypeVar("T")


class StorePut(Event):
    """Event representing a pending ``put`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._dispatch()


class StoreGet(Event):
    """Event representing a pending ``get`` from a store."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_waiters.append(self)
        store._dispatch()


class Store(Generic[T]):
    """FIFO store of items with optional capacity.

    ``put`` blocks (stays untriggered) while the store is full; ``get``
    blocks while it is empty.  Items are delivered in arrival order.

    Parameters
    ----------
    env:
        The owning environment.
    capacity:
        Maximum number of buffered items (default: unbounded).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[T] = deque()
        self._put_waiters: deque[StorePut] = deque()
        self._get_waiters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> StorePut:
        """Request insertion of ``item``; returns an event."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request retrieval of the oldest item; returns an event."""
        return StoreGet(self)

    def _dispatch(self) -> None:
        """Match put-waiters to free capacity and get-waiters to items."""
        progress = True
        while progress:
            progress = False
            while self._put_waiters and len(self.items) < self.capacity:
                put = self._put_waiters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            while self._get_waiters and self.items:
                get = self._get_waiters.popleft()
                get.succeed(self.items.popleft())
                progress = True
