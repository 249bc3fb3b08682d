"""Always-on what-if service (S29).

The paper frames the platform as a persistently running service that
answers deployment what-ifs online; this package makes the simulator
one.  ``repro serve`` boots a long-running local HTTP daemon
(stdlib :mod:`http.server` — no new dependencies) that

* accepts scenario submissions as JSON over ``POST /run``,
* answers **warm** queries from the in-memory serving tier in front of
  the S22 disk cache (LRU → disk entry → delta-keyed index; see
  :mod:`repro.experiments.cache`) in well under a millisecond,
* schedules **cold** cells on a bounded worker pool with explicit
  backpressure — a full queue is a ``429`` with ``Retry-After``, never
  an unbounded pile-up,
* streams the observability trace live over a chunked
  ``GET /events`` endpoint while runs are in flight.

:class:`ServeClient` (stdlib :mod:`http.client`) is its client.  Both
ends keep HTTP/1.1 connections alive: a client thread sends all its
requests on one connection, and :meth:`ServeDaemon.stop` (or
``/shutdown``) closes every connection still open.

Requests are isolated by construction: identical request bodies share
one read-only :class:`~repro.experiments.scenarios.Scenario` (the daemon
remembers each body's parse and content keys), every run gets its own
engine state, and every response echoes the content hash its rows were
served under — the load test asserts the hashes (and the rows) never
bleed between concurrent clients.
"""

from .client import ServeClient, ServerBusy, ServerError
from .protocol import ProtocolError, parse_run_request
from .scheduler import QueueFull, WorkerPool
from .server import ServeDaemon

__all__ = [
    "ServeClient",
    "ServeDaemon",
    "ServerBusy",
    "ServerError",
    "ProtocolError",
    "QueueFull",
    "WorkerPool",
    "parse_run_request",
]
