"""Simulation-as-a-service: async job server, persistent store, client.

Turns the blocking local :class:`~repro.harness.engine.Engine` into a
long-running multi-client service (see docs/service.md):

* :mod:`repro.service.store` — SQLite (WAL) job store persisting
  submitted specs, states, priorities and results across restarts.
* :mod:`repro.service.server` — asyncio HTTP server with a batching
  scheduler (coalesces compatible queued jobs into ``run_batch``
  calls), priority + FIFO ordering, a queue-depth admission bound,
  graceful drain, and ``/healthz`` / ``/metrics`` (Prometheus text) /
  ``/jobs`` introspection.
* :mod:`repro.service.client` — stdlib blocking client library used by
  the ``repro submit`` / ``repro jobs`` CLI verbs.
* :mod:`repro.service.serialize` — the result/failure wire payloads,
  shared with ``repro run --json``.

Everything is stdlib-only (asyncio + ``http.client`` + ``sqlite3``).
"""

from repro.service.client import (AdmissionRejected, JobPending,
                                  ServiceClient, ServiceError)
from repro.service.serialize import (failure_payload, parse_result,
                                     result_payload)
from repro.service.server import ServiceConfig, ServiceServer
from repro.service.store import Job, JobStore

__all__ = [
    "AdmissionRejected",
    "Job",
    "JobPending",
    "JobStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "failure_payload",
    "parse_result",
    "result_payload",
]
