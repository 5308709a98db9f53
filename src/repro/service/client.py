"""Blocking client for the simulation service (stdlib ``http.client``).

The library half of the ``repro submit`` / ``repro jobs`` CLI verbs;
usable directly::

    from repro.harness.engine import RunSpec
    from repro.harness.runner import unshared
    from repro.service import ServiceClient
    from repro.workloads.apps import APPS

    client = ServiceClient(port=8070)
    job = client.submit(RunSpec.create(APPS["bfs"], unshared("lrr")))
    payload = client.wait(job["id"], timeout=120)
    result = client.parse(payload)          # a RunResult (or RunFailure)

Each call opens a fresh connection (the server speaks one request per
connection), so a client object is cheap, picklable-free and safe to
share across threads.

Error mapping: HTTP 429 raises :class:`AdmissionRejected` (carrying
``reason`` and ``retry_after`` so callers can back off and resubmit);
a 202 from ``/result`` raises :class:`JobPending`; everything else
non-2xx raises :class:`ServiceError` with the decoded body attached.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.harness.engine import RunSpec
from repro.harness.resilience import RunFailure
from repro.service.serialize import parse_result
from repro.sim.stats import RunResult

__all__ = ["ServiceClient", "ServiceError", "AdmissionRejected",
           "JobPending"]


class ServiceError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, payload) -> None:
        message = payload.get("error") if isinstance(payload, dict) \
            else str(payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class AdmissionRejected(ServiceError):
    """The service shed this submission (queue-depth bound)."""

    def __init__(self, status: int, payload) -> None:
        super().__init__(status, payload)
        self.reason = payload.get("reason", "unknown") \
            if isinstance(payload, dict) else "unknown"
        self.retry_after = float(payload.get("retry_after", 1.0)) \
            if isinstance(payload, dict) else 1.0


class JobPending(ServiceError):
    """The job exists but has not finished yet (``/result`` on a
    queued/running job)."""


class ServiceClient:
    """Talk to one :class:`~repro.service.server.ServiceServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8070, *,
                 client_id: str = "", timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    # -- transport -----------------------------------------------------
    def _request(self, method: str, path: str,
                 body: dict | None = None,
                 timeout: float | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout if timeout is not None else self.timeout)
        try:
            headers = {"Connection": "close"}
            payload = None
            if body is not None:
                payload = json.dumps(body)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            ctype = resp.getheader("Content-Type", "")
            decoded = json.loads(raw) if "json" in ctype \
                else raw.decode(errors="replace")
            return resp.status, decoded
        finally:
            conn.close()

    def _checked(self, method: str, path: str, body: dict | None = None,
                 timeout: float | None = None) -> dict:
        status, payload = self._request(method, path, body,
                                        timeout=timeout)
        if status == 429:
            raise AdmissionRejected(status, payload)
        if status >= 400:
            raise ServiceError(status, payload)
        return payload

    # -- API -----------------------------------------------------------
    def submit(self, spec: RunSpec, *, priority: int = 0,
               sanitize: bool = False) -> dict:
        """Queue one run; returns the job record (``{"id": ..., ...}``).

        Raises :class:`AdmissionRejected` when the service sheds the
        submission — callers retry after ``exc.retry_after`` seconds.
        """
        payload = self._checked("POST", "/jobs", {
            "spec": spec.to_dict(), "priority": priority,
            "sanitize": sanitize, "client": self.client_id or None})
        return payload["job"]

    def status(self, job_id: str) -> dict:
        """Current job record."""
        return self._checked("GET", f"/jobs/{job_id}")["job"]

    def result(self, job_id: str) -> dict:
        """Result payload of a finished job.

        Raises :class:`JobPending` while the job is queued/running.
        """
        status, payload = self._request("GET", f"/jobs/{job_id}/result")
        if status == 202:
            raise JobPending(status, {"error": "job not finished",
                                      **payload})
        if status >= 400:
            raise ServiceError(status, payload)
        return payload

    def wait(self, job_id: str, *, timeout: float = 300.0) -> dict:
        """Block (server-side long-poll) until the job is terminal.

        Returns the result payload; raises ``TimeoutError`` if the job
        is still pending after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still pending after {timeout:.3g}s")
            poll = min(remaining, 30.0)
            payload = self._checked(
                "GET", f"/jobs/{job_id}/wait?timeout={poll:.3f}",
                timeout=poll + self.timeout)
            if not payload.get("timed_out"):
                return payload["payload"]

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued job (409 → :class:`ServiceError` if it
        already left the queue)."""
        return self._checked("POST", f"/jobs/{job_id}/cancel")

    def jobs(self, *, state: str | None = None,
             client: str | None = None, limit: int = 200) -> list[dict]:
        """List job records, newest first."""
        qs = [f"limit={limit}"]
        if state:
            qs.append(f"state={state}")
        if client:
            qs.append(f"client={client}")
        return self._checked("GET", "/jobs?" + "&".join(qs))["jobs"]

    def healthz(self) -> dict:
        """Server health/introspection snapshot."""
        return self._checked("GET", "/healthz")

    def metrics_text(self) -> str:
        """Raw Prometheus text exposition from ``/metrics``."""
        status, payload = self._request("GET", "/metrics")
        if status >= 400:
            raise ServiceError(status, payload)
        return payload

    # -- conveniences --------------------------------------------------
    @staticmethod
    def parse(payload: dict) -> RunResult | RunFailure:
        """Decode a result payload (see :func:`parse_result`)."""
        return parse_result(payload)

    def run(self, spec: RunSpec, *, priority: int = 0,
            sanitize: bool = False, timeout: float = 300.0,
            admission_retries: int = 10) -> RunResult | RunFailure:
        """Submit-and-wait convenience with admission backoff."""
        for attempt in range(admission_retries + 1):
            try:
                job = self.submit(spec, priority=priority,
                                  sanitize=sanitize)
                break
            except AdmissionRejected as exc:
                if attempt == admission_retries:
                    raise
                time.sleep(exc.retry_after)
        return self.parse(self.wait(job["id"], timeout=timeout))
