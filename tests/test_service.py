"""Simulation service end to end: in-thread server + stdlib client.

Covers the ISSUE acceptance scenarios: digest equality with a direct
``run_batch``, restart mid-queue, graceful drain losing zero jobs,
client disconnect mid-long-poll, admission-control rejection under
synthetic load (8 concurrent clients), and chaos runs with the PR 2
fault injector mounted behind the service.
"""

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.config import GPUConfig
from repro.harness.engine import Engine, RunSpec
from repro.harness.faults import FaultInjector
from repro.harness.runner import unshared
from repro.service import (AdmissionRejected, JobPending, JobStore,
                           ServiceClient, ServiceConfig, ServiceError,
                           ServiceServer, parse_result)
from repro.sim.stats import RunResult
from repro.workloads.apps import APPS

CFG = GPUConfig().scaled(num_clusters=1)
FAST = dict(config=CFG, scale=0.15, waves=1.0)


def spec(app="gaussian", mode=None, **kw):
    return RunSpec.create(APPS[app], mode or unshared("lrr"),
                          **{**FAST, **kw})


def distinct_specs(n):
    """n cheap specs with distinct digests (max_cycles is a free knob:
    it only caps runaway sims, so these all cost the same to run)."""
    return [spec(max_cycles=10_000_000 + i) for i in range(n)]


@contextmanager
def service(tmp_path, *, engine_opts=None, **overrides):
    overrides.setdefault("port", 0)
    overrides.setdefault("db_path", tmp_path / "jobs.sqlite")
    overrides.setdefault("batch_wait", 0.01)
    overrides.setdefault("poll_interval", 0.02)
    cfg = ServiceConfig(**overrides)
    server = ServiceServer(
        cfg, engine_opts=engine_opts or {"jobs": 1, "cache": False})
    server.start_in_thread()
    client = ServiceClient(port=server.port, client_id="test",
                           timeout=10.0)
    try:
        yield server, client
    finally:
        if server._thread is not None and server._thread.is_alive():
            server.stop()


def wait_done(client, job_ids, timeout=30.0):
    return {jid: client.wait(jid, timeout=timeout) for jid in job_ids}


def raw_request(port, data):
    """Send raw bytes and read the whole response (the server closes)."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.sendall(data)
    response = b""
    while chunk := sock.recv(4096):
        response += chunk
    sock.close()
    return response


class TestRoundTrip:
    def test_digest_identical_to_direct_run(self, tmp_path):
        s = spec()
        direct = Engine(jobs=1, cache=False).run_one(s)
        with service(tmp_path) as (server, client):
            job = client.submit(s)
            assert job["state"] == "queued"
            payload = client.wait(job["id"], timeout=30)
        assert payload["ok"] is True
        assert payload["digest"] == s.digest()
        assert parse_result(payload) == direct
        assert payload["cached"] is False
        assert payload["summary"]["cycles"] == direct.cycles

    def test_run_convenience(self, tmp_path):
        s = spec(app="hotspot")
        with service(tmp_path) as (_server, client):
            res = client.run(s, timeout=30)
        assert isinstance(res, RunResult)
        assert res == Engine(jobs=1, cache=False).run_one(s)

    def test_run_admission_retries(self, tmp_path, monkeypatch):
        """``run`` re-raises a 429 with no retries left, and with
        retries submits again once the queue has room."""
        first, second = distinct_specs(2)
        with service(tmp_path, start_paused=True,
                     max_queue_depth=1) as (server, client):
            client.submit(first)
            with pytest.raises(AdmissionRejected) as exc:
                client.run(second, admission_retries=0)
            assert exc.value.reason == "queue_depth"

            rejected = []
            submit = client.submit

            def submit_then_unpause(*args, **kwargs):
                try:
                    return submit(*args, **kwargs)
                except AdmissionRejected:
                    rejected.append(1)
                    server.paused = False  # the retry finds room
                    raise

            monkeypatch.setattr(client, "submit", submit_then_unpause)
            res = client.run(second, timeout=30, admission_retries=10)
        assert rejected
        assert res == Engine(jobs=1, cache=False).run_one(second)

    def test_in_batch_dedup_shares_one_simulation(self, tmp_path):
        s = spec()
        with service(tmp_path, start_paused=True) as (server, client):
            ids = [client.submit(s)["id"] for _ in range(3)]
            server.paused = False
            payloads = wait_done(client, ids)
            engine = server._engines[False]
        assert engine.stats.sims == 1
        results = {jid: parse_result(p) for jid, p in payloads.items()}
        assert len(set(map(id, results.values()))) == 3  # distinct objects
        assert len({r.cycles for r in results.values()}) == 1

    def test_status_and_listing(self, tmp_path):
        with service(tmp_path) as (_server, client):
            job = client.submit(spec())
            client.wait(job["id"], timeout=30)
            got = client.status(job["id"])
            assert got["state"] == "done"
            assert got["app"] == "gaussian"
            listed = client.jobs(state="done", client="test")
            assert job["id"] in {j["id"] for j in listed}
            for limit in ("abc", "99999999999999999999999"):
                status, payload = client._request(
                    "GET", f"/jobs?limit={limit}")
                assert status == 400, limit
                assert "limit" in payload["error"]

    def test_result_endpoint_and_pending(self, tmp_path):
        with service(tmp_path, start_paused=True) as (server, client):
            job = client.submit(spec())
            with pytest.raises(JobPending):
                client.result(job["id"])
            server.paused = False
            client.wait(job["id"], timeout=30)
            payload = client.result(job["id"])
            assert payload["ok"] is True


class TestEndpoints:
    def test_healthz(self, tmp_path):
        with service(tmp_path) as (_server, client):
            client.run(spec(), timeout=30)
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"]["done"] == 1
        assert health["engines"]["default"]["sims"] == 1
        assert health["recovered_on_start"] == 0

    def test_metrics_prometheus_text(self, tmp_path):
        with service(tmp_path) as (_server, client):
            client.run(spec(), timeout=30)
            text = client.metrics_text()
        assert "# TYPE service_jobs_submitted_total counter" in text
        assert "service_jobs_submitted_total 1" in text
        assert 'service_jobs_finished_total{outcome="done"} 1' in text
        assert 'service_jobs{state="done"} 1' in text
        assert "service_batch_jobs_bucket" in text
        assert "engine_sims 1" in text

    def test_unknown_job_404(self, tmp_path):
        with service(tmp_path) as (_server, client):
            with pytest.raises(ServiceError) as exc:
                client.status("deadbeef")
            assert exc.value.status == 404

    def test_unknown_route_404_and_bad_method_405(self, tmp_path):
        with service(tmp_path) as (_server, client):
            assert client._request("GET", "/nope")[0] == 404
            assert client._request("DELETE", "/jobs")[0] == 405

    def test_malformed_body_400(self, tmp_path):
        d = spec().to_dict()
        fifo = dict(d, mode=dict(d["mode"], scheduler="fifo"))
        cases = [({"not-spec": 1}, "spec"), ({"spec": fifo}, "spec"),
                 ([1, 2], "object"),
                 ({"spec": d, "priority": 10**30}, "priority"),
                 ({"spec": d, "sanitize": "false"}, "sanitize"),
                 ({"spec": d, "client": {"id": 1}}, "client")]
        with service(tmp_path) as (_server, client):
            for body, word in cases:
                status, payload = client._request("POST", "/jobs", body)
                assert status == 400, body
                assert word in payload["error"].lower(), body
            assert sum(client.healthz()["jobs"].values()) == 0

    def test_adhoc_kernel_spec_rejected(self, tmp_path):
        with service(tmp_path) as (_server, client):
            for app in (None, ["bfs"]):
                bogus = dict(spec().to_dict(), app=app)
                status, payload = client._request("POST", "/jobs",
                                                  {"spec": bogus})
                assert status == 400, app
                assert "registry-app" in payload["error"]

    def test_trace_spec_rejected(self, tmp_path):
        traced = dict(spec().to_dict(), trace="out.trace")
        with service(tmp_path) as (_server, client):
            status, payload = client._request("POST", "/jobs",
                                              {"spec": traced})
            assert status == 400
            assert "trace" in payload["error"]

    def test_cancel_queued_then_conflict(self, tmp_path):
        with service(tmp_path, start_paused=True) as (server, client):
            job = client.submit(spec())
            cancelled = client.cancel(job["id"])
            assert cancelled["job"]["state"] == "cancelled"
            with pytest.raises(ServiceError) as exc:
                client.cancel(job["id"])
            assert exc.value.status == 409
            # /result on a cancelled job is terminal but not parseable.
            payload = client.result(job["id"])
            assert payload["cancelled"] is True
            with pytest.raises(ValueError):
                parse_result(payload)

    def test_wait_times_out_while_paused(self, tmp_path):
        with service(tmp_path, start_paused=True,
                     poll_interval=0.01) as (_server, client):
            job = client.submit(spec())
            payload = client._checked(
                "GET", f"/jobs/{job['id']}/wait?timeout=0.05")
            assert payload["timed_out"] is True
            assert payload["payload"] is None
            with pytest.raises(TimeoutError):
                client.wait(job["id"], timeout=0.2)
            client.cancel(job["id"])


class TestAdmissionControl:
    def test_queue_depth_bound_sheds_load(self, tmp_path):
        with service(tmp_path, start_paused=True,
                     max_queue_depth=2) as (_server, client):
            specs = distinct_specs(3)
            client.submit(specs[0])
            client.submit(specs[1])
            with pytest.raises(AdmissionRejected) as exc:
                client.submit(specs[2])
            assert exc.value.reason == "queue_depth"
            assert exc.value.retry_after > 0
            text = client.metrics_text()
            assert ('service_jobs_rejected_total{reason="queue_depth"} 1'
                    in text)

    def test_oversized_body_413(self, tmp_path):
        """The body cap rejects on the declared Content-Length, before
        reading (or even receiving) a single payload byte."""
        with service(tmp_path) as (server, _client):
            response = raw_request(
                server.port, b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 2097152\r\n\r\n")
            assert b"413" in response.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_400(self, tmp_path, length):
        with service(tmp_path) as (server, client):
            response = raw_request(
                server.port, b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: " + length + b"\r\n\r\n")
            assert response.split(b"\r\n", 1)[0] \
                == b"HTTP/1.1 400 Bad Request"
            assert client.healthz()["status"] == "ok"

    def test_eight_concurrent_clients_with_rejections(self, tmp_path):
        """ISSUE acceptance: >=8 simultaneous clients submitting batches
        all complete correctly while at least one submission is shed by
        admission control (deterministic: the queue bound is smaller
        than the paused-phase submission count)."""
        n_clients, per_client = 8, 2
        specs = distinct_specs(n_clients * per_client)
        rejections = []
        outcomes: dict[str, dict] = {}
        errors = []
        with service(tmp_path, start_paused=True, max_queue_depth=4,
                     batch_max=4) as (server, client):

            def worker(ci):
                me = ServiceClient(port=server.port,
                                   client_id=f"client-{ci}", timeout=10.0)
                for k in range(per_client):
                    s = specs[ci * per_client + k]
                    while True:
                        try:
                            job = me.submit(s)
                            break
                        except AdmissionRejected as exc:
                            rejections.append(exc.reason)
                            time.sleep(0.02)
                    payload = me.wait(job["id"], timeout=60)
                    outcomes[s.digest()] = payload

            threads = [threading.Thread(target=worker, args=(ci,),
                                        daemon=True)
                       for ci in range(n_clients)]
            for t in threads:
                t.start()
            # Paused + 16 submissions racing a queue bound of 4: the
            # shed is guaranteed before the scheduler drains anything.
            deadline = time.monotonic() + 20
            while not rejections and time.monotonic() < deadline:
                time.sleep(0.01)
            server.paused = False
            for t in threads:
                t.join(60)
                assert not t.is_alive(), "client thread hung"
        if errors:
            raise errors[0]
        assert len(rejections) >= 1
        assert len(outcomes) == len(specs)
        for s in specs:
            payload = outcomes[s.digest()]
            assert payload["ok"] is True
            assert payload["digest"] == s.digest()
            assert isinstance(parse_result(payload), RunResult)


class TestDurability:
    def test_restart_mid_queue_resumes_jobs(self, tmp_path):
        """Jobs queued when the server dies run after a restart."""
        db = tmp_path / "jobs.sqlite"
        specs = distinct_specs(4)
        with service(tmp_path, db_path=db,
                     start_paused=True) as (_server, client):
            ids = [client.submit(s)["id"] for s in specs]
        # Server is gone; the queue is not.
        with service(tmp_path, db_path=db) as (_server2, client2):
            payloads = wait_done(client2, ids)
        for s, jid in zip(specs, ids):
            assert payloads[jid]["digest"] == s.digest()
            assert isinstance(parse_result(payloads[jid]), RunResult)

    def test_hard_kill_recovery_requeues_running(self, tmp_path):
        """A job stranded in 'running' by a hard kill is requeued on
        the next start (store.recover wired into server init)."""
        db = tmp_path / "jobs.sqlite"
        st = JobStore(db)
        s = spec()
        st.submit(s.to_dict(), s.digest())
        st.claim(1)  # simulate dying mid-batch, nothing persisted
        st.close()
        with service(tmp_path, db_path=db) as (server, client):
            assert server.recovered == 1
            jobs = client.jobs(state="done")
            deadline = time.monotonic() + 30
            while not jobs and time.monotonic() < deadline:
                time.sleep(0.05)
                jobs = client.jobs(state="done")
            assert jobs and jobs[0]["digest"] == s.digest()

    def test_graceful_drain_loses_none_of_20_jobs(self, tmp_path):
        """ISSUE acceptance: kill -TERM with a 20-job queue loses zero
        jobs — finished results persisted, unstarted requeued.  A hang
        fault on the first spec holds the batch open so the drain
        provably lands mid-batch."""
        db = tmp_path / "jobs.sqlite"
        specs = distinct_specs(20)
        inj = FaultInjector().add(specs[0].digest(), "hang", seconds=0.6)
        with service(tmp_path, db_path=db, batch_max=16, batch_wait=0,
                     engine_opts={"jobs": 1, "cache": False,
                                  "faults": inj}) as (server, client):
            ids = {s.digest(): client.submit(s)["id"] for s in specs}
            deadline = time.monotonic() + 10
            while not server._batch and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._batch is not None, "batch never started"
            server.stop()  # same path as the SIGTERM handler

        st = JobStore(db)
        counts = st.counts()
        st.close()
        assert counts["running"] == 0
        assert counts["failed"] == 0
        assert counts["done"] + counts["queued"] == 20
        assert counts["queued"] >= 1, "drain should requeue the tail"

        with service(tmp_path, db_path=db, batch_max=16) as (_s2, client2):
            payloads = wait_done(client2, ids.values(), timeout=60)
        for s in specs:
            payload = payloads[ids[s.digest()]]
            assert payload["ok"] is True
            assert payload["digest"] == s.digest()

    def test_submit_during_drain_rejected_503(self, tmp_path):
        with service(tmp_path) as (server, client):
            server.draining = True
            status, payload = client._request(
                "POST", "/jobs", {"spec": spec().to_dict()})
            assert status == 503
            server.draining = False


class TestFailurePaths:
    def test_client_disconnect_mid_long_poll(self, tmp_path):
        """A client that vanishes while parked on /wait must not wedge
        the server or leak its handler task."""
        with service(tmp_path, start_paused=True,
                     poll_interval=0.01) as (server, client):
            job = client.submit(spec())
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall((f"GET /jobs/{job['id']}/wait?timeout=30 "
                          "HTTP/1.1\r\nHost: x\r\n\r\n").encode())
            time.sleep(0.05)  # let the handler park in the poll loop
            sock.close()
            deadline = time.monotonic() + 5
            while server._handlers and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not server._handlers, "disconnected handler leaked"
            # Server still fully functional afterwards.
            assert client.healthz()["status"] == "ok"
            server.paused = False
            assert client.wait(job["id"], timeout=30)["ok"] is True

    def test_half_request_then_disconnect(self, tmp_path):
        with service(tmp_path) as (_server, client):
            sock = socket.create_connection(("127.0.0.1", client.port))
            sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 999\r\n"
                         b"\r\ntruncated")
            sock.close()
            assert client.healthz()["status"] == "ok"

    def test_chaos_faults_behind_service(self, tmp_path):
        """PR 2 fault injection mounted behind the service: a transient
        crash is retried to success, a persistent error surfaces as a
        failed job with the full RunFailure record, and neighbours in
        the same batch are untouched."""
        specs = distinct_specs(3)
        inj = (FaultInjector()
               .add(specs[0].digest(), "crash", until_attempt=1)
               .add(specs[1].digest(), "error"))
        with service(tmp_path, engine_opts={
                "jobs": 1, "cache": False,
                "faults": inj}) as (server, client):
            ids = [client.submit(s)["id"] for s in specs]
            transient = client.wait(ids[0], timeout=60)
            persistent = client.wait(ids[1], timeout=60)
            clean = client.wait(ids[2], timeout=60)
            engine = server._engines[False]
        assert transient["ok"] is True          # retry absorbed the crash
        assert engine.stats.retries >= 1
        assert persistent["ok"] is False
        failure = parse_result(persistent)
        assert failure.category == "error"
        assert failure.spec_digest == specs[1].digest()
        assert client.parse(clean) == Engine(jobs=1, cache=False) \
            .run_one(specs[2])
        assert json.loads(json.dumps(persistent)) == persistent
