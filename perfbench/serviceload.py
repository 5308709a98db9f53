"""The ``service-mixed`` workload: ``repro serve --jobs 1`` under a
closed loop of client threads.

Each client submits, waits for the result and only then sends its next
request, because service callers block on their result.  The request
streams are generated from the seed before timing starts; about half
repeat a spec the client already finished, which the server answers
from its cache.  The server runs as a subprocess with a fresh job store
and result cache inside the run's work directory.
"""

from __future__ import annotations

import json
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.harness.engine import Engine
from repro.obs.tracing import Tracer
from repro.service import AdmissionRejected, ServiceClient
from repro.service.serialize import parse_result

from common import (ROOT, WARM_SPECS, Outcome, check_block_counts,
                    env_child, pct, result_metrics, setup_seconds, warm_pass)
from probes import Recorder, attributed_s, layer_metrics, merge
from specs import Request, Sizes, service_streams

HERE = Path(__file__).resolve().parent
#: Longest a client waits for one job before counting it timed out.
JOB_TIMEOUT_S = 60.0
#: Pause between all-hit passes while the load runs (about 240 passes
#: in 30 s).
WARM_TICK_S = 0.125


class Server:
    """A ``repro serve`` subprocess on a free localhost port.

    With ``dump`` set, the server runs under the layer probes (see
    ``traced_server.py``) and writes their aggregates there on exit.
    """

    def __init__(self, workdir: Path, dump: Path | None = None) -> None:
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            self.port = s.getsockname()[1]
        self.cache_dir = workdir / "cache"
        argv = ["serve", "--port", str(self.port),
                "--db", str(workdir / "jobs.sqlite"), "--jobs", "1",
                "--cache-dir", str(self.cache_dir)]
        cmd = ([sys.executable, "-m", "repro", *argv] if dump is None
               else [sys.executable, str(HERE / "traced_server.py"),
                     str(dump), *argv])
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env_child(),
                                     stdout=subprocess.DEVNULL)
        client = ServiceClient(port=self.port, timeout=5.0)
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited on start-up "
                                   f"(rc={self.proc.returncode})")
            try:
                client.healthz()
                return
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("server did not answer /healthz")
                time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory (VmHWM)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Graceful drain (SIGTERM), escalating to a kill."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def setup_only(seed: int, sizes: Sizes, workdir: Path) -> None:
    """The set-up a run pays before its first timed request."""
    service_streams(seed, sizes)
    server = Server(workdir)
    print("ready", flush=True)
    server.stop()


@dataclass
class Job:
    client: int
    req: Request
    t0: float
    t1: float
    status: str                 #: ok | failed | rejected | timeout | error
    payload: dict | None = None
    error: str = ""             #: repr of the exception, if one was raised


def _client(c: int, port: int, stream: list[Request], deadline: float | None,
            jobs: list[Job], finished: list[bool]) -> None:
    """Run one closed-loop client.  Every request it sends lands in
    ``jobs``; ``finished[c]`` is set once the client has reached the
    deadline (untraced) or sent its whole stream (traced)."""
    client = ServiceClient(port=port, client_id=f"perfbench-{c}")
    for req in stream:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        payload = None
        error = ""
        try:
            job = client.submit(req.spec)
            payload = client.wait(job["id"], timeout=JOB_TIMEOUT_S)
            status = "ok" if payload.get("ok") else "failed"
        except AdmissionRejected:
            status = "rejected"
        except TimeoutError:
            status = "timeout"
        except Exception as exc:   # any other failure is counted too
            status, error = "error", repr(exc)
        jobs.append(Job(c, req, t0, time.perf_counter(), status, payload,
                        error))
    finished[c] = deadline is None or time.perf_counter() >= deadline


def run_service(seed: int, seconds: float, traced: bool, sizes: Sizes,
                workdir: Path, trace_path: Path) -> Outcome:
    out = Outcome()
    streams = service_streams(
        seed, sizes, sizes.traced_requests if traced else None)
    if not traced:
        setups = setup_seconds("service-mixed", seed, sizes.setup_reps)
        out.metric("setup_s", statistics.median(setups), "s")
        out.lines.append("setup samples (s): "
                         + " ".join(f"{t:.3f}" for t in setups))
    dump = workdir / "server-probes.json" if traced else None
    rec = Recorder() if traced else None
    server = Server(workdir, dump)
    try:
        if rec is not None:
            rec.install()
        per_client: list[list[Job]] = [[] for _ in streams]
        finished = [False] * len(streams)
        t_start = time.perf_counter()
        deadline = None if traced else t_start + seconds
        threads = [threading.Thread(target=_client,
                                    args=(c, server.port, s, deadline,
                                          per_client[c], finished))
                   for c, s in enumerate(streams)]
        for t in threads:
            t.start()
        # Untraced runs take all-hit samples while the load runs, so
        # they cover the whole run instead of one stretch of host noise.
        warm = None if traced else _Warm(server.cache_dir, out)
        give_up = t_start + seconds + 2 * JOB_TIMEOUT_S + 30
        while any(t.is_alive() for t in threads):
            if time.perf_counter() > give_up:
                raise RuntimeError("a load client did not finish")
            if warm is not None:
                warm.tick(per_client)
            time.sleep(WARM_TICK_S)
        for t in threads:
            t.join()
        if rec is not None:
            rec.uninstall()
        jobs = sorted((j for js in per_client for j in js),
                      key=lambda j: j.t0)
        load_wall = max((j.t1 for j in jobs),
                        default=time.perf_counter()) - t_start
        server_rss = server.peak_rss_mb()
        prom = _prometheus(ServiceClient(port=server.port).metrics_text())
    finally:
        server.stop()

    ok = [j for j in jobs if j.status == "ok"]
    for j in jobs:
        out.op(j.status == "ok", f"job {j.req.spec.app} "
               f"{j.req.spec.mode.label}: {j.status} {j.error}")
    for c, done in enumerate(finished):
        if not done:
            out.op(False, f"client {c} stopped before the end of its load")
    fresh = [j for j in ok if not j.payload["cached"]]
    lat_ms = [(j.t1 - j.t0) * 1e3 for j in ok]
    out.lines.append(
        f"load: {len(jobs)} requests from {len(streams)} closed-loop "
        f"clients in {load_wall:.3f} s; {len(fresh)} simulated, "
        f"{len(ok) - len(fresh)} served from the cache")

    if warm is not None:
        warm.collect(per_client)
        out.op(len(warm.specs) == WARM_SPECS,
               f"only {len(warm.specs)} fresh jobs finished, too few for "
               f"the all-hit passes")
        while len(warm.specs) == WARM_SPECS \
                and len(warm.ms) < sizes.min_warm_passes:
            warm.run_pass()
    if not traced and ok and warm.ms:
        rates = [j.payload["result"]["instructions"] / j.payload["elapsed"]
                 / 1e6 for j in fresh if j.payload["elapsed"] > 0]
        out.metric("sim_minstr_per_s", statistics.median(rates), "Minstr/s")
        out.metric("warm_hit_p90_ms", pct(warm.ms, 90), "ms")
        out.metric("submit_to_done_p50_ms", pct(lat_ms, 50), "ms")
        out.metric("submit_to_done_p95_ms", pct(lat_ms, 95), "ms")
        out.metric("jobs_per_s", len(ok) / load_wall, "jobs/s")
        out.metric("peak_rss_mb", server_rss, "MB")

    # -- output checks (untimed) ---------------------------------------
    rng = random.Random(seed)
    sample = rng.sample(fresh, min(sizes.service_checks, len(fresh)))
    direct_s = 0.0
    for j in sample:
        t0 = time.perf_counter()
        direct = j.req.spec.execute()
        direct_s += time.perf_counter() - t0
        out.op(direct.to_dict() == j.payload["result"],
               f"service result of {j.req.spec.app} "
               f"{j.req.spec.mode.label} differs from a direct execute()")
    check_block_counts(out, sizes.scale)

    if traced:
        server_snap = json.loads(dump.read_text())
        client_snap = rec.snapshot()
        metrics = layer_metrics(merge(client_snap, server_snap), load_wall)
        latency_s = sum(j.t1 - j.t0 for j in jobs)
        metrics.update(result_metrics(
            [parse_result(j.payload) for j in fresh]))
        eng = server_snap["engines"]
        nsims = sum(e["sims"] for e in eng)
        metrics.update({
            "harness.engine.cold_overhead_ms": (
                sum(e["wall_time"] - e["sim_time"] for e in eng)
                / nsims * 1e3 if nsims else 0.0, "ms"),
            "service.submit_share": (
                client_snap["calls"]["ServiceClient.submit"][1] / latency_s,
                "ratio"),
            "service.wait_share": (
                client_snap["calls"]["ServiceClient.wait"][1] / latency_s,
                "ratio"),
            "service.queue_wait_share": (
                prom.get("service_job_wait_ms_sum", 0.0) / 1e3 / latency_s,
                "ratio"),
            "service.run_share": (
                prom.get("service_job_run_ms_sum", 0.0) / 1e3 / latency_s,
                "ratio"),
            "service.batch_jobs_mean": (
                _hist_mean(prom, "service_batch_jobs"), "jobs"),
            "service.rejected": (
                int(sum(v for k, v in prom.items()
                        if k.startswith("service_jobs_rejected_total"))),
                "count"),
            "service.cache_hit_ratio": (
                prom.get("engine_cache_hits", 0.0)
                / max(1.0, prom.get("engine_cache_hits", 0.0)
                      + prom.get("engine_sims", 0.0)), "ratio"),
            "trace.overhead_ratio": (
                sum(j.payload["elapsed"] for j in sample) / direct_s
                if direct_s else 0.0, "ratio"),
            "trace.unattributed_share": (
                1.0 - attributed_s(client_snap)
                / (len(streams) * load_wall), "ratio"),
        })
        out.metrics.update(metrics)
        _write_trace(trace_path, jobs, t_start, seed)
        out.lines.append(f"trace written to {trace_path}")
    return out


class _Warm:
    """All-hit ``run_batch`` passes over the first WARM_SPECS fresh
    specs that finished, through an in-process engine on the server's
    result cache; every result must equal the service's."""

    def __init__(self, cache_dir: Path, out: Outcome) -> None:
        self.engine = Engine(jobs=1, cache_dir=cache_dir)
        self.out = out
        self.specs: list = []
        self.want: list[dict] = []
        self.ms: list[float] = []

    def collect(self, per_client: list[list[Job]]) -> None:
        """Fill the spec set from finished jobs, up to WARM_SPECS."""
        for jobs in per_client:
            for j in list(jobs):
                if len(self.specs) == WARM_SPECS:
                    return
                if j.status == "ok" and j.req.fresh \
                        and j.req.spec not in self.specs:
                    self.specs.append(j.req.spec)
                    self.want.append(j.payload["result"])

    def tick(self, per_client: list[list[Job]]) -> None:
        """Run one pass once the spec set is full."""
        self.collect(per_client)
        if len(self.specs) == WARM_SPECS:
            self.run_pass()

    def run_pass(self) -> None:
        warm_pass(self.engine, self.specs, self.want, self.out, self.ms)


def _prometheus(text: str) -> dict[str, float]:
    """``name{labels}`` → value for every sample line."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


def _hist_mean(prom: dict[str, float], name: str) -> float:
    count = prom.get(f"{name}_count", 0.0)
    return prom.get(f"{name}_sum", 0.0) / count if count else 0.0


def _write_trace(path: Path, jobs: list[Job], t_start: float,
                 seed: int) -> None:
    tracer = Tracer()
    tracer.process_name(1, f"perfbench service-mixed seed {seed}")
    for j in jobs:
        spec = j.req.spec
        tracer.complete(1, tracer.track(1, f"client {j.client}"),
                        f"{spec.app} {spec.mode.label}",
                        "fresh" if j.req.fresh else "repeat",
                        int((j.t0 - t_start) * 1e6),
                        int((j.t1 - j.t0) * 1e6),
                        {"digest": j.req.digest[:16], "status": j.status})
    tracer.write(path, {"clockDomain": "host time (us)",
                        "workload": "service-mixed", "seed": seed})
