#!/usr/bin/env python
"""CI smoke for the simulation service: real processes, real signals.

The in-thread tests in ``tests/test_service.py`` pin the semantics;
this script proves them across process boundaries, the way the service
actually deploys:

1. start ``python -m repro serve`` as a subprocess;
2. send a request with a malformed ``Content-Length``: it must get a
   400 and the server must keep serving;
3. run a fig8-style cell batch through the ``repro submit`` CLI and
   assert every result payload is digest- and result-identical to a
   direct ``repro run --json`` of the same cell;
4. queue 20 jobs and ``SIGTERM`` the server mid-queue: the process
   must exit 0 (graceful drain), leave no job in ``running`` and lose
   none;
5. restart on the same store and drain the queue to completion.

Each server's stderr goes to a file in the smoke's temp dir; the run
fails if either file shows a ``Traceback`` or an asyncio
``Unhandled exception`` (a request handler that crashed silently).

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.service import JobStore, ServiceClient

CELLS = [("gaussian", "lrr"), ("gaussian", "shared-reg"),
         ("hotspot", "lrr"), ("hotspot", "shared-reg")]
RUN_FLAGS = ["--clusters", "1", "--scale", "0.2", "--waves", "1"]


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_server(port: int, db: Path, log: Path) -> subprocess.Popen:
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--db", str(db), "--jobs", "1", "--no-cache",
             "--batch-wait", "0.02"], stderr=err)
    client = ServiceClient(port=port, timeout=5.0)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server died on startup "
                             f"(rc={proc.returncode})")
        try:
            client.healthz()
            return proc
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise SystemExit("server did not come up within 30s")


def check_bad_content_length(port: int) -> None:
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: abc\r\n\r\n")
        status = sock.makefile("rb").readline()
    if not status.startswith(b"HTTP/1.1 400 "):
        raise SystemExit(f"bad Content-Length got {status!r}, "
                         f"expected a 400")
    ServiceClient(port=port, timeout=5.0).healthz()
    print("  bad Content-Length: 400, server still serving")


def check_stderr(logs: list[Path]) -> None:
    for log in logs:
        text = log.read_text(errors="replace")
        if "Traceback" in text or "Unhandled exception" in text:
            raise SystemExit(f"server crash logged in {log}:\n{text}")
    print(f"  server stderr: no tracebacks in {len(logs)} log(s)")


def cli_json(argv: list[str]) -> dict:
    out = subprocess.run([sys.executable, "-m", "repro", *argv],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"`repro {' '.join(argv)}` failed "
                         f"(rc={out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout)


def check_digest_equality(port: int) -> None:
    for app, mode in CELLS:
        remote = cli_json(["submit", app, "--mode", mode, *RUN_FLAGS,
                           "--port", str(port), "--wait",
                           "--wait-timeout", "120", "--json"])
        local = cli_json(["run", app, "--mode", mode, *RUN_FLAGS,
                          "--no-cache", "--json"])
        assert remote["ok"] and local["ok"], (app, mode)
        assert remote["digest"] == local["digest"], \
            f"{app}/{mode}: digest mismatch"
        assert remote["result"] == local["result"], \
            f"{app}/{mode}: result payload mismatch"
        print(f"  cell {app:10s} {mode:12s} digest "
              f"{remote['digest'][:16]}… identical local/remote")


def queue_20_and_sigterm(port: int, db: Path,
                         proc: subprocess.Popen) -> list[str]:
    client = ServiceClient(port=port, client_id="smoke")
    from repro.config import GPUConfig
    from repro.harness.engine import RunSpec
    from repro.harness.runner import unshared
    from repro.workloads.apps import APPS
    cfg = GPUConfig().scaled(num_clusters=1)
    specs = [RunSpec.create(APPS["gaussian"], unshared("lrr"),
                            config=cfg, scale=0.2, waves=1.0,
                            max_cycles=10_000_000 + i)
             for i in range(20)]
    ids = [client.submit(s)["id"] for s in specs]
    proc.send_signal(signal.SIGTERM)     # mid-queue, on purpose
    rc = proc.wait(timeout=120)
    if rc != 0:
        raise SystemExit(f"graceful drain exited {rc}, expected 0")

    store = JobStore(db)
    states = {jid: store.get(jid).state for jid in ids}
    counts = store.counts()
    store.close()
    lost = [jid for jid, st in states.items()
            if st not in ("done", "queued")]
    if counts["running"] or lost:
        raise SystemExit(f"drain lost jobs: running={counts['running']} "
                         f"bad states={lost}")
    done = sum(1 for st in states.values() if st == "done")
    print(f"  SIGTERM with 20 queued: rc=0, {done} done, "
          f"{20 - done} requeued, 0 lost")
    return ids


def drain_after_restart(port: int, ids: list[str]) -> None:
    client = ServiceClient(port=port, client_id="smoke")
    for jid in ids:
        payload = client.wait(jid, timeout=120)
        assert payload["ok"], f"job {jid} failed after restart"
    print(f"  restart drained all {len(ids)} jobs to done")


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]) \
        .parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="repro-service-smoke-"))
    db = tmp / "jobs.sqlite"
    port = free_port()

    logs = [tmp / "server-1.stderr", tmp / "server-2.stderr"]

    print(f"service smoke: port {port}, store {db}")
    proc = start_server(port, db, logs[0])
    try:
        check_bad_content_length(port)
        check_digest_equality(port)
        ids = queue_20_and_sigterm(port, db, proc)
        proc = start_server(port, db, logs[1])
        drain_after_restart(port, ids)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
    check_stderr(logs)
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
