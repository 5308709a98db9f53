#!/usr/bin/env python3
"""Repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig8-steady --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``fig8-steady`` and ``service-mixed`` (see
``perfbench/README.md``); ``all`` runs both in turn.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps the program's public entry points and reports
per-layer work and host time instead.  The last line of standard
output is the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The program is imported from this checkout's ``src/``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig8-steady", "service-mixed")


def environment(seed: int) -> dict:
    """What each result is recorded with."""
    commit = "unknown (not a git checkout)"
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head.strip()
    except OSError:
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "commit": commit,
            "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # used by the set-up probes
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              f"is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from specs import FULL

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            if args.workload == "service-mixed":
                from serviceload import setup_only
                setup_only(args.seed, FULL, workdir)
            else:
                from simload import setup_only
                setup_only(FULL)
            return 0
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for line in out.lines:
        print(f"  {line}")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  operations: {out.attempted} attempted, {out.failed} failed")
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({
        "correct": out.failed == 0, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()}}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (so peak memory stays per
    workload); the last line combines their results, with metric names
    prefixed by the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} failed (rc={proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{name}": m for name, m
                                 in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 sizes, workdir: Path):
    """Run one workload; returns its :class:`common.Outcome`."""
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"{workload}-seed{seed}.trace.json"
    if workload == "service-mixed":
        from serviceload import run_service
        return run_service(seed, seconds, traced, sizes, workdir,
                           trace_path)
    from simload import run_sim
    return run_sim(seed, traced, sizes, workdir, trace_path)


if __name__ == "__main__":
    sys.exit(main())
