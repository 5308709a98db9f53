"""Helpers shared by the workload runners."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import GPUConfig
from repro.harness.experiments import run_experiment

#: Checkout root (the parent of this benchmark's directory).
ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
#: Specs per timed all-hit pass.  Every pass reads the same number of
#: specs, so each warm sample is the per-spec cost of one batch size.
WARM_SPECS = 4


@dataclass
class Outcome:
    """What one run reports: operation counts, metrics and a log."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted operation; log it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.lines.append(f"FAILED {what}")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


def pct(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def warm_pass(engine, specs: list, want: list, out: Outcome,
              samples: list[float]) -> float:
    """One all-hit ``run_batch`` pass over ``specs``.

    Appends its per-spec cost (calling thread's CPU time ÷ specs, in ms)
    to ``samples`` and counts one operation per result, which must
    equal its ``want`` dict.  Returns the seconds the check took, which
    lie outside the timed call.
    """
    c0 = time.thread_time()
    got = engine.run_batch(specs)
    samples.append((time.thread_time() - c0) / len(specs) * 1e3)
    t0 = time.perf_counter()
    for spec, res, w in zip(specs, got, want):
        out.op(res.ok and res.to_dict() == w,
               f"warm result of {spec.app} {spec.mode.label} differs "
               f"from its first result")
    return time.perf_counter() - t0


def env_child() -> dict[str, str]:
    """Environment for child Pythons: this checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(workload: str, seed: int, reps: int) -> list[float]:
    """Time ``reps`` fresh processes from spawn until their workload
    set-up is done (imports, kernel builds, spec digests and, for the
    service, a server answering ``/healthz``)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, env=env_child(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (rc={rc}, "
                               f"first line {line.strip()!r})")
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_block_counts(out: Outcome, scale: float) -> None:
    """Fig. 8(a)/(b): resident blocks with and without sharing must
    equal the paper's numbers for every app."""
    cfg = GPUConfig().scaled(num_clusters=4)
    for exp in ("fig8a", "fig8b"):
        for row in run_experiment(exp, config=cfg, scale=scale).rows:
            out.op(row["blocks_unshared"] == row["paper_unshared"]
                   and row["blocks_shared"] == row["paper_shared"],
                   f"{exp} block counts of {row['app']}: {row}")


def result_metrics(results: list) -> dict[str, tuple[float, str]]:
    """Simulated-time totals of the cells a run simulated (the model
    layer) and their DRAM row-hit ratio.  The Fig. 8 gains are 0 here;
    only fig8-steady has the cells to compute them."""
    cycles = sum(r.cycles for r in results)
    instr = sum(r.instructions for r in results)
    reqs = sum(r.mem["dram_requests"] for r in results)
    row_hits = sum(r.mem["dram_row_hit_rate"] * r.mem["dram_requests"]
                   for r in results)
    return {"model.cycles": (cycles, "cycles"),
            "model.ipc": (instr / cycles if cycles else 0.0, "instr/cycle"),
            "model.reg_gain_pct": (0.0, "%"),
            "model.spad_gain_pct": (0.0, "%"),
            "model.paper_gap_pp": (0.0, "pp"),
            "mem.dram.row_hit_ratio": (row_hits / reqs if reqs else 0.0,
                                       "ratio")}
