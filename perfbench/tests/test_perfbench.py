"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from probes import Recorder  # noqa: E402
from specs import TINY, service_streams, sim_specs  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
_RUNS: dict = {}


def tiny_run(workload: str, traced: bool, seed: int = 1, rep: int = 0):
    """One tiny run per argument tuple, shared by every test."""
    key = (workload, traced, seed, rep)
    if key not in _RUNS:
        workdir = ROOT / ".perfbench-work" / f"test-{'-'.join(map(str, key))}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _RUNS[key] = run.run_workload(workload, seed, 1.0, traced, TINY,
                                          workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return _RUNS[key]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, traced):
    out = tiny_run(workload, traced)
    listed = CONTRACT["per_layer" if traced else "end_to_end"]
    assert {n: u for n, (_v, u) in out.metrics.items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert out.attempted > 0 and out.failed == 0, out.lines
    if not traced:
        assert all(v > 0 for v, _u in out.metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_and_model_repeat_exactly(workload):
    first = tiny_run(workload, True, rep=0).metrics
    second = tiny_run(workload, True, rep=1).metrics
    exact = [n for n, (_v, u) in first.items()
             if u == "count" or n.startswith("model.")]
    assert len(exact) > 20
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_paper_gap_is_reported_on_fig8():
    assert tiny_run("fig8-steady", True).metrics["model.paper_gap_pp"][0] > 0


def test_seed_changes_service_specs_but_not_fixed_cells():
    def digests(seed):
        return [r.digest for s in service_streams(seed, TINY) for r in s]

    assert digests(1) == digests(1)
    assert digests(1) != digests(2)
    assert [s.digest() for s in sim_specs(TINY)] == \
        [s.digest() for s in sim_specs(TINY)]
    cycles = {seed: tiny_run("fig8-steady", True, seed=seed)
              .metrics["model.cycles"] for seed in (1, 2)}
    assert cycles[1] == cycles[2]


def test_client_errors_count_as_failed_operations(monkeypatch):
    import serviceload

    wait = serviceload.ServiceClient.wait
    calls = []

    def flaky_wait(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise http.client.IncompleteRead(b"")
        return wait(self, *args, **kwargs)

    monkeypatch.setattr(serviceload.ServiceClient, "wait", flaky_wait)
    out = tiny_run("service-mixed", False, seed=3)
    assert out.failed == 1
    assert any("IncompleteRead" in line for line in out.lines)


def test_probes_are_result_neutral_and_removable():
    spec = sim_specs(TINY)[1]
    plain = spec.execute().to_dict()
    import repro.sim.sm as sm
    before = dict(vars(sm.SMCore)), sm.coalesce_lines
    with Recorder() as rec:
        traced = spec.execute().to_dict()
    assert traced == plain
    assert (dict(vars(sm.SMCore)), sm.coalesce_lines) == before
    assert rec.snapshot()["calls"]["SMCore.step"][0] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
