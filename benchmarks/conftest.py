"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one paper table/figure.  The
simulations are deterministic, so every benchmark runs a single
measured round (``pedantic``) — pytest-benchmark is used for its
reporting/JSON machinery, not for statistical repetition.

Scale knobs (override via environment):

* ``REPRO_BENCH_CLUSTERS`` — SM clusters (default 4; paper used 14)
* ``REPRO_BENCH_SCALE``    — kernel loop-count scale (default 0.7)
* ``REPRO_BENCH_WAVES``    — grid waves per SM (default 6)
* ``REPRO_BENCH_JOBS``     — engine worker processes (default 1: the
  wall time *is* the measurement here, so keep runs in-process unless
  you only care about regenerating the tables)

All runs share one :class:`~repro.harness.engine.Engine` with the
on-disk result cache enabled, so repeat benchmark invocations (and
experiments that overlap, e.g. fig9a after fig8c) reuse finished
simulations.  Delete ``~/.cache/repro`` or point ``REPRO_CACHE_DIR``
at an empty directory to force cold runs.
"""

import os

import pytest

from repro.config import GPUConfig
from repro.harness.engine import Engine

CLUSTERS = int(os.environ.get("REPRO_BENCH_CLUSTERS", "4"))
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.7"))
WAVES = float(os.environ.get("REPRO_BENCH_WAVES", "6"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture(scope="session")
def bench_config():
    """Machine configuration for all benchmark runs."""
    return GPUConfig().scaled(num_clusters=CLUSTERS)


@pytest.fixture(scope="session")
def bench_engine():
    """One cached engine shared by every benchmark in the session."""
    return Engine(jobs=JOBS)


@pytest.fixture(scope="session")
def bench_params(bench_engine):
    """(scale, waves, engine) for all benchmark runs."""
    return {"scale": SCALE, "waves": WAVES, "engine": bench_engine}


def run_once(benchmark, fn, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its
    result (simulations are deterministic; re-running only wastes time)."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
