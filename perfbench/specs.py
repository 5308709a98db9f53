"""Workload inputs: the fixed Fig. 8 matrix and the seeded service
request streams.

Everything here runs before timing starts.  The simulation workload
uses a fixed cell matrix (the seed does not change it); the service
workload's request stream is generated from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.engine import RunSpec, kernel_fingerprint
from repro.harness.runner import Mode, shared, unshared
from repro.workloads.apps import APPS
from repro.workloads.suites import SET1, SET2, SET3

REG = SharedResource.REGISTERS
SPAD = SharedResource.SCRATCHPAD


@dataclass(frozen=True)
class Sizes:
    """How big one run is.  :data:`FULL` is what the command line runs;
    :data:`TINY` exists for the benchmark's own tests."""

    clusters: int = 4           #: GPU clusters of the simulated machine
    scale: float = 0.7          #: kernel loop-count scale
    waves: float = 6.0          #: grid waves per SM
    setup_reps: int = 5         #: set-up probes per run (median reported)
    min_warm_passes: int = 50   #: fewest all-hit passes a run reports
    traced_warm_passes: int = 20  #: fixed pass count of a traced run
    ref_checks: int = 2         #: cold cells re-run on the reference core
    overhead_cells: int = 2     #: cells re-run untraced for the overhead
    service_requests: int = 1000  #: pre-generated requests per client
    traced_requests: int = 40   #: fixed requests per client when traced
    service_checks: int = 4     #: service results re-run directly


FULL = Sizes()
TINY = Sizes(clusters=1, scale=0.15, waves=1.0, setup_reps=1,
             min_warm_passes=5, traced_warm_passes=3, ref_checks=1,
             overhead_cells=1, service_requests=60, traced_requests=6,
             service_checks=2)


def machine(sizes: Sizes) -> GPUConfig:
    """The simulated machine of the simulation workload."""
    return GPUConfig().scaled(num_clusters=sizes.clusters)


# -- fixed matrix --------------------------------------------------------

#: Fig. 8(c) compares these two modes on the Set-1 apps ...
FIG8C_MODES = (unshared("lrr"), shared(REG, "owf", unroll=True, dyn=True))
#: ... and Fig. 8(d) these two on the Set-2 apps.
FIG8D_MODES = (unshared("lrr"), shared(SPAD, "owf"))


def fig8_cells() -> list[tuple[str, Mode]]:
    """The 30 (app, mode) cells of Fig. 8(c)+(d), in experiment order."""
    return ([(a, m) for a in SET1 for m in FIG8C_MODES]
            + [(a, m) for a in SET2 for m in FIG8D_MODES])


def sim_specs(sizes: Sizes) -> list[RunSpec]:
    """Specs of ``fig8-steady`` (independent of the seed)."""
    cfg = machine(sizes)
    return [RunSpec.create(APPS[a], m, config=cfg, scale=sizes.scale,
                           waves=sizes.waves) for a, m in fig8_cells()]


# -- service request stream ------------------------------------------------

#: Small cells keep the service's own timers on the blocking path.
SERVICE_CLUSTERS = 1
SERVICE_WAVES = 1.0
#: Closed-loop client threads of the load process.
SERVICE_CLIENTS = 2
SERVICE_SCALES = tuple(round(0.15 + 0.01 * i, 2) for i in range(11))
SERVICE_TS = (0.1, 0.3, 0.5, 0.7, 0.9)
SERVICE_APPS = SET1 + SET2 + SET3


def _service_modes(app: str) -> list[Mode]:
    """Modes a fresh request may use: both unshared schedulers, plus
    the sharing flavours of the resource that limits the app."""
    modes = [unshared("lrr"), unshared("gto")]
    set_id = APPS[app].set_id
    for t in SERVICE_TS:
        if set_id == 1:
            modes += [shared(REG, "owf", t=t),
                      shared(REG, "owf", t=t, unroll=True, dyn=True)]
        elif set_id == 2:
            modes += [shared(SPAD, "owf", t=t), shared(SPAD, "lrr", t=t)]
    return modes


@dataclass(frozen=True)
class Request:
    """One pre-generated service request."""

    spec: RunSpec
    digest: str
    fresh: bool      #: first request for this spec in the stream


def service_streams(seed: int, sizes: Sizes,
                    per_client: int | None = None) -> list[list[Request]]:
    """One closed-loop request list per client, all drawn from ``seed``.

    About half the requests repeat a spec the same client already
    finished (the server answers those from its cache); the rest are
    fresh cells.  Fresh cells come in rounds that hold every app once,
    and each app steps through its own seeded permutations of the
    scales and of its modes, so every eleven rounds ask for the same
    total work whatever the seed; the seed changes the order, the
    pairing of modes with scales, and which requests repeat.
    """
    rng = random.Random(seed)
    n = per_client if per_client is not None else sizes.service_requests
    cfg = GPUConfig().scaled(num_clusters=SERVICE_CLUSTERS)
    scales = {a: rng.sample(SERVICE_SCALES, len(SERVICE_SCALES))
              for a in SERVICE_APPS}
    modes = {a: rng.sample(_service_modes(a), len(_service_modes(a)))
             for a in SERVICE_APPS}
    visits = dict.fromkeys(SERVICE_APPS, 0)
    fps: dict[tuple[str, float], str] = {}
    queue: list[str] = []

    def fresh_spec() -> RunSpec:
        if not queue:
            queue.extend(rng.sample(SERVICE_APPS, len(SERVICE_APPS)))
        app = queue.pop()
        k = visits[app]
        visits[app] += 1
        scale = scales[app][k % len(scales[app])]
        mode = modes[app][k % len(modes[app])]
        fp = fps.get((app, scale))
        if fp is None:
            fp = fps[app, scale] = kernel_fingerprint(
                APPS[app].kernel(scale))
        return RunSpec(app=app, kernel_fp=fp, mode=mode, config=cfg,
                       scale=scale, waves=SERVICE_WAVES)

    clients = range(SERVICE_CLIENTS)
    streams: list[list[Request]] = [[] for _ in clients]
    finished: list[list[Request]] = [[] for _ in clients]
    for _ in range(n):
        for c in clients:
            if finished[c] and rng.random() < 0.5:
                prev = rng.choice(finished[c])
                streams[c].append(Request(prev.spec, prev.digest, False))
            else:
                spec = fresh_spec()
                req = Request(spec, spec.digest(), True)
                streams[c].append(req)
                finished[c].append(req)
    return streams
