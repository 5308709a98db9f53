"""Cycle-level GPU simulator (the GPGPU-Sim stand-in).

The top-level entry point is :class:`repro.sim.gpu.GPU`; most users go
through :func:`repro.harness.runner.run` instead, which wires a kernel,
a scheduler and a sharing configuration together.
"""

from repro.sim.stats import SMStats, RunResult
from repro.sim.warp import WarpContext, WarpState
from repro.sim.block import BlockContext, SharePair
from repro.sim.dispatcher import Dispatcher
from repro.sim.sm import SMCore
from repro.sim.gpu import GPU, SimulationLimitExceeded

__all__ = [
    "SMStats",
    "RunResult",
    "WarpContext",
    "WarpState",
    "BlockContext",
    "SharePair",
    "Dispatcher",
    "SMCore",
    "GPU",
    "SimulationLimitExceeded",
]
