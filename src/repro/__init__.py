"""repro — reproduction of *Improving GPU Performance Through Resource
Sharing* (Jatala, Anantpur, Karkare; HPDC 2016).

The package implements the paper's register- and scratchpad-sharing
mechanisms plus the OWF / unroll / Dyn optimisations on top of a
cycle-level GPU simulator (the GPGPU-Sim stand-in).  Typical use::

    from repro import APPS, GPUConfig, run, unshared, shared, SharedResource

    cfg = GPUConfig().scaled(num_clusters=4)
    base = run(APPS["hotspot"], unshared("lrr"), config=cfg)
    best = run(APPS["hotspot"],
               shared(SharedResource.REGISTERS, "owf",
                      unroll=True, dyn=True), config=cfg)
    print(base.ipc, best.ipc)

Every table and figure of the paper is regenerated by
``python -m repro.harness <id>`` (see DESIGN.md §5 for the index).
"""

from repro.config import GDDRTimings, GPUConfig, LatencyConfig, WARP_SIZE
from repro.core import (DynWarpController, Occupancy, SharedResource,
                        SharingPlan, SharingSpec, occupancy, plan_sharing,
                        reorder_registers, register_sharing_bits,
                        scratchpad_sharing_bits)
from repro.harness import (EXPERIMENTS, Engine, ExperimentResult, Mode,
                           RunSpec, Sweep, improvement, render_experiment,
                           run, run_experiment, shared, unshared)
from repro.isa import (AsmError, Instr, Kernel, KernelBuilder, MemDesc,
                       MemSpace, Op, Pattern, Segment, assemble,
                       disassemble)
from repro.analysis import analyze, format_analysis
from repro.obs.issues import TraceRecorder
from repro.sim import GPU, RunResult
from repro.workloads import APPS, SET1, SET2, SET3, App, build_app

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config
    "GPUConfig", "LatencyConfig", "GDDRTimings", "WARP_SIZE",
    # isa
    "Op", "MemSpace", "Pattern", "Instr", "MemDesc", "Segment", "Kernel",
    "KernelBuilder", "assemble", "disassemble", "AsmError",
    # core
    "SharedResource", "SharingSpec", "SharingPlan", "plan_sharing",
    "Occupancy", "occupancy", "reorder_registers", "DynWarpController",
    "register_sharing_bits", "scratchpad_sharing_bits",
    # sim
    "GPU", "RunResult", "TraceRecorder",
    # analysis
    "analyze", "format_analysis",
    # workloads
    "App", "APPS", "SET1", "SET2", "SET3", "build_app",
    # harness
    "Mode", "run", "unshared", "shared", "improvement",
    "Engine", "RunSpec",
    "EXPERIMENTS", "run_experiment", "ExperimentResult", "render_experiment",
    "Sweep",
]
