"""Run one (app, mode) pair on the simulator.

A :class:`Mode` bundles the paper's experimental axes: warp scheduler,
shared resource (None / registers / scratchpad), threshold ``t``, and the
two register-sharing optimisations (unroll, Dyn).  Canonical labels
follow the paper's figure legends (``Unshared-LRR``,
``Shared-OWF-Unroll-Dyn``, ...).

Grid sizing: the grid is ``waves × num_sms × baseline_blocks`` so every
mode of one app runs the *same* total work and IPC values are directly
comparable (including the doubled-resource baselines of Fig. 11, which
pin the grid via ``grid_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GPUConfig
from repro.core.occupancy import occupancy
from repro.core.sharing import SharedResource, SharingSpec, plan_sharing
from repro.core.unroll import reorder_registers
from repro.isa.kernel import Kernel
from repro.obs.sink import NULL_SINK, ObsSink
from repro.sched import SCHEDULERS, policy_id
from repro.sim.gpu import GPU
from repro.sim.stats import RunResult
from repro.workloads.apps import App

__all__ = ["Mode", "unshared", "shared", "run", "improvement"]


@dataclass(frozen=True)
class Mode:
    """One experimental configuration."""

    label: str
    scheduler: str = "lrr"
    sharing: SharedResource | None = None
    t: float = 0.1
    unroll: bool = False
    dyn: bool = False
    #: Live-range early release of shared registers (Sec. VIII future
    #: work, implemented as an extension — see core/liverange.py).
    early_release: bool = False

    def __post_init__(self) -> None:
        policy_id(self.scheduler)  # rejects unknown scheduler names
        if self.dyn and self.sharing is not SharedResource.REGISTERS:
            raise ValueError("Dyn requires register sharing (Sec. IV-C)")
        if self.unroll and self.sharing is None:
            raise ValueError("the unroll pass targets register sharing")
        if self.early_release and self.sharing is not SharedResource.REGISTERS:
            raise ValueError("early release targets register sharing")


def unshared(scheduler: str = "lrr") -> Mode:
    """Baseline mode: no sharing, given scheduler."""
    return Mode(label=f"Unshared-{SCHEDULERS[scheduler]}",
                scheduler=scheduler)


def shared(resource: SharedResource, scheduler: str = "lrr", *,
           t: float = 0.1, unroll: bool = False, dyn: bool = False,
           early_release: bool = False) -> Mode:
    """Sharing mode with the paper's label convention."""
    tag = SCHEDULERS[scheduler]
    label = f"Shared-{tag}"
    if unroll:
        label += "-Unroll"
    if dyn:
        label += "-Dyn"
    if early_release:
        label += "-ER"
    if scheduler == "lrr" and not unroll and not dyn and not early_release:
        label += "-NoOpt"
    return Mode(label=label, scheduler=scheduler, sharing=resource, t=t,
                unroll=unroll, dyn=dyn, early_release=early_release)


def run(app: App | Kernel, mode: Mode, *, config: GPUConfig | None = None,
        scale: float = 1.0, waves: float = 6.0,
        grid_blocks: int | None = None,
        max_cycles: int = 2_000_000,
        sanitize: bool = False,
        core: str = "fast",
        obs: ObsSink = NULL_SINK) -> RunResult:
    """Simulate ``app`` under ``mode`` and return the result.

    ``sanitize=True`` enables the runtime invariant sanitizer (see
    :mod:`repro.sim.sanitizer`): the DESIGN.md §6 lock and conservation
    invariants are validated during simulation and a violation raises
    :class:`~repro.sim.sanitizer.SanitizerViolation`.  Results are
    unchanged when the invariants hold.

    ``core`` selects the simulator core (``"fast"`` or ``"reference"``,
    see :class:`~repro.sim.gpu.GPU`); both produce identical results.

    ``obs`` attaches an observability sink (see docs/observability.md):
    pass an :class:`~repro.obs.Observer` to collect metrics and/or a
    Chrome-trace timeline; counters land on ``RunResult.metrics``.
    Simulated behaviour is identical with or without observation.
    """
    if config is None:
        config = GPUConfig()
    kernel = app.kernel(scale) if isinstance(app, App) else app
    if mode.unroll:
        kernel = reorder_registers(kernel)
    if grid_blocks is None:
        base = occupancy(kernel, config).blocks
        grid_blocks = max(1, round(waves * config.num_sms * base))
    kernel = kernel.with_grid(grid_blocks)

    plan = None
    if mode.sharing is not None:
        plan = plan_sharing(kernel, config,
                            SharingSpec(mode.sharing, mode.t))
    gpu = GPU(kernel, config, scheduler=mode.scheduler, plan=plan,
              dyn=mode.dyn, early_release=mode.early_release,
              mode=mode.label, sanitize=sanitize, core=core, obs=obs)
    return gpu.run(max_cycles=max_cycles)


def improvement(base: RunResult, new: RunResult) -> float:
    """Percentage IPC improvement of ``new`` over ``base`` (paper metric)."""
    if base.ipc == 0:
        raise ValueError("baseline IPC is zero")
    return (new.ipc - base.ipc) / base.ipc * 100.0
