"""One function per paper table/figure (see DESIGN.md §5 for the index).

Every experiment returns an :class:`ExperimentResult` whose rows carry
both our measurement and, where available, the paper's reported value —
EXPERIMENTS.md is generated from these.

Defaults are laptop-scale: 4 SM clusters instead of 14 and ``waves=3``
grid waves.  Per-SM resources are untouched, so every occupancy/sharing
decision matches the full Table I machine; pass
``config=GPUConfig()`` for the full-size run.

Simulation-backed experiments build :class:`RunSpec` batches and submit
them to an :class:`Engine` (``engine=`` kwarg, default a fresh
``Engine()``), so runs dedupe, parallelise (``--jobs``) and hit the
content-addressed result cache across figures — the ``Unshared-LRR``
baseline is simulated once no matter how many artifacts reference it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.config import GPUConfig
from repro.core.occupancy import occupancy
from repro.core.overhead import overhead_summary
from repro.core.sharing import SharedResource, SharingSpec, plan_sharing
from repro.harness.engine import Engine, RunSpec
from repro.harness.runner import Mode, improvement, shared, unshared
from repro.sim.stats import RunResult
from repro.workloads.apps import APPS
from repro.workloads.suites import SET1, SET2, SET3

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]

REG = SharedResource.REGISTERS
SPAD = SharedResource.SCRATCHPAD

#: The t-sweep of Tables V-VIII: sharing% = (1-t)*100.
SHARING_PCTS = (0, 10, 30, 50, 70, 90)


@dataclass
class ExperimentResult:
    """Rows reproducing one paper artifact."""

    id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {}


def _experiment(fn: Callable[..., ExperimentResult]):
    EXPERIMENTS[fn.__name__] = fn
    return fn


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id (e.g. ``"fig8c"``)."""
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(f"unknown experiment {exp_id!r}; "
                         f"available: {sorted(EXPERIMENTS)}") from None
    return fn(**kwargs)


def _cfg(config: GPUConfig | None) -> GPUConfig:
    return config if config is not None else GPUConfig().scaled(num_clusters=4)


def _engine(engine: Engine | None) -> Engine:
    # Fresh per call, so the cache follows the current REPRO_CACHE_DIR.
    return engine if engine is not None else Engine()


def _grid_runs(names: Sequence[str], modes: Sequence[Mode],
               cfg: GPUConfig, scale: float, waves: float,
               engine: Engine) -> dict[tuple[str, str], RunResult]:
    """Run the full (app × mode) grid as ONE engine batch.

    Returns results keyed by ``(app_name, mode_label)`` — the shape every
    figure/table builder consumes.
    """
    specs = [RunSpec.create(APPS[name], mode, config=cfg, scale=scale,
                            waves=waves)
             for name in names for mode in modes]
    results = engine.run_batch(specs)
    keys = [(name, mode.label) for name in names for mode in modes]
    return dict(zip(keys, results))


def _pct_t(pct: int) -> float:
    """Sharing percentage → threshold t; 0 % means t = 1 (no sharing)."""
    return 1.0 - pct / 100.0


# -- failure-tolerant cell helpers -------------------------------------
#
# run_batch isolates failing runs into RunFailure slots (unless the
# engine was built with fail_fast=True).  Experiments render those
# slots as annotated ``FAIL:<category>`` cells instead of crashing the
# whole figure; callers can inspect ``engine.failures`` for the full
# diagnostic records.

def _ok(r) -> bool:
    return getattr(r, "ok", True)


def _fail_cell(*rs) -> str:
    """Annotation for a row whose inputs include failed runs."""
    bad = next(r for r in rs if not _ok(r))
    return f"FAIL:{bad.category}"


def _ipc_cell(r):
    return round(r.ipc, 2) if _ok(r) else _fail_cell(r)


def _impr_cell(base, new):
    if _ok(base) and _ok(new):
        return round(improvement(base, new), 2)
    return _fail_cell(base, new)


# ----------------------------------------------------------------------
# Fig. 1 — motivation: occupancy and waste (no simulation needed)
# ----------------------------------------------------------------------

@_experiment
def fig1(config: GPUConfig | None = None, scale: float = 1.0,
         waves: float = 3.0,
         engine: Engine | None = None) -> ExperimentResult:
    """Fig. 1(a-d): resident blocks and resource underutilisation."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "fig1", "Fig 1: resident thread blocks and resource waste",
        ["app", "set", "blocks", "limiter", "reg_waste_pct",
         "smem_waste_pct"])
    for name in SET1 + SET2:
        app = APPS[name]
        occ = occupancy(app.kernel(scale), cfg)
        res.rows.append({
            "app": name,
            "set": app.set_id,
            "blocks": occ.blocks,
            "limiter": occ.limiter,
            "reg_waste_pct": round(occ.register_waste_pct, 2),
            "smem_waste_pct": round(occ.scratchpad_waste_pct, 2),
        })
    res.notes = ("Set-1 rows reproduce Fig 1(a)/(b) (blocks, register "
                 "waste); Set-2 rows reproduce Fig 1(c)/(d).")
    return res


# ----------------------------------------------------------------------
# Fig. 8 — headline results
# ----------------------------------------------------------------------

def _blocks_rows(names: tuple[str, ...], resource: SharedResource,
                 cfg: GPUConfig, scale: float) -> list[dict]:
    rows = []
    for name in names:
        app = APPS[name]
        kernel = app.kernel(scale)
        plan = plan_sharing(kernel, cfg, SharingSpec(resource, 0.1))
        rows.append({
            "app": name,
            "blocks_unshared": plan.baseline,
            "blocks_shared": plan.total,
            "paper_unshared": app.paper.get("blocks_base"),
            "paper_shared": app.paper.get("blocks_shared"),
        })
    return rows


@_experiment
def fig8a(config: GPUConfig | None = None, scale: float = 1.0,
          waves: float = 3.0,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 8(a): resident blocks, register sharing vs baseline."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "fig8a", "Fig 8(a): resident thread blocks (register sharing)",
        ["app", "blocks_unshared", "blocks_shared", "paper_unshared",
         "paper_shared"],
        _blocks_rows(SET1, REG, cfg, scale))
    return res


@_experiment
def fig8b(config: GPUConfig | None = None, scale: float = 1.0,
          waves: float = 3.0,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 8(b): resident blocks, scratchpad sharing vs baseline."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "fig8b", "Fig 8(b): resident thread blocks (scratchpad sharing)",
        ["app", "blocks_unshared", "blocks_shared", "paper_unshared",
         "paper_shared"],
        _blocks_rows(SET2, SPAD, cfg, scale))
    return res


def _improvement_rows(names: tuple[str, ...], base_mode: Mode,
                      new_mode: Mode, cfg: GPUConfig, scale: float,
                      waves: float, engine: Engine,
                      paper_key: str | None = "fig8_impr") -> list[dict]:
    """IPC of ``new_mode`` against ``base_mode``; ``paper_key=None``
    leaves out the ``paper_pct`` column."""
    runs = _grid_runs(names, [base_mode, new_mode], cfg, scale, waves,
                      engine)
    rows = []
    for name in names:
        base = runs[name, base_mode.label]
        new = runs[name, new_mode.label]
        row = {
            "app": name,
            "ipc_base": _ipc_cell(base),
            "ipc_shared": _ipc_cell(new),
            "improvement_pct": _impr_cell(base, new),
        }
        if paper_key is not None:
            row["paper_pct"] = APPS[name].paper.get(paper_key)
        rows.append(row)
    return rows


@_experiment
def fig8c(config: GPUConfig | None = None, scale: float = 1.0,
          waves: float = 3.0,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 8(c): IPC improvement of register sharing (full stack)."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "fig8c", "Fig 8(c): % IPC improvement, register sharing "
        "(Shared-OWF-Unroll-Dyn vs Unshared-LRR)",
        ["app", "ipc_base", "ipc_shared", "improvement_pct", "paper_pct"],
        _improvement_rows(SET1, unshared("lrr"),
                          shared(REG, "owf", unroll=True, dyn=True),
                          cfg, scale, waves, _engine(engine)))
    return res


@_experiment
def fig8d(config: GPUConfig | None = None, scale: float = 1.0,
          waves: float = 3.0,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 8(d): IPC improvement of scratchpad sharing (Shared-OWF)."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "fig8d", "Fig 8(d): % IPC improvement, scratchpad sharing "
        "(Shared-OWF vs Unshared-LRR)",
        ["app", "ipc_base", "ipc_shared", "improvement_pct", "paper_pct"],
        _improvement_rows(SET2, unshared("lrr"), shared(SPAD, "owf"),
                          cfg, scale, waves, _engine(engine)))
    return res


# ----------------------------------------------------------------------
# Fig. 9 — optimisation ablations and cycle taxonomy
# ----------------------------------------------------------------------

def _ablation_rows(names: tuple[str, ...], variants: list[Mode],
                   cfg: GPUConfig, scale: float, waves: float,
                   engine: Engine) -> list[dict]:
    base_mode = unshared("lrr")
    runs = _grid_runs(names, [base_mode] + variants, cfg, scale, waves,
                      engine)
    rows = []
    for name in names:
        base = runs[name, base_mode.label]
        row: dict = {"app": name}
        for m in variants:
            row[m.label] = _impr_cell(base, runs[name, m.label])
        rows.append(row)
    return rows


@_experiment
def fig9a(config: GPUConfig | None = None, scale: float = 1.0,
          waves: float = 3.0,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 9(a): register-sharing optimisation ablation."""
    cfg = _cfg(config)
    variants = [
        shared(REG, "lrr"),                                 # NoOpt
        shared(REG, "lrr", unroll=True),                    # Unroll
        shared(REG, "lrr", unroll=True, dyn=True),          # Unroll-Dyn
        shared(REG, "owf", unroll=True, dyn=True),          # OWF-Unroll-Dyn
    ]
    return ExperimentResult(
        "fig9a", "Fig 9(a): register sharing ablation (% IPC vs "
        "Unshared-LRR)",
        ["app"] + [m.label for m in variants],
        _ablation_rows(SET1, variants, cfg, scale, waves, _engine(engine)))


@_experiment
def fig9b(config: GPUConfig | None = None, scale: float = 1.0,
          waves: float = 3.0,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 9(b): scratchpad sharing with/without OWF."""
    cfg = _cfg(config)
    variants = [shared(SPAD, "lrr"), shared(SPAD, "owf")]
    return ExperimentResult(
        "fig9b", "Fig 9(b): scratchpad sharing ablation (% IPC vs "
        "Unshared-LRR)",
        ["app"] + [m.label for m in variants],
        _ablation_rows(SET2, variants, cfg, scale, waves, _engine(engine)))


def _cycles_rows(names: tuple[str, ...], new_mode: Mode, cfg: GPUConfig,
                 scale: float, waves: float, engine: Engine) -> list[dict]:
    """Fig. 9(c)/(d) cycle taxonomy, mapped onto the paper's buckets.

    The paper's *idle* cycle is "all the available warps are issued, but
    no warp is ready to execute" — warps waiting on in-flight latencies.
    In our taxonomy that is the **stall** bucket (scoreboard/memory
    waits).  The paper's *stall* is a pipeline stall — our *structural*
    hazards (MSHR exhaustion).  The columns below use the paper's names
    with that mapping; raw bucket counts are included for transparency.
    """
    base_mode = unshared("lrr")
    runs = _grid_runs(names, [base_mode, new_mode], cfg, scale, waves,
                      engine)
    rows = []
    for name in names:
        base = runs[name, base_mode.label]
        new = runs[name, new_mode.label]
        if not (_ok(base) and _ok(new)):
            rows.append({"app": name,
                         "idle_decrease_pct": _fail_cell(base, new),
                         "stall_decrease_pct": _fail_cell(base, new)})
            continue

        def dec(b: int, n: int) -> float:
            return 100.0 * (b - n) / b if b else 0.0

        base_struct = sum(s.mshr_stalls for s in base.sm_stats)
        new_struct = sum(s.mshr_stalls for s in new.sm_stats)
        rows.append({
            "app": name,
            "idle_decrease_pct": round(dec(base.stall_cycles,
                                           new.stall_cycles), 2),
            "stall_decrease_pct": round(dec(base_struct, new_struct), 2),
            "base_latency_waits": base.stall_cycles,
            "shared_latency_waits": new.stall_cycles,
            "base_structural": base_struct,
            "shared_structural": new_struct,
        })
    return rows


@_experiment
def fig9c(config: GPUConfig | None = None, scale: float = 1.0,
          waves: float = 3.0,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 9(c): % decrease in stall/idle cycles, register sharing."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "fig9c", "Fig 9(c): % decrease in stall and idle cycles "
        "(register sharing)",
        ["app", "idle_decrease_pct", "stall_decrease_pct",
         "base_latency_waits", "shared_latency_waits", "base_structural",
         "shared_structural"],
        _cycles_rows(SET1, shared(REG, "owf", unroll=True, dyn=True),
                     cfg, scale, waves, _engine(engine)))
    res.notes = ("Column mapping: the paper's 'idle' = warps waiting on "
                 "in-flight latencies (our stall bucket); the paper's "
                 "'stall' = pipeline/structural stalls (our MSHR "
                 "rejections).")
    return res


@_experiment
def fig9d(config: GPUConfig | None = None, scale: float = 1.0,
          waves: float = 3.0,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 9(d): % decrease in stall/idle cycles, scratchpad sharing."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "fig9d", "Fig 9(d): % decrease in stall and idle cycles "
        "(scratchpad sharing)",
        ["app", "idle_decrease_pct", "stall_decrease_pct",
         "base_latency_waits", "shared_latency_waits", "base_structural",
         "shared_structural"],
        _cycles_rows(SET2, shared(SPAD, "owf"), cfg, scale, waves,
                     _engine(engine)))
    res.notes = ("Column mapping as in fig9c.")
    return res


# ----------------------------------------------------------------------
# Fig. 10 — against stronger baselines (GTO, two-level)
# ----------------------------------------------------------------------

@_experiment
def fig10a(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Fig. 10(a): scratchpad sharing vs the GTO baseline."""
    cfg = _cfg(config)
    return ExperimentResult(
        "fig10a", "Fig 10(a): scratchpad sharing vs Unshared-GTO",
        ["app", "ipc_base", "ipc_shared", "improvement_pct"],
        _improvement_rows(SET2, unshared("gto"), shared(SPAD, "owf"), cfg,
                          scale, waves, _engine(engine), paper_key=None))


@_experiment
def fig10b(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Fig. 10(b): register sharing vs the GTO baseline."""
    cfg = _cfg(config)
    return ExperimentResult(
        "fig10b", "Fig 10(b): register sharing vs Unshared-GTO",
        ["app", "ipc_base", "ipc_shared", "improvement_pct"],
        _improvement_rows(SET1, unshared("gto"),
                          shared(REG, "owf", unroll=True, dyn=True),
                          cfg, scale, waves, _engine(engine), paper_key=None))


@_experiment
def fig10c(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Fig. 10(c): register sharing vs the two-level baseline."""
    cfg = _cfg(config)
    return ExperimentResult(
        "fig10c", "Fig 10(c): register sharing vs Unshared-2LV",
        ["app", "ipc_base", "ipc_shared", "improvement_pct"],
        _improvement_rows(SET1, unshared("two_level"),
                          shared(REG, "owf", unroll=True, dyn=True),
                          cfg, scale, waves, _engine(engine), paper_key=None))


@_experiment
def fig10d(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Fig. 10(d): scratchpad sharing vs the two-level baseline."""
    cfg = _cfg(config)
    return ExperimentResult(
        "fig10d", "Fig 10(d): scratchpad sharing vs Unshared-2LV",
        ["app", "ipc_base", "ipc_shared", "improvement_pct"],
        _improvement_rows(SET2, unshared("two_level"), shared(SPAD, "owf"),
                          cfg, scale, waves, _engine(engine), paper_key=None))


# ----------------------------------------------------------------------
# Fig. 11 — sharing vs doubling the physical resource
# ----------------------------------------------------------------------

def _doubling_rows(names: tuple[str, ...], big: GPUConfig,
                   new_mode: Mode, ipc_col: str, cfg: GPUConfig,
                   scale: float, waves: float, engine: Engine
                   ) -> list[dict]:
    """Fig. 11 grid: 2x-resource LRR baseline vs sharing, pinned grids."""
    specs = []
    for name in names:
        kernel = APPS[name].kernel(scale)
        grid = max(1, round(waves * cfg.num_sms
                            * occupancy(kernel, cfg).blocks))
        specs.append(RunSpec.create(APPS[name], unshared("lrr"),
                                    config=big, scale=scale,
                                    grid_blocks=grid))
        specs.append(RunSpec.create(APPS[name], new_mode, config=cfg,
                                    scale=scale, grid_blocks=grid))
    results = engine.run_batch(specs)
    rows = []
    for i, name in enumerate(names):
        base, new = results[2 * i], results[2 * i + 1]
        rows.append({
            "app": name,
            ipc_col: _ipc_cell(base),
            "ipc_shared": _ipc_cell(new),
            "shared_wins": (new.ipc >= base.ipc
                            if _ok(base) and _ok(new)
                            else _fail_cell(base, new)),
        })
    return rows


@_experiment
def fig11a(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Fig. 11(a): Unshared-LRR @64K registers vs sharing @32K."""
    from dataclasses import replace
    cfg = _cfg(config)
    big = replace(cfg, registers_per_sm=cfg.registers_per_sm * 2)
    res = ExperimentResult(
        "fig11a", "Fig 11(a): IPC, 2x registers (LRR) vs register sharing",
        ["app", "ipc_2x_regs", "ipc_shared", "shared_wins"],
        _doubling_rows(SET1, big, shared(REG, "owf", unroll=True, dyn=True),
                       "ipc_2x_regs", cfg, scale, waves, _engine(engine)))
    res.notes = ("Paper: sharing at 32K registers beats the 64K-register "
                 "LRR baseline on 5 of 8 applications.")
    return res


@_experiment
def fig11b(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Fig. 11(b): Unshared-LRR @32K scratchpad vs sharing @16K."""
    from dataclasses import replace
    cfg = _cfg(config)
    big = replace(cfg, scratchpad_per_sm=cfg.scratchpad_per_sm * 2)
    return ExperimentResult(
        "fig11b", "Fig 11(b): IPC, 2x scratchpad (LRR) vs scratchpad "
        "sharing",
        ["app", "ipc_2x_smem", "ipc_shared", "shared_wins"],
        _doubling_rows(SET2, big, shared(SPAD, "owf"), "ipc_2x_smem",
                       cfg, scale, waves, _engine(engine)))


# ----------------------------------------------------------------------
# Fig. 12 — Set-3 (no extra blocks possible)
# ----------------------------------------------------------------------

def _set3_rows(modes: list[Mode], cfg: GPUConfig, scale: float,
               waves: float, engine: Engine) -> list[dict]:
    runs = _grid_runs(SET3, modes, cfg, scale, waves, engine)
    rows = []
    for name in SET3:
        row: dict = {"app": name}
        for m in modes:
            row[m.label] = _ipc_cell(runs[name, m.label])
        rows.append(row)
    return rows


@_experiment
def fig12a(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Fig. 12(a): Set-3 IPC across scheduler combos, register sharing."""
    cfg = _cfg(config)
    modes = [
        unshared("lrr"),
        shared(REG, "lrr", unroll=True, dyn=True),
        unshared("gto"),
        shared(REG, "gto", unroll=True, dyn=True),
        shared(REG, "owf", unroll=True, dyn=True),
    ]
    res = ExperimentResult(
        "fig12a", "Fig 12(a): Set-3 IPC (register sharing variants)",
        ["app"] + [m.label for m in modes],
        _set3_rows(modes, cfg, scale, waves, _engine(engine)))
    res.notes = ("Paper: Shared-LRR == Unshared-LRR and Shared-GTO == "
                 "Unshared-GTO exactly (no extra blocks are launched); "
                 "Shared-OWF tracks Unshared-GTO.")
    return res


@_experiment
def fig12b(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Fig. 12(b): Set-3 IPC across scheduler combos, scratchpad."""
    cfg = _cfg(config)
    modes = [
        unshared("lrr"),
        shared(SPAD, "lrr"),
        unshared("gto"),
        shared(SPAD, "gto"),
        shared(SPAD, "owf"),
    ]
    return ExperimentResult(
        "fig12b", "Fig 12(b): Set-3 IPC (scratchpad sharing variants)",
        ["app"] + [m.label for m in modes],
        _set3_rows(modes, cfg, scale, waves, _engine(engine)))


# ----------------------------------------------------------------------
# Tables V-VIII — sharing fraction sweeps
# ----------------------------------------------------------------------

def _sweep(names: tuple[str, ...], resource: SharedResource,
           scheduler: str, unroll: bool, dyn: bool, cfg: GPUConfig,
           scale: float, waves: float, engine: Engine) -> list[dict]:
    """IPC per app at each sharing percentage of :data:`SHARING_PCTS`."""
    modes = [shared(resource, scheduler, t=_pct_t(pct), unroll=unroll,
                    dyn=dyn) for pct in SHARING_PCTS]
    specs = [RunSpec.create(APPS[name], mode, config=cfg, scale=scale,
                            waves=waves)
             for name in names for mode in modes]
    results = iter(engine.run_batch(specs))
    rows = []
    for name in names:
        row: dict = {"app": name}
        for pct in SHARING_PCTS:
            row[f"{pct}%"] = _ipc_cell(next(results))
        rows.append(row)
    return rows


@_experiment
def table5(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Table V: IPC vs register-sharing percentage."""
    cfg = _cfg(config)
    ipc_rows = _sweep(SET1, REG, "owf", True, True, cfg, scale, waves,
                      _engine(engine))
    cols = ["app"] + [f"{p}%" for p in SHARING_PCTS]
    return ExperimentResult(
        "table5", "Table V: IPC vs % register sharing", cols, ipc_rows)


@_experiment
def table6(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Table VI: resident blocks vs register-sharing percentage."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "table6", "Table VI: resident blocks vs % register sharing",
        ["app"] + [f"{p}%" for p in SHARING_PCTS])
    for name in SET1:
        app = APPS[name]
        kernel = app.kernel(scale)
        row: dict = {"app": name}
        for pct in SHARING_PCTS:
            plan = plan_sharing(kernel, cfg, SharingSpec(REG, _pct_t(pct)))
            row[f"{pct}%"] = plan.total
        res.rows.append(row)
    return res


@_experiment
def table7(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Table VII: IPC vs scratchpad-sharing percentage."""
    cfg = _cfg(config)
    ipc_rows = _sweep(SET2, SPAD, "owf", False, False, cfg, scale, waves,
                      _engine(engine))
    cols = ["app"] + [f"{p}%" for p in SHARING_PCTS]
    return ExperimentResult(
        "table7", "Table VII: IPC vs % scratchpad sharing", cols, ipc_rows)


@_experiment
def table8(config: GPUConfig | None = None, scale: float = 1.0,
           waves: float = 3.0,
           engine: Engine | None = None) -> ExperimentResult:
    """Table VIII: resident blocks vs scratchpad-sharing percentage."""
    cfg = _cfg(config)
    res = ExperimentResult(
        "table8", "Table VIII: resident blocks vs % scratchpad sharing",
        ["app"] + [f"{p}%" for p in SHARING_PCTS])
    for name in SET2:
        app = APPS[name]
        kernel = app.kernel(scale)
        row: dict = {"app": name}
        for pct in SHARING_PCTS:
            plan = plan_sharing(kernel, cfg, SharingSpec(SPAD, _pct_t(pct)))
            row[f"{pct}%"] = plan.total
        res.rows.append(row)
    return res


# ----------------------------------------------------------------------
# Sec. V — hardware overhead
# ----------------------------------------------------------------------

@_experiment
def hw_overhead(config: GPUConfig | None = None, scale: float = 1.0,
                waves: float = 3.0,
                engine: Engine | None = None) -> ExperimentResult:
    """Sec. V storage formulas evaluated on the Table I machine."""
    cfg = config if config is not None else GPUConfig()
    s = overhead_summary(cfg)
    res = ExperimentResult(
        "hw_overhead", "Sec. V: storage overhead (bits)",
        ["quantity", "value"])
    for k, v in s.items():
        res.rows.append({"quantity": k, "value": v})
    res.notes = ("Register sharing additionally needs one comparator per "
                 "scheduler for the Fig. 3/4 steps (b) and (c).")
    return res
