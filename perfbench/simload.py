"""The simulation workload, ``fig8-steady``.

A run times two kinds of operation.  The cold passes submit each of the
30 cells alone and wait for it (simulate, then write the cache); every
pass runs on its own ``Engine(jobs=1)`` with a fresh result cache, and
the second pass takes the cells in reverse order.  Between cold cells,
all-hit warm passes read the first cells the first pass cached.  The
cold passes are fixed work, so this workload measures for as long as
they take rather than for ``--seconds``.  Simulated caches start empty
in every cell; "warm" only means the engine's result cache.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

from repro.harness.engine import Engine
from repro.harness.experiments import run_experiment
from repro.harness.runner import improvement, run
from repro.obs.tracing import Tracer
from repro.workloads.apps import APPS
from repro.workloads.suites import SET1

from common import (WARM_SPECS, Outcome, check_block_counts, peak_rss_mb,
                    pct, result_metrics, setup_seconds, warm_pass)
from probes import Recorder, attributed_s, layer_metrics
from specs import FIG8C_MODES, FIG8D_MODES, Sizes, machine, sim_specs

WORKLOAD = "fig8-steady"
FIG8_MODES = {"fig8c": FIG8C_MODES, "fig8d": FIG8D_MODES}

#: Cold passes of an untraced run.  Two passes, the second in reverse
#: order, sample each cell at two moments of the run, so the cold-cell
#: figures average over more host time.  A traced run makes one.
COLD_PASSES = 2

#: Share of each cold cell's time spent on all-hit passes.
WARM_SHARE = 0.05

#: The service layer is not on the simulation workload's path: these
#: read 0 in its traced run.
SERVICE_ONLY = (("service.submit_share", "ratio"),
                ("service.wait_share", "ratio"),
                ("service.queue_wait_share", "ratio"),
                ("service.run_share", "ratio"),
                ("service.batch_jobs_mean", "jobs"),
                ("service.rejected", "count"),
                ("service.cache_hit_ratio", "ratio"))


def setup_only(sizes: Sizes) -> None:
    """The set-up a run pays before its first timed operation."""
    for spec in sim_specs(sizes):
        spec.digest()
    print("ready", flush=True)


def run_sim(seed: int, traced: bool, sizes: Sizes, workdir: Path,
            trace_path: Path) -> Outcome:
    out = Outcome()
    specs = sim_specs(sizes)
    digests = [s.digest() for s in specs]
    if not traced:
        setups = setup_seconds(WORKLOAD, seed, sizes.setup_reps)
        out.metric("setup_s", statistics.median(setups), "s")
        out.lines.append("setup samples (s): "
                         + " ".join(f"{t:.3f}" for t in setups))

    engine = Engine(jobs=1, cache_dir=workdir / "cache")
    tracer = Tracer() if traced else None
    rec = Recorder() if traced else None
    if tracer is not None:
        tracer.process_name(1, f"perfbench {WORKLOAD} seed {seed}")
    if rec is not None:
        rec.install()

    t_start = time.perf_counter()
    cold, cold_sim_s, cold_dicts = [], [], []
    cold_s: list[float] = []    #: every cold cell of every pass
    instr = 0                   #: instructions retired by every pass
    warm_ms: list[float] = []
    check_s = 0.0

    def timed_pass(n: int) -> float:
        """One all-hit pass over the first ``n`` specs; every result
        must equal its cold result.  Returns the pass's seconds."""
        nonlocal check_s
        t0 = time.perf_counter()
        check = warm_pass(engine, specs[:n], cold_dicts, out, warm_ms)
        check_s += check
        dt = time.perf_counter() - t0 - check
        if tracer is not None:
            tracer.complete(1, tracer.track(1, "warm passes"), "warm pass",
                            "warm", int((t0 - t_start) * 1e6),
                            int(dt * 1e6), {"specs": n})
        return dt

    # -- cold passes: each cell submitted alone, simulated, cached -----
    # Untraced runs give each cold cell WARM_SHARE of its time for
    # all-hit passes over the first WARM_SPECS cells of the first pass.
    # Until that many are cached the budget carries over, so the warm
    # samples cover most of the run instead of one stretch of host noise.
    k = min(WARM_SPECS, len(specs))
    budget = 0.0
    for p in range(1 if traced else COLD_PASSES):
        pass_engine = engine if p == 0 else Engine(
            jobs=1, cache_dir=workdir / f"cache{p}")
        order = range(len(specs)) if p == 0 \
            else reversed(range(len(specs)))
        for i in order:
            spec = specs[i]
            sim_before = pass_engine.stats.sim_time
            t0 = time.perf_counter()
            res = pass_engine.run_batch([spec])[0]
            dt = time.perf_counter() - t0
            cold_s.append(dt)
            label = f"{spec.app} {spec.mode.label}"
            if p == 0:
                cold.append(res)
                cold_sim_s.append(pass_engine.stats.sim_time - sim_before)
                cold_dicts.append(res.to_dict() if res.ok else None)
                out.op(res.ok, f"cold {label}: {getattr(res, 'message', '')}")
            else:
                out.op(res.ok and res.to_dict() == cold_dicts[i],
                       f"cold pass {p + 1} of {label} differs from pass 1")
            if res.ok:
                instr += res.instructions
            if tracer is not None:
                tracer.complete(1, tracer.track(1, "cold pass"), label,
                                "cold", int((t0 - t_start) * 1e6),
                                int(dt * 1e6), {"digest": digests[i][:16]})
            if not traced:
                budget += WARM_SHARE * dt
                while len(cold) >= k and budget > 0:
                    budget -= timed_pass(k)
    cold_wall = sum(cold_s)
    cold_stats = engine.stats.__dict__.copy()

    # -- the traced run's fixed work: all-hit passes over every spec;
    # untraced, a top-up for runs too short to have sampled enough ----
    if traced:
        for _ in range(sizes.traced_warm_passes):
            timed_pass(len(specs))
    else:
        while len(warm_ms) < sizes.min_warm_passes:
            timed_pass(k)
    wall = time.perf_counter() - t_start
    if rec is not None:
        rec.uninstall()
    rss = peak_rss_mb()

    out.lines.append(f"cold passes: {len(cold_s)} cells, {instr} instr, "
                     f"{cold_wall:.3f} s; warm: {len(warm_ms)} passes")
    if not traced:
        out.metric("sim_minstr_per_s", instr / cold_wall / 1e6, "Minstr/s")
        out.metric("warm_hit_p90_ms", pct(warm_ms, 90), "ms")
        out.metric("submit_to_done_p50_ms", pct(cold_s, 50) * 1e3, "ms")
        out.metric("submit_to_done_p95_ms", pct(cold_s, 95) * 1e3, "ms")
        out.metric("jobs_per_s", len(cold_s) / cold_wall, "jobs/s")
        out.metric("peak_rss_mb", rss, "MB")

    # -- output checks (untimed) ---------------------------------------
    rng = random.Random(seed)
    pool = [i for i, r in enumerate(cold) if r.ok]
    for i in sorted(rng.sample(pool, min(sizes.ref_checks, len(pool)))):
        s = specs[i]
        ref = run(APPS[s.app], s.mode, config=s.config, scale=s.scale,
                  waves=s.waves, max_cycles=s.max_cycles, core="reference")
        out.op(ref.to_dict() == cold_dicts[i],
               f"reference core disagrees on {s.app} {s.mode.label}")
        out.lines.append(f"reference core agrees on {s.app} "
                         f"{s.mode.label}: {ref.to_dict() == cold_dicts[i]}")
    check_block_counts(out, sizes.scale)
    model = _model(specs, cold, engine, sizes, out)

    if traced:
        snap = rec.snapshot()
        metrics = layer_metrics(snap, wall - check_s)
        metrics.update(model)
        sims = cold_stats["sims"]
        metrics["harness.engine.cold_overhead_ms"] = (
            (cold_stats["wall_time"] - cold_stats["sim_time"])
            / sims * 1e3 if sims else 0.0, "ms")
        metrics.update({name: (0.0, unit) for name, unit in SERVICE_ONLY})
        idx = rng.sample(range(len(specs)),
                         min(sizes.overhead_cells, len(specs)))
        untraced = 0.0
        for i in idx:
            t0 = time.perf_counter()
            specs[i].execute()
            untraced += time.perf_counter() - t0
        metrics["trace.overhead_ratio"] = (
            sum(cold_sim_s[i] for i in idx) / untraced, "ratio")
        metrics["trace.unattributed_share"] = (
            1.0 - attributed_s(snap) / (wall - check_s), "ratio")
        out.metrics.update(metrics)
        tracer.write(trace_path, {"clockDomain": "host time (us)",
                                  "workload": WORKLOAD, "seed": seed})
        out.lines.append(f"trace written to {trace_path}")
    return out


def _model(specs, cold, engine, sizes, out) -> dict:
    """Simulated-time results (deterministic, model layer)."""
    ok = [r for r in cold if r.ok]
    model = result_metrics(ok)
    if len(ok) != len(cold):
        return model
    by_cell = {(s.app, s.mode.label): r for s, r in zip(specs, cold)}
    gains: dict[str, float] = {}
    cfg = machine(sizes)
    for exp in ("fig8c", "fig8d"):
        # All cache hits: the experiment must see exactly these cells.
        res = run_experiment(exp, config=cfg, scale=sizes.scale,
                             waves=sizes.waves, engine=engine)
        base, new = FIG8_MODES[exp]
        for row in res.rows:
            gain = improvement(by_cell[row["app"], base.label],
                               by_cell[row["app"], new.label])
            gains[row["app"]] = gain
            out.op(round(gain, 2) == row["improvement_pct"],
                   f"{exp} row of {row['app']} does not match the cold "
                   f"pass ({row['improvement_pct']} vs {gain:.2f})")
    gap = statistics.fmean(abs(g - APPS[a].paper["fig8_impr"])
                           for a, g in gains.items())
    reg = [g for a, g in gains.items() if a in SET1]
    spad = [g for a, g in gains.items() if a not in SET1]
    model["model.reg_gain_pct"] = (statistics.fmean(reg), "%")
    model["model.spad_gain_pct"] = (statistics.fmean(spad), "%")
    model["model.paper_gap_pp"] = (gap, "pp")
    out.lines.append(f"paper_gap_pp {gap:.4f} pp (in-sample: the model "
                     f"was calibrated on these apps); register sharing "
                     f"{statistics.fmean(reg):+.2f} %, scratchpad sharing "
                     f"{statistics.fmean(spad):+.2f} %")
    return model
