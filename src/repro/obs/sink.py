"""Observability sink: the null object and the recording observer.

Every instrumented component (both SM cores, the memory hierarchy, the
lock groups, the GPU loop) publishes through an :class:`ObsSink`, and
every instrument is one: the base class is a **null object** — every
hook is a no-op and ``enabled`` is False — and :data:`NULL_SINK` is the
shared instance components default to, so the simulator's hot paths can
guard on a single pre-resolved boolean (``self._obs_on``) and are
untouched when observability is off: the golden core suite and the
perf-smoke gate pin that behaviourally and in wall-clock.

The hooks carry only what the simulator does not already count.  Facts
it does count (Dyn refusals, MSHR rejects, cache and DRAM counters) are
read from its own stats in :meth:`ObsSink.finalize`, so an instrument
reports the same number on both cores by construction.

:class:`Observer` is the live implementation: it bridges the hooks
into a :class:`~repro.obs.metrics.MetricsRegistry` (named counters /
gauges / histograms) and/or a :class:`~repro.obs.tracing.Tracer`
(Chrome trace-event timeline).  Either half can be disabled
independently — ``--metrics`` without ``--trace`` collects counters
only, and vice versa.  :class:`~repro.obs.issues.TraceRecorder` is the
per-issue recorder behind ``python -m repro trace``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.block import SharePair
    from repro.sim.gpu import GPU
    from repro.sim.sm import SMCore
    from repro.sim.warp import WarpContext, WarpState

__all__ = ["ObsSink", "NULL_SINK", "Observer"]

#: WarpState → timeline interval name, indexed by enum *value* (same
#: pinned ordering the simulator's ``_CAT`` table relies on; importing
#: the enum here would close an import cycle through ``repro.sim``).
#: The ``stall:`` prefix marks the paper's Fig. 10 pipeline-stall
#: bucket; barriers / lock waits / Dyn throttling are its idle bucket.
STATE_NAMES = (
    "ready",             # READY
    "stall:scoreboard",  # BLOCK_SB
    "stall:mem",         # BLOCK_MEM
    "barrier",           # BLOCK_BAR
    "lock-wait",         # BLOCK_LOCK
    "dyn-throttle",      # BLOCK_DYN
    "stall:mshr",        # BLOCK_RETRY
    "finished",          # FINISHED (no interval ever opens in it)
)

_FINISHED = 7  # WarpState.FINISHED.value


class ObsSink:
    """No-op observability sink (the null object).

    Subclass and override what you need; the simulator calls these
    hooks only when ``enabled`` is True (hot paths) or through the
    null object directly (cold paths), so every method must be safe to
    call with the simulator mid-cycle.
    """

    enabled = False

    # -- warp lifecycle / state timeline --------------------------------
    def warp_started(self, sm_id: int, warp: "WarpContext",
                     cycle: int) -> None:
        """A warp was launched (its READY interval opens here)."""

    def warp_state(self, sm_id: int, warp: "WarpContext",
                   new_state: "WarpState", cycle: int) -> None:
        """A warp changed wait state (closes the previous interval)."""

    # -- issue / scheduler ----------------------------------------------
    def issued(self, sm_id: int, sched_id: int, warp: "WarpContext",
               cycle: int) -> None:
        """One instruction issued by scheduler ``sched_id``.

        Fires before the warp advances (``warp.instr`` is the issued
        instruction) and before an ``EXIT`` retires the warp and
        detaches its block's pair (``warp.owf_class()`` is the class at
        issue).
        """

    # -- locks -----------------------------------------------------------
    def wire_locks(self, sm: "SMCore", pair: "SharePair") -> None:
        """Attach lock observers to a pair's share groups (idempotent)."""

    # -- memory hierarchy -------------------------------------------------
    def mem_request(self, sm_id: int, n_lines: int, cycle: int,
                    on_done: Callable[[int], None]
                    ) -> Callable[[int], None]:
        """An accepted warp load; may wrap ``on_done`` to observe
        completion.  Must return the callable the hierarchy should use."""
        return on_done

    def mshr_sample(self, sm_id: int, occupancy: int, capacity: int,
                    cycle: int) -> None:
        """L1 MSHR occupancy sampled at an accepted load."""

    # -- run lifecycle ----------------------------------------------------
    def finalize(self, gpu: "GPU", cycles: int) -> None:
        """The run completed; publish end-of-run aggregates."""

    def metrics_dict(self) -> dict | None:
        """Snapshot for ``RunResult.metrics`` (None when metrics off)."""
        return None


#: Shared null sink every component defaults to.
NULL_SINK = ObsSink()


class _LockObs:
    """Per-(SM, pair) adapter the lock groups publish through.

    :mod:`repro.core.locks` is a pure state machine with no notion of
    time; this adapter supplies the clock (the owning SM's ``now``) and
    the pair identity, so the groups just call ``acquired``/``released``
    with (side, slot).
    """

    __slots__ = ("obs", "sm", "kind", "key", "_held")

    def __init__(self, obs: "Observer", sm: "SMCore", kind: str,
                 key: str) -> None:
        self.obs = obs
        self.sm = sm
        self.kind = kind   # "reg" | "spad"
        self.key = key     # e.g. "sm0.p1"
        #: slot -> (side, acquire cycle) while held.
        self._held: dict[int, tuple[int, int]] = {}

    def acquired(self, side: int, slot: int) -> None:
        now = self.sm.now
        self._held[slot] = (side, now)
        self.obs.lock_acquired(self, side, slot, now)

    def released(self, side: int, slot: int) -> None:
        now = self.sm.now
        start = self._held.pop(slot, None)
        self.obs.lock_released(self, side, slot, now,
                               None if start is None else start[1])


class Observer(ObsSink):
    """Recording sink: metrics registry and/or Chrome-trace timeline.

    Usage (API level; the CLIs' ``--trace``/``--metrics`` flags and the
    engine's :class:`~repro.harness.engine.RunSpec` fields build this
    for you)::

        obs = Observer(metrics=True, trace=True)
        res = run(APPS["MUM"], shared(SharedResource.REGISTERS, "owf"),
                  obs=obs)
        obs.write_trace("mum.json")       # Perfetto-loadable
        res.metrics["histograms"]["lock_wait_cycles{kind=reg}"]
    """

    enabled = True

    def __init__(self, *, metrics: bool = True, trace: bool = False) -> None:
        self.metrics: MetricsRegistry | None = \
            MetricsRegistry() if metrics else None
        self.tracer: Tracer | None = Tracer() if trace else None
        if self.metrics is None and self.tracer is None:
            raise ValueError("Observer with neither metrics nor trace "
                             "would observe nothing")
        #: (sm_id, dynamic_id) -> (state name, interval start cycle).
        self._open: dict[tuple[int, int], tuple[str, int]] = {}
        self._state_hist: dict[str, Histogram] = {}
        self._issue_counts: dict[tuple[int, int], int] = {}
        self._pairs_wired: dict[int, int] = {}
        self._next_req = 0
        self._run_info: dict = {}

    # ------------------------------------------------------------------
    # warp timeline
    # ------------------------------------------------------------------
    def warp_started(self, sm_id: int, warp, cycle: int) -> None:
        t = self.tracer
        if t is not None:
            t.process_name(sm_id, f"SM{sm_id}")
            t.thread_name(sm_id, warp.dynamic_id,
                          f"W{warp.dynamic_id} (blk {warp.block.linear_id}"
                          f", slot {warp.slot})")
        self._open[(sm_id, warp.dynamic_id)] = ("ready", cycle)

    def warp_state(self, sm_id: int, warp, new_state, cycle: int) -> None:
        key = (sm_id, warp.dynamic_id)
        prev = self._open.pop(key, None)
        if prev is not None:
            name, since = prev
            dur = cycle - since
            m = self.metrics
            if m is not None:
                h = self._state_hist.get(name)
                if h is None:
                    h = m.histogram("warp_state_cycles", state=name)
                    self._state_hist[name] = h
                h.record(dur)
                if name == "lock-wait":
                    pair = warp.block.pair
                    kind = "spad" if (pair is not None
                                      and pair.reg_group is None) else "reg"
                    m.histogram("lock_wait_cycles", kind=kind).record(dur)
            if self.tracer is not None and dur > 0:
                self.tracer.complete(sm_id, warp.dynamic_id, name,
                                     "warp_state", since, dur)
        if new_state != _FINISHED:
            self._open[key] = (STATE_NAMES[new_state], cycle)

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------
    def issued(self, sm_id: int, sched_id: int, warp, cycle: int) -> None:
        key = (sm_id, sched_id)
        self._issue_counts[key] = self._issue_counts.get(key, 0) + 1

    # ------------------------------------------------------------------
    # locks
    # ------------------------------------------------------------------
    def wire_locks(self, sm, pair) -> None:
        group = pair.reg_group if pair.reg_group is not None \
            else pair.spad_group
        if group is None or group.obs is not None:
            return
        idx = self._pairs_wired.get(sm.sm_id, 0)
        self._pairs_wired[sm.sm_id] = idx + 1
        kind = "reg" if pair.reg_group is not None else "spad"
        group.obs = _LockObs(self, sm, kind, f"sm{sm.sm_id}.p{idx}")

    def lock_acquired(self, lock: _LockObs, side: int, slot: int,
                      cycle: int) -> None:
        if self.metrics is not None:
            self.metrics.counter("lock_acquires", kind=lock.kind).inc()

    def lock_released(self, lock: _LockObs, side: int, slot: int,
                      cycle: int, acquired_at: int | None) -> None:
        if self.metrics is not None:
            self.metrics.counter("lock_releases", kind=lock.kind).inc()
            if acquired_at is not None:
                self.metrics.histogram(
                    "lock_hold_cycles",
                    kind=lock.kind).record(cycle - acquired_at)
        if self.tracer is not None and acquired_at is not None:
            t = self.tracer
            name = f"{lock.kind} lock {lock.key}" + \
                (f" slot {slot}" if lock.kind == "reg" else "")
            tid = t.track(lock.sm.sm_id, name)
            t.complete(lock.sm.sm_id, tid, f"held by side {side}", "lock",
                       acquired_at, cycle - acquired_at,
                       {"side": side, "slot": slot, "pair": lock.key})

    # ------------------------------------------------------------------
    # memory hierarchy
    # ------------------------------------------------------------------
    def mem_request(self, sm_id: int, n_lines: int, cycle: int,
                    on_done: Callable[[int], None]
                    ) -> Callable[[int], None]:
        self._next_req += 1
        rid = self._next_req

        def done(c: int) -> None:
            if self.metrics is not None:
                self.metrics.histogram(
                    "mem_load_cycles", sm=sm_id).record(c - cycle)
            if self.tracer is not None:
                self.tracer.span(sm_id, f"load x{n_lines}", "mem", rid,
                                 cycle, c, {"lines": n_lines})
            on_done(c)

        return done

    def mshr_sample(self, sm_id: int, occupancy: int, capacity: int,
                    cycle: int) -> None:
        if self.metrics is not None:
            self.metrics.histogram("mshr_occupancy", sm=sm_id) \
                .record(occupancy)
        if self.tracer is not None:
            self.tracer.counter(sm_id, f"mshr[SM{sm_id}]", cycle,
                                {"occupied": occupancy})

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------
    def finalize(self, gpu, cycles: int) -> None:
        """Close open intervals and publish end-of-run aggregates."""
        self._run_info = {"kernel": gpu.kernel.name, "mode": gpu.mode,
                          "cycles": cycles}
        # Close any interval still open at the final cycle (warps all
        # finish in a completed run, so normally there are none; a
        # truncated/failed run keeps its partial timeline honest).
        for (sm_id, wid), (name, since) in sorted(self._open.items()):
            if self.tracer is not None and cycles > since:
                self.tracer.complete(sm_id, wid, name, "warp_state",
                                     since, cycles - since)
        self._open.clear()
        m = self.metrics
        if m is None:
            return
        for (sm_id, sched_id), n in sorted(self._issue_counts.items()):
            m.counter("issued_instructions", sm=sm_id,
                      sched=sched_id).inc(n)
            if cycles:
                m.gauge("issue_slot_utilisation", sm=sm_id,
                        sched=sched_id).set(round(n / cycles, 6))
        hier = gpu.hierarchy
        for level, caches in (("l1", hier.l1), ("l2", hier.l2)):
            for outcome in ("hits", "misses", "mshr_merges",
                            "mshr_rejects", "evictions"):
                total = sum(getattr(c.stats, outcome) for c in caches)
                m.counter("cache_probes", level=level,
                          outcome=outcome).inc(total)
        for p, d in enumerate(hier.dram):
            m.counter("dram_requests", partition=p).inc(d.stats.requests)
            m.counter("dram_row_hits", partition=p).inc(d.stats.row_hits)
        for sm in gpu.sms:
            st = sm.stats
            m.counter("dyn_refusals", sm=sm.sm_id).inc(st.dyn_refusals)
            m.counter("mshr_rejects", sm=sm.sm_id).inc(
                hier.l1[sm.sm_id].stats.mshr_rejects)
            m.counter("lock_wait_events", sm=sm.sm_id).inc(st.lock_waits)

    def metrics_dict(self) -> dict | None:
        return None if self.metrics is None else self.metrics.to_dict()

    def write_trace(self, path) -> None:
        """Export the timeline (``.jsonl`` → line stream, else Chrome)."""
        if self.tracer is None:
            raise ValueError("tracing was not enabled on this Observer")
        self.tracer.write(path, self._run_info)
