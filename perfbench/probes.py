"""Per-layer host-time and work attribution for traced runs.

:class:`Recorder` wraps the program's public entry points from the
outside (no file under ``src/`` changes).  Each wrapper keeps only
in-memory aggregates per thread: call count, inclusive time and self
time, where self time is inclusive time minus the time spent in wrapped
children.  A few wrappers also tally what the call returned (hits,
accepted loads, lock grants), so ratios are measured where the work
happens.  Work done by private callbacks that ``run_due`` fires lands
in ``events`` self time unless it reaches a wrapped ``mem.*`` function.

Stale warp wakes are counted by swapping the ``heapq`` module seen by
``repro.events`` for one whose ``heappop`` inspects each popped entry;
the entry and the order of pops are unchanged.
"""

from __future__ import annotations

import heapq
import importlib
import sys
import threading
import time
from collections import defaultdict
from types import SimpleNamespace

#: (owner, attribute): ``owner`` is ``module:Class`` for a method, or a
#: module for a function (then every ``repro`` module that imported the
#: function by name is patched too).  Grouped by layer.
TARGETS = (
    ("repro.workloads.apps:App", "kernel"),
    ("repro.core.sharing", "plan_sharing"),
    ("repro.core.locks:RegisterShareGroup", "try_acquire"),
    ("repro.core.locks:ScratchpadShareGroup", "try_acquire"),
    ("repro.sim.gpu:GPU", "__init__"),
    ("repro.sim.gpu:GPU", "run"),
    ("repro.sim.sm:SMCore", "step"),
    ("repro.sim.warp:WarpContext", "advance"),
    ("repro.events:EventQueue", "push"),
    ("repro.events:EventQueue", "push_wake"),
    ("repro.events:EventQueue", "run_due"),
    ("repro.mem.request", "coalesce_lines"),
    ("repro.mem.hierarchy:MemoryHierarchy", "try_load"),
    ("repro.mem.hierarchy:MemoryHierarchy", "store"),
    ("repro.mem.cache:Cache", "lookup"),
    ("repro.mem.cache:Cache", "fill"),
    ("repro.mem.dram:DramController", "access"),
    ("repro.harness.engine:RunSpec", "digest"),
    ("repro.harness.engine:ResultCache", "get"),
    ("repro.harness.engine:ResultCache", "put"),
    ("repro.harness.engine:Engine", "run_batch"),
    ("repro.service.client:ServiceClient", "submit"),
    ("repro.service.client:ServiceClient", "wait"),
)

#: Modules that import a wrapped function by name.
PRELOAD = ("repro.mem", "repro.sim.sm", "repro.sim.refcore",
           "repro.harness.runner", "repro.harness.experiments",
           "repro.service.client")


def _key(owner: str, attr: str) -> str:
    _, _, cls = owner.partition(":")
    return f"{cls}.{attr}" if cls else attr


def _tally_true(name):
    def tally(counts, args, res):
        if res:
            counts[name] += 1
    return tally


def _tally_sum(name):
    def tally(counts, args, res):
        counts[name] += res
    return tally


def _tally_lookup(counts, args, res):
    counts[f"{args[0].name[:2]}.{res}"] += 1      # e.g. "L1.hit"


def _tally_cache_get(counts, args, res):
    counts["cache_miss" if res is None else "cache_hit"] += 1


TALLIES = {
    "RegisterShareGroup.try_acquire": _tally_true("lock_granted"),
    "ScratchpadShareGroup.try_acquire": _tally_true("lock_granted"),
    "SMCore.step": _tally_sum("issued"),
    "EventQueue.run_due": _tally_sum("fired"),
    "MemoryHierarchy.try_load": _tally_true("load_accepted"),
    "Cache.lookup": _tally_lookup,
    "ResultCache.get": _tally_cache_get,
}


class _ThreadState:
    __slots__ = ("stack", "aggs", "counts")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.aggs: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)


class Recorder:
    """Installs the wrappers and merges their per-thread aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, key: str, fn):
        state = self._state
        local = self._local
        clock = time.perf_counter
        tally = TALLIES.get(key)

        def probe(*args, **kwargs):
            st = getattr(local, "st", None) or state()
            stack = st.stack
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                agg = st.aggs[key]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
                if stack:
                    stack[-1] += dt
            if tally is not None:
                tally(st.counts, args, res)
            return res

        return probe

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target (idempotent per recorder)."""
        if self._undo:
            return
        # Import every module that binds a wrapped function by name
        # first, so none of them can pick up a wrapper that outlives
        # uninstall().
        for mod_name in PRELOAD:
            importlib.import_module(mod_name)
        for owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = importlib.import_module(mod_name)
            key = _key(owner, attr)
            if cls_name:
                cls = getattr(mod, cls_name)
                self._patch(cls, attr, self._wrap(key, cls.__dict__[attr]))
                continue
            orig = getattr(mod, attr)
            probe = self._wrap(key, orig)
            for name, other in list(sys.modules.items()):
                if (name.split(".")[0] == "repro"
                        and getattr(other, attr, None) is orig):
                    self._patch(other, attr, probe)
        events = importlib.import_module("repro.events")
        self._patch(events, "heapq", SimpleNamespace(
            heappush=heapq.heappush, heappop=self._counting_pop()))

    def _counting_pop(self):
        state = self._state
        local = self._local
        pop = heapq.heappop

        def heappop(heap):
            ev = pop(heap)
            payload = ev[2]
            if type(payload) is tuple and payload[1].wake_token != payload[2]:
                st = getattr(local, "st", None) or state()
                st.counts["stale_wakes"] += 1
            return ev

        return heappop

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict:
        """Merged aggregates: ``{"calls": {key: [n, incl_s, self_s]},
        "counts": {name: n}}`` (JSON-ready)."""
        with self._lock:
            states = list(self._states)
        return merge(*({"calls": dict(st.aggs), "counts": dict(st.counts)}
                       for st in states))


def merge(*snaps: dict) -> dict:
    """Sum aggregates: a recorder's per-thread states, or the
    snapshots of the load process and of the server."""
    calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, int] = defaultdict(int)
    for snap in snaps:
        for key, vals in snap["calls"].items():
            for i, v in enumerate(vals):
                calls[key][i] += v
        for name, n in snap["counts"].items():
            counts[name] += n
    return {"calls": dict(calls), "counts": dict(counts)}


def attributed_s(snap: dict) -> float:
    """Host seconds inside any wrapped call (the sum of self times)."""
    return sum(v[2] for v in snap["calls"].values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics derivable from the wrappers alone.

    ``*_ms`` values are mean milliseconds per call, ``*_s`` values are
    summed self seconds and ``*_share`` values are seconds as a share of
    the traced wall time ``wall_s``.  Layers that some workload never
    reaches are reported as shares or counts, which read 0 there.
    """
    calls, counts = snap["calls"], snap["counts"]

    def n(key):
        return calls.get(key, [0, 0.0, 0.0])[0]

    def self_s(*keys):
        return sum(calls.get(k, [0, 0.0, 0.0])[2] for k in keys)

    def mean_ms(key):
        c = calls.get(key, [0, 0.0, 0.0])
        return _ratio(c[1], c[0]) * 1e3

    locks = ("RegisterShareGroup.try_acquire",
             "ScratchpadShareGroup.try_acquire")
    lock_calls = sum(n(k) for k in locks)
    pushes, wakes = n("EventQueue.push"), n("EventQueue.push_wake")
    fired, stale = counts.get("fired", 0), counts.get("stale_wakes", 0)

    def level(lv):
        total = sum(v for k, v in counts.items() if k.startswith(lv + "."))
        return _ratio(counts.get(lv + ".hit", 0), total)

    return {
        "workloads.kernel_build_ms": (mean_ms("App.kernel"), "ms"),
        "core.plan_sharing_share": (
            calls.get("plan_sharing", [0, 0.0, 0.0])[1] / wall_s, "ratio"),
        "core.locks.acquire_attempts": (lock_calls, "count"),
        "core.locks.acquire_success_ratio": (
            _ratio(counts.get("lock_granted", 0), lock_calls), "ratio"),
        "core.locks.self_share": (self_s(*locks) / wall_s, "ratio"),
        "sim.gpu.construct_ms": (mean_ms("GPU.__init__"), "ms"),
        "sim.gpu.run_self_s": (self_s("GPU.run"), "s"),
        "sim.sm.step_calls": (n("SMCore.step"), "count"),
        "sim.sm.step_self_s": (self_s("SMCore.step"), "s"),
        "sim.sm.instr_per_step": (
            _ratio(counts.get("issued", 0), n("SMCore.step")), "instr/step"),
        "sim.warp.advance_calls": (n("WarpContext.advance"), "count"),
        "sim.warp.self_s": (self_s("WarpContext.advance"), "s"),
        "events.pushes": (pushes, "count"),
        "events.wake_pushes": (wakes, "count"),
        "events.fired": (fired, "count"),
        "events.stale_drops": (stale, "count"),
        "events.live_ratio": (_ratio(fired - stale, pushes + wakes), "ratio"),
        "events.run_due_self_s": (self_s("EventQueue.run_due"), "s"),
        "mem.request.coalesce_calls": (n("coalesce_lines"), "count"),
        "mem.request.self_s": (self_s("coalesce_lines"), "s"),
        # try_load calls only: the fast core replays a known MSHR
        # reject without calling it, so this is not the issue-side rate.
        "mem.hierarchy.load_attempts": (
            n("MemoryHierarchy.try_load"), "count"),
        "mem.hierarchy.mshr_accept_ratio": (
            _ratio(counts.get("load_accepted", 0),
                   n("MemoryHierarchy.try_load")), "ratio"),
        "mem.hierarchy.stores": (n("MemoryHierarchy.store"), "count"),
        "mem.hierarchy.self_s": (
            self_s("MemoryHierarchy.try_load", "MemoryHierarchy.store"), "s"),
        "mem.cache.lookups": (n("Cache.lookup"), "count"),
        "mem.cache.fills": (n("Cache.fill"), "count"),
        "mem.cache.l1_hit_ratio": (level("L1"), "ratio"),
        "mem.cache.l2_hit_ratio": (level("L2"), "ratio"),
        "mem.cache.self_s": (self_s("Cache.lookup", "Cache.fill"), "s"),
        "mem.dram.requests": (n("DramController.access"), "count"),
        "mem.dram.self_s": (self_s("DramController.access"), "s"),
        "harness.engine.digest_ms": (mean_ms("RunSpec.digest"), "ms"),
        "harness.engine.cache_get_ms": (mean_ms("ResultCache.get"), "ms"),
        "harness.engine.cache_put_ms": (mean_ms("ResultCache.put"), "ms"),
        "harness.engine.hits": (counts.get("cache_hit", 0), "count"),
        "harness.engine.misses": (counts.get("cache_miss", 0), "count"),
        "trace.wall_s": (wall_s, "s"),
    }
