"""Reference SM core: the original scan-based implementation.

:class:`ReferenceSMCore` preserves the pre-optimisation hot path
verbatim — per-candidate ``issuable`` predicate calls on every scheduler
pick, ``op_group`` dictionary lookups, full re-coalescing and admission
scans on every MSHR retry, and O(warps) ``classify``/``has_ready``
scans.  It exists purely as the differential-testing oracle for the fast
core (``GPU(core="reference")``): both
cores must produce bit-identical :class:`RunResult`\\ s on every
configuration, which ``tests/test_core_equivalence.py`` asserts against
committed golden fingerprints.

The scheduling policies here are the original ``pick`` formulations over
a per-partition READY list kept sorted by ``dynamic_id``
(:class:`SortedWarpList`); the fast core evaluates the same policies
inline over the static partition instead (``SMCore.step``).

Do not optimise this module.  Its value is that it stays dumb.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, Optional

from repro.core.sharing import SharedResource
from repro.isa.opcodes import Op, op_group
from repro.mem.request import coalesce_lines
from repro.sched import SchedulerPartition
from repro.sim.block import BlockContext
from repro.sim.sm import (_BANK_CONFLICT, _DYN_COOLDOWN, _MSHR_RETRY,
                          _STALL_STATES, SMCore)
from repro.sim.warp import REG_PENDING, WarpContext, WarpState

__all__ = ["ReferenceSMCore", "RefPartition", "SortedWarpList", "PICKS"]

#: op → functional group (the fast core reads the precomputed
#: ``Instr.group`` attribute instead).
_GROUP: dict[Op, str] = {op: op_group(op) for op in Op}

#: Predicate the SM passes to ``pick``: may this warp issue this cycle
#: (same-cycle structural constraints such as the single LD/ST port)?
Issuable = Callable[[WarpContext], bool]


class SortedWarpList:
    """Warps kept sorted by ``dynamic_id`` with O(log n) add/remove."""

    __slots__ = ("_ids", "_warps")

    def __init__(self) -> None:
        self._ids: list[int] = []
        self._warps: list[WarpContext] = []

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[WarpContext]:
        return iter(self._warps)

    def __contains__(self, warp: WarpContext) -> bool:
        i = bisect_left(self._ids, warp.dynamic_id)
        return i < len(self._ids) and self._ids[i] == warp.dynamic_id

    def add(self, warp: WarpContext) -> None:
        """Insert ``warp`` (ids are unique per SM; double-add is a bug)."""
        i = bisect_left(self._ids, warp.dynamic_id)
        if i < len(self._ids) and self._ids[i] == warp.dynamic_id:
            raise ValueError("warp already in ready list")
        self._ids.insert(i, warp.dynamic_id)
        self._warps.insert(i, warp)

    def discard(self, warp: WarpContext) -> None:
        """Remove ``warp`` if present."""
        i = bisect_left(self._ids, warp.dynamic_id)
        if i < len(self._ids) and self._ids[i] == warp.dynamic_id:
            del self._ids[i]
            del self._warps[i]

    def iter_round_robin(self, after_id: int) -> Iterator[WarpContext]:
        """Iterate all warps starting just after ``after_id``, wrapping."""
        i = bisect_right(self._ids, after_id)
        yield from self._warps[i:]
        yield from self._warps[:i]


class RefPartition(SchedulerPartition):
    """A scheduler partition plus the sorted READY list ``pick`` reads."""

    __slots__ = ("ready",)

    def __init__(self, sched_id: int, group_size: int) -> None:
        super().__init__(sched_id, group_size)
        self.ready = SortedWarpList()

    def on_issued(self, warp: WarpContext) -> None:
        """Issue bookkeeping; each policy reads only its own fields."""
        self.last = warp
        self._after = warp.dynamic_id
        self._active_group = warp.dynamic_id // self.group_size


def pick_lrr(s: RefPartition, issuable: Issuable) -> Optional[WarpContext]:
    """Loose round robin: first issuable warp after the last issued id."""
    for w in s.ready.iter_round_robin(s._after):
        if issuable(w):
            return w
    return None


def pick_gto(s: RefPartition, issuable: Issuable) -> Optional[WarpContext]:
    """Greedy-then-oldest: the last warp while it can issue, else oldest."""
    last = s.last
    if (last is not None and last.state is WarpState.READY
            and last in s.ready and issuable(last)):
        return last
    for w in s.ready:  # sorted by dynamic id == age
        if issuable(w):
            return w
    return None


def pick_two_level(s: RefPartition,
                   issuable: Issuable) -> Optional[WarpContext]:
    """Fetch-group round robin, switching group when the active stalls."""
    ready = s.ready
    if not len(ready):
        return None
    # Pass 1: round-robin inside the active group.
    for w in ready.iter_round_robin(s._after):
        if w.dynamic_id // s.group_size == s._active_group and issuable(w):
            return w
    # Pass 2: switch to the first other group with an issuable warp
    # (ordered by id, i.e. group age).
    for w in ready:
        if w.dynamic_id // s.group_size != s._active_group and issuable(w):
            s._active_group = w.dynamic_id // s.group_size
            return w
    return None


def pick_owf(s: RefPartition, issuable: Issuable) -> Optional[WarpContext]:
    """Owner > unshared > non-owner; greedy-then-oldest within a class.

    Class membership is evaluated at pick time (ownership moves when
    locks are acquired or a partner block completes).
    """
    best: Optional[WarpContext] = None
    best_cls = 3
    for w in s.ready:  # id order => first hit per class is the oldest
        cls = w.owf_class()
        if cls < best_cls and issuable(w):
            best = w
            best_cls = cls
            if cls == 0:
                break
    if best is None:
        return None
    last = s.last
    if (last is not None and last is not best
            and last.state is WarpState.READY and last in s.ready
            and last.owf_class() == best_cls and issuable(last)):
        return last  # greedy stickiness within the winning class
    return best


#: The original policies, in ``repro.sched.SCHEDULERS`` (policy id) order.
PICKS = (pick_lrr, pick_gto, pick_two_level, pick_owf)


class ReferenceSMCore(SMCore):
    """SM core with the original (unoptimised) issue and scan logic."""

    _partition = RefPartition

    def launch_block(self, block: BlockContext, cycle: int) -> None:
        """Launch as the fast core does, then list every warp READY."""
        super().launch_block(block, cycle)
        for w in block.warps:
            w.sched.ready.add(w)

    def _set_state(self, warp: WarpContext, state: WarpState) -> None:
        """Original transition: maintain the sorted ready lists.

        The reference ``pick`` implementations and :meth:`has_ready`
        consume ``sched.ready``, which only this core keeps (the fast
        core keeps the ``n_ready`` counter instead); the per-category
        counters are likewise unused on this core.
        """
        old = warp.state
        if old is state:
            return
        if old is WarpState.READY:
            warp.sched.ready.discard(warp)
        elif state is WarpState.READY:
            warp.sched.ready.add(warp)
        warp.state = state
        warp.wake_token += 1
        if self._obs_on:
            self.obs.warp_state(self.sm_id, warp, state, self.now)

    def _timed_wake(self, warp: WarpContext, at: int,
                    expected: WarpState) -> None:
        """Original closure-based timed wake (re-derives readiness)."""
        token = warp.wake_token

        def _fire(cycle: int) -> None:
            if warp.wake_token == token and warp.state is expected:
                self.now = cycle
                self._update_readiness(warp, cycle)

        self.events.push(at, _fire)

    def _update_readiness(self, warp: WarpContext, cycle: int) -> None:
        """Re-derive a warp's scoreboard wait state for its next instr."""
        e = warp.earliest_issue()
        if e >= REG_PENDING:
            self._set_state(warp, WarpState.BLOCK_MEM)
        elif e <= cycle + 1:
            self._set_state(warp, WarpState.READY)
        else:
            self._set_state(warp, WarpState.BLOCK_SB)
            self._timed_wake(warp, e, WarpState.BLOCK_SB)

    def has_ready(self) -> bool:
        """True if any scheduler has a READY warp (scheduler scan)."""
        return any(len(s.ready) for s in self.schedulers)

    def _issuable(self, warp: WarpContext) -> bool:
        g = _GROUP[warp.current_instr.op]
        if g == "global" or g == "shared":
            return self._mem_port_free
        return True

    def step(self, cycle: int) -> int:
        """Run one SM cycle; returns instructions issued (0..2)."""
        self.now = cycle
        self._mem_port_free = True
        issued = 0
        pick = PICKS[self._pid]
        for sched in self.schedulers:
            while True:
                w = pick(sched, self._issuable)
                if w is None:
                    break
                if self._try_issue(w, cycle, sched):
                    issued += 1
                    break
                # otherwise the warp blocked and left the ready list;
                # give the scheduler another chance this cycle.
        return issued

    def classify(self) -> str:
        """Classify a no-issue cycle by scanning every resident warp."""
        saw_warp = False
        for w in self.warps:
            st = w.state
            if st in _STALL_STATES:
                return "stall"
            if st is not WarpState.FINISHED:
                saw_warp = True
        return "idle" if saw_warp else "empty"

    def _try_issue(self, warp: WarpContext, cycle: int,
                   sched: RefPartition) -> bool:
        ins = warp.current_instr
        grp = _GROUP[ins.op]
        block = warp.block
        pair = block.pair
        stats = self.stats

        # --- Dyn gate (Sec. IV-C): non-owner global memory only ---
        if (self.dyn is not None and grp == "global" and pair is not None
                and warp.owf_class() == 2):
            if (not self.dyn.allow(self.sm_id)
                    and not self._dyn_critical(warp)):
                stats.dyn_refusals += 1
                self._set_state(warp, WarpState.BLOCK_DYN)
                self._dyn_blocked.append(warp)
                self._timed_wake(warp, cycle + _DYN_COOLDOWN,
                                 WarpState.BLOCK_DYN)
                return False

        # --- register sharing access check (Fig. 3) ---
        if (self.sharing is not None
                and self.sharing.resource is SharedResource.REGISTERS
                and pair is not None):
            pr = self.sharing.private_regs
            if any(r >= pr for r in ins.regs):
                g = pair.reg_group
                assert g is not None
                if not g.holds(block.side, warp.slot):
                    if g.try_acquire(block.side, warp.slot):
                        stats.lock_acquires += 1
                        pair.note_acquired(block.side)
                    else:
                        stats.lock_waits += 1
                        self._set_state(warp, WarpState.BLOCK_LOCK)
                        self._lock_blocked.append(warp)
                        return False

        # --- scratchpad sharing access check (Fig. 4) ---
        smem_off = 0
        if grp == "shared":
            m = ins.mem
            assert m is not None
            smem_off = (m.offset if m.wrap == 0
                        else (m.offset + warp.iter_idx * m.stride) % m.wrap)
            if (self.sharing is not None
                    and self.sharing.resource is SharedResource.SCRATCHPAD
                    and pair is not None
                    and smem_off >= self.sharing.private_smem):
                g = pair.spad_group
                assert g is not None
                if not g.holds(block.side):
                    if g.try_acquire(block.side):
                        stats.lock_acquires += 1
                        pair.note_acquired(block.side)
                    else:
                        stats.lock_waits += 1
                        self._set_state(warp, WarpState.BLOCK_LOCK)
                        self._lock_blocked.append(warp)
                        return False

        # --- execute side effects ---
        if grp == "global":
            m = ins.mem
            assert m is not None
            lines = coalesce_lines(
                m, self.amap, block_linear=block.linear_id,
                warp_in_block=warp.slot, warps_per_block=block.n_warps,
                iter_idx=warp.iter_idx, line_size=self.cfg.line_size,
                seed=self.kernel.seed)
            if ins.op is Op.LDG:
                dst = ins.dst
                on_done: Callable[[int], None] = (
                    lambda c, w=warp, d=dst: self._on_load_done(w, d, c))
                if not self.hierarchy.try_load(self.sm_id, lines, cycle,
                                               on_done):
                    stats.mshr_stalls += 1
                    self._set_state(warp, WarpState.BLOCK_RETRY)
                    self._timed_wake(warp, cycle + _MSHR_RETRY,
                                     WarpState.BLOCK_RETRY)
                    return False
                for r in dst:
                    warp.reg_ready[r] = REG_PENDING
                warp.outstanding_loads += 1
            else:
                self.hierarchy.store(self.sm_id, lines, cycle)
            self._mem_port_free = False
            stats.mem_instructions += 1
        elif grp == "shared":
            m = ins.mem
            assert m is not None
            # An n-way bank conflict serialises into n bank accesses.
            lat = self.lat.scratchpad + (m.conflicts - 1) * _BANK_CONFLICT
            for r in ins.dst:
                warp.reg_ready[r] = cycle + lat
            self._mem_port_free = False
            stats.mem_instructions += 1
        elif grp == "alu":
            for r in ins.dst:
                warp.reg_ready[r] = cycle + self.lat.alu
        elif grp == "sfu":
            for r in ins.dst:
                warp.reg_ready[r] = cycle + self.lat.sfu

        # --- retire bookkeeping ---
        warp.issued += 1
        stats.instructions += 1
        if self._obs_on:
            self.obs.issued(self.sm_id, sched.sched_id, warp, cycle)
        cls = warp.owf_class()
        if cls == 0:
            stats.issued_owner += 1
        elif cls == 1:
            stats.issued_unshared += 1
        else:
            stats.issued_nonowner += 1
        sched.on_issued(warp)

        if grp == "exit":
            self._finish_warp(warp, cycle)
            return True

        warp.advance()
        if self.liveness is not None:
            self._maybe_early_release(warp)

        if grp == "bar":
            block.bar_count += 1
            if block.bar_count == block.n_warps:
                block.bar_count = 0
                stats.barriers += 1
                for w2 in block.warps:
                    if w2.state is WarpState.BLOCK_BAR:
                        self._update_readiness(w2, cycle)
                self._update_readiness(warp, cycle)
            else:
                self._set_state(warp, WarpState.BLOCK_BAR)
            return True

        self._update_readiness(warp, cycle)
        return True
