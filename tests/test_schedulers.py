"""Warp scheduling policies (unit level, with minimal stub warps).

The policies under test are the reference core's ``pick`` functions,
the oracle the fast core's inline issue loop is pinned against.
"""

import pytest

from repro.harness.runner import Mode
from repro.sched import SCHEDULERS, policy_id
from repro.sim.refcore import PICKS, RefPartition, SortedWarpList
from repro.sim.warp import WarpState


class StubWarp:
    """Minimal stand-in carrying just what schedulers consume."""

    def __init__(self, dynamic_id, cls=1):
        self.dynamic_id = dynamic_id
        self.state = WarpState.READY
        self._cls = cls

    def owf_class(self):
        return self._cls

    def __repr__(self):
        return f"W{self.dynamic_id}"


def always(_w):
    return True


class Sched:
    """One reference partition driven under one policy."""

    def __init__(self, name, group_size=8):
        self.part = RefPartition(0, group_size)
        self._pick = PICKS[policy_id(name)]

    def on_ready(self, w):
        self.part.ready.add(w)

    def on_unready(self, w):
        self.part.ready.discard(w)

    def on_issued(self, w):
        self.part.on_issued(w)

    def pick(self, issuable):
        return self._pick(self.part, issuable)


class TestSortedWarpList:
    def test_sorted_insertion(self):
        lst = SortedWarpList()
        for i in (5, 1, 3):
            lst.add(StubWarp(i))
        assert [w.dynamic_id for w in lst] == [1, 3, 5]

    def test_duplicate_rejected(self):
        lst = SortedWarpList()
        w = StubWarp(1)
        lst.add(w)
        with pytest.raises(ValueError):
            lst.add(StubWarp(1))

    def test_discard(self):
        lst = SortedWarpList()
        w = StubWarp(1)
        lst.add(w)
        lst.discard(w)
        assert len(lst) == 0
        lst.discard(w)  # idempotent

    def test_contains(self):
        lst = SortedWarpList()
        w = StubWarp(4)
        assert w not in lst
        lst.add(w)
        assert w in lst

    def test_round_robin_iteration(self):
        lst = SortedWarpList()
        for i in range(4):
            lst.add(StubWarp(i))
        assert [w.dynamic_id for w in lst.iter_round_robin(1)] == [2, 3, 0, 1]
        assert [w.dynamic_id for w in lst.iter_round_robin(-1)] == [0, 1, 2, 3]
        assert [w.dynamic_id for w in lst.iter_round_robin(99)] == [0, 1, 2, 3]


class TestFactory:
    def test_known_names(self):
        assert set(SCHEDULERS) == {"lrr", "gto", "two_level", "owf"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            Mode(label="x", scheduler="fifo")


class TestLRR:
    def test_rotates(self):
        s = Sched("lrr")
        ws = [StubWarp(i) for i in range(3)]
        for w in ws:
            s.on_ready(w)
        picked = []
        for _ in range(6):
            w = s.pick(always)
            picked.append(w.dynamic_id)
            s.on_issued(w)
        assert picked == [0, 1, 2, 0, 1, 2]

    def test_skips_unissuable(self):
        s = Sched("lrr")
        ws = [StubWarp(i) for i in range(3)]
        for w in ws:
            s.on_ready(w)
        assert s.pick(lambda w: w.dynamic_id == 2).dynamic_id == 2

    def test_none_when_empty(self):
        assert Sched("lrr").pick(always) is None


class TestGTO:
    def test_greedy_sticks_with_last(self):
        s = Sched("gto")
        ws = [StubWarp(i) for i in range(3)]
        for w in ws:
            s.on_ready(w)
        w = s.pick(always)
        assert w.dynamic_id == 0  # oldest first
        s.on_issued(w)
        assert s.pick(always) is w  # greedy

    def test_falls_back_to_oldest(self):
        s = Sched("gto")
        ws = [StubWarp(i) for i in range(3)]
        for w in ws:
            s.on_ready(w)
        s.on_issued(ws[0])
        ws[0].state = WarpState.BLOCK_MEM
        s.on_unready(ws[0])
        assert s.pick(always) is ws[1]

    def test_ignores_unissuable_last(self):
        s = Sched("gto")
        ws = [StubWarp(i) for i in range(2)]
        for w in ws:
            s.on_ready(w)
        s.on_issued(ws[0])
        assert s.pick(lambda w: w is not ws[0]) is ws[1]


class TestTwoLevel:
    def test_stays_in_active_group(self):
        s = Sched("two_level", group_size=2)
        ws = [StubWarp(i) for i in range(4)]  # groups {0,1}, {2,3}
        for w in ws:
            s.on_ready(w)
        picked = []
        for _ in range(4):
            w = s.pick(always)
            picked.append(w.dynamic_id)
            s.on_issued(w)
        assert set(picked) == {0, 1}  # round robin inside group 0

    def test_switches_group_when_active_stalls(self):
        s = Sched("two_level", group_size=2)
        ws = [StubWarp(i) for i in range(4)]
        for w in ws:
            s.on_ready(w)
        s.on_issued(s.pick(always))
        for w in ws[:2]:
            w.state = WarpState.BLOCK_MEM
            s.on_unready(w)
        w = s.pick(always)
        assert w.dynamic_id in (2, 3)
        s.on_issued(w)
        # now sticks with group 1
        assert s.pick(always).dynamic_id in (2, 3)


class TestOWF:
    def test_class_priority(self):
        s = Sched("owf")
        owner = StubWarp(5, cls=0)
        unshared = StubWarp(1, cls=1)
        nonowner = StubWarp(0, cls=2)
        for w in (owner, unshared, nonowner):
            s.on_ready(w)
        assert s.pick(always) is owner

    def test_unshared_beats_nonowner(self):
        s = Sched("owf")
        unshared = StubWarp(9, cls=1)
        nonowner = StubWarp(0, cls=2)
        s.on_ready(unshared)
        s.on_ready(nonowner)
        assert s.pick(always) is unshared

    def test_nonowner_used_as_last_resort(self):
        s = Sched("owf")
        nonowner = StubWarp(0, cls=2)
        s.on_ready(nonowner)
        assert s.pick(always) is nonowner

    def test_oldest_within_class(self):
        s = Sched("owf")
        for i in (4, 2, 7):
            s.on_ready(StubWarp(i, cls=1))
        assert s.pick(always).dynamic_id == 2

    def test_greedy_within_class(self):
        s = Sched("owf")
        a, b = StubWarp(1, cls=1), StubWarp(2, cls=1)
        s.on_ready(a)
        s.on_ready(b)
        s.on_issued(b)
        assert s.pick(always) is b  # sticks with last, same class

    def test_greedy_never_crosses_class(self):
        s = Sched("owf")
        last = StubWarp(2, cls=1)
        owner = StubWarp(5, cls=0)
        s.on_ready(last)
        s.on_ready(owner)
        s.on_issued(last)
        assert s.pick(always) is owner

    def test_equals_gto_when_all_unshared(self):
        owf = Sched("owf")
        gto = Sched("gto")
        ws_o = [StubWarp(i, cls=1) for i in range(6)]
        ws_g = [StubWarp(i, cls=1) for i in range(6)]
        for a, b in zip(ws_o, ws_g):
            owf.on_ready(a)
            gto.on_ready(b)
        import random
        rng = random.Random(7)
        for step in range(200):
            po = owf.pick(always)
            pg = gto.pick(always)
            assert (po.dynamic_id if po else None) == \
                (pg.dynamic_id if pg else None)
            if po is None:
                for a, b in zip(ws_o, ws_g):
                    if a.state is not WarpState.READY:
                        a.state = WarpState.READY
                        b.state = WarpState.READY
                        owf.on_ready(a)
                        gto.on_ready(b)
                continue
            owf.on_issued(po)
            gto.on_issued(pg)
            if rng.random() < 0.4:  # randomly block the issued warp
                po.state = WarpState.BLOCK_MEM
                owf.on_unready(po)
                pg.state = WarpState.BLOCK_MEM
                gto.on_unready(pg)
