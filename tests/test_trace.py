"""Trace recorder."""


from repro.config import GPUConfig
from repro.core.sharing import SharedResource, SharingSpec, plan_sharing
from repro.isa.builder import KernelBuilder
from repro.sim.gpu import GPU
from repro.obs.issues import TraceRecorder

CFG = GPUConfig().scaled(num_clusters=1)


def kernel(loops=3):
    b = KernelBuilder("t", block_size=64, regs=8, alloc="low_first")
    with b.loop(loops):
        b.alu_chain(1)
        b.alu_indep(1)
    return b.build().with_grid(2)


class TestRecorder:
    def test_records_every_issue(self):
        tr = TraceRecorder()
        r = GPU(kernel(), CFG, obs=tr).run()
        assert len(tr.events) == r.instructions
        assert not tr.truncated

    def test_result_matches_untraced_run(self):
        k = kernel()
        plain = GPU(k, CFG).run()
        traced = GPU(k, CFG, obs=TraceRecorder()).run()
        assert plain.cycles == traced.cycles
        assert plain.instructions == traced.instructions

    def test_cycles_monotone_per_warp(self):
        tr = TraceRecorder()
        GPU(kernel(6), CFG, obs=tr).run()
        for w in {e.warp for e in tr.events}:
            cycles = [e.cycle for e in tr.for_warp(0, w)]
            assert cycles == sorted(cycles)
            assert len(set(cycles)) == len(cycles)  # 1 issue/cycle/warp

    def test_ops_recorded(self):
        tr = TraceRecorder()
        GPU(kernel(), CFG, obs=tr).run()
        ops = {e.op for e in tr.events}
        assert "EXIT" in ops and "FFMA" in ops

    def test_issue_gaps(self):
        tr = TraceRecorder()
        GPU(kernel(6), CFG, obs=tr).run()
        gaps = tr.issue_gaps(0, 0)
        assert all(g >= 1 for g in gaps)

    def test_truncation_cap(self, monkeypatch):
        monkeypatch.setattr(TraceRecorder, "MAX_EVENTS", 5)
        tr = TraceRecorder()
        r = GPU(kernel(10), CFG, obs=tr).run()
        assert len(tr.events) == 5
        assert tr.truncated
        assert r.instructions > 5  # run itself unaffected

    def test_timeline_render(self):
        tr = TraceRecorder()
        GPU(kernel(), CFG, obs=tr).run()
        text = tr.timeline(sm=0, first=10)
        assert "cycle" in text and "UNS" in text

    def test_warp_classes_with_sharing(self):
        b = KernelBuilder("rs", block_size=256, regs=36, alloc="low_first")
        with b.loop(4):
            b.alu_chain(2)
            b.alu_indep(2)
        k = b.build().with_grid(6)
        plan = plan_sharing(k, CFG, SharingSpec(SharedResource.REGISTERS,
                                                0.1))
        tr = TraceRecorder()
        GPU(k, CFG, scheduler="owf", plan=plan, obs=tr).run()
        classes = {e.warp_class for e in tr.events}
        assert 0 in classes  # owner issues observed
        assert 1 not in classes  # hotspot geometry: every block paired
