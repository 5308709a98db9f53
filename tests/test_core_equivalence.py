"""Differential tests: fast core ≡ reference core ≡ committed goldens.

The event-driven fast core (default) and the scan-based reference core
(``core="reference"``) must produce bit-identical
:class:`RunResult`\\ s on every configuration.  ``golden_core.json``
pins the full :func:`~repro.harness.golden.core_matrix` — small kernels
× {baseline, register sharing, scratchpad sharing} × {lrr, gto,
two_level, owf} × {Dyn on/off} plus unroll/early-release cells — to
fingerprints captured from the pristine pre-optimisation core, so the
two implementations cannot drift jointly either.

The full matrix (56 cells × 2 cores) runs in ``test_no_drift_*``; a
smaller slice re-runs under ``sanitize=True`` to prove the fast core
upholds the DESIGN.md §6 invariants, not just the final counters.
"""

import json

import pytest

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.golden import (CORE_APPS, check_core_goldens,
                                  core_config, core_key,
                                  core_matrix, golden_core_path)
from repro.harness.runner import run, shared, unshared
from repro.obs.issues import TraceRecorder
from repro.workloads.apps import APPS


class TestGoldenFile:
    def test_golden_core_file_exists(self):
        assert golden_core_path().is_file()

    def test_covers_exact_matrix(self):
        data = json.loads(golden_core_path().read_text())
        assert set(data) == {core_key(a, m) for a, m in core_matrix()}

    def test_matrix_exercises_all_schedulers_and_resources(self):
        labels = {m.label for _, m in core_matrix()}
        for tag in ("LRR", "GTO", "2LV", "OWF"):
            assert any(tag in lbl for lbl in labels)
        assert any("Dyn" in lbl for lbl in labels)
        assert any("Unroll" in lbl for lbl in labels)
        assert any("ER" in lbl for lbl in labels)


class TestNoDrift:
    def test_no_drift_fast(self):
        assert check_core_goldens("fast") == []

    def test_no_drift_reference(self):
        assert check_core_goldens("reference") == []


class TestSanitized:
    """A matrix slice under the runtime invariant sanitizer.

    ``sanitize=True`` must not change results, and neither core may
    trip a DESIGN.md §6 invariant on any cell.  One storm-heavy app
    (BFS) and one sharing-heavy app (MUM) cover the paths where the
    fast core diverges most from the reference implementation.
    """

    _SLICE = ("MUM", "BFS")

    @pytest.mark.parametrize("core", ["fast", "reference"])
    def test_sanitized_slice_matches_golden(self, core):
        want = json.loads(golden_core_path().read_text())
        cfg = core_config()
        for app, mode in core_matrix():
            if app not in self._SLICE:
                continue
            res = run(APPS[app], mode, config=cfg, scale=CORE_APPS[app],
                      waves=1.0, sanitize=True, core=core)
            assert res.to_dict() == want[core_key(app, mode)], \
                f"{core} core diverged under sanitizer on " \
                f"{core_key(app, mode)}"


class TestIssueStream:
    """Per-issue differential check: both cores issue the same
    instruction from the same warp at the same cycle, every time — a
    finer check than the goldens' end-of-run fingerprint."""

    _CELLS = [
        ("hotspot", shared(SharedResource.REGISTERS, "owf", unroll=True,
                           dyn=True)),
        ("hotspot", shared(SharedResource.REGISTERS, "owf", unroll=True,
                           early_release=True)),
        ("lavaMD", shared(SharedResource.SCRATCHPAD, "owf")),
        ("BFS", unshared("two_level")),
    ]

    @pytest.mark.parametrize("app,mode", _CELLS,
                             ids=[f"{a}-{m.label}" for a, m in _CELLS])
    def test_issue_streams_equal(self, app, mode):
        streams = []
        for core in ("fast", "reference"):
            rec = TraceRecorder()
            run(APPS[app], mode, config=GPUConfig().scaled(num_clusters=1),
                scale=0.2, waves=1.0, core=core, obs=rec)
            assert rec.events and not rec.truncated
            streams.append(rec.events)
        assert streams[0] == streams[1]


class TestCoreSelection:
    def test_core_argument_selects_reference(self):
        from repro.sim.gpu import GPU
        from repro.sim.refcore import ReferenceSMCore
        app, mode = next(core_matrix())
        from repro.core.occupancy import occupancy
        kernel = APPS[app].kernel(CORE_APPS[app])
        cfg = core_config()
        blocks = occupancy(kernel, cfg).blocks * cfg.num_sms
        gpu = GPU(kernel.with_grid(blocks), cfg, scheduler=mode.scheduler,
                  core="reference")
        assert all(isinstance(sm, ReferenceSMCore) for sm in gpu.sms)

    def test_invalid_core_rejected(self):
        from repro.sim.gpu import GPU
        from repro.config import GPUConfig
        kernel = APPS["MUM"].kernel(0.1).with_grid(2)
        with pytest.raises(ValueError):
            GPU(kernel, GPUConfig(), core="turbo")

    def test_collect_core_deterministic(self):
        # Two fresh fast-core runs of one cell must agree exactly —
        # nothing in the fast path may depend on wall-clock or dict
        # iteration order.
        app, mode = next(core_matrix())
        cfg = core_config()
        a = run(APPS[app], mode, config=cfg, scale=CORE_APPS[app],
                waves=1.0, core="fast")
        b = run(APPS[app], mode, config=cfg, scale=CORE_APPS[app],
                waves=1.0, core="fast")
        assert a.to_dict() == b.to_dict()
