"""Observability layer: metrics registry, tracer, Observer integration.

The hard behavioural contract is at the bottom: attaching an Observer
must not change simulated results (null-object identity), and the
exported Chrome trace must be schema-valid and contain warp-state and
lock acquire/release spans for a sharing-mode run.
"""

import json

import pytest

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.runner import run, shared, unshared
from repro.obs import (Counter, Gauge, Histogram, MetricsRegistry, NULL_SINK,
                       Observer, ObsSink, Tracer, metric_key)
from repro.workloads.apps import APPS

CFG = GPUConfig().scaled(num_clusters=1)
FAST = dict(config=CFG, scale=0.2, waves=1.0)

REG_MODE = shared(SharedResource.REGISTERS, "owf", unroll=True, dyn=True)
SPAD_MODE = shared(SharedResource.SCRATCHPAD, "owf")


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetricKey:
    def test_no_labels(self):
        assert metric_key("ipc", {}) == "ipc"

    def test_labels_sorted(self):
        assert metric_key("x", {"b": 1, "a": "y"}) == "x{a=y,b=1}"
        assert metric_key("x", {"a": "y", "b": 1}) == "x{a=y,b=1}"


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.to_value() == 5


class TestGauge:
    def test_set(self):
        g = Gauge()
        g.set(0.25)
        g.set(0.5)
        assert g.to_value() == 0.5


class TestHistogram:
    def test_stats(self):
        h = Histogram()
        for v in (1, 2, 3, 10):
            h.record(v)
        d = h.to_value()
        assert d["count"] == 4 and d["sum"] == 16
        assert d["min"] == 1 and d["max"] == 10
        assert d["mean"] == 4.0

    def test_power_of_two_buckets(self):
        h = Histogram()
        h.record(0)    # bucket 0: exactly zero
        h.record(1)    # bucket 1: [1, 2)
        h.record(2)    # bucket 2: [2, 4)
        h.record(3)    # bucket 2
        h.record(100)  # bucket 7: [64, 128)
        buckets = h.to_value()["buckets"]
        assert sum(buckets.values()) == 5
        assert buckets == {"0": 1, "1": 1, "2": 2, "7": 1}

    def test_empty(self):
        d = Histogram().to_value()
        assert d["count"] == 0 and d["sum"] == 0


class TestMetricsRegistry:
    def test_same_key_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("hits", sm=0) is m.counter("hits", sm=0)
        assert m.counter("hits", sm=0) is not m.counter("hits", sm=1)

    def test_kind_mismatch_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_to_dict_grouped_and_sorted(self):
        m = MetricsRegistry()
        m.counter("b").inc(2)
        m.counter("a", sm=1).inc()
        m.gauge("util").set(0.5)
        m.histogram("lat").record(7)
        d = m.to_dict()
        assert list(d) == ["counters", "gauges", "histograms"]
        assert list(d["counters"]) == ["a{sm=1}", "b"]
        assert d["gauges"]["util"] == 0.5
        assert d["histograms"]["lat"]["count"] == 1

    def test_to_dict_json_safe(self):
        m = MetricsRegistry()
        m.histogram("h", kind="reg").record(3)
        assert json.loads(json.dumps(m.to_dict())) == m.to_dict()


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_complete_event(self):
        t = Tracer()
        t.complete(1, 2, "ready", "warp_state", 10, 5, {"k": "v"})
        (e,) = t.events
        assert e == {"name": "ready", "cat": "warp_state", "ph": "X",
                     "pid": 1, "tid": 2, "ts": 10, "dur": 5,
                     "args": {"k": "v"}}

    def test_span_pairs(self):
        t = Tracer()
        t.span(0, "load x2", "mem", 7, 100, 140, {"lines": 2})
        b, e = t.events
        assert b["ph"] == "b" and e["ph"] == "e"
        assert b["id"] == e["id"] == 7
        assert b["ts"] == 100 and e["ts"] == 140

    def test_meta_idempotent_and_uncapped(self, monkeypatch):
        monkeypatch.setattr(Tracer, "MAX_EVENTS", 1)
        t = Tracer()
        t.process_name(0, "SM0")
        t.process_name(0, "SM0")
        t.thread_name(0, 3, "W3")
        assert len(t.meta) == 2  # one process_name + one thread_name
        assert t.dropped == 0

    def test_event_cap(self, monkeypatch):
        monkeypatch.setattr(Tracer, "MAX_EVENTS", 2)
        t = Tracer()
        for i in range(5):
            t.instant(0, 0, f"e{i}", "dyn", i)
        assert len(t.events) == 2 and t.dropped == 3
        other = t.to_chrome()["otherData"]
        assert other["truncated"] is True
        assert other["eventsDropped"] == 3

    def test_aux_track_allocation(self):
        t = Tracer()
        a = t.track(0, "lock A")
        b = t.track(0, "lock B")
        assert t.track(0, "lock A") == a
        assert a != b and a >= 1_000_000
        names = {m["args"]["name"] for m in t.meta
                 if m["name"] == "thread_name"}
        assert {"lock A", "lock B"} <= names

    def test_write_chrome(self, tmp_path):
        t = Tracer()
        t.complete(0, 0, "ready", "warp_state", 0, 3)
        out = tmp_path / "t.json"
        t.write(out, {"kernel": "k"})
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["kernel"] == "k"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_write_jsonl(self, tmp_path):
        t = Tracer()
        t.process_name(0, "SM0")
        t.complete(0, 0, "ready", "warp_state", 0, 3)
        out = tmp_path / "t.jsonl"
        t.write(out)
        lines = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["ph"] == "M"  # meta precedes events
        assert lines[1]["ph"] == "X"


# ---------------------------------------------------------------------------
# null sink
# ---------------------------------------------------------------------------
class TestNullSink:
    def test_disabled(self):
        assert NULL_SINK.enabled is False
        assert Observer(metrics=True).enabled is True

    def test_hooks_are_noops(self):
        s = ObsSink()
        done = lambda c: None  # noqa: E731
        assert s.mem_request(0, 2, 5, done) is done
        assert s.metrics_dict() is None
        s.finalize(None, 10)

    def test_observer_needs_a_backend(self):
        with pytest.raises(ValueError):
            Observer(metrics=False, trace=False)


# ---------------------------------------------------------------------------
# Observer on real runs
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def reg_traced():
    """One register-sharing run observed with metrics + trace."""
    obs = Observer(metrics=True, trace=True)
    res = run(APPS["MUM"], REG_MODE, obs=obs, **FAST)
    return obs, res


class TestObserverIntegration:
    def test_result_identical_to_unobserved(self, reg_traced):
        obs, res = reg_traced
        plain = run(APPS["MUM"], REG_MODE, **FAST)
        d = res.to_dict()
        assert "metrics" not in plain.to_dict()
        assert d.pop("metrics") is not None
        assert d == plain.to_dict()

    # BFS fills its MSHRs, so it covers the fast core's O(1) replay of
    # an MSHR reject; MUM never does.
    @pytest.mark.parametrize("app", ["MUM", "BFS"])
    def test_reference_core_identical_under_observation(self, app):
        ref = run(APPS[app], REG_MODE, core="reference", obs=Observer(
            metrics=True, trace=True), **FAST)
        fast = run(APPS[app], REG_MODE, obs=Observer(
            metrics=True, trace=True), **FAST)
        assert ref.to_dict() == fast.to_dict()
        if app == "BFS":
            c = fast.metrics["counters"]
            per_sm = sum(v for k, v in c.items()
                         if k.startswith("mshr_rejects{sm="))
            assert per_sm > 0
            assert per_sm == c["cache_probes{level=l1,outcome=mshr_rejects}"]

    def test_metrics_on_result(self, reg_traced):
        _, res = reg_traced
        m = res.metrics
        assert m["counters"]["lock_acquires{kind=reg}"] > 0
        assert m["counters"]["lock_acquires{kind=reg}"] == \
            m["counters"]["lock_releases{kind=reg}"]
        assert m["histograms"]["lock_hold_cycles{kind=reg}"]["count"] == \
            m["counters"]["lock_releases{kind=reg}"]
        # every simulated instruction is attributed to a scheduler
        issued = sum(v for k, v in m["counters"].items()
                     if k.startswith("issued_instructions{"))
        assert issued == res.instructions

    def test_warp_state_cycles_cover_run(self, reg_traced):
        _, res = reg_traced
        hists = res.metrics["histograms"]
        states = {k for k in hists if k.startswith("warp_state_cycles{")}
        assert "warp_state_cycles{state=ready}" in states
        assert any("stall:" in k for k in states)
        # dyn throttling is register-sharing specific and must show up
        assert res.metrics["counters"]["dyn_refusals{sm=0}"] > 0

    def test_cache_probe_counters(self, reg_traced):
        _, res = reg_traced
        c = res.metrics["counters"]
        for level in ("l1", "l2"):
            for outcome in ("hits", "misses"):
                assert f"cache_probes{{level={level},outcome={outcome}}}" in c
        assert c["cache_probes{level=l1,outcome=hits}"] > 0

    def test_issue_slot_utilisation_gauges(self, reg_traced):
        _, res = reg_traced
        g = res.metrics["gauges"]
        utils = {k: v for k, v in g.items()
                 if k.startswith("issue_slot_utilisation{")}
        assert utils and all(0.0 <= v <= 1.0 for v in utils.values())

    def test_metrics_snapshot_json_round_trips(self, reg_traced):
        _, res = reg_traced
        assert json.loads(json.dumps(res.metrics)) == res.metrics


def _chrome_doc(tmp_path, obs):
    out = tmp_path / "trace.json"
    obs.write_trace(out)
    return json.loads(out.read_text())


class TestChromeTraceSchema:
    """Schema validation of the exported Chrome trace-event JSON."""

    REQUIRED = {"X": {"name", "cat", "ph", "pid", "tid", "ts", "dur"},
                "b": {"name", "cat", "ph", "pid", "ts", "id"},
                "e": {"name", "cat", "ph", "pid", "ts", "id"},
                "i": {"name", "cat", "ph", "pid", "tid", "ts", "s"},
                "C": {"name", "ph", "pid", "ts", "args"},
                "M": {"name", "ph", "pid", "args"}}

    def test_every_event_well_formed(self, reg_traced, tmp_path):
        obs, _ = reg_traced
        doc = _chrome_doc(tmp_path, obs)
        assert doc["traceEvents"]
        for e in doc["traceEvents"]:
            assert self.REQUIRED[e["ph"]] <= set(e), e
            assert isinstance(e["pid"], int)
            if "ts" in e:
                assert isinstance(e["ts"], int) and e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0  # locks may hold for 0 cycles

    def test_warp_state_spans_present(self, reg_traced, tmp_path):
        obs, res = reg_traced
        doc = _chrome_doc(tmp_path, obs)
        warp = [e for e in doc["traceEvents"] if e.get("cat") == "warp_state"]
        assert warp
        names = {e["name"] for e in warp}
        assert "ready" in names and any(n.startswith("stall:") for n in names)
        assert all(e["ts"] + e["dur"] <= res.cycles for e in warp)

    def test_lock_spans_present_with_args(self, reg_traced, tmp_path):
        obs, res = reg_traced
        doc = _chrome_doc(tmp_path, obs)
        locks = [e for e in doc["traceEvents"] if e.get("cat") == "lock"]
        assert len(locks) == \
            res.metrics["counters"]["lock_releases{kind=reg}"]
        for e in locks:
            assert e["ph"] == "X"
            assert e["tid"] >= 1_000_000  # aux lock track, not a warp row
            assert {"side", "slot", "pair"} <= set(e["args"])

    def test_mem_spans_paired(self, reg_traced, tmp_path):
        obs, _ = reg_traced
        doc = _chrome_doc(tmp_path, obs)
        mem = [e for e in doc["traceEvents"] if e.get("cat") == "mem"]
        begins = {e["id"] for e in mem if e["ph"] == "b"}
        ends = {e["id"] for e in mem if e["ph"] == "e"}
        assert begins and begins == ends

    def test_metadata_names_every_pid(self, reg_traced, tmp_path):
        obs, _ = reg_traced
        doc = _chrome_doc(tmp_path, obs)
        named = {e["pid"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        used = {e["pid"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert used <= named

    def test_other_data_run_info(self, reg_traced, tmp_path):
        obs, res = reg_traced
        other = _chrome_doc(tmp_path, obs)["otherData"]
        assert other["kernel"] == "MUM"
        assert other["cycles"] == res.cycles
        assert other["truncated"] is False

    def test_spad_lock_wait_states(self, tmp_path):
        # CONV1 under scratchpad sharing exhibits real lock contention
        obs = Observer(metrics=True, trace=True)
        res = run(APPS["CONV1"], SPAD_MODE, obs=obs, **FAST)
        m = res.metrics
        assert m["counters"]["lock_acquires{kind=spad}"] > 0
        assert m["histograms"]["lock_wait_cycles{kind=spad}"]["count"] > 0
        doc = _chrome_doc(tmp_path, obs)
        assert any(e["name"] == "lock-wait" for e in doc["traceEvents"]
                   if e.get("cat") == "warp_state")

    def test_write_trace_requires_tracer(self):
        with pytest.raises(ValueError):
            Observer(metrics=True, trace=False).write_trace("x.json")


# ---------------------------------------------------------------------------
# engine plumbing: digest salting + cache semantics
# ---------------------------------------------------------------------------
class TestEnginePlumbing:
    def _spec(self, **kw):
        from repro.harness.engine import RunSpec
        return RunSpec.create(APPS["gaussian"], unshared("lrr"),
                              **FAST, **kw)

    def test_digest_salted_by_observability(self, tmp_path):
        plain = self._spec()
        traced = self._spec(trace=str(tmp_path / "t.json"))
        metered = self._spec(metrics=True)
        assert len({plain.digest(), traced.digest(),
                    metered.digest()}) == 3

    def test_spec_round_trip_keeps_obs_fields(self, tmp_path):
        from repro.harness.engine import RunSpec
        s = self._spec(trace=str(tmp_path / "t.json"), metrics=True)
        r = RunSpec.from_dict(s.to_dict())
        assert r.trace == s.trace and r.metrics is True
        assert r.digest() == s.digest()

    def test_traced_run_bypasses_cache(self, tmp_path):
        from repro.harness.engine import Engine
        eng = Engine(jobs=1, cache_dir=tmp_path / "cache")
        s = self._spec(trace=str(tmp_path / "t.json"))
        eng.run_one(s)
        eng.run_one(s)
        assert eng.stats.sims == 2 and eng.stats.hits == 0
        assert (tmp_path / "t.json").is_file()

    def test_metrics_run_cached_with_metrics(self, tmp_path):
        from repro.harness.engine import Engine
        eng = Engine(jobs=1, cache_dir=tmp_path)
        s = self._spec(metrics=True)
        r1 = eng.run_one(s)
        r2 = eng.run_one(s)
        assert eng.stats.sims == 1 and eng.stats.hits == 1
        assert r2.metrics == r1.metrics and r1.metrics is not None

    def test_engine_knobs_apply_to_batch(self, tmp_path):
        from repro.harness.engine import Engine
        eng = Engine(jobs=1, cache=False, metrics=True,
                     trace_dir=tmp_path / "traces")
        (res,) = eng.run_batch([self._spec()])
        assert res.metrics is not None
        traces = list((tmp_path / "traces").glob("*.json"))
        assert len(traces) == 1
        assert "gaussian" in traces[0].name
        json.loads(traces[0].read_text())  # well-formed

    def test_worker_pool_runs_match_inprocess(self):
        from repro.harness.engine import Engine
        s = self._spec(metrics=True)
        r1 = Engine(jobs=1, cache=False).run_one(s)
        r2 = Engine(jobs=2, cache=False).run_batch([s])[0]
        assert r1.to_dict() == r2.to_dict()


class TestPrometheusText:
    def test_empty_snapshot_renders_empty(self):
        from repro.obs import prometheus_text
        assert prometheus_text({}) == ""
        assert prometheus_text(MetricsRegistry().to_dict()) == ""

    def test_counters_and_gauges(self):
        from repro.obs import prometheus_text
        reg = MetricsRegistry()
        reg.counter("runs_total", app="bfs").inc(3)
        reg.counter("runs_total", app="lud").inc()
        reg.gauge("queue_depth").set(7)
        text = prometheus_text(reg.to_dict())
        assert "# TYPE runs_total counter" in text
        assert text.count("# TYPE runs_total counter") == 1
        assert 'runs_total{app="bfs"} 3' in text
        assert 'runs_total{app="lud"} 1' in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 7" in text
        assert text.endswith("\n")

    def test_histogram_cumulative_buckets(self):
        from repro.obs import prometheus_text
        reg = MetricsRegistry()
        h = reg.histogram("latency_ms")
        for v in (0, 1, 1, 3, 200):
            h.record(v)
        lines = prometheus_text(reg.to_dict()).splitlines()
        buckets = [ln for ln in lines if ln.startswith("latency_ms_bucket")]
        # Power-of-two bucket i -> cumulative le="2**i - 1".
        assert 'latency_ms_bucket{le="0"} 1' in buckets
        assert 'latency_ms_bucket{le="1"} 3' in buckets
        assert 'latency_ms_bucket{le="3"} 4' in buckets
        assert 'latency_ms_bucket{le="255"} 5' in buckets
        assert buckets[-1] == 'latency_ms_bucket{le="+Inf"} 5'
        # Cumulative counts never decrease.
        counts = [int(b.rsplit(" ", 1)[1]) for b in buckets]
        assert counts == sorted(counts)
        assert "latency_ms_sum 205" in lines
        assert "latency_ms_count 5" in lines

    def test_histogram_with_labels_keeps_le_last_sorted(self):
        from repro.obs import prometheus_text
        reg = MetricsRegistry()
        reg.histogram("wait_ms", mode="shared").record(2)
        text = prometheus_text(reg.to_dict())
        assert 'wait_ms_bucket{le="3",mode="shared"} 1' in text
        assert 'wait_ms_sum{mode="shared"} 2' in text

    def test_label_value_escaping(self):
        from repro.obs import prometheus_text
        reg = MetricsRegistry()
        reg.counter("odd_total", why='say "hi"\\now').inc()
        text = prometheus_text(reg.to_dict())
        assert 'odd_total{why="say \\"hi\\"\\\\now"} 1' in text

    def test_float_formatting(self):
        from repro.obs import prometheus_text
        reg = MetricsRegistry()
        reg.gauge("ratio").set(0.25)
        reg.gauge("whole").set(3.0)
        text = prometheus_text(reg.to_dict())
        assert "ratio 0.25" in text
        assert "whole 3" in text

    def test_registry_convenience_method(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        from repro.obs import prometheus_text
        assert reg.to_prometheus() == prometheus_text(reg.to_dict())

    def test_snapshot_round_trips_through_json(self):
        from repro.obs import prometheus_text
        reg = MetricsRegistry()
        reg.histogram("h", k="v").record(5)
        reg.counter("c").inc(2)
        snap = json.loads(json.dumps(reg.to_dict()))
        assert prometheus_text(snap) == prometheus_text(reg.to_dict())
