"""Chrome trace-event timeline writer.

Accumulates trace events in the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto / ``chrome://tracing`` and exports either the
standard JSON object form (``{"traceEvents": [...]}``) or a compact
JSONL stream (one event per line) for ad-hoc scripting.

Conventions used by the simulator's :class:`~repro.obs.sink.Observer`:

* ``pid`` is the SM id (one "process" lane per SM);
* warp tracks use ``tid`` = the warp's SM-wide ``dynamic_id``;
* auxiliary tracks (locks, memory) get tids assigned from
  :data:`_AUX_TID_BASE` upward via :meth:`Tracer.track`, each with a
  ``thread_name`` metadata record;
* timestamps are simulation *cycles* written into the format's ``ts``
  microsecond field — 1 cycle renders as 1 µs, so "1 ms" in the UI
  reads as 1000 cycles.

The tracer caps the event list at :attr:`Tracer.MAX_EVENTS` (metadata
records are exempt) and counts what it dropped; the cap and drop count
are surfaced in ``otherData`` so a truncated trace is never mistaken for
a complete one.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["Tracer"]

#: First tid handed out to non-warp tracks (warp tids are dynamic_ids,
#: which stay far below this for any simulatable grid).
_AUX_TID_BASE = 1_000_000


class Tracer:
    """Event accumulator + Chrome trace-event JSON / JSONL exporter."""

    #: Events kept; later ones are counted in :attr:`dropped`.
    MAX_EVENTS = 1_000_000

    def __init__(self) -> None:
        self.events: list[dict] = []
        #: Metadata (process_name / thread_name) records, kept apart so
        #: the event cap can never drop track naming.
        self.meta: list[dict] = []
        self.dropped = 0
        self._tracks: dict[tuple[int, str], int] = {}
        self._named_pids: set[int] = set()

    # ------------------------------------------------------------------
    # track management
    # ------------------------------------------------------------------
    def process_name(self, pid: int, name: str) -> None:
        """Name a pid lane (idempotent)."""
        if pid in self._named_pids:
            return
        self._named_pids.add(pid)
        self.meta.append({"ph": "M", "name": "process_name", "pid": pid,
                          "tid": 0, "args": {"name": name}})

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        """Name an explicit (pid, tid) track."""
        self.meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                          "tid": tid, "args": {"name": name}})

    def track(self, pid: int, name: str) -> int:
        """Tid of the named auxiliary track, allocated on first use."""
        key = (pid, name)
        tid = self._tracks.get(key)
        if tid is None:
            tid = _AUX_TID_BASE + len(self._tracks)
            self._tracks[key] = tid
            self.thread_name(pid, tid, name)
        return tid

    # ------------------------------------------------------------------
    # event emission
    # ------------------------------------------------------------------
    def _emit(self, ev: dict) -> None:
        if len(self.events) >= self.MAX_EVENTS:
            self.dropped += 1
            return
        self.events.append(ev)

    def complete(self, pid: int, tid: int, name: str, cat: str,
                 ts: int, dur: int, args: dict | None = None) -> None:
        """A ``ph="X"`` complete event (an interval on one track)."""
        ev = {"ph": "X", "pid": pid, "tid": tid, "name": name,
              "cat": cat, "ts": ts, "dur": dur}
        if args:
            ev["args"] = args
        self._emit(ev)

    def span(self, pid: int, name: str, cat: str, span_id: int,
             ts_begin: int, ts_end: int,
             args: dict | None = None) -> None:
        """An async ``b``/``e`` pair (overlap-safe, e.g. memory loads)."""
        b = {"ph": "b", "pid": pid, "tid": 0, "name": name, "cat": cat,
             "id": span_id, "ts": ts_begin}
        e = {"ph": "e", "pid": pid, "tid": 0, "name": name, "cat": cat,
             "id": span_id, "ts": ts_end}
        if args:
            b["args"] = args
        self._emit(b)
        self._emit(e)

    def instant(self, pid: int, tid: int, name: str, cat: str,
                ts: int, args: dict | None = None) -> None:
        """A ``ph="i"`` instant event (thread-scoped)."""
        ev = {"ph": "i", "pid": pid, "tid": tid, "name": name,
              "cat": cat, "ts": ts, "s": "t"}
        if args:
            ev["args"] = args
        self._emit(ev)

    def counter(self, pid: int, name: str, ts: int,
                values: dict[str, float]) -> None:
        """A ``ph="C"`` counter sample (rendered as a chart lane)."""
        self._emit({"ph": "C", "pid": pid, "tid": 0, "name": name,
                    "cat": "counter", "ts": ts, "args": dict(values)})

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome(self, other: dict | None = None) -> dict:
        """The standard JSON-object trace container."""
        data = {"truncated": self.dropped > 0,
                "eventsDropped": self.dropped,
                "maxEvents": self.MAX_EVENTS,
                "clockDomain": "simulation cycles (1 cycle = 1us)"}
        if other:
            data.update(other)
        return {"traceEvents": self.meta + self.events,
                "displayTimeUnit": "ms",
                "otherData": data}

    def write(self, path: str | Path, other: dict | None = None) -> Path:
        """Write the trace; ``*.jsonl`` selects the line-stream form.

        Chrome/Perfetto load the ``.json`` object form directly; the
        JSONL form is one event object per line for ``jq``/pandas-style
        post-processing (see docs/observability.md).
        """
        path = Path(path)
        if path.suffix == ".jsonl":
            with path.open("w") as f:
                for ev in self.meta:
                    f.write(json.dumps(ev, separators=(",", ":")) + "\n")
                for ev in self.events:
                    f.write(json.dumps(ev, separators=(",", ":")) + "\n")
        else:
            with path.open("w") as f:
                json.dump(self.to_chrome(other), f,
                          separators=(",", ":"))
        return path
