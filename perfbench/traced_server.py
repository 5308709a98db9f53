"""Run ``repro serve`` under the layer probes of ``probes.py``.

Usage: ``python perfbench/traced_server.py DUMP.json serve [options]``.
When the server has drained and stopped, the merged probe aggregates
and every engine's ``EngineStats`` are written to ``DUMP.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.__main__ import main
from repro.harness.engine import Engine

from probes import Recorder


def traced_main(dump: str, argv: list[str]) -> int:
    engines: list[Engine] = []
    init = Engine.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    Engine.__init__ = tracking_init
    rec = Recorder()
    rec.install()
    try:
        return main(argv)
    finally:
        rec.uninstall()
        Engine.__init__ = init
        snap = rec.snapshot()
        snap["engines"] = [dict(e.stats.__dict__) for e in engines]
        Path(dump).write_text(json.dumps(snap))


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
