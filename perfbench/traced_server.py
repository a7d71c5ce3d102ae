"""Start ``repro serve`` with the benchmark's spans around its layers.

Usage::

    python3 perfbench/traced_server.py SPANS.json serve --state-dir DIR ...

Everything after the spans path is passed to the ``repro`` CLI unchanged.
On SIGTERM the spans, plus the counters and histograms of the server's
telemetry, are written to ``SPANS.json`` and the process exits at once.

The write runs on a thread of its own as soon as SIGTERM arrives, so it
does not depend on the server shutting down cleanly.  The signal handler
only sets an event: it may interrupt the main thread while that thread
holds a lock the write needs.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import instrument_serve  # noqa: E402
from tracing import Recorder  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main
    from repro.runtime.telemetry import Telemetry, activated

    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    instrument_serve(recorder)
    telemetry = Telemetry()
    stop = threading.Event()

    def dump_and_exit() -> None:
        stop.wait()
        recorder.dump(spans_path, metrics=telemetry.metrics.snapshot())
        os._exit(0)

    threading.Thread(target=dump_and_exit, daemon=True).start()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    with activated(telemetry):
        return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
