"""Shared pieces of the benchmark: the run context, statistics and output."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server state, model stores and span files.  It is
#: inside the checkout and ignored by git.
WORK = ROOT / ".perfbench"


@dataclass
class Context:
    """What one benchmark run was asked to do.

    ``toy`` shrinks every size so the self-test runs in seconds;
    ``tamper`` lets the self-test corrupt an output before it is checked.
    """

    seed: int
    seconds: float
    trace: bool
    toy: bool = False
    tamper: object = None


@dataclass
class Outcome:
    """One run's counts, metrics and human-readable report lines."""

    attempted: int = 0
    failed: int = 0
    values: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Traced runs only: per-layer metric values and the spans behind them.
    ledger: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        """Count ``ops`` failed operations and keep the first messages."""
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(message)

    def set(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def note(self, line: str) -> None:
        self.lines.append(line)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def self_peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def pin_to_one_cpu() -> int:
    """Keep this thread, and every thread and process it starts, on one CPU.

    The serve workloads hand each request from the load generator to the
    server and back.  Spread over two virtual CPUs, every hand-off can wake
    an idle one, and on a busy host that wake-up waits for the hypervisor
    and took longer than the request itself.  On one CPU the hand-off is a
    local switch.  Returns the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict[str, str]:
    """Environment for subprocesses that import ``repro`` from ``src``.

    ``REPRO_STREAM_LEN`` is removed: every workload passes its sizes
    explicitly, and no child may pick up a different default.
    """
    env = dict(os.environ)
    env.pop("REPRO_STREAM_LEN", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(module: str, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter importing ``module``."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def tail_percentile(count: int) -> float:
    """p90 when ten samples lie beyond it, else the median.

    A percentile with fewer samples beyond it is set by a handful of ops.
    p99 is not used: on a shared host it is set by the host's own stalls,
    which come and go from one run to the next.
    """
    return 90.0 if count - math.ceil(count * 0.9) >= 10 else 50.0


def latency_metrics(
    outcome: Outcome, label: str, latencies_s: list[float], wall_s: float
) -> None:
    """Set ``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` from one window."""
    count = len(latencies_s)
    tail = tail_percentile(count)
    outcome.set("ops_per_s", count / wall_s)
    outcome.set("op_p50_ms", percentile(latencies_s, 50) * 1e3)
    outcome.set("op_tail_ms", percentile(latencies_s, tail) * 1e3)
    outcome.note(
        f"{label}: {count} samples in {wall_s:.3f} s; op_tail_ms is p{tail:g}, "
        f"{count - math.ceil(count * tail / 100)} samples beyond it"
    )
    if count - math.ceil(count * 0.99) >= 10:
        outcome.note(f"{label}: p99 {percentile(latencies_s, 99) * 1e3:.3f} ms (not gated)")


def emit(outcome: Outcome, units: dict[str, str]) -> dict:
    """Print the report lines, then the result as the last stdout line.

    ``units`` names every metric the run must report, with its unit.  A
    per-layer metric the workload never touched reads 0; a missing
    end-to-end metric is an error the caller raises before this.
    """
    for line in outcome.lines:
        print(line)
    for error in outcome.errors:
        print(f"FAILED: {error}")
    result = {
        "correct": outcome.failed == 0 and not outcome.errors,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return result
