"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-120k --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
measures the per-layer ledger instead and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is the result as
one JSON object; the exit code is 0 whenever a result was printed, and the
result's ``correct`` flag carries the correctness checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, WORK, Context, Outcome, emit  # noqa: E402


#: Workload name -> the module under ``perfbench/`` and its entry point.
WORKLOADS = {
    "paper-120k": ("paper", "run"),
    "serve-mixed": ("serve", "run_mixed"),
    "serve-fleet": ("serve", "run_fleet"),
}


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def ledger_text(name: str, ledger: dict[str, float]) -> str:
    """The per-layer ledger: span layers by self time, then the rest."""
    layers = sorted(
        (key[: -len(".calls")] for key in ledger if key.endswith(".calls")),
        key=lambda layer: -ledger.get(layer + ".s", 0.0),
    )
    lines = [f"{name} per-layer ledger (self seconds, calls):"]
    for layer in layers:
        lines.append(
            f"  {layer:<38} {ledger.get(layer + '.s', 0.0):10.4f} s "
            f"{int(ledger[layer + '.calls']):8d} calls"
        )
    shown = {f"{layer}.{suffix}" for layer in layers for suffix in ("s", "calls")}
    shown |= {"untraced_s", "trace_coverage"}
    lines.append(f"{name} counts, waits and ratios:")
    for key in sorted(set(ledger) - shown):
        lines.append(f"  {key:<38} {ledger[key]:10.4f}")
    lines.append(f"{name}.untraced_s {ledger.get('untraced_s', 0.0):.4f}")
    lines.append(f"{name}.trace_coverage {ledger.get('trace_coverage', 0.0):.4f}")
    return "\n".join(lines)


def run(name: str, ctx: Context) -> tuple[Outcome, dict[str, str]]:
    """Run one workload; returns its outcome and the metrics it must report."""
    units = metric_units(ctx.trace)
    outcome = Outcome()
    module, entry = WORKLOADS[name]
    getattr(importlib.import_module(module), entry)(ctx, outcome)
    attempted = max(outcome.attempted, 1)
    outcome.set("ok_frac", (attempted - outcome.failed) / attempted)
    if ctx.trace:
        outcome.values = dict(outcome.ledger)
        outcome.lines.append(ledger_text(name, outcome.ledger))
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"trace-{name}-seed{ctx.seed}.json"
        spans_path.write_text(
            json.dumps(
                {"workload": name, "seed": ctx.seed, "ledger": outcome.ledger,
                 "spans": outcome.spans}
            ),
            encoding="utf-8",
        )
        outcome.note(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        missing = sorted(set(units) - set(outcome.values))
        if missing:
            raise RuntimeError(f"{name} reported no {', '.join(missing)}")
    return outcome, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=sorted(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    try:
        outcome, units = run(args.workload, ctx)
    except Exception:
        traceback.print_exc()
        return 1
    emit(outcome, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
