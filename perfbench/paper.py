"""Workload ``paper-120k``: the paper pipeline, as ``repro maps`` runs it.

One operation is one ``run_paper_experiment(params=scaled_params(120_000,
seed))`` call with the four default detectors: training-stream synthesis,
MFS synthesis and clean injection for every anomaly size (the suite), then
the 112-cell sweep of every detector.  ``repro maps`` with no flags makes
exactly this call.  Every call must pass the paper's invariants.

Each run makes two calls with the same seed (more while ``--seconds`` have
not passed, which one call already outlasts), and every call must give the
first call's map digest.  Timed run: every call untraced.  Traced run: the
first call untraced, the second traced; the difference of their wall times
is the tracing overhead.
"""

from __future__ import annotations

import time

from common import Context, Outcome, import_seconds, latency_metrics, self_peak_rss_mb
from layers import instrument_paper, layer_table
from tracing import Recorder, as_dicts, ledger

STREAM_LEN = 120_000
TOY_STREAM_LEN = 12_000


def check_maps(maps: dict, anomaly_sizes, window_sizes) -> list[str]:
    """The paper's invariants; returns one message per violation."""
    from repro.evaluation.experiment import DEFAULT_DETECTORS

    problems = []
    if sorted(maps) != sorted(DEFAULT_DETECTORS):
        return [f"maps for {sorted(maps)}, expected {sorted(DEFAULT_DETECTORS)}"]
    grid = {(a, w) for a in anomaly_sizes for w in window_sizes}
    expected = {
        "stide": {(a, w) for a, w in grid if w >= a},
        "markov": grid,
        "lane-brodley": set(),
    }
    for name, capable in expected.items():
        got = set(maps[name].capable_cells())
        if len(maps[name]) != len(grid) or got != capable:
            problems.append(
                f"{name}: {len(got)} capable of {len(maps[name])} cells, "
                f"expected {len(capable)} of {len(grid)}"
            )
    return problems


def maps_digest(maps: dict) -> str:
    from repro.plans.runner import payload_digest, sweep_payload

    return payload_digest(sweep_payload(maps))


def run(ctx: Context, outcome: Outcome) -> None:
    outcome.set("setup_s", import_seconds("repro.evaluation.experiment"))
    from repro.evaluation.experiment import DEFAULT_DETECTORS, run_paper_experiment
    from repro.params import scaled_params

    params = scaled_params(TOY_STREAM_LEN if ctx.toy else STREAM_LEN, seed=ctx.seed)
    outcome.note(
        f"paper-120k: stream {params.training_length}, seed {params.seed}, "
        f"{len(params.anomaly_sizes)}x{len(params.window_sizes)} cells, "
        f"detectors {', '.join(DEFAULT_DETECTORS)}"
    )
    recorder = Recorder() if ctx.trace else None
    walls: list[float] = []
    digests: list[str] = []
    traced_window = (0.0, 0.0)
    started = time.perf_counter()
    while len(walls) < 2 or (
        not ctx.trace and time.perf_counter() - started < ctx.seconds
    ):
        traced = recorder is not None and len(walls) == 1
        if traced:
            instrument_paper(recorder)
        call_started = time.perf_counter()
        try:
            result = run_paper_experiment(params=params, detectors=list(DEFAULT_DETECTORS))
        finally:
            call_ended = time.perf_counter()
            if traced:
                recorder.restore()
                traced_window = (call_started, call_ended)
        walls.append(call_ended - call_started)
        outcome.attempted += 1
        maps = dict(result.maps)
        if ctx.tamper is not None and len(walls) == 2:
            maps = ctx.tamper(maps)
        problems = check_maps(maps, params.anomaly_sizes, params.window_sizes)
        digests.append(maps_digest(maps))
        if digests[-1] != digests[0]:
            problems.append(f"map digest {digests[-1]} != first call's {digests[0]}")
        if problems:
            outcome.fail(f"call {len(walls)}: " + "; ".join(problems))
    outcome.set("peak_rss_mb", self_peak_rss_mb())
    latency_metrics(outcome, "paper-120k calls", walls, sum(walls))
    outcome.note(
        "paper-120k call wall times: " + ", ".join(f"{w:.3f} s" for w in walls)
    )
    if recorder is None:
        return
    spans = as_dicts(recorder)
    table = layer_table(ledger(spans, *traced_window))
    attempts = recorder.counts.get("datagen.injection.attempts", 0)
    table["datagen.anomalies.candidates"] = recorder.counts.get(
        "datagen.anomalies.candidates", 0
    )
    table["datagen.injection.accept_ratio"] = (
        recorder.counts.get("datagen.injection.accepted", 0) / attempts
        if attempts
        else 0.0
    )
    table["trace_overhead_s"] = walls[1] - walls[0]
    outcome.ledger = table
    outcome.spans = spans
