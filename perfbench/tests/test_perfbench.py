"""Fast self-test of the benchmark: every workload at toy scale.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

It checks that each workload reports every metric ``BENCHMARK.json`` names,
with its unit, in both the timed and the traced mode, that every check
passes on a correct program, and that a wrong score or a wrong map is
counted as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from common import SRC, Context, emit  # noqa: E402

sys.path.insert(0, str(SRC))

WORKLOADS = sorted(bench.WORKLOADS)


def toy_run(capsys, workload: str, trace: bool = False, tamper=None) -> dict:
    ctx = Context(seed=3, seconds=1.0, trace=trace, toy=True, tamper=tamper)
    outcome, units = bench.run(workload, ctx)
    capsys.readouterr()
    result = emit(outcome, units)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result
    return result


def expected_units(trace: bool) -> dict[str, str]:
    return bench.metric_units(trace)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(capsys, workload):
    result = toy_run(capsys, workload)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = expected_units(trace=False)
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
    assert result["metrics"]["ok_frac"]["value"] == 1.0


#: Layers each workload must exercise in its traced run.
BUSY_LAYERS = {
    "paper-120k": (
        "datagen.training.s", "datagen.injection.calls",
        "datagen.anomalies.candidates", "sequences.ngram_store.calls",
        "detectors.fit.markov.calls", "detectors.score.stide.calls",
        "evaluation.sweep.s",
    ),
    "serve-mixed": (
        "serve.tenants.ingest.calls", "serve.tenants.detector_for.s",
        "serve.pipeline.score_group.s", "serve.fit",
        "serve.batching.occupancy_mean",
    ),
    "serve-fleet": (
        "serve.tenants.ingest.calls", "serve.tenants.detector_for.s",
        "detectors.update.stide.calls", "runtime.shardstore.get.s",
        "runtime.shardstore.put.s", "runtime.shardstore.hot_hit_ratio",
        "serve.delta.update", "serve.delta.replay",
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_the_ledger(capsys, workload):
    result = toy_run(capsys, workload, trace=True)
    assert result["correct"], result
    units = expected_units(trace=True)
    assert set(result["metrics"]) == set(units)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    for name in BUSY_LAYERS[workload]:
        assert metrics[name] > 0, name
    assert 0 < metrics["trace_coverage"] <= 1
    assert metrics["untraced_s"] >= 0
    assert metrics["serve.fit"] == 0 or workload == "serve-mixed"
    if workload == "paper-120k":
        assert metrics["trace_coverage"] >= 0.95


def test_wrong_map_is_a_failure(capsys):
    def swap(maps):
        maps = dict(maps)
        maps["stide"], maps["markov"] = maps["markov"], maps["stide"]
        return maps

    result = toy_run(capsys, "paper-120k", tamper=swap)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_nondeterministic_map_is_a_failure(capsys):
    # Markov is capable in every cell, like the neural network, so only
    # the digest check can tell the maps apart.
    def replace_network(maps):
        return {**maps, "neural-network": maps["markov"]}

    result = toy_run(capsys, "paper-120k", tamper=replace_network)
    assert not result["correct"]
    assert result["failed"] == 1


def test_wrong_score_is_a_failure(capsys):
    def bump(scores):
        return [scores[0] + 1.0, *scores[1:]]

    result = toy_run(capsys, "serve-mixed", tamper=bump)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-120k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
