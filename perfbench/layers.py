"""Where the traced runs open spans: each layer's public entry points.

Every span is named after the ``repro`` layer it times.  A layer's ledger
line is its self time, so a ``sequences.ngram_store`` call made while
fitting a detector is charged to ``sequences.ngram_store`` and not to
``detectors.fit.<family>``.
"""

from __future__ import annotations

from tracing import Recorder

#: The detector families any workload fits or scores.
FAMILIES = ("lane-brodley", "markov", "stide", "neural-network", "t-stide")


def instrument_paper(recorder: Recorder) -> None:
    """Datagen, sequences, detectors and the sweep (``paper-120k``)."""
    import repro.datagen.suite as suite_module
    import repro.evaluation.experiment as experiment_module
    from repro.datagen.anomalies import AnomalySynthesizer
    from repro.runtime.engine import SweepEngine

    def count_candidates(result, error):
        if error is None:
            recorder.add("datagen.anomalies.candidates", len(result))

    def count_injection(result, error):
        recorder.add("datagen.injection.attempts")
        if error is None:
            recorder.add("datagen.injection.accepted")

    recorder.patch(suite_module, "generate_training_data", "datagen.training")
    recorder.patch(AnomalySynthesizer, "__init__", "datagen.anomalies")
    recorder.patch(
        AnomalySynthesizer, "candidates", "datagen.anomalies", count_candidates
    )
    recorder.patch(AnomalySynthesizer, "synthesize", "datagen.anomalies")
    recorder.patch(
        suite_module, "inject_anomaly", "datagen.injection", count_injection
    )
    instrument_detectors(recorder)
    recorder.patch(experiment_module, "build_performance_map", "evaluation.sweep")
    recorder.patch(SweepEngine, "sweep", "evaluation.sweep")


def instrument_detectors(recorder: Recorder) -> None:
    """N-gram counting plus every family's fit, delta-update and score entry points."""
    from repro.detectors.base import AnomalyDetector
    from repro.detectors.registry import create_detector
    from repro.sequences.ngram_store import NgramStore

    def fit_name(detector, *args, **kwargs):
        return f"detectors.fit.{detector.name}"

    def score_name(detector, *args, **kwargs):
        return f"detectors.score.{detector.name}"

    def update_name(detector, *args, **kwargs):
        return f"detectors.update.{detector.name}"

    recorder.patch(NgramStore, "from_stream", "sequences.ngram_store")
    recorder.patch(AnomalyDetector, "fit_many", fit_name)
    recorder.patch(AnomalyDetector, "score_stream", score_name)
    recorder.patch(AnomalyDetector, "score_windows", score_name)
    for family in FAMILIES:
        cls = type(create_detector(family, 2, 8))
        if "score_packed" in cls.__dict__:
            recorder.patch(cls, "score_packed", score_name)
        if "update_batch" in cls.__dict__:
            recorder.patch(cls, "update_batch", update_name)


def instrument_tenants(recorder: Recorder) -> None:
    """The tenant store and its tiered model store."""
    from repro.runtime.shardstore import ShardedStore
    from repro.serve.tenants import TenantStateStore

    instrument_detectors(recorder)
    recorder.patch(TenantStateStore, "ingest", "serve.tenants.ingest")
    recorder.patch(TenantStateStore, "detector_for", "serve.tenants.detector_for")
    recorder.patch(ShardedStore, "get", "runtime.shardstore.get")
    recorder.patch(ShardedStore, "put", "runtime.shardstore.put")


def instrument_serve(recorder: Recorder) -> None:
    """Everything :func:`instrument_tenants` covers plus fused scoring."""
    from repro.serve.pipeline import ScorePipeline

    instrument_tenants(recorder)
    recorder.patch(ScorePipeline, "score_group", "serve.pipeline.score_group")


def layer_table(ledger: dict) -> dict[str, float]:
    """Per-layer metrics (``<layer>.s`` self seconds, ``<layer>.calls``)."""
    table: dict[str, float] = {}
    for name, row in ledger["layers"].items():
        table[f"{name}.s"] = row["self_s"]
        table[f"{name}.calls"] = row["calls"]
    table["untraced_s"] = ledger["untraced_s"]
    table["trace_coverage"] = ledger["coverage"]
    table["traced_wall_s"] = ledger["wall_s"]
    return table
