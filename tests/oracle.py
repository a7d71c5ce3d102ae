"""The performance-map oracle: the paper's sweep as a plain loop.

For every window length a fresh detector is fitted on the training
stream, then scored on each injected stream with
:func:`~repro.evaluation.scoring.score_injected` — the evaluation of
Sections 5.1-5.2 with nothing added: no window cache, training index,
memoized scoring, store, checkpoint or resume.  Every
:class:`~repro.runtime.SweepEngine` map must equal this loop's cell for
cell, whatever its backend, worker count or cache state.
"""

from __future__ import annotations

from repro.datagen.suite import EvaluationSuite
from repro.detectors.registry import create_detector
from repro.evaluation.performance_map import CellResult, PerformanceMap
from repro.evaluation.scoring import score_injected


def oracle_map(
    name: str, suite: EvaluationSuite, **detector_kwargs: object
) -> PerformanceMap:
    """One family's full-grid map, computed cell by cell."""
    alphabet_size = suite.training.alphabet.size
    cells = {}
    for window_length in suite.window_lengths:
        detector = create_detector(
            name, window_length, alphabet_size, **detector_kwargs
        ).fit(suite.training.stream)
        for anomaly_size in suite.anomaly_sizes:
            cells[(anomaly_size, window_length)] = CellResult(
                anomaly_size=anomaly_size,
                window_length=window_length,
                outcome=score_injected(detector, suite.stream(anomaly_size)),
            )
    return PerformanceMap(detector_name=name, cells=cells)
