"""Tests for repro.evaluation.experiment."""

from __future__ import annotations

import pytest

from repro.evaluation.experiment import (
    DEFAULT_DETECTORS,
    ExperimentResult,
    run_paper_experiment,
)
from repro.exceptions import EvaluationError


@pytest.fixture(scope="module")
def small_result(suite):
    """A two-detector experiment over the shared suite (fast)."""
    return run_paper_experiment(suite=suite, detectors=("stide", "lane-brodley"))


class TestRunPaperExperiment:
    def test_maps_keyed_by_detector(self, small_result):
        assert set(small_result.maps) == {"stide", "lane-brodley"}

    def test_map_for(self, small_result):
        assert small_result.map_for("stide").detector_name == "stide"

    def test_map_for_unknown_raises(self, small_result):
        with pytest.raises(EvaluationError, match="available"):
            small_result.map_for("markov")

    def test_suite_attached(self, small_result, suite):
        assert small_result.suite is suite

    def test_empty_detector_list_rejected(self, suite):
        with pytest.raises(EvaluationError, match="at least one"):
            run_paper_experiment(suite=suite, detectors=())

    def test_default_detectors_are_the_figures(self):
        assert DEFAULT_DETECTORS == (
            "lane-brodley",
            "markov",
            "stide",
            "neural-network",
        )

    def test_render_all_contains_every_map(self, small_result):
        text = small_result.render_all()
        assert "Performance map of stide" in text
        assert "Performance map of lane-brodley" in text

    def test_summary_one_line_per_detector(self, small_result):
        lines = small_result.summary().splitlines()
        assert len(lines) == 2

    def test_result_is_frozen(self, small_result, suite):
        with pytest.raises(AttributeError):
            small_result.suite = suite  # type: ignore[misc]

    def test_builds_suite_when_missing(self, params):
        # Exercise the params -> suite path with a cheap detector set.
        result = run_paper_experiment(params=params, detectors=("stide",))
        assert isinstance(result, ExperimentResult)
        assert result.map_for("stide").detection_fraction() == pytest.approx(
            84 / 112
        )


class TestWarmStartOptIn:
    def test_store_and_telemetry_never_change_the_maps(self, tmp_path):
        """Only ``warm_start=True`` warm-starts: a store, or a store plus
        telemetry, leaves every neural-network cell as the plain run's."""
        from repro.datagen.suite import build_suite
        from repro.params import scaled_params
        from repro.runtime import Telemetry

        suite = build_suite(params=scaled_params(12_000, seed=7))
        detectors = ("neural-network",)
        plain = run_paper_experiment(suite=suite, detectors=detectors)
        stored = run_paper_experiment(
            suite=suite, detectors=detectors, store=tmp_path / "a"
        )
        traced = run_paper_experiment(
            suite=suite,
            detectors=detectors,
            store=tmp_path / "b",
            telemetry=Telemetry(),
        )
        expected = list(plain.map_for("neural-network"))
        assert list(stored.map_for("neural-network")) == expected
        assert list(traced.map_for("neural-network")) == expected
