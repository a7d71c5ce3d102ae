"""Shared benchmark fixtures.

Benchmarks run on a corpus with the paper's exact structure at a
configurable scale (``REPRO_BENCH_STREAM_LEN``, default 200,000
elements; set it to 1,000,000 to reproduce at full paper scale).
Passing ``--quick`` shrinks the corpus ~10x for CI smoke runs — same
structure, same assertions, a fraction of the wall clock.

Each benchmark writes its paper-style artifact (the rows/series the
corresponding figure reports) to ``benchmarks/output/`` so that
EXPERIMENTS.md can be assembled from actual runs.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# bench_sweep times the test suite's oracle loop (tests/oracle.py) as its
# sequential baseline, so the repository root must be importable even
# under a bare ``pytest benchmarks/``.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.datagen.suite import EvaluationSuite, build_suite
from repro.datagen.training import TrainingData, generate_training_data
from repro.params import PaperParams, scaled_params
from repro.syscalls import SyscallDataset, build_dataset, sendmail_model

BENCH_STREAM_LEN = int(os.environ.get("REPRO_BENCH_STREAM_LEN", "200000"))
QUICK_STREAM_LEN = 20_000


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="benchmark smoke scale: ~10x smaller corpus, same "
        "structure and assertions (the CI bench-smoke job)",
    )


@pytest.fixture(scope="session")
def quick(request: pytest.FixtureRequest) -> bool:
    """Whether this run is a ``--quick`` smoke pass."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="session")
def params(quick: bool) -> PaperParams:
    """Benchmark-scale parameters with the paper's structure."""
    return scaled_params(QUICK_STREAM_LEN if quick else BENCH_STREAM_LEN)


@pytest.fixture(scope="session")
def training(params: PaperParams) -> TrainingData:
    """The benchmark training corpus."""
    return generate_training_data(params)


@pytest.fixture(scope="session")
def suite(training: TrainingData) -> EvaluationSuite:
    """The full 112-case evaluation suite."""
    return build_suite(training=training)


@pytest.fixture(scope="session")
def syscall_dataset(quick: bool) -> SyscallDataset:
    """UNM-style syscall dataset for the deployment experiments."""
    scale = 0.2 if quick else 1.0
    return build_dataset(
        sendmail_model(),
        training_sessions=max(50, int(300 * scale)),
        test_normal_sessions=max(10, int(40 * scale)),
        test_intrusion_sessions=max(8, int(30 * scale)),
    )
