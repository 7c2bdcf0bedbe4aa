"""Shared fixtures for the benchmark harness.

The expensive artefacts — the training capture, the trained models, the
detection capture and its reports — come from one run of the staged
experiment pipeline per session, shared by every bench.  Each bench
times its own piece with ``pytest-benchmark`` and writes the regenerated
table/figure rows to ``benchmarks/results/`` so the paper-vs-measured
comparison survives the run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.pipeline import run_experiment_pipeline
from repro.testbed import Scenario

RESULTS_DIR = Path(__file__).parent / "results"

#: The standard scaled-down analogue of the paper's runs: the paper used
#: a 10-minute dataset run and a 5-minute detection run at hardware
#: packet rates; we keep the 2:1 ratio at simulator scale.
TRAIN_DURATION = 60.0
DETECT_DURATION = 30.0


def write_result(name: str, lines: list[str]) -> None:
    """Persist a bench's regenerated table so it outlives the run."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n")
    # Also echo to stdout for interactive runs with -s.
    print("\n".join(lines))


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    return Scenario(n_devices=6, seed=7)


@pytest.fixture(scope="session")
def pipeline_run(scenario):
    """build → capture-train → train-models → capture-detect → detect."""
    _, outcome = run_experiment_pipeline(scenario, TRAIN_DURATION, DETECT_DURATION)
    return outcome


@pytest.fixture(scope="session")
def train_capture(pipeline_run):
    return pipeline_run.value("capture-train").dataset


@pytest.fixture(scope="session")
def trained_models(pipeline_run):
    return pipeline_run.value("train-models")


@pytest.fixture(scope="session")
def detect_capture(pipeline_run):
    return pipeline_run.value("capture-detect").dataset


@pytest.fixture(scope="session")
def detection_reports(pipeline_run):
    return pipeline_run.value("detect")
