"""Same-seed fault-laden runs must be bit-for-bit reproducible.

Fault injection adds three new RNG consumers (wire impairments, restart
backoff jitter, plan scheduling); this regression test pins the property
that two identically seeded experiment runs produce identical captures,
identical fault traces, and identical detection reports.
"""

import pytest

from repro.testbed import (
    Scenario,
    default_model_specs,
    run_fault_experiment,
    run_full_experiment,
)


def _run():
    scenario = Scenario(n_devices=2, seed=13)
    specs = [s for s in default_model_specs(scenario.seed) if s.name == "RF"]
    return run_fault_experiment(
        scenario, train_duration=30.0, detect_duration=15.0, specs=specs
    )


@pytest.fixture(scope="module")
def runs():
    return _run(), _run()


def test_captures_are_identical(runs):
    first, second = runs
    assert first.train_summary == second.train_summary
    assert first.detect_summary == second.detect_summary


def test_fault_traces_are_identical(runs):
    first, second = runs
    assert first.events == second.events
    assert first.restarts == second.restarts


def test_detection_reports_are_identical(runs):
    first, second = runs
    assert len(first.detection) == len(second.detection)
    for a, b in zip(first.detection, second.detection):
        assert a.windows == b.windows
        assert a.mean_accuracy == b.mean_accuracy
        assert a.fault_breakdown() == b.fault_breakdown()


def test_fault_run_exercised_every_path(runs):
    first, _ = runs
    report = first.detection[0]
    assert first.restarts  # the killed container came back
    kinds = {e.kind for e in first.events}
    assert kinds >= {"supervisor.kill", "supervisor.exit", "supervisor.backoff", "supervisor.restart"}
    assert report.n_degraded > 0
    assert report.healthy_windows


def test_scenario_plan_degrades_the_same_windows_from_either_entry_point():
    """A scenario's own fault plan arms every capture, so the detect
    stage must score its degraded windows whether the run entered
    through ``run_full_experiment`` or ``run_fault_experiment``."""
    plan = Scenario(n_devices=3, seed=11).default_fault_schedule(12.0)
    scenario = Scenario(n_devices=3, seed=11, fault_plan=plan)
    specs = [s for s in default_model_specs(scenario.seed) if s.name == "K-Means"]
    full, faulted = (
        run(scenario, train_duration=25.0, detect_duration=12.0, specs=specs)
        for run in (run_full_experiment, run_fault_experiment)
    )

    def degraded(result):
        return [w.window_index for w in result.detection[0].windows if w.is_degraded]

    assert degraded(full)
    assert degraded(full) == degraded(faulted)
    assert full.fingerprint() == faulted.fingerprint()
