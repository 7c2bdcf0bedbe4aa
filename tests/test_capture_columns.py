"""The capture's stored form, end to end: columns from the tap to the models.

Three contracts:

* the bytes of short testbed captures are pinned (``capture.csv``
  sha256 plus its ``DatasetSummary``): a two-device SYN burst, the
  segmented urban smoke recipe whose floods cross routers and reach
  every transport demux path (ACK and RST storms, SYNs past a full
  backlog), and ``paper-baseline`` with all three floods under the
  stock fault plan, so a change to how captures are stored, framed or
  demultiplexed cannot silently change what they hold;
* ``Testbed.capture`` → ``summary()``/``to_batch()`` → ``train_models``
  runs on columns only — no :class:`PacketRecord` row is built — and so
  does the real-time IDS, live on the testbed tap and offline in
  ``run_realtime_detection``;
* the bytes of every 1 s window's statistics row are pinned on two
  captures, so a statistics kernel that moved one rounding would fail
  here even where the 1e-9 oracle comparison passes.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.capture import DatasetSummary, synthetic_capture
from repro.features import FeatureExtractor, compute_window_statistics
from repro.ids import MitigationPlan
from repro.sim.tracing import PacketRecord
from repro.testbed import Scenario, Testbed
from repro.testbed.catalog import get_scenario
from repro.testbed.experiment import (
    default_model_specs,
    run_realtime_detection,
    train_models,
)
from repro.testbed.scenario import AttackPhase

#: (capture.csv sha256, summary) of :func:`short_capture`.
PINNED = (
    "e68800eadfd23e8581d0fbed55e0f53ccfa1c5a0b6f11ca866f3fedd7d2e247f",
    DatasetSummary(
        total=1236,
        malicious=804,
        benign=432,
        by_attack={"c2": 4, "syn_flood": 800},
        duration=11.834492161720597,
    ),
)


#: The two-device scenario of :func:`short_capture`.
SHORT = Scenario(n_devices=2, seed=7)

#: Runs a test on :data:`SHORT`; the id names the data plane, on which
#: every frame moves as one packet.
on_short_scenario = pytest.mark.parametrize("scenario", [SHORT], ids=["scalar"])


def short_capture(scenario=SHORT):
    """12 s of a two-device testbed with one 2 s SYN flood burst."""
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    flood = AttackPhase(start=4.0, kind="syn", duration=2.0, pps_per_bot=200.0)
    return testbed.capture(12.0, [flood])


@on_short_scenario
def test_capture_bytes_pinned(scenario, tmp_path):
    dataset = short_capture(scenario)
    path = dataset.save(tmp_path / "capture.csv")
    digest, summary = PINNED
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert dataset.summary() == summary


#: ``urban-smoke`` at seed 7, a 4 s ``training_schedule`` capture.
URBAN_SMOKE = (
    "1e23e447839492ffbd7329953e6d13367ff5b44af12bfbb5b34b974ae434befd",
    DatasetSummary(
        total=12608,
        malicious=9114,
        benign=3494,
        by_attack={"c2": 72, "syn_flood": 3024, "ack_flood": 3018, "udp_flood": 3000},
        duration=3.9906884215674445,
    ),
)


@pytest.fixture(scope="module")
def urban_smoke_capture():
    scenario = get_scenario("urban-smoke", seed=7)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    return testbed.capture(4.0, scenario.training_schedule(4.0))


def test_segmented_capture_pinned(urban_smoke_capture, tmp_path):
    dataset = urban_smoke_capture
    path = dataset.save(tmp_path / "capture.csv")
    digest, summary = URBAN_SMOKE
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert dataset.summary() == summary


#: ``paper-baseline`` at seed 7, a 12 s
#: ``training_schedule`` capture under ``default_fault_schedule(12.0)``.
PAPER_UNDER_FAULTS = (
    "7712bd443edfecffbc99abf5f47bf552b64df69faa12a505dcc5756ab2afca80",
    DatasetSummary(
        total=11996,
        malicious=8588,
        benign=3408,
        by_attack={"c2": 46, "syn_flood": 2855, "ack_flood": 2687, "udp_flood": 3000},
        duration=11.870452308781307,
    ),
)


def test_scalar_capture_under_faults_pinned(tmp_path):
    """All three floods while the fault plan drops
    frames on every link, partitions a device and kills one that restarts:
    the ACK-flood RST storm, the UDP flood and the fault injector's
    per-frame path, pinned together."""
    scenario = get_scenario("paper-baseline", seed=7)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    dataset = testbed.capture(
        12.0,
        scenario.training_schedule(12.0),
        fault_plan=scenario.default_fault_schedule(12.0),
    )
    path = dataset.save(tmp_path / "capture.csv")
    digest, summary = PAPER_UNDER_FAULTS
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert dataset.summary() == summary
    # The paths this pin stands for ran: frames lost on the wire, one RST
    # per ACK-flood segment, and the killed device restarted once.
    assert testbed.fault_injector.frames_lost == 263
    assert testbed.tserver.node.tcp.rst_sent == summary.by_attack["ack_flood"]
    assert testbed.orchestrator.containers["dev-5"].restart_count == 1


#: sha256 over ``compute_window_statistics(w).to_array().tobytes()`` of
#: every 1 s window, in window order.  The synthetic capture has no
#: short-lived connection; the urban one has some, and all three floods.
WINDOW_STATISTICS = {
    "synthetic": "42a86887e791706abcbf2166de6cb828a5f1ea1009337d0dcfdf385fedf432c4",
    "urban-smoke": "d5edb8898eeea8e4628460c4d124302271bdfc592847d15fc0ed9f56cdba9604",
}


def window_statistics_digest(dataset) -> str:
    digest = hashlib.sha256()
    for _, window in dataset.to_batch().window_slices(1.0):
        digest.update(compute_window_statistics(window).to_array().tobytes())
    return digest.hexdigest()


def test_window_statistics_pinned(urban_smoke_capture):
    synthetic = synthetic_capture(3_000, duration=10.0, seed=11)
    assert window_statistics_digest(synthetic) == WINDOW_STATISTICS["synthetic"]
    assert window_statistics_digest(urban_smoke_capture) == WINDOW_STATISTICS["urban-smoke"]


@on_short_scenario
def test_summary_fields_are_python_scalars(scenario):
    # ExperimentResult.fingerprint() hashes their repr: a NumPy scalar
    # would print as np.float64(...) and change every fingerprint.
    summary = short_capture(scenario).summary()
    assert type(summary.total) is int
    assert type(summary.malicious) is int
    assert type(summary.benign) is int
    assert type(summary.duration) is float
    assert all(type(count) is int for count in summary.by_attack.values())


def forbid_rows(monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("a PacketRecord row was built")

    monkeypatch.setattr(PacketRecord, "__new__", no_rows)
    monkeypatch.setattr(PacketRecord, "_make", classmethod(no_rows))


def test_capture_to_training_builds_no_rows(monkeypatch):
    forbid_rows(monkeypatch)
    dataset = short_capture()
    assert dataset.summary().malicious > 0
    assert len(dataset.to_batch()) == dataset.summary().total
    specs = [spec for spec in default_model_specs(0) if spec.name in ("RF", "K-Means")]
    trained = train_models(dataset, specs)
    assert [item.name for item in trained] == ["RF", "K-Means"]


class FlagSynPorts:
    """Toy model: flags packets to port 80 (features: ts, proto, sport, dport)."""

    def predict(self, X):
        return (X[:, 3] == 80).astype(int)


class _Unscaled:
    def transform(self, X):
        return X


@on_short_scenario
def test_ids_builds_no_rows(scenario, monkeypatch):
    forbid_rows(monkeypatch)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    toy = SimpleNamespace(
        name="toy", model=FlagSynPorts(), extractor=FeatureExtractor(), scaler=_Unscaled()
    )
    controller = testbed.install_mitigation(MitigationPlan(model="toy", mode="monitor"), toy)
    flood = AttackPhase(start=4.0, kind="syn", duration=2.0, pps_per_bot=200.0)
    capture = testbed.capture(12.0, [flood])
    testbed.uninstall_mitigation()
    assert any(event.action == "verdict" for event in controller.events)
    [offline] = run_realtime_detection(capture, [toy])
    assert offline.n_windows >= 10
    assert sum(w.n_packets for w in offline.windows) == len(capture)
    # The live tap saw the frames the capture probe saw, in time order.
    assert controller.ids.records_reordered == controller.ids.records_dropped_late == 0
    assert controller.ids.report.windows[: offline.n_windows] == offline.windows
