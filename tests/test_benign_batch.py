"""Determinism and accounting of the benign plane, held to the figures of
the retired batching modes.

The full experiment pipeline used to run with floods and/or benign
device traffic batched into packet trains (``batch_floods`` /
``batch_benign``).  Those modes are gone: every frame moves on its own.
What they produced on the scenarios below is pinned here, and the one
remaining plane is held to the honest equivalence contract they kept
with it:

* it is **deterministic**: the same scenario + seed reproduces a
  bit-identical :meth:`ExperimentResult.fingerprint`;
* the **malicious composition** (attack packet counts, per-attack
  breakdown) is the one every mode produced — batching never added,
  dropped or relabelled an attack packet;
* the *entire* dataset composition is the one batched floods produced
  bit-for-bit — flood trains were open-loop, so there was no feedback
  path for batching to perturb;
* benign volume is within a small tolerance of batched benign traffic.
  Benign TCP is a feedback loop: trains held the medium so ACKs rode
  behind the data instead of interleaving, which nudged frame
  timestamps and let a handful of frames near a capture-window boundary
  hop windows;
* the victim's books count every delivered packet once, and carry the
  goodput, handshakes and flood volume the batched run did.
"""

import pytest

from repro.testbed import Scenario, Testbed, attach_victim_monitor
from repro.testbed.experiment import run_full_experiment

_BASE = Scenario(n_devices=3, seed=11)

#: Malicious packets and per-attack counts of the train and detect
#: captures of ``_BASE`` (20 s / 10 s); identical in all four modes.
MALICIOUS = {
    "train_summary": (
        4521,
        {"c2": 21, "syn_flood": 1500, "ack_flood": 1500, "udp_flood": 1500},
    ),
    "detect_summary": (
        831,
        {"c2": 30, "syn_flood": 267, "ack_flood": 267, "udp_flood": 267},
    ),
}

#: ``(total, malicious, benign, by_attack)`` with batched floods.
BATCH_FLOODS_COMPOSITION = {
    "train_summary": (6666, 4521, 2145, MALICIOUS["train_summary"][1]),
    "detect_summary": (2304, 831, 1473, MALICIOUS["detect_summary"][1]),
}

#: Benign packets with batched benign traffic.
BATCH_BENIGN_VOLUME = {"train_summary": 2155, "detect_summary": 1467}

#: Table I rows, in order, of every mode.
MODELS = ("RF", "K-Means", "CNN")


def _run():
    return run_full_experiment(_BASE, train_duration=20.0, detect_duration=10.0)


def _composition(summary):
    return (summary.total, summary.malicious, summary.benign, dict(summary.by_attack))


def _malicious_only(summary):
    return (summary.malicious, dict(summary.by_attack))


@pytest.fixture(scope="module")
def result():
    return _run()


class TestPerModeDeterminism:
    def test_scalar_fingerprint_reproducible(self, result):
        again = _run()
        assert again.fingerprint() == result.fingerprint()
        assert again.table1() == result.table1()


class TestCrossModeInvariants:
    def test_malicious_composition_identical_across_modes(self, result):
        for phase, expected in MALICIOUS.items():
            assert _malicious_only(getattr(result, phase)) == expected, phase

    def test_batch_floods_toggle_preserves_dataset_composition(self, result):
        for phase, expected in BATCH_FLOODS_COMPOSITION.items():
            assert _composition(getattr(result, phase)) == expected, phase

    def test_benign_volume_stable_across_benign_batching(self, result):
        for phase, batched in BATCH_BENIGN_VOLUME.items():
            benign = getattr(result, phase).benign
            assert benign > 0
            assert abs(benign - batched) / benign < 0.01, (phase, benign, batched)

    def test_all_modes_report_same_models(self, result):
        assert tuple(model for model, _ in result.table1()) == MODELS


class TestVictimAccountingParity:
    """Deliveries hit the victim's books once per packet.

    A :class:`~repro.testbed.impact.VictimMonitor` watches the TServer
    while benign sessions run and a UDP flood lands.  Every accounting
    total the defense benchmarks consume must reconcile with the node's
    own counters and match what the batched run recorded.
    """

    #: The batched run's totals (floods and benign traffic as trains).
    BATCHED = {
        "goodput": 537074,
        "accepted": 7,
        "udp_unreachable": 900,
        "rx_packets": 1380,
    }

    @pytest.fixture(scope="class")
    def totals(self):
        built = Testbed(Scenario(n_devices=3, seed=41)).build()
        built.infect_all()
        monitor = attach_victim_monitor(built.tserver)
        base_rx = built.tserver.node.packets_received
        start = built.sim.now
        built.sim.run(until=start + 4.0)  # benign warm-up + bot registration
        built.cnc.launch_attack(
            "udp", built.tserver.node.address, 80, duration=3.0, pps=100
        )
        built.sim.run(until=start + 12.0)
        monitor.stop()
        interval = monitor.interval
        samples = monitor.series.samples
        return {
            "rx_packets": round(sum(s.rx_packets * interval for s in samples)),
            "rx_bytes": round(sum(s.rx_bytes * interval for s in samples)),
            "goodput": round(sum(s.goodput_bytes * interval for s in samples)),
            "accepted": samples[-1].accepted,
            "udp_unreachable": samples[-1].udp_unreachable,
            "rx_delta": built.tserver.node.packets_received - base_rx,
            "tap_bytes": round(monitor._rx_bytes_total),
        }

    def test_monitor_reconciles_with_node_counters(self, totals):
        # If a frame were counted twice (or not at all), the per-sample
        # rates would no longer integrate back to the node's cumulative
        # counters.
        assert totals["rx_packets"] == totals["rx_delta"]
        assert totals["rx_bytes"] == totals["tap_bytes"]

    def test_goodput_identical_scalar_vs_batch(self, totals):
        assert totals["goodput"] == self.BATCHED["goodput"]
        assert totals["accepted"] == self.BATCHED["accepted"]

    def test_flood_accounting_identical_scalar_vs_batch(self, totals):
        # Open-loop flood: the unanswerable datagram count is exact —
        # 3 bots x 100 pps x 3 s.
        assert totals["udp_unreachable"] == self.BATCHED["udp_unreachable"] == 900

    def test_rx_volume_stable_scalar_vs_batch(self, totals):
        # Frame totals at a fixed time cutoff may differ by the handful
        # of benign frames in flight (trains shifted timestamps), but
        # the volume must agree to well under a percent.
        a, b = totals["rx_packets"], self.BATCHED["rx_packets"]
        assert abs(a - b) / a < 0.01, (a, b)
