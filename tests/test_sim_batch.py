"""Batch-dispatch kernel tests: bucket ordering, anchoring, cancellation,
flood captures and the segmented topology.

The kernel dispatches one event at a time, in ``(time, priority, seq)``
order, also within an equal-``(time, priority)`` bucket.  These tests
pin the orders, tick instants and counts it must keep, and
the captures and verdicts that floods sent as packet trains (the train
plane, since deleted) produced: every frame now moves on its own, and
it must keep producing them.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.botnet.attacks import make_attack
from repro.capture import DatasetSummary
from repro.sim import CsmaLan, PacketProbe, SegmentedLan, Simulator
from repro.testbed import AttackPhase, Scenario, Testbed

# ----------------------------------------------------------------------
# Kernel ordering


@settings(max_examples=30, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),  # coarse grid → buckets
            st.sampled_from([0, 1]),  # priority
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_batch_scheduling_preserves_scalar_order(jobs):
    """Events run in ``(time, priority, seq)`` order.

    Delays are drawn from a coarse grid so many events share a (time,
    priority) bucket, not just lone events.
    """
    sim = Simulator()
    order = []
    for i, (delay, priority) in enumerate(jobs):
        sim.schedule(delay, order.append, i, priority=priority)
    sim.run()
    expected = [i for i, _ in sorted(enumerate(jobs), key=lambda job: (*job[1], job[0]))]
    assert order == expected


def test_events_scheduled_during_bucket_run_after_it():
    """Events spawned inside a bucket callback land behind the bucket."""
    sim = Simulator()
    order = []

    def spawner(tag):
        order.append(tag)
        if tag == "first":
            # Same timestamp as the bucket being run.
            sim.schedule(0.0, order.append, "spawned")

    sim.schedule(1.0, spawner, "first")
    sim.schedule(1.0, spawner, "second")
    sim.run()
    assert order == ["first", "second", "spawned"]


# ----------------------------------------------------------------------
# Anchored periodic scheduling


def test_periodic_ticks_stay_on_exact_multiples_for_10k_ticks():
    """10k anchored ticks land bit-exactly on t0 + k*interval (no drift).

    The drifting form (``schedule(interval, ...)`` from the callback)
    accumulates one ulp every few thousand ticks; the anchored scheduler
    must not.
    """
    sim = Simulator()
    interval = 0.1
    times = []
    handle = sim.schedule_periodic(interval, lambda: times.append(sim.now))
    sim.run(until=1000.0)
    assert handle.ticks == 10_000
    assert len(times) == 10_000
    expected = [(k + 1) * interval for k in range(10_000)]
    assert times == expected  # bit-equality, not approx


def test_periodic_anchor_uses_explicit_t0():
    """An explicit t0 anchors ticks to t0 + k*interval, not to now."""
    sim = Simulator()
    times = []
    sim.schedule(5.0, lambda: None)
    sim.run(until=5.0)
    handle = sim.schedule_periodic(0.25, lambda: times.append(sim.now), t0=5.5)
    sim.run(until=7.0)
    handle.cancel()
    assert times == [5.5 + k * 0.25 for k in range(1, 7)]


# ----------------------------------------------------------------------
# Cancellation ledger


def test_cancel_ledger_is_exact_after_run():
    """Every cancelled-in-heap event is accounted; ledger drains to zero."""
    sim = Simulator()
    ran = []
    events = [sim.schedule(float(i % 7), ran.append, i) for i in range(100)]
    for event in events[::2]:
        event.cancel()
    # Cancelling twice must not double-count the ledger.
    events[0].cancel()
    assert sim._cancelled_in_heap + len(sim._heap) >= 50
    sim.run()
    assert sim._cancelled_in_heap == 0
    assert sorted(ran) == list(range(1, 100, 2))
    assert sim.pending_events == 0


def test_cancel_compaction_keeps_order_and_count():
    """A mid-schedule compaction sweep loses no live events."""
    sim = Simulator()
    ran = []
    live = [sim.schedule(10.0 + i, ran.append, i) for i in range(20)]
    doomed = [sim.schedule(500.0 + i, ran.append, 1000 + i) for i in range(200)]
    for event in doomed:
        event.cancel()
    assert sim.heap_compactions >= 1  # sweep triggered by the ledger
    # The ledger stays exact through sweeps: live events all still pending.
    assert sim.pending_events == len(live)
    sim.run()
    assert sim._cancelled_in_heap == 0
    assert ran == list(range(20))


# ----------------------------------------------------------------------
# Flood-path equivalence: per-frame floods vs the train plane's captures


def _digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


def _flood_capture(attack_kind, n_nodes=4, pps=2000.0, duration=0.1):
    sim = Simulator()
    lan = CsmaLan(sim)
    victim = lan.add_host("tserver")
    victim.tcp.seed(99)
    victim.tcp.listen(80, on_accept=lambda sock: None)
    probe = lan.add_probe(PacketProbe())
    modules = []
    for i in range(n_nodes):
        node = lan.add_host(f"dev-{i}")
        modules.append(
            make_attack(
                attack_kind, node, sim, victim.address, 80,
                pps, duration, seed=1000 + i,
            )
        )
    for module in modules:
        sim.schedule(0.0, module.start)
    sim.run(until=duration + 1.0)
    return probe.records, sum(m.packets_sent for m in modules)


def _frame_population(records):
    """Capture content modulo wire interleaving (timestamps dropped)."""
    return Counter(
        (r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.seq, r.size,
         r.tcp_flags, r.label, r.attack)
        for r in records
    )


def _population_digest(records):
    return _digest(sorted(_frame_population(records).items(), key=repr))


#: sha256 of the rows of :func:`_flood_capture` with one sender, as the
#: train plane captured them (bit-identical to per-frame floods then).
TRAIN_SINGLE_SENDER_RECORDS = {
    "syn": "c470e37da7e3e05b30481847f0f6bf8461529528fdffa7bca106d0c9abfd1a1c",
    "udp": "d695e65d1181a5c34a0463b1ddfd2c5bebbf5a8a1ad6d66f66de6cf22a9455d5",
}

#: (sha256 of the frame population, last frame's timestamp) of
#: :func:`_flood_capture` with four contending senders, as the train
#: plane captured them.
TRAIN_CONTENDING_POPULATION = {
    "syn": (
        "cf0adcbde22d592e0d1260d18b566403c717bce844057e8500592c2bcb86eca9",
        0.09035216000000017,
    ),
    "udp": (
        "283cfbe17b8b78b508a24a67f097c37a46923c2313e652cb62275edef620d6de",
        0.09355216000000004,
    ),
}


@pytest.mark.parametrize("attack_kind", ["syn", "udp"])
def test_single_sender_flood_records_bit_identical(attack_kind):
    """One sender, no contention: the per-frame flood is the *same
    capture* the train plane made — timestamps, seq draws, every header
    field bit-equal."""
    records, sent = _flood_capture(attack_kind, n_nodes=1)
    assert sent == len(records) == 200
    assert _digest(tuple(r) for r in records) == TRAIN_SINGLE_SENDER_RECORDS[attack_kind]


@pytest.mark.parametrize("attack_kind", ["syn", "udp"])
def test_contending_flood_population_identical_scalar_vs_batch(attack_kind):
    """Many senders contending for the wire: the per-frame floods deliver
    the exact frame population the train plane delivered — every
    address, port, and seq draw — and finish the wire schedule at the
    same instant."""
    records, sent = _flood_capture(attack_kind)
    population, last = TRAIN_CONTENDING_POPULATION[attack_kind]
    assert sent == len(records) == 800
    assert _population_digest(records) == population
    assert max(r.timestamp for r in records) == pytest.approx(last)


# ----------------------------------------------------------------------
# Testbed-level equivalence across emission and topology


def _testbed_capture(devices_per_segment):
    scenario = Scenario(n_devices=4, seed=7, devices_per_segment=devices_per_segment)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    dataset = testbed.capture(
        duration=8.0,
        attack_phases=[
            AttackPhase(start=1.0, kind="syn", duration=3.0, pps_per_bot=100.0)
        ],
    )
    return dataset.records


#: sha256 of the frame population of ``_testbed_capture(0)`` with the
#: floods sent as trains.
TRAIN_TESTBED_POPULATION = (
    "7b1f86aba68d12e9428dcc0b1dfe08034e9ee4f5f458528ac98a76624eaed2bc"
)


def test_testbed_capture_identical_across_batch_and_segmentation():
    """Same seed → same labelled traffic, flat or segmented, and the
    same frame population the train plane's floods produced.

    Every dev↔server flow crosses the backbone exactly once, so the
    backbone probe of a segmented topology observes the same per-flow
    population a flat LAN's promiscuous tap does (leaf hosts draw
    different subnet addresses and timestamps shift by a router hop, so
    the comparison is per-label/attack counts); on the *same* flat
    topology the per-frame floods match the train plane's frame for
    frame.
    """

    def summary(records):
        return (
            len(records),
            Counter((r.attack, r.label, r.protocol) for r in records),
        )

    baseline = _testbed_capture(devices_per_segment=0)
    assert len(baseline) > 100
    assert _population_digest(baseline) == TRAIN_TESTBED_POPULATION
    assert summary(_testbed_capture(devices_per_segment=2)) == summary(baseline)


#: The train plane's run of ``Scenario(n_devices=3, seed=11)`` with its
#: floods sent as trains, 20 s train / 10 s detect: dataset summaries,
#: each detection window's ``(index, packets, true malicious)``, and the
#: window verdicts and Table I accuracy of the RF and K-Means rows.
TRAIN_FLOODS_RUN = {
    "train_summary": DatasetSummary(
        total=6666,
        malicious=4521,
        benign=2145,
        by_attack={"c2": 21, "syn_flood": 1500, "ack_flood": 1500, "udp_flood": 1500},
        duration=19.734797771449408,
    ),
    "detect_summary": DatasetSummary(
        total=2304,
        malicious=831,
        benign=1473,
        by_attack={"c2": 30, "syn_flood": 267, "ack_flood": 267, "udp_flood": 267},
        duration=9.920834670210319,
    ),
    "windows": [
        (25, 48, 0), (26, 225, 183), (27, 108, 90), (28, 0, 0), (29, 369, 183),
        (30, 238, 102), (31, 220, 0), (32, 210, 147), (33, 206, 126), (34, 680, 0),
    ],
    "verdicts": {
        "RF": [False, False, False, True, False, False, False, False, False, False],
        "K-Means": [False, True, True, True, False, False, True, True, True, True],
    },
    "accuracy": {"RF": 56.857516221949076, "K-Means": 77.23382661761428},
}


def test_full_experiment_verdicts_identical_scalar_vs_batch():
    """Same seed end to end: per-frame floods leave the windowed traffic
    and every window-level verdict the train plane's floods produced.

    Whole-train wire service shifted frame *interleaving* under
    contention, which nudged inter-arrival features by microseconds;
    per-window ground truth, dataset summaries and window verdicts were
    unaffected, and Table I agreed to well under a point.  The CNN rows
    are left out: its results can depend on the BLAS build.
    """
    from repro.testbed import run_full_experiment

    result = run_full_experiment(
        Scenario(n_devices=3, seed=11), train_duration=20.0, detect_duration=10.0
    )
    assert result.train_summary == TRAIN_FLOODS_RUN["train_summary"]
    assert result.detect_summary == TRAIN_FLOODS_RUN["detect_summary"]
    for report in result.detection:
        # Identical window composition: same packets, same true labels.
        assert [
            (w.window_index, w.n_packets, w.n_malicious_true) for w in report.windows
        ] == TRAIN_FLOODS_RUN["windows"], report.model_name
        if report.model_name in TRAIN_FLOODS_RUN["verdicts"]:
            # Identical window-level verdicts (majority-malicious decision).
            assert [
                w.n_malicious_predicted * 2 >= w.n_packets for w in report.windows
            ] == TRAIN_FLOODS_RUN["verdicts"][report.model_name]
    accuracy = dict(result.table1())
    for name, expected in TRAIN_FLOODS_RUN["accuracy"].items():
        assert accuracy[name] == pytest.approx(expected, abs=0.5), name


# ----------------------------------------------------------------------
# Hierarchical topology forwarding


def test_segmented_lan_routes_leaf_to_backbone_and_leaf_to_leaf():
    """UDP crosses leaf→backbone and leaf→leaf through gateway routers."""
    sim = Simulator()
    lan = SegmentedLan(sim, devices_per_segment=2)
    server = lan.add_host("tserver")  # backbone by name
    devs = [lan.add_host(f"dev-{i}") for i in range(4)]  # two leaf segments
    assert len(lan.segments) == 2
    assert lan.segment_of(devs[0]) is lan.segment_of(devs[1])
    assert lan.segment_of(devs[0]) is not lan.segment_of(devs[2])
    assert lan.segment_of(server) is None

    got = []
    server_sock = server.udp.bind(9000)
    server_sock.on_receive = lambda sock, payload, length, src, sport: got.append(
        ("server", str(src))
    )
    dev_sock = devs[3].udp.bind(9001)
    dev_sock.on_receive = lambda sock, payload, length, src, sport: got.append(
        ("dev-3", str(src))
    )
    # leaf → backbone, and leaf → different leaf (via two routers).
    devs[0].udp.bind(0).send_to(server.address, 9000, length=64)
    devs[1].udp.bind(0).send_to(devs[3].address, 9001, length=64)
    sim.run(until=2.0)
    assert ("server", str(devs[0].address)) in got
    assert ("dev-3", str(devs[1].address)) in got


def test_segmented_lan_backbone_probe_sees_cross_segment_traffic():
    """The backbone tap captures every inter-segment frame exactly once."""
    sim = Simulator()
    lan = SegmentedLan(sim, devices_per_segment=2)
    server = lan.add_host("tserver")
    devs = [lan.add_host(f"dev-{i}") for i in range(2)]
    probe = lan.add_probe(PacketProbe())
    server.udp.bind(9000)
    for _ in range(5):
        devs[0].udp.bind(0).send_to(server.address, 9000, length=100)
    sim.run(until=2.0)
    udp_records = [r for r in probe.records if r.dst_ip == server.address.value]
    assert len(udp_records) == 5
