"""Tests for the fault-injection subsystem: plans, wire faults, partitions."""

import random

import numpy as np
import pytest

from repro.features import RecordBatch
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    GilbertElliott,
)
from repro.ids import STATUS_DEGRADED, RealTimeIds
from repro.sim import CsmaLan, PacketProbe, Simulator
from repro.sim.tracing import PacketRecord


@pytest.fixture()
def lan():
    sim = Simulator()
    return sim, CsmaLan(sim, data_rate="10Mbps", delay="10us")


def blast(sim, sender, receiver, count=200, interval=0.01, port=5000):
    """Schedule ``count`` UDP datagrams; return the receive-time list."""
    arrivals = []
    sock = receiver.udp.bind(port)
    sock.on_receive = lambda *args: arrivals.append(sim.now)
    out = sender.udp.bind(0)
    for i in range(count):
        sim.schedule(i * interval, out.send_to, receiver.address, port, b"x" * 100)
    return arrivals


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", start=0.0, duration=1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultSpec(kind="loss", start=-1.0, duration=1.0, rate=0.5)

    def test_wire_fault_needs_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="loss", start=0.0, duration=0.0, rate=0.5)

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_loss_rate_bounds(self, rate):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="loss", start=0.0, duration=1.0, rate=rate)

    def test_jitter_needs_positive_bound(self):
        with pytest.raises(ValueError, match="jitter"):
            FaultSpec(kind="jitter", start=0.0, duration=1.0, jitter=0.0)

    def test_burst_loss_probability_bounds(self):
        with pytest.raises(ValueError, match="p_bad"):
            FaultSpec(kind="burst-loss", start=0.0, duration=1.0, p_bad=1.5)

    def test_kill_needs_explicit_targets(self):
        with pytest.raises(ValueError, match="explicit"):
            FaultSpec(kind="kill", start=0.0, restart="no")

    def test_kill_restart_mode_validated(self):
        with pytest.raises(ValueError, match="restart"):
            FaultSpec(kind="kill", start=0.0, targets=("dev-0",), restart="maybe")

    def test_matches_handles_ghost_prefix(self):
        spec = FaultSpec(kind="partition", start=0.0, duration=1.0, targets=("dev-1",))
        assert spec.matches("dev-1")
        assert spec.matches("ghost-dev-1")
        assert not spec.matches("dev-2")


class TestFaultPlan:
    def test_specs_split_by_interpreter(self):
        plan = FaultPlan.of(
            FaultSpec(kind="loss", start=0.0, duration=5.0, rate=0.1),
            FaultSpec(kind="kill", start=2.0, targets=("dev-0",)),
        )
        assert [s.kind for s in plan.wire_specs()] == ["loss"]
        assert [s.kind for s in plan.kill_specs()] == ["kill"]
        assert len(plan) == 2

    def test_until_is_last_stop(self):
        plan = FaultPlan.of(
            FaultSpec(kind="loss", start=1.0, duration=2.0, rate=0.1),
            FaultSpec(kind="jitter", start=4.0, duration=3.0, jitter=0.01),
        )
        assert plan.until == 7.0

    def test_degraded_intervals_merge_overlaps(self):
        plan = FaultPlan.of(
            FaultSpec(kind="partition", start=5.0, duration=5.0, targets=("a",)),
            FaultSpec(kind="kill", start=8.0, duration=4.0, targets=("b",)),
            FaultSpec(kind="loss", start=0.0, duration=20.0, rate=0.5),
        )
        assert plan.degraded_intervals() == [(5.0, 12.0)]

    def test_non_spec_entries_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(specs=("not a spec",))


class TestGilbertElliott:
    def test_stays_good_with_zero_transition(self):
        spec = FaultSpec(
            kind="burst-loss", start=0.0, duration=1.0, p_bad=0.0, loss_good=0.0
        )
        model = GilbertElliott(spec)
        rng = random.Random(1)
        assert not any(model.drops(rng) for _ in range(500))

    def test_bad_state_drops_everything(self):
        spec = FaultSpec(
            kind="burst-loss", start=0.0, duration=1.0,
            p_bad=1.0, p_good=0.0, loss_bad=1.0,
        )
        model = GilbertElliott(spec)
        rng = random.Random(1)
        results = [model.drops(rng) for _ in range(100)]
        assert all(results)
        assert model.bad

    def test_losses_are_bursty(self):
        """Consecutive-loss runs are longer than a Bernoulli with same mean."""
        spec = FaultSpec(
            kind="burst-loss", start=0.0, duration=1.0,
            p_bad=0.05, p_good=0.2, loss_bad=1.0,
        )
        model = GilbertElliott(spec)
        rng = random.Random(7)
        outcomes = [model.drops(rng) for _ in range(5000)]
        runs, current = [], 0
        for lost in outcomes:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs and max(runs) >= 5  # correlated bursts, not isolated drops


class TestWireFaults:
    def test_bernoulli_loss_drops_frames(self, lan):
        sim, net = lan
        a, b = net.add_host("a"), net.add_host("b")
        arrivals = blast(sim, a, b, count=400)
        injector = FaultInjector(sim, net.channel, seed=3)
        plan = FaultPlan.of(FaultSpec(kind="loss", start=0.0, duration=10.0, rate=0.3))
        injector.schedule_plan(plan)
        sim.run(until=10.0)
        assert injector.frames_lost > 0
        assert len(arrivals) == 400 - injector.frames_lost
        # Roughly the configured rate (loose bound; seed-dependent).
        assert 0.15 < injector.frames_lost / 400 < 0.45

    def test_loss_respects_schedule_window(self, lan):
        sim, net = lan
        a, b = net.add_host("a"), net.add_host("b")
        arrivals = blast(sim, a, b, count=100, interval=0.01)
        injector = FaultInjector(sim, net.channel, seed=3)
        # Total loss, but only within [5, 6) — frames outside must survive.
        plan = FaultPlan.of(FaultSpec(kind="loss", start=5.0, duration=1.0, rate=1.0))
        injector.schedule_plan(plan)
        sim.run(until=10.0)
        assert len(arrivals) == 100  # all sent in the first second
        assert injector.frames_lost == 0
        assert [e.kind for e in injector.events] == ["fault.activate", "fault.deactivate"]

    def test_corruption_counts_separately(self, lan):
        sim, net = lan
        a, b = net.add_host("a"), net.add_host("b")
        injector = FaultInjector(sim, net.channel, seed=5)
        plan = FaultPlan.of(
            FaultSpec(kind="corrupt", start=0.0, duration=10.0, rate=1.0)
        )
        injector.schedule_plan(plan)  # activation precedes the first send
        arrivals = blast(sim, a, b, count=100)
        sim.run(until=10.0)
        assert arrivals == []
        assert injector.frames_corrupted == 100
        assert injector.frames_lost == 0

    def test_jitter_delays_but_delivers(self, lan):
        sim, net = lan
        a, b = net.add_host("a"), net.add_host("b")
        injector = FaultInjector(sim, net.channel, seed=9)
        plan = FaultPlan.of(
            FaultSpec(kind="jitter", start=0.0, duration=10.0, jitter=0.05)
        )
        injector.schedule_plan(plan)
        arrivals = blast(sim, a, b, count=50)
        sim.run(until=10.0)
        assert len(arrivals) == 50  # nothing dropped
        assert injector.frames_delayed == 50
        assert injector.extra_delay_total > 0.0

    def test_loss_targets_only_named_sender(self, lan):
        sim, net = lan
        a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
        injector = FaultInjector(sim, net.channel, seed=3)
        plan = FaultPlan.of(
            FaultSpec(kind="loss", start=0.0, duration=10.0, rate=1.0, targets=("a",))
        )
        injector.schedule_plan(plan)
        from_a = blast(sim, a, c, count=50, port=5000)
        from_b = blast(sim, b, c, count=50, port=5001)
        sim.run(until=10.0)
        assert from_a == []
        assert len(from_b) == 50

    def test_injector_is_deterministic(self):
        def run_once():
            sim = Simulator()
            net = CsmaLan(sim, data_rate="10Mbps", delay="10us")
            a, b = net.add_host("a"), net.add_host("b")
            arrivals = blast(sim, a, b, count=300)
            injector = FaultInjector(sim, net.channel, seed=21)
            plan = FaultPlan.of(
                FaultSpec(kind="loss", start=0.0, duration=5.0, rate=0.2),
                FaultSpec(kind="jitter", start=1.0, duration=5.0, jitter=0.02),
            )
            injector.schedule_plan(plan)
            sim.run(until=10.0)
            return arrivals, injector.frames_lost, injector.extra_delay_total

        first, second = run_once(), run_once()
        assert first == second


class TestPartition:
    def test_partition_severs_and_heals(self, lan):
        sim, net = lan
        a, b = net.add_host("a"), net.add_host("b")
        arrivals = blast(sim, a, b, count=100, interval=0.1)  # spans 10s
        injector = FaultInjector(sim, net.channel, seed=1)
        plan = FaultPlan.of(
            FaultSpec(kind="partition", start=3.0, duration=4.0, targets=("a",))
        )
        injector.schedule_plan(plan, resolve_device=lambda name: a.interfaces[0].device)
        sim.run(until=12.0)
        device = a.interfaces[0].device
        assert device.attached  # healed
        # Nothing arrives during the partition window (the send scheduled
        # at exactly t=3.0 precedes the partition event in FIFO order).
        assert not [t for t in arrivals if 3.01 < t < 7.0]
        assert [t for t in arrivals if t < 3.0]
        assert [t for t in arrivals if t > 7.0]
        assert [e.kind for e in injector.events] == ["fault.partition", "fault.heal"]
        assert [e.targets for e in injector.events] == [("a",), ("a",)]
        assert injector.events.events[0].note == "severed=1"

    def test_named_partition_without_resolver_fails(self, lan):
        sim, net = lan
        net.add_host("a")
        injector = FaultInjector(sim, net.channel, seed=1)
        plan = FaultPlan.of(
            FaultSpec(kind="partition", start=0.5, duration=1.0, targets=("a",))
        )
        injector.schedule_plan(plan)
        with pytest.raises(RuntimeError, match="resolve_device"):
            sim.run(until=2.0)

    def test_wildcard_partition_silences_the_lan(self, lan):
        sim, net = lan
        a, b = net.add_host("a"), net.add_host("b")
        arrivals = blast(sim, a, b, count=50, interval=0.1)
        injector = FaultInjector(sim, net.channel, seed=1)
        plan = FaultPlan.of(FaultSpec(kind="partition", start=1.0, duration=10.0))
        injector.schedule_plan(plan)
        sim.run(until=4.0)
        assert injector.partitioned_devices == 2
        assert not [t for t in arrivals if t > 1.0]


class TestTestbedWiring:
    def test_apply_faults_rejects_unknown_kill_target(self):
        from repro.testbed import Scenario, Testbed
        from repro.testbed.builder import TestbedError

        testbed = Testbed(Scenario(n_devices=2, seed=3)).build()
        plan = FaultPlan.of(
            FaultSpec(kind="kill", start=1.0, targets=("dev-99",))
        )
        with pytest.raises(TestbedError, match="dev-99"):
            testbed.apply_faults(plan)

    def test_apply_faults_installs_injector(self):
        from repro.testbed import Scenario, Testbed

        testbed = Testbed(Scenario(n_devices=2, seed=3)).build()
        plan = FaultPlan.of(
            FaultSpec(kind="loss", start=1.0, duration=2.0, rate=0.1)
        )
        injector = testbed.apply_faults(plan)
        assert testbed.fault_injector is injector
        assert testbed.lan.channel.fault_injector is injector

    def test_plan_ends_with_its_capture(self):
        from repro.testbed import Scenario, Testbed

        testbed = Testbed(Scenario(n_devices=3, seed=11)).build()
        plan = FaultPlan.of(FaultSpec(kind="loss", start=0.0, duration=30.0, rate=0.2))
        testbed.capture(10.0, fault_plan=plan)
        injector = testbed.fault_injector
        lost = injector.frames_lost
        assert lost > 0
        ends = [(e.kind, e.time) for e in testbed.events.events if e.kind.startswith("fault.")]
        assert ends == [("fault.activate", 0.0), ("fault.deactivate", 10.0)]
        assert testbed.lan.channel.fault_injector is None
        first = len(testbed.events)
        testbed.capture(25.0)
        assert injector.frames_lost == lost
        assert not [e for e in testbed.events.events[first:] if e.kind.startswith("fault.")]


class _FailingModel:
    def predict(self, X):
        raise RuntimeError("model exploded")


class _ZeroModel:
    def predict(self, X):
        return np.zeros(len(X), dtype=int)


def _record(t: float, label: int = 0) -> PacketRecord:
    return PacketRecord(
        timestamp=t, src_ip=1, dst_ip=2, protocol=17,
        src_port=1, dst_port=2, size=100, tcp_flags=0, seq=0, label=label,
    )


class TestIdsDegradation:
    def test_interior_gap_emits_outage_windows(self):
        ids = RealTimeIds(_ZeroModel(), "Z", window_seconds=1.0)
        report = ids.process(RecordBatch.from_records([_record(0.5), _record(4.5)]))
        statuses = [(w.window_index, w.status) for w in report.windows]
        assert statuses == [
            (0, "healthy"), (1, STATUS_DEGRADED), (2, STATUS_DEGRADED),
            (3, STATUS_DEGRADED), (4, "healthy"),
        ]
        outage = report.windows[1]
        assert outage.n_packets == 0 and not outage.scored

    def test_until_extends_trailing_outage(self):
        ids = RealTimeIds(_ZeroModel(), "Z", window_seconds=1.0)
        report = ids.process(RecordBatch.from_records([_record(0.5)]), until=4.0)
        assert [w.window_index for w in report.windows] == [0, 1, 2, 3]
        assert all(w.is_degraded for w in report.windows[1:])

    def test_marked_interval_degrades_overlapping_windows(self):
        ids = RealTimeIds(_ZeroModel(), "Z", window_seconds=1.0)
        ids.mark_degraded(1.5, 2.5)
        report = ids.process(
            RecordBatch.from_records([_record(0.5), _record(1.6), _record(2.6), _record(3.5)])
        )
        assert [w.status for w in report.windows] == [
            "healthy", STATUS_DEGRADED, STATUS_DEGRADED, "healthy"
        ]

    def test_mark_degraded_validates_interval(self):
        ids = RealTimeIds(_ZeroModel(), "Z")
        with pytest.raises(ValueError):
            ids.mark_degraded(2.0, 2.0)

    def test_classifier_exception_degrades_window(self):
        ids = RealTimeIds(_FailingModel(), "boom", window_seconds=1.0)
        report = ids.process(
            RecordBatch.from_records([_record(0.5, label=0), _record(0.6, label=1)])
        )
        assert ids.classifier_errors == 1
        window = report.windows[0]
        assert window.is_degraded and window.scored
        assert window.accuracy == pytest.approx(0.5)  # zeros vs labels [0, 1]

    def test_report_separates_healthy_and_degraded_accuracy(self):
        ids = RealTimeIds(_ZeroModel(), "Z", window_seconds=1.0)
        ids.mark_degraded(1.0, 2.0)
        report = ids.process(
            RecordBatch.from_records(
                [_record(0.5, label=0), _record(1.5, label=1)]  # healthy hit, degraded miss
            )
        )
        assert report.healthy_accuracy == pytest.approx(1.0)
        assert report.degraded_accuracy == pytest.approx(0.0)
        assert report.availability == pytest.approx(0.5)
        breakdown = report.fault_breakdown()
        assert breakdown["n_degraded"] == 1.0
        assert "degraded" in str(report)
