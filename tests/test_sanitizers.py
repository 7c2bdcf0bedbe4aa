"""Tests for the runtime simulation sanitizers (repro.analysis.sanitizers).

Hand-broken fixtures verify each invariant checker raises the right
``SanitizerError``; a sanitized full experiment proves clean runs stay
clean.
"""

import heapq

import pytest

from repro.analysis import Sanitizer, SanitizerError, sanitize_mode_from_env
from repro.sim import CsmaLan, Simulator
from repro.sim.core import Event
from repro.sim.queue import DropTailQueue
from repro.sim.tcp import TcpState
from repro.testbed import Scenario, run_full_experiment


def sanitized_net():
    sim = Simulator(sanitize=True)
    lan = CsmaLan(sim, data_rate="100Mbps")
    return sim, lan


# ----------------------------------------------------------------------
# Event-time monotonicity


class TestEventMonotonicity:
    def test_hand_broken_past_event_is_caught(self):
        sim = Simulator(sanitize=True)
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        # Bypass schedule()'s own validation: push an event dated before
        # current time straight into the heap, as a kernel bug would.
        rogue = Event(1.0, 0, 10_000, lambda: None)
        heapq.heappush(sim._heap, (*rogue.sort_key(), rogue))
        with pytest.raises(SanitizerError, match="event-monotonicity"):
            sim.run()

    def test_error_carries_context_snapshot(self):
        sanitizer = Sanitizer(fatal=True)
        rogue = Event(1.0, 0, 1, lambda: None)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check_event(rogue, now=2.0)
        assert excinfo.value.kind == "event-monotonicity"
        assert excinfo.value.context["event_time"] == 1.0
        assert excinfo.value.context["now"] == 2.0

    def test_nan_event_time_is_caught(self):
        sanitizer = Sanitizer(fatal=True)
        rogue = Event(float("nan"), 0, 1, lambda: None)
        with pytest.raises(SanitizerError, match="event-monotonicity"):
            sanitizer.check_event(rogue, now=2.0)

    def test_hand_pushed_nan_event_is_caught_in_run(self):
        sim = Simulator(sanitize=True)
        # Bypass schedule()'s own validation, as a kernel bug would.
        rogue = Event(float("nan"), 0, 10_000, lambda: None)
        heapq.heappush(sim._heap, (*rogue.sort_key(), rogue))
        with pytest.raises(SanitizerError, match="event-monotonicity"):
            sim.run()

    def test_clean_kernel_passes(self):
        sim = Simulator(sanitize=True)
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(1.0, order.append, "b")
        sim.run()
        sim.finalize()
        assert order == ["a", "b"]


class TestEventTotalOrder:
    def test_equal_time_events_never_compare_payload(self):
        """The heap orders by (time, priority, seq) only — callbacks and
        args may be arbitrary uncomparable objects."""
        sim = Simulator()
        order = []
        for i in range(50):
            # object() args are uncomparable; payload comparison would raise.
            sim.schedule(1.0, lambda *args, i=i: order.append(i), object())
        sim.run()
        assert order == list(range(50))

    def test_sort_key_is_strict_total_order(self):
        a = Event(1.0, 0, 0, lambda: None)
        b = Event(1.0, 0, 1, lambda: None)
        assert a.sort_key() < b.sort_key() and not b.sort_key() < a.sort_key()
        assert a.sort_key() == (1.0, 0, 0)
        assert b.sort_key() >= a.sort_key() and a.sort_key() <= b.sort_key()

    def test_priority_still_beats_seq(self):
        timer = Event(1.0, Simulator.PRIORITY_TIMER, 0, lambda: None)
        normal = Event(1.0, Simulator.PRIORITY_NORMAL, 5, lambda: None)
        assert normal.sort_key() < timer.sort_key()


# ----------------------------------------------------------------------
# Packet conservation


class TestQueueConservation:
    def test_queue_that_drops_without_counting_is_caught(self):
        sim = Simulator(sanitize=True)
        queue = DropTailQueue(capacity=4)
        sim.sanitizer.register_queue("txq:test", queue)
        queue.enqueue(object())
        queue.enqueue(object())
        # Hand-broken: discard the backlog without accounting it as
        # flushed — the bug the `flushed` counter exists to prevent.
        queue._items.clear()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SanitizerError, match="queue-conservation"):
            sim.run()

    def test_properly_flushed_queue_is_conserved(self):
        sim = Simulator(sanitize=True)
        queue = DropTailQueue(capacity=4)
        sim.sanitizer.register_queue("txq:test", queue)
        queue.enqueue(object())
        queue.clear()  # counted as flushed
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert queue.conservation_error() is None

    def test_conservation_error_message(self):
        queue = DropTailQueue(capacity=4)
        queue.enqueue(object())
        queue._items.clear()
        assert "enqueued=1" in queue.conservation_error()


class TestChannelConservation:
    def test_lost_frame_is_caught_at_drain(self):
        sim, lan = sanitized_net()
        a, b = lan.add_host("a"), lan.add_host("b")
        a.udp.bind(1000).send_to(b.address, 53, payload=b"x")
        sim.run(until=0.5)
        # Hand-broken: pretend a delivered frame never happened.
        lan.channel.frames_delivered -= 1
        sim.schedule(0.1, lambda: None)
        with pytest.raises(SanitizerError, match="channel-conservation"):
            sim.run(until=1.0)

    def test_real_traffic_is_conserved(self):
        sim, lan = sanitized_net()
        a, b = lan.add_host("a"), lan.add_host("b")
        received = []
        listener = b.udp.bind(53)
        listener.on_receive = lambda *args: received.append(args)
        a.udp.bind(1000).send_to(b.address, 53, payload=b"x")
        sim.run(until=1.0)
        sim.finalize()
        assert received
        assert lan.channel.frames_in_flight == 0


# ----------------------------------------------------------------------
# Socket / port leaks at teardown


class TestSocketLeaks:
    def test_closed_but_registered_socket_is_caught(self):
        sim, lan = sanitized_net()
        server, client = lan.add_host("s"), lan.add_host("c")
        server.tcp.listen(80, lambda sock: None)
        csock = client.tcp.socket()
        csock.connect(server.address, 80)
        sim.run(until=2.0)
        assert csock.state is TcpState.ESTABLISHED
        # Hand-broken: mark CLOSED without deregistering (a missed
        # _teardown), the definition of a socket leak.
        csock.state = TcpState.CLOSED
        with pytest.raises(SanitizerError, match="socket-leak"):
            sim.finalize()

    def test_orphaned_ephemeral_port_is_caught(self):
        sim, lan = sanitized_net()
        host = lan.add_host("h")
        host.tcp._ports_in_use.add(45000)  # held by no socket or listener
        with pytest.raises(SanitizerError, match="port-leak"):
            sim.finalize()

    def test_clean_connection_lifecycle_passes(self):
        sim, lan = sanitized_net()
        server, client = lan.add_host("s"), lan.add_host("c")
        accepted = []
        server.tcp.listen(80, accepted.append)
        csock = client.tcp.socket()
        csock.connect(server.address, 80)
        sim.run(until=2.0)
        csock.close()
        for sock in accepted:
            sock.close()
        sim.run(until=60.0)  # ride out TIME_WAIT teardown timers
        sim.finalize()


# ----------------------------------------------------------------------
# Modes and environment wiring


class TestModes:
    def test_collect_mode_records_instead_of_raising(self):
        sim = Simulator(sanitize="collect")
        queue = DropTailQueue(capacity=4)
        sim.sanitizer.register_queue("txq:test", queue)
        queue.enqueue(object())
        queue._items.clear()
        sim.schedule(1.0, lambda: None)
        sim.run()  # does not raise
        violations = sim.sanitizer.violations
        assert violations and violations[0].kind == "queue-conservation"
        assert "queue-conservation" in sim.sanitizer.report()

    def test_env_variable_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator().sanitizer is not None
        monkeypatch.setenv("REPRO_SANITIZE", "collect")
        sim = Simulator()
        assert sim.sanitizer is not None and not sim.sanitizer.fatal
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert Simulator().sanitizer is None
        monkeypatch.delenv("REPRO_SANITIZE")
        assert Simulator().sanitizer is None

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "maybe")
        with pytest.raises(ValueError, match="REPRO_SANITIZE"):
            sanitize_mode_from_env()

    def test_finalize_is_noop_without_sanitizer_and_idempotent(self):
        sim = Simulator()
        sim.finalize()
        sim.finalize()
        sanitized = Simulator(sanitize=True)
        sanitized.finalize()
        sanitized.finalize()

    def test_explicit_arg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator(sanitize=False).sanitizer is None


# ----------------------------------------------------------------------
# Full sanitized experiment (acceptance)


class TestSanitizedExperiment:
    def test_full_run_experiment_passes_clean(self, monkeypatch):
        """A sanitized §IV-D smoke run raises no SanitizerError end to end."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = run_full_experiment(
            Scenario(n_devices=2, seed=7),
            train_duration=10.0,
            detect_duration=5.0,
        )
        assert len(result.detection) == 3
        assert result.table1()
