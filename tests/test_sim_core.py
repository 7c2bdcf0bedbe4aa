"""Unit and property tests for the event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.obs import NullInstrument
from repro.sim.core import SimulationError, Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_simultaneous_events_run_fifo():
    sim = Simulator()
    seen = []
    for tag in "abcde":
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == list("abcde")


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "timer", priority=Simulator.PRIORITY_TIMER)
    sim.schedule(1.0, seen.append, "normal", priority=Simulator.PRIORITY_NORMAL)
    sim.run()
    assert seen == ["normal", "timer"]


def test_now_advances_to_event_time():
    sim = Simulator()
    observed = []
    sim.schedule(2.5, lambda: observed.append(sim.now))
    sim.run()
    assert observed == [2.5]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(5.0, seen.append, "late")
    sim.run(until=2.0)
    assert seen == ["early"]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert seen == ["early", "late"]


def test_run_until_advances_time_even_when_queue_drains():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_abs(1.0, lambda: None)


class TestNanTimesRejected:
    """A NaN time compares false against everything, so a `<` check
    lets it through and the callback then runs with ``sim.now`` NaN."""

    NAN = float("nan")

    def test_schedule_rejects_nan_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule(self.NAN, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_abs_rejects_nan_time(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_abs(self.NAN, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_periodic_rejects_nan_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_periodic(self.NAN, lambda: None)
        assert sim.pending_events == 0

    def test_finite_times_still_accepted(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.0, seen.append, "now")
        sim.schedule(0.5, seen.append, "b")
        sim.schedule_abs(0.25, seen.append, "a")
        sim.run()
        assert seen == ["now", "a", "b"]


class TestInfiniteTimesRejected:
    """An event at +inf would fire and set ``sim.now`` to inf; after that
    every ``schedule_abs`` raises and every ``schedule`` lands at inf."""

    INF = float("inf")

    def test_schedule_rejects_infinite_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule(self.INF, lambda: None)
        sim.schedule(1e308, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule(1e308, lambda: None)  # 1e308 + 1e308 overflows to inf
        assert sim.pending_events == 0
        assert sim.now == 1e308

    def test_schedule_abs_rejects_infinite_time(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_abs(self.INF, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_abs(-self.INF, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_periodic_rejects_infinite_interval_and_anchor(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_periodic(self.INF, lambda: None)
        for t0 in (self.INF, -self.INF, float("nan")):
            with pytest.raises(SimulationError, match="finite"):
                sim.schedule_periodic(1.0, lambda: None, t0=t0)
        assert sim.pending_events == 0


def test_cancelled_event_does_not_run():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    event.cancel()
    sim.run()
    assert seen == []


def test_stop_halts_immediately():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, seen.append, "never")
    sim.run()
    assert seen == []
    assert sim.now == 1.0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, seen.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["second"]


def test_clear_drops_pending_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "x")
    sim.clear()
    sim.run()
    assert seen == []


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.pending_events == 1


class TestHeapCompaction:
    def test_mass_cancellation_triggers_compaction(self):
        sim = Simulator()
        doomed = [sim.schedule(1000.0 + i, lambda: None) for i in range(100)]
        survivor = []
        sim.schedule(1.0, survivor.append, "ran")
        for event in doomed:
            event.cancel()
        assert sim.heap_compactions >= 1
        assert sim.pending_events == 1
        # The sweep physically removed the bulk of the cancelled events
        # (the remainder is below the compaction threshold and drains
        # lazily as the heap is popped).
        assert len(sim._heap) < 60
        sim.run()
        assert survivor == ["ran"]

    def test_small_heaps_are_not_compacted(self):
        sim = Simulator()
        events = [sim.schedule(10.0, lambda: None) for _ in range(10)]
        for event in events:
            event.cancel()
        assert sim.heap_compactions == 0
        assert sim.pending_events == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        events = [sim.schedule(10.0, lambda: None) for _ in range(5)]
        events[0].cancel()
        events[0].cancel()
        assert sim.pending_events == 4

    def test_cancel_after_fire_keeps_counter_sane(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()  # already popped: must not touch the heap counter
        assert sim.pending_events == 0
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 1

    def test_compaction_preserves_execution_order(self):
        sim = Simulator()
        seen = []
        keep = [sim.schedule(float(i), seen.append, i) for i in range(1, 40, 2)]
        doomed = [sim.schedule(float(i), seen.append, i) for i in range(0, 90, 2)]
        for event in doomed:
            event.cancel()
        sim.run()
        assert seen == sorted(seen)
        assert seen == list(range(1, 40, 2))

    def test_clear_resets_cancelled_counter(self):
        sim = Simulator()
        event = sim.schedule(5.0, lambda: None)
        event.cancel()
        sim.clear()
        assert sim.pending_events == 0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_property_execution_order_is_sorted(delays):
    """Whatever the scheduling order, execution times are non-decreasing."""
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.integers(0, 1)),
        min_size=1,
        max_size=40,
    )
)
def test_property_time_never_goes_backwards(schedule):
    sim = Simulator()
    trace = []
    for delay, priority in schedule:
        sim.schedule(delay, lambda: trace.append(sim.now), priority=priority)
    sim.run()
    assert all(b >= a for a, b in zip(trace, trace[1:]))


def _schedule_mixed_load(sim, callback):
    """500 callbacks up front (half alone, half in buckets of five), each
    scheduling one more from inside the run: 1,000 callbacks in all,
    lone and same-instant ones, through both schedule calls."""

    def first(i):
        callback()
        if i % 2:
            sim.schedule(0.5, callback)
        else:
            sim.schedule_abs(sim.now + 0.25, callback)

    for i in range(250):
        sim.schedule(i * 0.001 + 0.0001, first, i)
    for i in range(250):
        sim.schedule_abs(1.0 + (i // 5) * 0.01, first, i)


class TestKernelTelemetry:
    def test_no_instrument_call_with_observability_off(self, monkeypatch):
        assert not obs.current().enabled
        calls = []
        monkeypatch.setattr(NullInstrument, "inc", lambda self, amount=1.0: calls.append("inc"))
        monkeypatch.setattr(NullInstrument, "set", lambda self, value: calls.append("set"))
        sim = Simulator()
        ran = []
        _schedule_mixed_load(sim, lambda: ran.append(sim.now))
        sim.run()
        assert len(ran) == sim.events_executed == 1000
        assert calls == []
        obs.NULL_INSTRUMENT.inc()  # the patch itself counts
        assert calls == ["inc"]

    def test_instruments_track_the_kernel_at_every_callback(self):
        with obs.scope() as ctx:
            sim = Simulator()
            seen = []

            def check():
                seen.append((
                    ctx.registry.value("sim.events_dispatched"),
                    float(sim.events_executed),
                    ctx.registry.value("sim.heap_depth"),
                    float(len(sim._heap)),
                ))

            _schedule_mixed_load(sim, check)
            sim.run()
        assert len(seen) == 1000
        for dispatched, executed, depth, heap in seen:
            assert dispatched == executed
            assert depth == heap
