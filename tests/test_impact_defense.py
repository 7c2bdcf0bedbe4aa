"""Tests for victim-impact monitoring and IDS-driven mitigation."""

import numpy as np
import pytest

from repro.ids import BlocklistFilter, TokenBucket
from repro.testbed import AttackPhase, Scenario, Testbed, attach_victim_monitor
from repro.testbed.impact import ImpactSample, ImpactSeries, VictimMonitor


@pytest.fixture(scope="module")
def testbed():
    scenario = Scenario(n_devices=3, seed=41)
    built = Testbed(scenario).build()
    built.infect_all()
    return built


class TestTokenBucket:
    def test_allows_within_rate(self):
        bucket = TokenBucket(rate=10, burst=10, tokens=10, last_time=0.0)
        assert all(bucket.allow(0.0) for _ in range(10))
        assert not bucket.allow(0.0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=10, burst=10, tokens=0, last_time=0.0)
        assert not bucket.allow(0.0)
        assert bucket.allow(1.0)  # 10 tokens refilled

    def test_burst_caps_refill(self):
        bucket = TokenBucket(rate=100, burst=5, tokens=0, last_time=0.0)
        bucket.allow(100.0)
        assert bucket.tokens <= 5


class TestImpactSeries:
    def sample(self, t, goodput=100.0, half_open=0):
        return ImpactSample(t, 10, 1000, goodput, half_open, 0, 0, 0)

    def test_between(self):
        series = ImpactSeries([self.sample(t) for t in range(10)])
        assert len(series.between(2, 5)) == 3

    def test_mean_goodput(self):
        series = ImpactSeries([self.sample(0, 100.0), self.sample(1, 300.0)])
        assert series.mean_goodput() == 200.0
        assert series.mean_goodput(1, 2) == 300.0

    def test_peak_half_open(self):
        series = ImpactSeries([self.sample(0, half_open=3), self.sample(1, half_open=9)])
        assert series.peak_half_open() == 9

    def test_empty(self):
        assert ImpactSeries().mean_goodput() == 0.0
        assert ImpactSeries().peak_half_open() == 0


class TestVictimMonitor:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            VictimMonitor(interval=0)

    def test_samples_accumulate(self, testbed):
        monitor = attach_victim_monitor(testbed.tserver)
        testbed.sim.run(until=testbed.sim.now + 10.0)
        monitor.stop()
        assert len(monitor.series.samples) >= 9
        assert all(s.rx_packets >= 0 for s in monitor.series.samples)

    def test_flood_visible_in_rx_rate(self, testbed):
        monitor = attach_victim_monitor(testbed.tserver)
        start = testbed.sim.now
        testbed.sim.run(until=start + 5.0)
        quiet = monitor.series.mean_goodput(start, start + 5.0)
        testbed.cnc.launch_attack(
            "udp", testbed.tserver.node.address, 80, duration=5.0, pps=150
        )
        testbed.sim.run(until=start + 11.0)
        monitor.stop()
        quiet_rx = np.mean([s.rx_packets for s in monitor.series.between(start, start + 5)])
        flood_rx = np.mean([s.rx_packets for s in monitor.series.between(start + 5, start + 10)])
        assert flood_rx > quiet_rx * 2

    def test_syn_flood_fills_backlog_sample(self, testbed):
        monitor = attach_victim_monitor(testbed.tserver)
        start = testbed.sim.now
        testbed.cnc.launch_attack(
            "syn", testbed.tserver.node.address, 80, duration=4.0, pps=150
        )
        testbed.sim.run(until=start + 6.0)
        monitor.stop()
        assert monitor.series.peak_half_open() > 0
        assert monitor.series.samples[-1].syn_dropped > 0


class TestBlocklistFilter:
    def make_filter(self, testbed, **kwargs):
        filt = BlocklistFilter(testbed.tserver.node, **kwargs).install()
        yield_filter = filt
        return yield_filter

    def test_install_uninstall_roundtrip(self, testbed):
        node = testbed.tserver.node
        original = node.receive
        filt = BlocklistFilter(node).install()
        assert node.receive != original
        filt.uninstall()
        assert node.receive == original  # class method restored

    def test_double_install_is_noop(self, testbed):
        node = testbed.tserver.node
        filt = BlocklistFilter(node).install()
        receive_once = node.receive
        filt.install()
        assert node.receive is receive_once
        filt.uninstall()

    def test_blocks_expire(self, testbed):
        filt = BlocklistFilter(testbed.tserver.node)
        now = testbed.sim.now
        filt.blocked_until[12345] = now + 5.0
        assert filt.active_blocks == 1
        testbed.sim.run(until=now + 6.0)
        assert filt.active_blocks == 0

    def test_filter_drops_blocked_traffic_live(self, testbed):
        filt = BlocklistFilter(testbed.tserver.node).install()
        bot_ips = [d.node.address.value for d in testbed.devices]
        now = testbed.sim.now
        for ip in bot_ips:
            filt.blocked_until[ip] = now + 60.0
        testbed.cnc.launch_attack(
            "udp", testbed.tserver.node.address, 80, duration=3.0, pps=100
        )
        unreachable_before = testbed.tserver.node.udp.unreachable
        testbed.sim.run(until=now + 5.0)
        filt.uninstall()
        assert filt.dropped_by_blocklist > 200
        # the floods never reached the UDP stack
        assert testbed.tserver.node.udp.unreachable == unreachable_before

    def test_syn_rate_limit_caps_spoofed_floods(self, testbed):
        filt = BlocklistFilter(
            testbed.tserver.node, syn_rate_limit=20.0, syn_burst=20.0
        ).install()
        now = testbed.sim.now
        testbed.cnc.launch_attack(
            "syn", testbed.tserver.node.address, 80, duration=3.0, pps=100
        )
        testbed.sim.run(until=now + 5.0)
        filt.uninstall()
        # spoofed sources rotate, but the per-port bucket still bites
        assert filt.dropped_by_rate_limit > 100

