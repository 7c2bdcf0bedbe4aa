"""Unit tests for the detect → mitigate → recover subsystem.

Covers the :mod:`repro.ids.defense` building blocks in isolation —
conntrack-style blocklist verdicts, SYN-cookie hardening, the upstream
channel ACL, plan/metric serialization, and the controller's fallback
state machine — against one small built testbed.  The end-to-end
defended pipeline lives in ``test_mitigation_pipeline.py``.
"""

import numpy as np
import pytest

from repro.containers import RestartPolicy
from repro.faults import FaultPlan, FaultSpec
from repro.features import RecordBatch
from repro.ids import (
    BlocklistFilter,
    MitigationController,
    MitigationPlan,
    RealTimeIds,
    RecoveryMetrics,
    TokenBucket,
    UpstreamFilter,
    compute_recovery_metrics,
)
from repro.obs import ObsEvent
from repro.sim import PacketProbe
from repro.sim.packet import PROTO_TCP, PROTO_UDP, Ipv4Header, Packet, TcpHeader, UdpHeader
from repro.sim.tracing import PacketRecord
from repro.testbed import Scenario, Testbed
from repro.testbed.impact import ImpactSample, ImpactSeries, attach_victim_monitor


@pytest.fixture(scope="module")
def testbed():
    built = Testbed(Scenario(n_devices=2, seed=13)).build()
    built.infect_all()
    return built


def tcp_frame(src, dst, sport=40000, dport=80, flags=0, ack=0):
    return Packet(
        ip=Ipv4Header(src=src, dst=dst, protocol=PROTO_TCP),
        tcp=TcpHeader(src_port=sport, dst_port=dport, flags=flags, ack=ack),
    )


def udp_frame(src, dst, sport=40000, dport=9999):
    return Packet(
        ip=Ipv4Header(src=src, dst=dst, protocol=PROTO_UDP),
        udp=UdpHeader(src_port=sport, dst_port=dport),
    )


class TestTokenBucketStartsFull:
    def test_fresh_bucket_starts_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.tokens == 5.0

    def test_first_packets_after_install_pass(self):
        # Regression: a bucket starting empty would drop the first benign
        # SYNs right after the filter is installed.
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert all(bucket.allow(0.0) for _ in range(5))
        assert not bucket.allow(0.0)

    def test_explicit_tokens_still_honoured(self):
        bucket = TokenBucket(rate=10.0, burst=5.0, tokens=0.0)
        assert not bucket.allow(0.0)


class TestMitigationPlanSerde:
    def test_roundtrip(self):
        plan = MitigationPlan(model="RF", block_seconds=7.5, upstream_after=2)
        assert MitigationPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            MitigationPlan.from_dict({"model": "RF", "bogus": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "attack"},
            {"block_seconds": 0.0},
            {"min_flagged": 0},
            {"syn_rate_limit": -1.0},
            {"syn_cookie_threshold": 0.0},
            {"syn_cookie_threshold": 1.5},
            {"upstream_after": 0},
            {"fallback_staleness": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MitigationPlan(**kwargs)

    def test_scenario_roundtrip_carries_plan(self):
        scenario = Scenario(
            n_devices=2, mitigation_plan=MitigationPlan(mode="monitor")
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt.mitigation_plan == scenario.mitigation_plan
        assert rebuilt == scenario

    def test_scenario_roundtrip_without_plan(self):
        scenario = Scenario(n_devices=2)
        assert Scenario.from_dict(scenario.to_dict()).mitigation_plan is None

    def test_event_and_metrics_roundtrip(self):
        event = ObsEvent(1.5, "mitigation.block", detail="10.0.0.3")
        assert ObsEvent.from_dict(event.to_dict()) == event
        fault = ObsEvent(2.0, "fault.partition", "partition", targets=("ids",), note="severed=1")
        assert ObsEvent.from_dict(fault.to_dict()) == fault
        metrics = RecoveryMetrics(
            goodput_retained_pct=80.0,
            time_to_mitigate=1.0,
            time_to_recovery=None,
            collateral_block_rate=0.0,
            blocked_sources=2,
            collateral_blocks=0,
            baseline_goodput=100.0,
            attack_goodput=80.0,
        )
        assert RecoveryMetrics.from_dict(metrics.to_dict()) == metrics
        assert any("goodput" in name for name, _ in metrics.rows())


class TestComputeRecoveryMetrics:
    def series(self, attack_goodput=40.0):
        samples = [ImpactSample(float(t), 10, 1000, 100.0, 0, 0, 0, 0) for t in range(5)]
        samples += [
            ImpactSample(float(t), 10, 1000, attack_goodput, 8, 0, 0, 0)
            for t in range(5, 10)
        ]
        samples += [ImpactSample(float(t), 10, 1000, 100.0, 0, 0, 0, 0) for t in range(10, 15)]
        return ImpactSeries(samples)

    def test_folds_series_and_events(self):
        metrics = compute_recovery_metrics(
            self.series(),
            [ObsEvent(6.0, "mitigation.block", "10.0.0.2")],
            [(5.0, 10.0)],
            malicious_srcs={2},
            blocked_srcs={1, 2},
        )
        assert metrics.baseline_goodput == 100.0
        assert metrics.attack_goodput == 40.0
        assert metrics.goodput_retained_pct == 40.0
        assert metrics.time_to_mitigate == 1.0
        # dipped below 50% at t=5, back above at t=10
        assert metrics.time_to_recovery == 5.0
        assert metrics.blocked_sources == 2
        assert metrics.collateral_blocks == 1
        assert metrics.collateral_block_rate == 0.5

    def test_no_mitigation_events_means_no_ttm(self):
        metrics = compute_recovery_metrics(
            self.series(), [], [(5.0, 10.0)], malicious_srcs=set(), blocked_srcs=set()
        )
        assert metrics.time_to_mitigate is None
        assert metrics.collateral_block_rate == 0.0

    def test_goodput_never_dipping_counts_as_instant_recovery(self):
        metrics = compute_recovery_metrics(
            self.series(attack_goodput=90.0),
            [],
            [(5.0, 10.0)],
            malicious_srcs=set(),
            blocked_srcs=set(),
        )
        assert metrics.time_to_recovery == 0.0


class TestConntrackVerdicts:
    """Blocked-source packets are judged iptables-style, not blanket-dropped."""

    @pytest.fixture()
    def filt(self, testbed):
        filt = BlocklistFilter(testbed.tserver.node, block_seconds=60.0)
        yield filt
        filt.uninstall()

    def block(self, testbed, filt, src):
        filt.blocked_until[src.value] = testbed.sim.now + 60.0

    def test_udp_from_blocked_source_dropped(self, testbed, filt):
        victim = testbed.tserver.node
        src = testbed.devices[0].node.address
        self.block(testbed, filt, src)
        assert filt._should_drop(udp_frame(src, victim.address))
        assert filt.dropped_by_blocklist == 1

    def test_bare_syn_counts_as_new_not_invalid(self, testbed, filt):
        victim = testbed.tserver.node
        src = testbed.devices[0].node.address
        self.block(testbed, filt, src)
        syn = tcp_frame(src, victim.address, flags=0x02)
        assert not filt._blocked_verdict(syn)

    def test_out_of_state_ack_dropped(self, testbed, filt):
        victim = testbed.tserver.node
        src = testbed.devices[0].node.address
        self.block(testbed, filt, src)
        ack = tcp_frame(src, victim.address, sport=45555, flags=0x10, ack=999)
        assert filt._should_drop(ack)
        assert filt.dropped_by_blocklist == 1

    def test_established_connection_passes(self, testbed, filt):
        victim = testbed.tserver.node
        src = testbed.devices[0].node.address
        self.block(testbed, filt, src)
        key = (victim.address.value, 80, src.value, 46666)
        victim.tcp.sockets[key] = object()
        try:
            frame = tcp_frame(src, victim.address, sport=46666, flags=0x10, ack=1)
            assert not filt._should_drop(frame)
            assert filt.passed_established == 1
        finally:
            del victim.tcp.sockets[key]

    def test_half_open_completion_passes(self, testbed, filt):
        victim = testbed.tserver.node
        src = testbed.devices[0].node.address
        self.block(testbed, filt, src)
        listener = victim.tcp.listeners[80]
        listener.half_open[(src.value, 47777)] = object()
        try:
            frame = tcp_frame(src, victim.address, sport=47777, flags=0x10, ack=1)
            assert not filt._blocked_verdict(frame)
        finally:
            del listener.half_open[(src.value, 47777)]

    def test_valid_syn_cookie_completion_passes(self, testbed, filt):
        victim = testbed.tserver.node
        src = testbed.devices[0].node.address
        self.block(testbed, filt, src)
        listener = victim.tcp.listeners[80]
        listener.enable_syn_cookies()
        try:
            isn = listener._cookie_isn(src.value, 48888)
            good = tcp_frame(src, victim.address, sport=48888, flags=0x10, ack=isn + 1)
            bad = tcp_frame(src, victim.address, sport=48888, flags=0x10, ack=isn + 2)
            assert not filt._blocked_verdict(good)
            assert filt._blocked_verdict(bad)
        finally:
            listener.disable_syn_cookies()

    def test_blocked_devices_keep_serving_benign_sessions(self, testbed):
        """Blocking a compromised device must not sever its benign traffic."""
        victim = testbed.tserver.node
        filt = BlocklistFilter(victim, block_seconds=120.0).install()
        monitor = attach_victim_monitor(testbed.tserver)
        now = testbed.sim.now
        for device in testbed.devices:
            filt.blocked_until[device.node.address.value] = now + 120.0
        testbed.cnc.launch_attack(
            "udp", victim.address, 80, duration=4.0, pps=100
        )
        testbed.sim.run(until=now + 8.0)
        monitor.stop()
        filt.uninstall()
        assert filt.dropped_by_blocklist > 200  # the flood died at the filter
        assert filt.passed_established > 0  # live sessions kept flowing
        assert monitor.series.mean_goodput() > 0  # and were actually served

    def test_expiry_fires_on_expire_callback(self, testbed):
        filt = BlocklistFilter(testbed.tserver.node, block_seconds=1.0)
        expired = []
        filt.on_expire = lambda src, until: expired.append((src, until))
        now = testbed.sim.now
        filt.blocked_until[424242] = now - 1.0
        frame = udp_frame(testbed.devices[0].node.address, testbed.tserver.node.address)
        # A packet from an unrelated source does not touch the table;
        # prune (the controller's periodic sweep) reports the expiry.
        assert not filt._should_drop(frame)
        assert filt.prune(now) == [(424242, now - 1.0)]
        assert expired == [(424242, now - 1.0)]
        assert 424242 not in filt.blocked_until

    def test_ttl_grace_keeps_expired_entries_enforced(self, testbed):
        filt = BlocklistFilter(testbed.tserver.node)
        src = testbed.devices[0].node.address
        now = testbed.sim.now
        filt.blocked_until[src.value] = now - 5.0  # expired...
        filt.ttl_grace = 10.0  # ...but inside fallback grace
        assert filt._should_drop(udp_frame(src, testbed.tserver.node.address))
        assert filt.prune(now) == []  # grace also defers the sweep
        filt.ttl_grace = 0.0
        assert len(filt.prune(now)) == 1

    def test_reblock_after_expiry(self, testbed):
        filt = BlocklistFilter(testbed.tserver.node)
        now = testbed.sim.now
        assert filt.block(555, now + 1.0)  # new entry
        assert not filt.block(555, now + 2.0)  # refresh, not new
        filt.prune(now + 10.0)
        assert filt.block(555, now + 20.0)  # new again after expiry


class TestSynCookies:
    @pytest.fixture()
    def listener(self, testbed):
        listener = testbed.tserver.node.tcp.listen(8888, lambda sock: None, backlog=8)
        yield listener
        listener.close()  # also deregisters port 8888 from the stack

    def syn(self, testbed, sport):
        src = testbed.devices[0].node.address
        return tcp_frame(src, testbed.tserver.node.address, sport=sport, dport=8888, flags=0x02)

    def test_stateless_above_watermark(self, testbed, listener):
        listener.enable_syn_cookies(threshold=0.5)
        for sport in range(50000, 50020):
            listener.handle_syn(self.syn(testbed, sport))
        # Half the backlog fills statefully; the rest is answered with
        # cookies and never consumes a slot.
        assert len(listener.half_open) == listener._cookie_watermark == 4
        assert listener.syn_cookies_sent == 16
        assert listener.syn_dropped == 0

    def test_backlog_exhausts_without_cookies(self, testbed, listener):
        for sport in range(51000, 51020):
            listener.handle_syn(self.syn(testbed, sport))
        assert len(listener.half_open) == listener.backlog == 8
        assert listener.syn_dropped == 12

    def test_valid_cookie_ack_promotes(self, testbed, listener):
        listener.enable_syn_cookies(threshold=0.5)
        src = testbed.devices[0].node.address
        victim = testbed.tserver.node
        for sport in range(52000, 52008):  # past the watermark
            listener.handle_syn(self.syn(testbed, sport))
        isn = listener._cookie_isn(src.value, 52100)
        ack = tcp_frame(src, victim.address, sport=52100, dport=8888, flags=0x10, ack=isn + 1)
        sock = listener.handle_ack(ack)
        assert sock is not None
        assert listener.syn_cookies_accepted == 1
        sock.abort()

    def test_invalid_cookie_ack_rejected(self, testbed, listener):
        listener.enable_syn_cookies(threshold=0.5)
        src = testbed.devices[0].node.address
        victim = testbed.tserver.node
        for sport in range(53000, 53008):
            listener.handle_syn(self.syn(testbed, sport))
        bad = tcp_frame(src, victim.address, sport=53100, dport=8888, flags=0x10, ack=12345)
        assert listener.handle_ack(bad) is None
        assert listener.syn_cookies_rejected == 1

    def test_cookie_isn_is_deterministic_and_nonzero(self, testbed, listener):
        listener.enable_syn_cookies(secret=99)
        a = listener._cookie_isn(0x0A000002, 1234)
        assert a == listener._cookie_isn(0x0A000002, 1234)
        assert a != listener._cookie_isn(0x0A000002, 1235)
        assert a != 0


class TestUpstreamFilter:
    def test_drops_only_blocked_to_victim(self):
        victim, bot, other = 0x0A000063, 0x0A000002, 0x0A000003
        filt = UpstreamFilter(victim_ip=victim)
        filt.block(bot, until=100.0)
        from repro.sim.address import Ipv4Address

        flood = udp_frame(Ipv4Address(bot), Ipv4Address(victim))
        lateral = udp_frame(Ipv4Address(bot), Ipv4Address(other))
        clean = udp_frame(Ipv4Address(other), Ipv4Address(victim))
        assert filt.should_drop(flood, None, now=10.0)
        assert not filt.should_drop(lateral, None, now=10.0)
        assert not filt.should_drop(clean, None, now=10.0)
        assert filt.dropped == 1

    def test_expiry_reopens_path(self):
        from repro.sim.address import Ipv4Address

        filt = UpstreamFilter(victim_ip=0x0A000063)
        expired = []
        filt.on_expire = lambda src, until: expired.append(src)
        filt.block(0x0A000002, until=5.0)
        frame = udp_frame(Ipv4Address(0x0A000002), Ipv4Address(0x0A000063))
        assert filt.should_drop(frame, None, now=4.0)
        assert not filt.should_drop(frame, None, now=6.0)  # lazily expired
        assert expired == [0x0A000002]
        assert filt.active_blocks == 0

    def test_channel_enforces_acl_on_live_flood(self, testbed):
        channel = testbed.lan.channel
        victim = testbed.tserver.node
        filt = UpstreamFilter(victim_ip=victim.address.value)
        now = testbed.sim.now
        for device in testbed.devices:
            filt.block(device.node.address.value, until=now + 60.0)
        filtered_before = channel.frames_filtered
        channel.set_traffic_filter(filt)
        try:
            testbed.cnc.launch_attack("udp", victim.address, 80, duration=3.0, pps=100)
            testbed.sim.run(until=now + 4.0)
        finally:
            channel.set_traffic_filter(None)
        assert channel.traffic_filter is None
        assert filt.dropped > 100
        assert channel.frames_filtered - filtered_before == filt.dropped


class TestProbeSymmetry:
    def test_lan_add_remove_probe_roundtrip(self, testbed):
        probe = PacketProbe(keep_records=False)
        testbed.lan.add_probe(probe)
        testbed.sim.run(until=testbed.sim.now + 2.0)
        seen = probe.count
        assert seen > 0
        testbed.lan.remove_probe(probe)
        testbed.sim.run(until=testbed.sim.now + 2.0)
        assert probe.count == seen  # detached probes stop counting


def record(ts, src, label=1, proto=PROTO_UDP, dport=9999):
    return PacketRecord(ts, src, 99, proto, 40000, dport, 60, 0, 0, label)


class FlagEverything:
    def predict(self, X):
        return np.ones(len(X), dtype=int)


class FlagNothing:
    def predict(self, X):
        return np.zeros(len(X), dtype=int)


def make_controller(testbed, model, **plan_kwargs):
    plan = MitigationPlan(model="toy", **plan_kwargs)
    victim = testbed.tserver.node
    filter_ = None
    upstream = None
    if plan.mode == "mitigate":
        filter_ = BlocklistFilter(victim, block_seconds=plan.block_seconds)
        upstream = UpstreamFilter(victim_ip=victim.address.value)
    ids = RealTimeIds(model, "toy")
    controller = MitigationController(
        plan=plan,
        sim=testbed.sim,
        victim=victim,
        ids=ids,
        filter_=filter_,
        upstream=upstream,
    )
    return controller, ids


class TestControllerVerdicts:
    def test_flagged_window_blocks_and_escalates(self, testbed):
        controller, ids = make_controller(
            testbed, FlagEverything(), min_flagged=10, upstream_after=2
        )
        base = testbed.sim.now
        ids.process(
            RecordBatch.from_records(
                [record(base + i * 0.05, src=777) for i in range(20)]
                + [record(base + 1.0 + i * 0.05, src=777) for i in range(20)]
            )
        )
        actions = [e.kind for e in controller.events]
        assert "mitigation.block" in actions
        assert "mitigation.escalate" in actions
        assert 777 in controller.filter.blocked_until
        assert 777 in controller.upstream.blocked_until
        assert controller.blocks_issued == 1
        assert 777 in controller.malicious_srcs

    def test_below_threshold_sources_not_blocked(self, testbed):
        controller, ids = make_controller(testbed, FlagEverything(), min_flagged=10)
        base = testbed.sim.now
        ids.process(RecordBatch.from_records([record(base + i * 0.05, src=888) for i in range(5)]))
        assert controller.blocks_issued == 0
        assert not controller.filter.blocked_until

    def test_clean_window_unblocks_false_positive(self, testbed):
        controller, ids = make_controller(testbed, FlagNothing(), min_flagged=10)
        src = 999
        controller.filter.block(src, testbed.sim.now + 60.0)
        controller.blocked_ever.add(src)
        base = testbed.sim.now
        ids.process(
            RecordBatch.from_records([record(base + i * 0.05, src=src, label=0) for i in range(20)])
        )
        assert controller.unblocks == 1
        assert src not in controller.filter.blocked_until
        assert len(controller.events.by_kind("mitigation.unblock")) == 1

    def test_monitor_mode_never_filters(self, testbed):
        controller, ids = make_controller(testbed, FlagEverything(), mode="monitor")
        assert controller.filter is None and controller.upstream is None
        base = testbed.sim.now
        ids.process(RecordBatch.from_records([record(base + i * 0.05, src=777) for i in range(20)]))
        assert controller.blocks_issued == 0
        # it still *observes*: the verdict event fires, and ground truth
        # accumulates for collateral accounting
        assert controller.events.by_kind("mitigation.verdict")
        assert 777 in controller.malicious_srcs


def supervisor(time, action, container="ids"):
    return ObsEvent(time, f"supervisor.{action}", container, targets=(container,))


def fault(time, action, *targets):
    return ObsEvent(time, f"fault.{action}", "partition", targets=targets)


class TestControllerFallback:
    def test_ids_kill_enters_fallback(self, testbed):
        controller, _ = make_controller(testbed, FlagEverything())
        controller.on_event(supervisor(1.0, "kill"))
        assert controller.in_fallback
        assert controller.filter.ttl_grace == controller.plan.fallback_staleness
        assert controller.upstream.ttl_grace == controller.plan.fallback_staleness
        assert controller.events.events[-1].kind == "mitigation.fallback.enter"

    def test_other_container_ignored(self, testbed):
        controller, _ = make_controller(testbed, FlagEverything())
        controller.on_event(supervisor(1.0, "kill", container="dev-0"))
        assert not controller.in_fallback

    def test_restart_exits_and_resyncs_stale_policy(self, testbed):
        controller, _ = make_controller(testbed, FlagEverything())
        stale_until = 2.0
        controller.filter.block(4242, until=stale_until)
        controller.on_event(supervisor(1.0, "kill"))
        # While down, the stale entry is held past its TTL.
        assert controller.filter.prune(stale_until + 1.0) == []
        controller.on_event(supervisor(20.0, "restart"))
        assert not controller.in_fallback
        assert controller.filter.ttl_grace == 0.0
        assert 4242 not in controller.filter.blocked_until  # resync pruned it
        actions = [e.kind for e in controller.events]
        for kind in ("mitigation.fallback.exit", "mitigation.resync", "mitigation.expire"):
            assert kind in actions
        [resync] = controller.events.by_kind("mitigation.resync")
        assert resync.value == 1.0

    def test_partition_of_ids_link_enters_fallback(self, testbed):
        controller, _ = make_controller(testbed, FlagEverything())
        controller.on_event(fault(2.0, "partition", "ids"))
        assert controller.in_fallback
        controller.on_event(fault(3.0, "heal", "ids"))
        assert not controller.in_fallback

    def test_partition_of_other_target_ignored(self, testbed):
        controller, _ = make_controller(testbed, FlagEverything())
        controller.on_event(fault(2.0, "partition", "tserver"))
        assert not controller.in_fallback

    def test_wildcard_partition_counts(self, testbed):
        controller, _ = make_controller(testbed, FlagEverything())
        controller.on_event(fault(2.0, "partition", "*"))
        assert controller.in_fallback

    def test_overlapping_reasons_need_both_to_clear(self, testbed):
        controller, _ = make_controller(testbed, FlagEverything())
        controller.on_event(supervisor(1.0, "kill"))
        controller.on_event(fault(2.0, "partition", "ids"))
        assert controller.fallback_entries == 1  # one outage, two causes
        controller.on_event(fault(3.0, "heal", "ids"))
        assert controller.in_fallback  # container still down
        controller.on_event(supervisor(4.0, "restart"))
        assert not controller.in_fallback
        assert len(controller.events.by_kind("mitigation.fallback.enter")) == 1


class TestInstallUninstall:
    class Trained:
        name = "toy"
        model = FlagEverything()
        extractor = None
        scaler = None

    def test_install_uninstall_restores_node(self, testbed):
        victim = testbed.tserver.node
        receive_before = victim.receive
        filter_before = testbed.lan.channel.traffic_filter
        plan = MitigationPlan(model="toy")
        controller = testbed.install_mitigation(plan, self.Trained())
        assert testbed.mitigation is controller
        assert victim.receive != receive_before
        assert testbed.lan.channel.traffic_filter is controller.upstream
        assert all(
            listener.syn_cookies_enabled for listener in victim.tcp.listeners.values()
        )
        back = testbed.uninstall_mitigation()
        assert back is controller
        assert testbed.mitigation is None
        assert victim.receive == receive_before
        assert testbed.lan.channel.traffic_filter is filter_before
        assert not any(
            listener.syn_cookies_enabled for listener in victim.tcp.listeners.values()
        )
        assert testbed.uninstall_mitigation() is None  # idempotent

    def test_double_install_rejected(self, testbed):
        from repro.testbed.builder import TestbedError

        testbed.install_mitigation(MitigationPlan(model="toy"), self.Trained())
        try:
            with pytest.raises(TestbedError, match="already installed"):
                testbed.install_mitigation(MitigationPlan(model="toy"), self.Trained())
        finally:
            testbed.uninstall_mitigation()

    def test_monitor_mode_leaves_datapath_untouched(self, testbed):
        victim = testbed.tserver.node
        receive_before = victim.receive
        controller = testbed.install_mitigation(
            MitigationPlan(model="toy", mode="monitor"), self.Trained()
        )
        assert victim.receive == receive_before  # no filter interposed
        assert testbed.lan.channel.traffic_filter is None
        assert controller.filter is None
        testbed.uninstall_mitigation()

    def test_faults_armed_after_install_reach_the_fallback(self, testbed):
        controller = testbed.install_mitigation(
            MitigationPlan(model="toy", mode="monitor"), self.Trained()
        )
        first = len(testbed.events)
        plan = FaultPlan.of(
            FaultSpec(kind="partition", start=0.5, duration=1.0, targets=("ids",))
        )
        try:
            testbed.apply_faults(plan)
            testbed.sim.run(until=testbed.sim.now + 2.0)
        finally:
            testbed.fault_injector.detach()
            testbed.uninstall_mitigation()
        kinds = [e.kind for e in testbed.events.events[first:]]
        assert kinds.count("fault.partition") == kinds.count("fault.heal") == 1
        assert kinds.count("mitigation.fallback.enter") == 1
        assert kinds.count("mitigation.fallback.exit") == 1
        assert controller.fallback_entries == 1
        assert not controller.in_fallback

    def test_uninstall_unsubscribes_the_fallback(self, testbed):
        testbed.install_mitigation(MitigationPlan(model="toy", mode="monitor"), self.Trained())
        assert len(testbed.events.subscribers) == 1
        testbed.uninstall_mitigation()
        assert testbed.events.subscribers == []
        orchestrator = testbed.orchestrator
        orchestrator.supervise("ids", RestartPolicy(mode="on-failure", jitter=0.0))
        first = len(testbed.events)
        try:
            orchestrator.kill("ids")
            testbed.sim.run(until=testbed.sim.now + 2.0)  # restarted after 1 s
        finally:
            orchestrator.unsupervise("ids")
        kinds = [e.kind for e in testbed.events.events[first:]]
        assert "supervisor.kill" in kinds and "supervisor.restart" in kinds
        assert not [kind for kind in kinds if kind.startswith("mitigation.")]
