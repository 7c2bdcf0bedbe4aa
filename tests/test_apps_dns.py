"""Tests for benign UDP chatter (DNS/NTP)."""

import pytest

from repro.apps import DnsServer, NtpServer, UdpChatter
from repro.apps.dns import DNS_PORT, NTP_PORT
from repro.containers import Image, Orchestrator
from repro.sim import CsmaLan, PacketProbe, Simulator


@pytest.fixture()
def env():
    sim = Simulator()
    lan = CsmaLan(sim)
    orch = Orchestrator(sim, lan)
    tserver = orch.run("tserver", Image("ts"))
    dev = orch.run("dev", Image("dev"))
    return sim, lan, tserver, dev


def test_dns_query_answered(env):
    sim, lan, tserver, dev = env
    dns = tserver.exec(DnsServer())
    chatter = dev.exec(
        UdpChatter(tserver.node.address, mean_dns_interval=0.5, seed=1)
    )
    sim.run(until=20.0)
    assert dns.queries_answered > 10
    assert chatter.responses_received > 10


def test_ntp_sync_answered(env):
    sim, lan, tserver, dev = env
    ntp = tserver.exec(NtpServer())
    chatter = dev.exec(
        UdpChatter(tserver.node.address, mean_dns_interval=1e9, mean_ntp_interval=2.0, seed=2)
    )
    sim.run(until=30.0)
    assert ntp.requests_answered >= 5


def test_chatter_traffic_is_benign_udp(env):
    sim, lan, tserver, dev = env
    probe = lan.add_probe(PacketProbe())
    tserver.exec(DnsServer())
    tserver.exec(NtpServer())
    dev.exec(UdpChatter(tserver.node.address, mean_dns_interval=0.5, seed=3))
    sim.run(until=10.0)
    assert probe.count > 5
    assert all(r.label == 0 for r in probe.records)
    assert all(r.is_udp for r in probe.records)
    dports = {r.dst_port for r in probe.records}
    assert 53 in dports


def test_chatter_stop_halts_queries(env):
    sim, lan, tserver, dev = env
    tserver.exec(DnsServer())
    chatter = dev.exec(UdpChatter(tserver.node.address, mean_dns_interval=0.2, seed=4))
    sim.run(until=5.0)
    count = chatter.queries_sent
    chatter.stop()
    sim.run(until=20.0)
    assert chatter.queries_sent == count


def test_deterministic_by_seed(env):
    sim, lan, tserver, dev = env
    a = UdpChatter(tserver.node.address, seed=5)
    b = UdpChatter(tserver.node.address, seed=5)
    assert a.rng.random() == b.rng.random()


# ---------------------------------------------------------------------------
# Look-ahead tick bit-exactness: the anchored ticker is a pure look-ahead
# knob.  Emissions keep their exact Poisson arrival instants for ANY
# tick, and consume the RNG identically.
# ---------------------------------------------------------------------------


class _RecordingChatter(UdpChatter):
    """UdpChatter that logs every emission as (time, port, length, tag)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted = []

    def _emit_one(self, port, length, tag):
        self.emitted.append((self.sim.now, port, length, tag))
        super()._emit_one(port, length, tag)


def _run_chatter(seed, *, tick=None, until=40.0, delay=0.25):
    import random as _random

    from repro.sim import Simulator, CsmaLan
    from repro.containers import Image, Orchestrator

    sim = Simulator()
    lan = CsmaLan(sim)
    orch = Orchestrator(sim, lan)
    tserver = orch.run("tserver", Image("ts"))
    dev = orch.run("dev", Image("dev"))
    tserver.exec(DnsServer())
    tserver.exec(NtpServer())
    chatter = dev.exec(
        _RecordingChatter(
            tserver.node.address,
            mean_dns_interval=0.4,
            mean_ntp_interval=1.5,
            seed=seed,
            start_delay=delay,
            tick=tick,
        )
    )
    sim.run(until=until)
    return chatter


def _replay_poisson_chain(seed, *, mean_dns=0.4, mean_ntp=1.5, delay=0.25, until=40.0):
    """Re-derive the merged DNS/NTP arrival chain exactly as _tick draws it."""
    import random as _random

    rng = _random.Random(seed)
    t_dns = delay + rng.expovariate(1.0 / mean_dns)
    t_ntp = delay + rng.expovariate(1.0 / mean_ntp)
    out = []
    while min(t_dns, t_ntp) <= until:
        if t_dns <= t_ntp:
            name = f"device-{rng.randrange(64)}.iot.example"
            out.append((t_dns, DNS_PORT, 30 + len(name), ("dns", name)))
            t_dns += rng.expovariate(1.0 / mean_dns)
        else:
            out.append((t_ntp, NTP_PORT, 48, ("ntp", "req")))
            t_ntp += rng.expovariate(1.0 / mean_ntp)
    return out


def test_scalar_emissions_land_at_exact_poisson_instants():
    """Look-ahead booking never quantizes: every scalar datagram leaves at
    the exact arrival instant of the old self-rescheduling chain."""
    chatter = _run_chatter(11)
    expected = _replay_poisson_chain(11)
    got = chatter.emitted
    assert got == expected[: len(got)]
    # nothing but (at most) the final look-ahead window may be in flight
    assert len(expected) - len(got) <= 16


def test_scalar_emissions_invariant_to_tick_choice():
    """The tick bounds the look-ahead only — bit-identical scalar output
    (times included) for wildly different tick widths."""
    a = _run_chatter(7, tick=0.3)
    b = _run_chatter(7, tick=5.0)
    assert a.emitted == b.emitted
    assert a.queries_sent == b.queries_sent
    assert a.rng.getstate() == b.rng.getstate()
