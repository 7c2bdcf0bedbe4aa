"""Synthetic labelled captures for benchmarking and stress tests.

Generates a capture that exercises every code path of the §IV-A feature
statistics — TCP handshakes with and without completion, RST teardowns,
UDP floods spraying random ports, repeated connection attempts — at an
arbitrary packet count, without building a testbed.  The capture is
built as columns directly.  The benchmark harness uses it to time the
feature pipeline on 100k+ packets; tests use small instances as
randomized fixtures.
"""

from __future__ import annotations

import numpy as np

from repro.capture.dataset import TrafficDataset
from repro.features.columnar import RecordBatch
from repro.sim.packet import PROTO_TCP, PROTO_UDP, TcpFlags

_SYN = int(TcpFlags.SYN)
_ACK = int(TcpFlags.ACK)
_FIN = int(TcpFlags.FIN)
_RST = int(TcpFlags.RST)
_FLAG_CHOICES = (_SYN, _ACK, _SYN | _ACK, _FIN | _ACK, _RST, _ACK | int(TcpFlags.PSH))


def synthetic_capture(
    n_packets: int,
    duration: float = 100.0,
    malicious_fraction: float = 0.4,
    seed: int = 0,
) -> TrafficDataset:
    """A randomized labelled capture of ``n_packets`` over ``duration`` s.

    Benign traffic is TCP to a handful of services from a small device
    population; malicious traffic mixes SYN floods (random sources, one
    victim port) and UDP floods (random destination ports), mirroring the
    testbed's attack mix.
    """
    rng = np.random.default_rng(seed)
    timestamps = np.sort(rng.uniform(0.0, duration, n_packets))
    malicious = rng.random(n_packets) < malicious_fraction
    syn_flood = malicious & (rng.random(n_packets) < 0.5)
    udp_flood = malicious & ~syn_flood

    protocol = np.where(udp_flood, PROTO_UDP, PROTO_TCP)
    src_ip = np.where(
        malicious,
        rng.integers(0x0A000100, 0x0A0001FF, n_packets),
        rng.integers(0x0A000001, 0x0A000010, n_packets),
    )
    dst_ip = np.where(malicious, 0x0A0000FE, rng.integers(0x0A000010, 0x0A000018, n_packets))
    src_port = rng.integers(1024, 65535, n_packets)
    dst_port = np.where(
        udp_flood,
        rng.integers(1, 65535, n_packets),
        np.where(syn_flood, 80, rng.choice([80, 443, 53, 1883, 8883], n_packets)),
    )
    flags = np.where(
        protocol == PROTO_UDP,
        0,
        np.where(syn_flood, _SYN, rng.choice(_FLAG_CHOICES, n_packets)),
    )
    size = np.where(malicious, rng.integers(40, 80, n_packets), rng.integers(60, 1500, n_packets))
    seq = np.where(protocol == PROTO_TCP, rng.integers(0, 2**32, n_packets), 0)

    attack = np.where(syn_flood, "syn_flood", "udp_flood").astype(object)
    attack[~malicious] = None
    return TrafficDataset(
        RecordBatch.from_columns(
            (timestamps, src_ip, dst_ip, protocol, src_port, dst_port,
             size, flags, seq, malicious, attack)
        )
    )
