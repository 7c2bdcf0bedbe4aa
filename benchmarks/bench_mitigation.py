"""Defense evaluation — IDS-driven mitigation restores the victim.

DDoSim positions its measurements as "benchmarks for evaluating the
effectiveness of defense mechanisms, ranging from intrusion detection
systems to traffic filtering and mitigation techniques" (§III-A).  This
bench closes that loop on DDoShield-IoT: the same live attack schedule
runs twice against the TServer — once undefended, once with the K-Means
IDS on a LAN probe feeding a :class:`~repro.ids.MitigationController`,
which fills the victim's blocklist + SYN rate-limit filter (no upstream
ACL) — and the victim-impact series are compared.  The controller is
the testbed's one verdict-to-block path: blocks last 60 s, and a source
is released after a window with at least ``min_flagged`` of its packets
and none flagged.
"""

import numpy as np

from repro.ids import BlocklistFilter, MitigationController, MitigationPlan, RealTimeIds
from repro.testbed import Scenario, Testbed, attach_victim_monitor, train_models

from conftest import write_result

RUN_SECONDS = 24.0


def run_phase(testbed, scenario, defended: bool, trained):
    monitor = attach_victim_monitor(testbed.tserver)
    filt = None
    ids = None
    if defended:
        km = next(t for t in trained if t.name == "K-Means")
        filt = BlocklistFilter(
            testbed.tserver.node, syn_rate_limit=50.0, syn_burst=100.0
        ).install()
        ids = RealTimeIds(
            km.model, "K-Means", extractor=km.extractor, scaler=km.scaler,
            window_seconds=scenario.window_seconds,
        )
        MitigationController(
            MitigationPlan(block_seconds=60.0, upstream_filter=False),
            testbed.sim, testbed.tserver.node, ids, filter_=filt,
        )
        # The IDS is the tap: it takes the LAN's frames and trains
        # through the probe interface the testbed's IDS container feeds.
        testbed.lan.add_probe(ids)
    start = testbed.sim.now
    phases = scenario.detection_schedule(RUN_SECONDS, pps_per_bot=80)
    capture = testbed.capture(RUN_SECONDS, phases)
    monitor.stop()
    if defended:
        testbed.lan.remove_probe(ids)
        filt.uninstall()
    return {
        "monitor": monitor.series,
        "start": start,
        "capture": capture,
        "filter_stats": (
            (filt.dropped_by_blocklist, filt.dropped_by_rate_limit, filt.active_blocks)
            if filt
            else (0, 0, 0)
        ),
    }


def run_both():
    scenario = Scenario(n_devices=4, seed=23)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    train = testbed.capture(40.0, scenario.training_schedule(40.0))
    trained = train_models(train, window_seconds=scenario.window_seconds, seed=scenario.seed)
    undefended = run_phase(testbed, scenario, defended=False, trained=trained)
    defended = run_phase(testbed, scenario, defended=True, trained=trained)
    return undefended, defended


def test_mitigation_restores_victim(benchmark):
    undefended, defended = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def attack_window_rx(result):
        series = result["monitor"]
        start = result["start"]
        # attack seconds per the schedule: three bursts of 15% each
        spans = [(0.10, 0.25), (0.40, 0.55), (0.72, 0.87)]
        rx = []
        for lo, hi in spans:
            rx.extend(
                s.rx_packets
                for s in series.between(start + lo * RUN_SECONDS, start + hi * RUN_SECONDS)
            )
        return float(np.mean(rx)) if rx else 0.0

    rx_open = attack_window_rx(undefended)
    rx_defended = attack_window_rx(defended)
    dropped_blocklist, dropped_rate, active = defended["filter_stats"]

    lines = [
        "Mitigation: IDS-driven blocklist + SYN rate limiting at the victim",
        f"{'configuration':<14}{'attack-window rx pps':>22}",
        f"{'undefended':<14}{rx_open:>22.1f}",
        f"{'defended':<14}{rx_defended:>22.1f}",
        f"filter drops: {dropped_blocklist} by blocklist, {dropped_rate} by SYN rate limit",
        f"active blocks at end: {active}",
    ]
    write_result("mitigation", lines)

    # The defense visibly reduces what reaches the victim during attacks.
    assert dropped_blocklist + dropped_rate > 200
    assert rx_defended < rx_open * 0.8
    assert active >= 1
