"""Named scenario catalog: reproducible testbed recipes by name.

A catalog in the spirit of Gotham (arXiv 2207.13981): instead of passing
a dozen CLI knobs, experiments name a recipe — ``ddoshield campaign
--catalog urban-smoke`` — and get the exact same :class:`Scenario` every
time.  The flagship entry is ``urban-4060``, the urban-IoT emulation
scale of Hekmati et al. (arXiv 2110.01842): 4060 devices on a segmented
topology with a realistic benign mix and the Mirai flood overlay.  Every
recipe runs the one data plane, one frame per event, so a recipe and a
seed name exactly one dataset.

Every entry is a factory so catalog scenarios are immutable-by-copy;
``get_scenario(name, **overrides)`` applies field overrides (e.g. a CI
run shrinking ``n_devices``) through ``dataclasses.replace`` so
``__post_init__`` validation still fires.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.testbed.scenario import Scenario

#: Devices per leaf CSMA segment in the urban recipes: ~70 segments at
#: 4060 devices, the "apartment block behind one gateway" granularity.
_URBAN_SEGMENT = 58


def _urban(n_devices: int, devices_per_segment: int = _URBAN_SEGMENT) -> Scenario:
    """The urban-IoT shape: segmented topology and a denser, mixed
    benign plane under the Mirai flood overlay."""
    return Scenario(
        n_devices=n_devices,
        seed=7,
        devices_per_segment=min(devices_per_segment, n_devices),
        # A denser benign plane than the paper-scale default: urban
        # deployments chatter constantly (Hekmati et al. model per-device
        # event streams, not idle sensors).
        mean_session_interval=6.0,
        mean_dns_interval=2.0,
        http_weight=0.55,
        ftp_weight=0.15,
        rtmp_weight=0.30,
    )


CATALOG: dict[str, Callable[[], Scenario]] = {
    # The paper's own Figure 1 scale: 6 devices, flat LAN, scalar plane.
    "paper-baseline": lambda: Scenario(),
    # Urban-IoT emulation of Hekmati et al. (arXiv 2110.01842).
    "urban-4060": lambda: _urban(4060),
    # The benign-plane benchmark scale (Table: BENCH_sim.json).
    "urban-1024": lambda: _urban(1024),
    # CI-sized cut of the urban recipe: same shape, minutes not hours.
    "urban-smoke": lambda: _urban(12, devices_per_segment=4),
}


def list_scenarios() -> list[str]:
    """Catalog entry names, stable order."""
    return sorted(CATALOG)


def get_scenario(name: str, **overrides: object) -> Scenario:
    """Build the named scenario, optionally overriding dataclass fields.

    >>> get_scenario("urban-smoke", seed=11).seed
    11
    """
    factory = CATALOG.get(name)
    if factory is None:
        known = ", ".join(list_scenarios())
        raise KeyError(f"unknown scenario {name!r} (catalog: {known})")
    scenario = factory()
    if overrides:
        scenario = replace(scenario, **overrides)  # type: ignore[arg-type]
    return scenario
