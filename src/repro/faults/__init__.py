"""Deterministic fault injection for the testbed.

Real IoT deployments lose packets in bursts, drop off the network, and
crash mid-flood; the paper's clean-run evaluation never exercises any of
that.  This subpackage makes faults first-class experimental conditions:
:mod:`repro.faults.plan` declares *what* breaks and when
(:class:`FaultPlan` / :class:`FaultSpec`), and
:mod:`repro.faults.injector` applies the wire-level impairments to a
CSMA channel (:class:`FaultInjector`).  Container crash faults from the
same plan are interpreted by the orchestrator's supervisor
(:mod:`repro.containers.orchestrator`), and the IDS scores windows that
overlap fault intervals separately
(:meth:`repro.ids.engine.RealTimeIds.mark_degraded`).

Everything is driven by per-plan seeded RNGs: the same plan plus the
same seed yields byte-identical traces.
"""

from repro.faults.injector import FaultInjector, GilbertElliott
from repro.faults.plan import ALL_TARGETS, FAULT_KINDS, FaultPlan, FaultSpec

__all__ = [
    "ALL_TARGETS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GilbertElliott",
]
