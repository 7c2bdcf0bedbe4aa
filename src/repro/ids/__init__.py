"""The real-time IDS unit (Figure 2 of the paper).

Three stages, mirroring the paper's IDS component: real-time traffic
monitoring (a :class:`~repro.ids.engine.RealTimeIds` is itself the
capture tap, taking each delivered frame as field values),
preprocessing (window aggregation + feature extraction + scaling), and
attack identification (the ML model), all on columnar
:class:`~repro.features.columnar.RecordBatch` windows.
:mod:`repro.ids.meter` measures the CPU, memory, and model-size
sustainability metrics of Table II, :mod:`repro.ids.report` holds the
result dataclasses, and :mod:`repro.ids.defense` turns window verdicts
into mitigation.
"""

from repro.ids.defense import (
    BlocklistFilter,
    MitigatingIds,
    MitigationController,
    MitigationPlan,
    RecoveryMetrics,
    TokenBucket,
    UpstreamFilter,
    compute_recovery_metrics,
)
from repro.ids.engine import RealTimeIds
from repro.ids.meter import IOT_CPU_SCALE, ResourceMeter, SustainabilityMetrics
from repro.ids.report import (
    STATUS_DEGRADED,
    STATUS_HEALTHY,
    DetectionReport,
    WindowResult,
)

__all__ = [
    "BlocklistFilter",
    "DetectionReport",
    "STATUS_DEGRADED",
    "STATUS_HEALTHY",
    "IOT_CPU_SCALE",
    "MitigatingIds",
    "MitigationController",
    "MitigationPlan",
    "RealTimeIds",
    "RecoveryMetrics",
    "UpstreamFilter",
    "compute_recovery_metrics",
    "ResourceMeter",
    "SustainabilityMetrics",
    "TokenBucket",
    "WindowResult",
]
