"""Fault injection and graceful degradation.

The simulator's happy path answers "what does the SNIC buy at steady
state"; this package answers "what happens when the offload path stops
keeping up".  It provides deterministic one-shot fault schedules (and
rack-wide families of them), a timestamp-indexed health model
interpreting outage / thermal-throttle / core-loss faults, and
timeout-retry-with-backoff recovery mechanics.  The availability
experiment lives in :mod:`repro.experiments.faults`.
"""

from .domains import (
    correlated,
    node_target,
    outage_windows,
    rack_outage,
    rack_targets,
)
from .models import SnicHealth
from .retry import RetryOutcome, RetryPolicy, simulate_retries
from .schedule import (
    KIND_BURST_LOSS,
    KIND_CORE_LOSS,
    KIND_DEGRADE,
    KIND_OUTAGE,
    ActiveFault,
    FaultSpec,
    FaultTimeline,
    materialize,
)

__all__ = [
    "SnicHealth",
    "RetryOutcome",
    "RetryPolicy",
    "simulate_retries",
    "KIND_BURST_LOSS",
    "KIND_CORE_LOSS",
    "KIND_DEGRADE",
    "KIND_OUTAGE",
    "ActiveFault",
    "FaultSpec",
    "FaultTimeline",
    "materialize",
    "correlated",
    "node_target",
    "outage_windows",
    "rack_outage",
    "rack_targets",
]
