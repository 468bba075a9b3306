"""Observability plane: typed metrics, exposition, fleet status, SLO burn.

The telemetry subsystem every experiment reports through:

* :mod:`metrics` — a typed metric registry (Counter, Gauge, Histogram
  with deterministic log-spaced buckets and exact quantiles, Timer).
  Worker-side delta snapshots merge parent-side in submission order,
  exactly like the flat counters always have, so every total is
  byte-identical at any ``--jobs N``.  :mod:`repro.core.instrument` is
  now a thin back-compat shim over the default registry.
* :mod:`openmetrics` — OpenMetrics text exposition and JSONL export
  (``--metrics-out`` on every verb), a strict exposition parser for CI,
  and an opt-in localhost ``/metrics`` HTTP endpoint
  (``--metrics-port``) so a long farm run can be scraped live.
* :mod:`slo` — the SLO burn monitor: evaluates each experiment's
  bands from the anchor ledger (:mod:`repro.analysis.anchors`, one band
  per paper anchor) as metrics during a run, emitting structured
  warnings (and a non-verdict ``slo`` block in the JSON envelope) on
  drift.  Drift never changes an exit code or verdict.

Fleet progress rendering lives with the run farm in
:mod:`repro.runfarm.status` (the ``repro status`` verb).
"""

from . import metrics
from .metrics import Counter, Gauge, Histogram, MetricRegistry, Timer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Timer",
    "metrics",
]
