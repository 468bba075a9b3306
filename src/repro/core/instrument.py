"""Process-local instrumentation counters (shim over :mod:`repro.obs`).

The experiment stack counts cheap, coarse things — rate probes run,
cache hits, kernel events, trace-buffer evictions — so the CLI can
report what a command actually did.  Counters are keyed by *any* dotted
name (the well-known names below are just constants).

This module is a thin shim over the default registry of
:mod:`repro.obs.metrics`: the same counters also appear in OpenMetrics
exposition (``--metrics-out``, ``--metrics-port``) alongside gauges and
histograms.  Per-unit deltas across worker processes go through that
registry's snapshot/delta/merge protocol (see
:mod:`repro.core.executor`), so parent-side totals are identical
whether a study ran with ``--jobs 1`` or ``--jobs N``.
"""

from __future__ import annotations

from typing import Dict

from ..obs import metrics as _metrics

PROBES = "probes"
# Hybrid engine accounting (DESIGN.md "Hybrid probe engine"): every
# probe evaluation increments PROBES; PROBES_SIMULATED counts the ones
# actually run through a queueing kernel, ANALYTIC_HITS the ones served
# by the validated analytic fast path (so PROBES == simulated +
# analytic), and SAMPLES_REUSED the simulated probes that reused a
# sibling rung's sampled service/interarrival/RTT arrays instead of
# drawing fresh ones.
PROBES_SIMULATED = "probe.simulated"
ANALYTIC_HITS = "analytic.hits"
SAMPLES_REUSED = "probe.samples_reused"
CACHE_HITS = "cache_hits"
CACHE_MISSES = "cache_misses"
# Disk-cache entries that failed to unpickle and were quarantined to a
# ``*.corrupt`` sibling (never silently swallowed) — see core.cache.
CACHE_CORRUPT = "cache.corrupt"
# Run-farm supervision counters (runfarm/): unit attempts that hit the
# wall-clock deadline and were SIGKILLed, workers that died mid-unit,
# harness-level retries, units quarantined as poison pills after
# exhausting attempts, units served from a prior run's manifest +
# artifact store on --resume, and worker heartbeats observed by the
# parent-side health monitor.
RUNFARM_TIMEOUTS = "runfarm.timeout"
RUNFARM_WORKER_LOST = "runfarm.worker_lost"
RUNFARM_RETRIES = "runfarm.retries"
RUNFARM_QUARANTINED = "runfarm.quarantined"
RUNFARM_RESUMED = "runfarm.resumed"
RUNFARM_HEARTBEATS = "runfarm.heartbeats"
RUNFARM_WORKERS_HUNG = "runfarm.workers_hung"
RUNFARM_WORKERS_SLOW = "runfarm.workers_slow"
# Kernel flight-recorder counters (PR 3): folded by Simulator.run() and
# the trace ring buffer; merged across workers like every other counter.
EVENTS_SCHEDULED = "sim.events_scheduled"
EVENTS_FIRED = "sim.events_fired"
TRACE_DROPPED = "trace.dropped"


def increment(name: str, amount: int = 1) -> None:
    _metrics.registry().counter(name).inc(amount)


def value(name: str) -> int:
    metric = _metrics.registry().get(name)
    if metric is None or metric.kind != _metrics.COUNTER:
        return 0
    return metric.value


def snapshot() -> Dict[str, int]:
    """A copy of every counter (used to compute per-unit deltas)."""
    return _metrics.registry().counter_values()


def reset() -> None:
    """Clear the whole default metric registry (counters and all)."""
    _metrics.reset()
