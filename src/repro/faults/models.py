"""Component-facing fault state.

Vectorized simulators (the load balancer, the fluid fault experiments)
need a view of "how broken is the SNIC path right now": they query a
:class:`SnicHealth` built directly from the
:class:`~repro.faults.schedule.FaultTimeline` by timestamp.

It interprets three fault kinds: ``outage`` removes the component,
``degrade`` multiplies its service times by the fault severity (thermal
throttle / degraded clock), ``core-loss`` removes a severity-fraction of
its cores (which also inflates effective per-request service).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .schedule import (
    KIND_CORE_LOSS,
    KIND_DEGRADE,
    KIND_OUTAGE,
    FaultTimeline,
)


class SnicHealth:
    """Timestamp-indexed health of the SNIC path for fluid simulators.

    Wraps a timeline and answers, for any simulated time ``t``, whether the
    SNIC path can serve at all and what multiplier applies to its service
    times.  ``target`` selects which timeline target name represents the
    SNIC path ("accel" for accelerator functions, "snic-cpu" otherwise).
    """

    def __init__(self, timeline: FaultTimeline, target: str = "snic"):
        self.timeline = timeline
        self.target = target

    def available(self, t: float) -> bool:
        return not self.timeline.active(t, target=self.target, kind=KIND_OUTAGE)

    def service_factor(self, t: float) -> float:
        """Multiplier on SNIC path service times at ``t`` (inf if down)."""
        if not self.available(t):
            return float("inf")
        throttle = self.timeline.severity(t, self.target, KIND_DEGRADE, default=1.0)
        lost = self.timeline.severity(t, self.target, KIND_CORE_LOSS, default=0.0)
        alive = max(0.0, 1.0 - lost)
        if alive <= 0.0:
            return float("inf")
        return max(throttle, 1.0) / alive

    def unavailable_until(self, t: float) -> float:
        """End of the outage covering ``t`` (``t`` itself if the path is up)."""
        hits = self.timeline.active(t, target=self.target, kind=KIND_OUTAGE)
        if not hits:
            return t
        return max(hit.end_s for hit in hits)

    def service_profile(
        self, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``(available, service_factor, unavailable_until)``.

        Element ``i`` equals the scalar methods evaluated at ``times[i]``
        — the same comparisons and arithmetic over the same episode
        floats — so per-packet simulators can precompute health for a
        whole arrival vector instead of querying three methods per
        packet.  ``service_factor`` is ``inf`` wherever the path is down
        (callers never read it there); ``unavailable_until`` equals the
        timestamp itself wherever the path is up.
        """
        times = np.asarray(times, dtype=float)
        n = len(times)
        available = ~self.timeline.active_mask(
            times, self.target, KIND_OUTAGE
        )
        throttle = np.ones(n)
        lost = np.zeros(n)
        until = times.copy()
        for spec in self.timeline.specs:
            if spec.target != self.target:
                continue
            for start, end in self.timeline.episodes(spec.name):
                covered = (times >= start) & (times < end)
                if not covered.any():
                    continue
                if spec.kind == KIND_DEGRADE:
                    np.maximum(throttle, spec.severity, out=throttle,
                               where=covered)
                elif spec.kind == KIND_CORE_LOSS:
                    np.maximum(lost, spec.severity, out=lost,
                               where=covered)
                elif spec.kind == KIND_OUTAGE:
                    np.maximum(until, end, out=until, where=covered)
        alive = np.maximum(0.0, 1.0 - lost)
        with np.errstate(divide="ignore"):
            factor = np.maximum(throttle, 1.0) / alive
        factor[~available] = np.inf
        return available, factor, until

    def outage_windows(self) -> List[tuple]:
        windows = []
        for spec in self.timeline.specs:
            if spec.target == self.target and spec.kind == KIND_OUTAGE:
                windows.extend(self.timeline.episodes(spec.name))
        return sorted(windows)
