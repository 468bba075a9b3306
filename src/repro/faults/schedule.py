"""Fault specifications and their deterministic materialization.

A :class:`FaultSpec` describes *what* breaks (a named target component, a
fault kind, a severity) and *when* it breaks: one episode, starting at
``start_s`` and lasting ``duration_s``.  :func:`materialize` clips that
episode to a run's horizon.  Schedules draw nothing at random, so they
replay identically under any seed.

:class:`FaultTimeline` is the query side: the vectorized simulators in
:mod:`repro.experiments.faults` ask it for a boolean mask over an arrival
vector; the scalar "which faults are active at time ``t``" queries are
the oracle the vectorized ones are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Fault kinds understood by the built-in models.  The timeline itself is
# agnostic — any string works — but these are the ones the experiment
# scenarios and the health model interpret.
KIND_OUTAGE = "outage"  # component fully unavailable
KIND_DEGRADE = "degrade"  # thermal throttle: service times x severity
KIND_CORE_LOSS = "core-loss"  # severity = fraction of cores lost
KIND_BURST_LOSS = "burst-loss"  # correlated (Gilbert-Elliott) loss episode


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what it hits, how severe it is, and its one episode."""

    name: str
    target: str  # component identifier ("accel", "snic-cpu", "link", ...)
    kind: str = KIND_OUTAGE
    severity: float = 1.0  # kind-specific (throttle factor, lost-core frac...)
    start_s: float = 0.0
    duration_s: float = 0.0

    def __post_init__(self):
        if self.duration_s < 0 or self.start_s < 0:
            raise ValueError("fault times must be non-negative")

    @classmethod
    def one_shot(cls, name: str, target: str, start_s: float, duration_s: float,
                 kind: str = KIND_OUTAGE, severity: float = 1.0) -> "FaultSpec":
        return cls(name=name, target=target, kind=kind, severity=severity,
                   start_s=start_s, duration_s=duration_s)


Episode = Tuple[float, float]  # [start, end) in simulated seconds


def materialize(spec: FaultSpec, horizon_s: float) -> List[Episode]:
    """The spec's episode clipped to ``[0, horizon_s)`` (empty if none)."""
    if (horizon_s <= 0 or spec.start_s >= horizon_s
            or spec.duration_s == 0):
        return []
    return [(spec.start_s, min(spec.start_s + spec.duration_s, horizon_s))]


@dataclass
class ActiveFault:
    """A fault episode as seen by a component at query time."""

    spec: FaultSpec
    start_s: float
    end_s: float


class FaultTimeline:
    """Materialized schedule: which faults are active when.

    Built once per run from a list of specs; queried per arrival vector
    (numpy mask) by fault-aware simulators, or per timestamp (scalar) by
    the oracle.
    """

    def __init__(self, specs: Sequence[FaultSpec], horizon_s: float):
        self.horizon_s = horizon_s
        self.specs = list(specs)
        self._episodes: Dict[str, List[Episode]] = {
            spec.name: materialize(spec, horizon_s) for spec in self.specs
        }

    def episodes(self, name: str) -> List[Episode]:
        return list(self._episodes[name])

    def active(self, t: float, target: Optional[str] = None,
               kind: Optional[str] = None) -> List[ActiveFault]:
        """Faults active at time ``t``, optionally filtered."""
        hits: List[ActiveFault] = []
        for spec in self.specs:
            if target is not None and spec.target != target:
                continue
            if kind is not None and spec.kind != kind:
                continue
            for start, end in self._episodes[spec.name]:
                if start <= t < end:
                    hits.append(ActiveFault(spec, start, end))
                    break
        return hits

    def severity(self, t: float, target: str, kind: str,
                 default: float = 0.0) -> float:
        """Max severity among matching active faults (``default`` if none)."""
        hits = self.active(t, target=target, kind=kind)
        if not hits:
            return default
        return max(hit.spec.severity for hit in hits)

    def active_mask(self, times: np.ndarray, target: str,
                    kind: Optional[str] = None) -> np.ndarray:
        """Boolean mask over ``times``: is a matching fault active?"""
        mask = np.zeros(len(times), dtype=bool)
        for spec in self.specs:
            if spec.target != target:
                continue
            if kind is not None and spec.kind != kind:
                continue
            for start, end in self._episodes[spec.name]:
                mask |= (times >= start) & (times < end)
        return mask
