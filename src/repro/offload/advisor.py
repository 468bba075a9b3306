"""Offload advisor (Strategy 2, §5.3).

Key Observations 2 and 4 say a function's name is not enough to decide
offload — inputs, configurations, algorithms, and operation types flip
the winner.  This module is the Clara-style tool the paper points at: an
*analytic* predictor that prices a function profile on every available
platform (no queueing simulation) and recommends a placement under an
SLO, with the predicted numbers exposed so the decision is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..calibration import ACCELERATORS, NODE_PROFILES, PLATFORMS
from ..experiments.measurement import (
    ACCEL_PLATFORM,
    accel_per_item_seconds,
    cpu_cores,
    cpu_service_seconds,
    estimate_capacity_rps,
)
from ..experiments.profiles import FunctionProfile
from ..hardware.specs import (
    ELECTRICITY_USD_PER_KWH,
    NODE_SPECS,
    SERVER_LIFETIME_YEARS,
)


@dataclass(frozen=True)
class PlatformPrediction:
    platform: str
    capacity_rps: float
    base_p99_s: float  # latency floor at low load (queueing excluded)

    def meets(self, required_rps: float, slo_p99: Optional[float]) -> bool:
        if self.capacity_rps < required_rps:
            return False
        if slo_p99 is not None and self.base_p99_s > slo_p99:
            return False
        return True


@dataclass(frozen=True)
class PlacementDecision:
    profile_key: str
    platform: str
    predictions: Dict[str, PlatformPrediction]
    reason: str

    @property
    def predicted(self) -> PlatformPrediction:
        return self.predictions[self.platform]


def predict_platform(profile: FunctionProfile, platform: str) -> PlatformPrediction:
    """Analytic capacity + latency floor for one platform."""
    capacity = estimate_capacity_rps(profile, platform)
    if platform == ACCEL_PLATFORM:
        engine = ACCELERATORS[profile.accel_engine]
        base = engine.setup_latency_s + engine.max_batch * accel_per_item_seconds(profile)
        if profile.stack is not None:
            base += PLATFORMS["snic-cpu"].stacks[profile.stack].base_rtt_p99_s
    else:
        services = cpu_service_seconds(profile, platform)
        base = float(np.mean(services)) * 3.0  # light-load p99 ~ a few services
        if profile.stack is not None:
            base += PLATFORMS[platform].stacks[profile.stack].base_rtt_p99_s
    base += profile.latency_extra.get(platform, 0.0)
    return PlatformPrediction(platform=platform, capacity_rps=capacity, base_p99_s=base)


def recommend(
    profile: FunctionProfile,
    required_rps: float = 0.0,
    slo_p99: Optional[float] = None,
    prefer_offload: bool = True,
) -> PlacementDecision:
    """Choose an execution platform for the function.

    Policy: among platforms satisfying the rate requirement and the SLO,
    prefer the SNIC (it frees host cores — the datacenter-tax argument);
    if nothing satisfies, pick the platform with the highest capacity.
    """
    predictions = {
        platform: predict_platform(profile, platform)
        for platform in profile.platforms
    }
    feasible = [
        p for p in predictions.values() if p.meets(required_rps, slo_p99)
    ]
    if feasible:
        snic_feasible = [p for p in feasible if p.platform != "host"]
        if prefer_offload and snic_feasible:
            best = max(snic_feasible, key=lambda p: p.capacity_rps)
            reason = "offload frees host cores and meets rate + SLO"
        else:
            best = max(feasible, key=lambda p: p.capacity_rps)
            reason = "highest-capacity feasible platform"
    else:
        best = max(predictions.values(), key=lambda p: p.capacity_rps)
        reason = "nothing meets the requirement; highest capacity chosen"
    return PlacementDecision(
        profile_key=profile.key,
        platform=best.platform,
        predictions=predictions,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# Cross-node placement: size a fleet of each node profile for a target load
# ---------------------------------------------------------------------------

# Which serving platforms each node profile physically offers.
_NODE_PLATFORMS = {
    "host+bf2": ("host", "snic-cpu", ACCEL_PLATFORM),
    "host-only": ("host",),
    "all-snic": ("snic-cpu", ACCEL_PLATFORM),
}

# Fleet sizing never plans nodes at 100%: headroom for bursts and drains.
FLEET_UTILIZATION_TARGET = 0.7


@dataclass(frozen=True)
class FleetOption:
    """One way to serve the target load: N nodes of one profile."""

    node_profile: str
    platform: str  # serving platform chosen on that node
    node_capacity_rps: float
    nodes: int
    capex_usd: float
    energy_usd: float
    meets_slo: bool

    @property
    def tco_usd(self) -> float:
        return self.capex_usd + self.energy_usd

    @property
    def usd_per_krps(self) -> float:
        """Lifetime dollars per 1000 req/s of planned capacity."""
        planned = self.nodes * self.node_capacity_rps * FLEET_UTILIZATION_TARGET
        return self.tco_usd / (planned / 1000.0) if planned else float("inf")


@dataclass(frozen=True)
class FleetPlacement:
    profile_key: str
    required_rps: float
    options: Dict[str, FleetOption]
    chosen: str
    reason: str

    @property
    def best(self) -> FleetOption:
        return self.options[self.chosen]


def _node_capacity_rps(profile: FunctionProfile, platform: str,
                       serve_cores: int) -> float:
    """Per-node capacity: the single-platform estimate scaled to the
    cores this node profile actually grants the application (accelerator
    capacity is engine-bound, not core-bound)."""
    capacity = estimate_capacity_rps(profile, platform)
    if platform == ACCEL_PLATFORM:
        return capacity
    return capacity * serve_cores / PLATFORMS[platform].cores


def recommend_fleet(
    profile: FunctionProfile,
    required_rps: float,
    slo_p99: Optional[float] = None,
    node_profiles: tuple = ("host+bf2", "host-only", "all-snic"),
    lifetime_years: float = SERVER_LIFETIME_YEARS,
) -> FleetPlacement:
    """Generalize :func:`recommend` from one box to a fleet.

    For each node profile, pick the best serving platform that node
    offers (honoring the SLO floor when one platform can and another
    cannot), size the fleet to carry ``required_rps`` at the planning
    utilization, and price it: component capex plus lifetime energy at
    the planned utilization.  The recommendation is the cheapest option
    that meets the SLO; if none does, the cheapest overall — with the
    reason recorded either way, in the auditable style of
    :func:`recommend`.
    """
    if required_rps <= 0:
        raise ValueError("required_rps must be positive")
    options: Dict[str, FleetOption] = {}
    for key in node_profiles:
        node = NODE_PROFILES[key]
        spec = NODE_SPECS[node.spec_key]
        allowed = [
            p for p in _NODE_PLATFORMS[key]
            if p in profile.platforms
            and (p != ACCEL_PLATFORM
                 or (profile.accel_engine or "") in node.accelerators)
        ]
        if not allowed:
            continue
        predictions = {p: predict_platform(profile, p) for p in allowed}
        capacities = {
            p: _node_capacity_rps(profile, p, node.serve_cores)
            for p in allowed
        }
        slo_ok = [p for p in allowed
                  if slo_p99 is None or predictions[p].base_p99_s <= slo_p99]
        pool = slo_ok or allowed
        platform = max(pool, key=lambda p: (capacities[p], p))
        capacity = capacities[platform]
        nodes = int(np.ceil(required_rps
                            / (capacity * FLEET_UTILIZATION_TARGET)))
        hours = lifetime_years * 365.0 * 24.0
        energy = (nodes * node.power_w(FLEET_UTILIZATION_TARGET) / 1000.0
                  * hours * ELECTRICITY_USD_PER_KWH)
        options[key] = FleetOption(
            node_profile=key,
            platform=platform,
            node_capacity_rps=capacity,
            nodes=nodes,
            capex_usd=nodes * spec.price_usd,
            energy_usd=energy,
            meets_slo=bool(slo_ok),
        )
    if not options:
        raise ValueError(
            f"no node profile can serve function {profile.key!r}")
    feasible = {k: o for k, o in options.items() if o.meets_slo}
    pool = feasible or options
    chosen = min(pool, key=lambda k: (pool[k].tco_usd, k))
    reason = ("cheapest lifetime TCO meeting the SLO" if feasible
              else "nothing meets the SLO; cheapest lifetime TCO chosen")
    return FleetPlacement(
        profile_key=profile.key,
        required_rps=required_rps,
        options=options,
        chosen=chosen,
        reason=reason,
    )

