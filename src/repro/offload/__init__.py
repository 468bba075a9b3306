"""Offload strategies (§5.3): placement advisor and load balancing."""

from .advisor import (
    FleetOption,
    FleetPlacement,
    PlacementDecision,
    PlatformPrediction,
    predict_platform,
    recommend,
    recommend_fleet,
)
from .loadbalancer import (
    ROUTE_DROP,
    ROUTE_HOST,
    ROUTE_SNIC,
    BalancerConfig,
    BalancerOutcome,
    FailoverOutcome,
    FleetOutcome,
    NodePathConfig,
    hardware_balancer,
    simulate_balancer,
    simulate_failover,
    simulate_fleet,
    snic_cpu_balancer,
)

__all__ = [
    "ROUTE_DROP",
    "ROUTE_HOST",
    "ROUTE_SNIC",
    "FailoverOutcome",
    "FleetOption",
    "FleetOutcome",
    "FleetPlacement",
    "NodePathConfig",
    "recommend_fleet",
    "simulate_failover",
    "simulate_fleet",
    "PlacementDecision",
    "PlatformPrediction",
    "predict_platform",
    "recommend",
    "BalancerConfig",
    "BalancerOutcome",
    "hardware_balancer",
    "simulate_balancer",
    "snic_cpu_balancer",
]
