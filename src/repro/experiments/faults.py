"""Availability under faults: the graceful-degradation experiment.

The paper measures the SNIC at steady state; this study asks what the
same operating points look like when the offload path degrades.  Four
representative functions (REM, compression, a KV store, OvS — the Fig. 4
spread of accelerator-backed and SNIC-CPU functions) are first measured
at their Fig. 4 operating points (the no-fault baseline reproduces those
numbers exactly: same streams, same procedure), then replayed through
fault scenarios:

* ``snic-outage`` — the SNIC path (accelerator engine or SNIC CPU) dies
  for a window; the threshold load balancer must detect it through its
  reaction-delay machinery, fail over to the host, and fail back;
* ``thermal-throttle`` — a degraded-clock episode (BlueField-2-class
  parts document thermal throttling) multiplies SNIC service times;
* ``core-loss`` — half the SNIC cores drop out mid-run;
* ``link-burst-loss`` — correlated (Gilbert-Elliott) loss on the client
  link, absorbed by timeout/retry with exponential backoff.

Each scenario reports availability (served within an SLO deadline), p99
and p999 inflation over the no-fault baseline, drop counts inside and
outside the fault window, host share during the fault, and time to
recover (fault end → traffic back on the SNIC path).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cache import cache_key
from ..core.executor import ParallelExecutor, WorkUnit
from ..core.rng import RandomStreams
from ..faults.models import SnicHealth
from ..faults.retry import RetryPolicy, simulate_retries
from ..faults.schedule import (
    KIND_BURST_LOSS,
    KIND_CORE_LOSS,
    KIND_DEGRADE,
    KIND_OUTAGE,
    FaultSpec,
    FaultTimeline,
)
from ..netstack.link import GilbertElliottLoss
from ..offload.loadbalancer import (
    ROUTE_DROP,
    BalancerConfig,
    BalancerOutcome,
    FailoverOutcome,
    simulate_failover,
)
from .fig4 import snic_platform_for
from .measurement import (
    OperatingPoint,
    measure_operating_point_cached,
    operating_point_json,
)
from .profiles import get_profile
from .registry import (
    DEGRADE_PARTIAL,
    Experiment,
    ExperimentContext,
    register,
    smoke_tier,
)

logger = logging.getLogger("repro.faults")

# Fig. 4 spread: two accelerator-backed functions, a kernel-stack KV
# store, and a SNIC-CPU packet function.
FAULT_FUNCTIONS = ("rem:file_image", "compression:app", "redis:a", "ovs:10")
SMOKE_FUNCTIONS = ("redis:a", "ovs:10")

SNIC_PATH = "snic"  # timeline target name for the offload path
LINK_PATH = "link"

# Operating point: offered rate as a fraction of the SNIC path's measured
# capacity (below saturation so the baseline stays clean, high enough
# that faults bite).
RATE_FRACTION = 0.75
CORES = 8


@dataclass
class ScenarioResult:
    """One (function, scenario) cell of the availability study."""

    function: str
    scenario: str
    offered: int
    availability: float
    baseline_p99_s: float
    p99_s: float
    p999_s: float
    dropped: int
    drops_outside_fault_s: int
    host_share_steady: float
    host_share_fault: float
    recovery_s: float  # nan when the scenario has no outage to recover from
    # Mean extra delay survivors spent in timeout/retry backoff (the
    # "retry/fault stall" attribution component; 0 outside link faults).
    retry_stall_mean_s: float = 0.0
    fault_windows: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def p99_inflation(self) -> float:
        if self.baseline_p99_s <= 0:
            return float("inf")
        return self.p99_s / self.baseline_p99_s


@dataclass
class FunctionFaultReport:
    """Baseline operating points plus every scenario outcome."""

    function: str
    snic_platform: str
    host: OperatingPoint
    snic: OperatingPoint
    offered_rate_rps: float
    deadline_s: float
    scenarios: List[ScenarioResult] = field(default_factory=list)


@dataclass
class FaultStudyResult:
    reports: List[FunctionFaultReport]

    def by_function(self) -> Dict[str, FunctionFaultReport]:
        return {r.function: r for r in self.reports}


# ---------------------------------------------------------------------------
# Scenario construction
# ---------------------------------------------------------------------------


def _balancer_config(host: OperatingPoint, snic: OperatingPoint) -> BalancerConfig:
    """Fold the measured Fig. 4 capacities into the fluid two-path model.

    The balancer's effective per-request service time on a path is
    ``service_s / cores``; setting ``service_s = cores / capacity`` makes
    the path saturate exactly at its measured operating-point capacity.
    Thresholds scale with the path's service time so slow functions
    (compression) and fast ones (OvS) get comparable policies.
    """
    snic_service_s = CORES / snic.capacity_rps
    host_service_s = CORES / host.capacity_rps
    snic_eff = snic_service_s / CORES
    return BalancerConfig(
        snic_service_s=snic_service_s,
        host_service_s=host_service_s,
        snic_cores=CORES,
        host_cores=CORES,
        redirect_threshold_s=25.0 * snic_eff,
        snic_queue_limit_s=250.0 * snic_eff,
        host_queue_limit_s=250.0 * snic_eff,
        monitor_cost_s=600 / 2.0e9,  # §5.3 SNIC-CPU balancer
        reaction_delay_s=min(100e-6, 10.0 * snic_eff),
    )


def scenario_specs(scenario: str, horizon_s: float) -> List[FaultSpec]:
    """The fault schedule for a named scenario over a run of ``horizon_s``."""
    t0, t1 = 0.35 * horizon_s, 0.60 * horizon_s
    if scenario == "snic-outage":
        return [FaultSpec.one_shot("snic-outage", SNIC_PATH, start_s=t0,
                                   duration_s=t1 - t0, kind=KIND_OUTAGE)]
    if scenario == "thermal-throttle":
        return [FaultSpec.one_shot("thermal-throttle", SNIC_PATH, start_s=t0,
                                   duration_s=t1 - t0, kind=KIND_DEGRADE,
                                   severity=2.5)]
    if scenario == "core-loss":
        return [FaultSpec.one_shot("core-loss", SNIC_PATH, start_s=t0,
                                   duration_s=t1 - t0, kind=KIND_CORE_LOSS,
                                   severity=0.5)]
    if scenario == "link-burst-loss":
        return [FaultSpec.one_shot("link-burst-loss", LINK_PATH, start_s=t0,
                                   duration_s=t1 - t0, kind=KIND_BURST_LOSS,
                                   severity=1.0)]
    raise ValueError(f"unknown scenario {scenario!r}")


BALANCER_SCENARIOS = ("snic-outage", "thermal-throttle", "core-loss")
ALL_SCENARIOS = BALANCER_SCENARIOS + ("link-burst-loss",)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def _fault_union(timeline: FaultTimeline) -> List[Tuple[float, float]]:
    windows = [
        (start, end)
        for spec in timeline.specs
        for start, end in timeline.episodes(spec.name)
    ]
    return sorted(windows)


def _summarize(
    function: str,
    scenario: str,
    run: FailoverOutcome,
    baseline_p99_s: float,
    windows: List[Tuple[float, float]],
    recovery: float,
) -> ScenarioResult:
    horizon = float(run.arrivals[-1]) if run.offered else 0.0
    inside = 0
    for start, end in windows:
        inside += run.drops_between(start, end)
    # Drops shortly after a window are still fault-attributable (queues
    # drain, the stale observation lags); "outside" means beyond a small
    # grace period after every window.
    grace = 0.1 * horizon
    outside = run.outcome.dropped
    for start, end in windows:
        outside -= run.drops_between(start, min(end + grace, horizon + 1.0))
    outside = max(0, outside)
    steady_share = run.host_fraction_between(0.0, windows[0][0]) if windows else (
        run.host_fraction_between(0.0, horizon))
    fault_share = (
        max(run.host_fraction_between(start, end) for start, end in windows)
        if windows
        else 0.0
    )
    return ScenarioResult(
        function=function,
        scenario=scenario,
        offered=run.offered,
        availability=run.availability,
        baseline_p99_s=baseline_p99_s,
        p99_s=run.outcome.p99_latency_s,
        p999_s=run.p999_latency_s,
        dropped=run.outcome.dropped,
        drops_outside_fault_s=outside,
        host_share_steady=steady_share,
        host_share_fault=fault_share,
        recovery_s=recovery,
        fault_windows=windows,
    )


def _run_balancer_scenario(
    function: str,
    scenario: str,
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    deadline_s: float,
    baseline_p99_s: float,
    streams: RandomStreams,
) -> ScenarioResult:
    horizon = n_packets / rate
    timeline = FaultTimeline(scenario_specs(scenario, horizon), horizon)
    health = SnicHealth(timeline, target=SNIC_PATH)
    rng = streams.stream(f"faults:{function}:{scenario}")
    run = simulate_failover(config, rate, n_packets, rng, snic_health=health,
                            deadline_s=deadline_s)
    recoveries = run.recovery_times_s()
    finite = [r for r in recoveries if np.isfinite(r)]
    recovery = max(finite) if finite else (float("inf") if recoveries
                                           else float("nan"))
    return _summarize(function, scenario, run, baseline_p99_s,
                      _fault_union(timeline), recovery)


def _run_link_scenario(
    function: str,
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    deadline_s: float,
    baseline_p99_s: float,
    streams: RandomStreams,
) -> ScenarioResult:
    """Bursty correlated loss on the client link, healed by retries.

    The balancer itself runs fault-free; inside the fault window each
    packet's transmissions traverse a Gilbert-Elliott chain, and lost
    attempts are retried under exponential backoff with jitter.  A packet
    that exhausts its attempts is a drop; survivors carry their
    accumulated retry delay on top of the service sojourn.
    """
    horizon = n_packets / rate
    timeline = FaultTimeline(scenario_specs("link-burst-loss", horizon),
                             horizon)
    rng = streams.stream(f"faults:{function}:link-burst-loss")
    run = simulate_failover(config, rate, n_packets, rng, snic_health=None,
                            deadline_s=deadline_s)

    snic_eff = config.snic_service_s / config.snic_cores
    policy = RetryPolicy(timeout_s=max(100e-6, 10.0 * snic_eff),
                         max_attempts=5, backoff_factor=2.0,
                         jitter_fraction=0.2)
    # Mean burst length 10 packets; ~2 % of in-window packets enter a burst.
    chain = GilbertElliottLoss(p_good_to_bad=0.02, p_bad_to_good=0.10)
    loss_rng = streams.stream(f"faults:{function}:ge-chain")

    in_window = timeline.active_mask(run.arrivals, LINK_PATH, KIND_BURST_LOSS)
    kept_idx = np.flatnonzero(run.routes != ROUTE_DROP)
    extra = np.zeros(run.offered)
    delivered = np.ones(run.offered, dtype=bool)
    for i in np.flatnonzero(in_window):
        outcome = simulate_retries(lambda _a: chain.lost(loss_rng), policy,
                                   loss_rng)
        extra[i] = outcome.extra_delay_s
        delivered[i] = outcome.delivered

    routes = run.routes.copy()
    routes[~delivered] = ROUTE_DROP
    survivor_mask = delivered[kept_idx]
    latencies = run.latencies[survivor_mask] + extra[kept_idx][survivor_mask]
    dropped = int(np.sum(routes == ROUTE_DROP))
    lost_to_retry = dropped - run.outcome.dropped
    healed = FailoverOutcome(
        outcome=BalancerOutcome(
            sent_to_snic=max(0, run.outcome.sent_to_snic - lost_to_retry),
            sent_to_host=run.outcome.sent_to_host,
            dropped=dropped,
            p99_latency_s=(float(np.percentile(latencies, 99))
                           if len(latencies) else float("inf")),
            mean_latency_s=(float(np.mean(latencies))
                            if len(latencies) else float("inf")),
            snic_monitor_utilization=run.outcome.snic_monitor_utilization,
        ),
        deadline_s=deadline_s,
        p999_latency_s=(float(np.percentile(latencies, 99.9))
                        if len(latencies) else float("inf")),
        arrivals=run.arrivals,
        routes=routes,
        latencies=latencies,
        outage_windows=[],
    )
    result = _summarize(function, "link-burst-loss", healed, baseline_p99_s,
                        _fault_union(timeline), float("nan"))
    stalls = extra[kept_idx][survivor_mask]
    result.retry_stall_mean_s = float(np.mean(stalls)) if len(stalls) else 0.0
    return result


# ---------------------------------------------------------------------------
# The study
# ---------------------------------------------------------------------------


def compute_function_report(
    key: str,
    scenarios: Sequence[str],
    samples: int,
    n_requests: int,
    n_packets: int,
    seed: int,
) -> FunctionFaultReport:
    """Picklable work unit: one function's full fault report.

    Rebuilds a fresh ``RandomStreams(seed)``; the operating points and
    every ``faults:{key}:...`` substream depend only on ``(seed, name)``,
    so per-function fan-out reproduces the serial study exactly.
    """
    logger.info("fault report: %s (%d scenarios)", key, len(scenarios))
    streams = RandomStreams(seed)
    profile = get_profile(key, samples=samples)
    platform = snic_platform_for(profile)
    host = measure_operating_point_cached(key, "host", seed, samples,
                                          n_requests)
    snic = measure_operating_point_cached(key, platform, seed, samples,
                                          n_requests)
    config = _balancer_config(host, snic)
    rate = RATE_FRACTION * snic.capacity_rps
    snic_eff = config.snic_service_s / config.snic_cores
    deadline_s = 500.0 * snic_eff

    rng = streams.stream(f"faults:{key}:baseline")
    baseline = simulate_failover(config, rate, n_packets, rng,
                                 snic_health=None, deadline_s=deadline_s)
    report = FunctionFaultReport(
        function=key,
        snic_platform=platform,
        host=host,
        snic=snic,
        offered_rate_rps=rate,
        deadline_s=deadline_s,
    )
    report.scenarios.append(
        _summarize(key, "no-fault", baseline,
                   baseline.outcome.p99_latency_s, [], float("nan"))
    )
    base_p99 = baseline.outcome.p99_latency_s
    for scenario in scenarios:
        if scenario == "link-burst-loss":
            report.scenarios.append(
                _run_link_scenario(key, config, rate, n_packets,
                                   deadline_s, base_p99, streams)
            )
        else:
            report.scenarios.append(
                _run_balancer_scenario(key, scenario, config, rate,
                                       n_packets, deadline_s, base_p99,
                                       streams)
            )
    return report


def run_faults_study(
    functions: Sequence[str] = FAULT_FUNCTIONS,
    samples: int = 200,
    n_requests: int = 12_000,
    n_packets: int = 30_000,
    streams: Optional[RandomStreams] = None,
    scenarios: Sequence[str] = ALL_SCENARIOS,
    smoke: bool = False,
    jobs: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FaultStudyResult:
    """Measure Fig. 4 operating points, then replay them under faults.

    ``smoke`` shrinks the study (two functions, small samples) so CI can
    exercise the whole path in seconds.  Functions are independent work
    units, so ``jobs=N`` parallelizes across them deterministically.
    """
    if smoke:
        functions = SMOKE_FUNCTIONS
        samples = min(samples, 40)
        n_requests = min(n_requests, 2_500)
        n_packets = min(n_packets, 8_000)
    streams = streams or RandomStreams(2023)
    seed = streams.root_seed
    executor = executor or ParallelExecutor(jobs)

    units = [
        WorkUnit(
            name=f"faults:{key}",
            fn=compute_function_report,
            args=(key, tuple(scenarios), samples, n_requests, n_packets, seed),
        )
        for key in functions
    ]
    keys = [
        cache_key("faults-report", key, tuple(scenarios), samples,
                  n_requests, n_packets, seed)
        for key in functions
    ]
    reports = executor.map_keyed(units, keys)
    return FaultStudyResult(reports=list(reports))


def format_faults(result: FaultStudyResult) -> str:
    """Aligned text rendering for the CLI."""
    lines: List[str] = []
    for report in result.reports:
        lines.append(
            f"{report.function} [{report.snic_platform}] — offered "
            f"{report.offered_rate_rps:,.0f} rps "
            f"(snic cap {report.snic.capacity_rps:,.0f}, host cap "
            f"{report.host.capacity_rps:,.0f}), SLO deadline "
            f"{report.deadline_s * 1e6:.0f} us"
        )
        lines.append(
            f"  {'scenario':<18} {'avail':>8} {'p99 us':>10} {'p999 us':>10} "
            f"{'x base':>7} {'drops':>7} {'late-drop':>9} {'host%':>6} "
            f"{'stall us':>9} {'recover ms':>11}"
        )
        for s in report.scenarios:
            recover = ("-" if not np.isfinite(s.recovery_s)
                       else f"{s.recovery_s * 1e3:.2f}")
            lines.append(
                f"  {s.scenario:<18} {s.availability:>8.2%} "
                f"{s.p99_s * 1e6:>10.1f} {s.p999_s * 1e6:>10.1f} "
                f"{s.p99_inflation:>7.2f} {s.dropped:>7d} "
                f"{s.drops_outside_fault_s:>9d} "
                f"{s.host_share_fault:>6.0%} "
                f"{s.retry_stall_mean_s * 1e6:>9.2f} {recover:>11}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def _faults_runner(ctx: ExperimentContext) -> FaultStudyResult:
    fid = ctx.fidelity()
    return run_faults_study(samples=fid.samples, n_requests=fid.requests,
                            streams=ctx.streams, smoke=ctx.smoke,
                            executor=ctx.executor)


def _scenario_json(s: ScenarioResult) -> dict:
    return {
        "scenario": s.scenario,
        "availability": s.availability,
        "p99_s": s.p99_s,
        "p999_s": s.p999_s,
        "p99_inflation": s.p99_inflation,
        "dropped": s.dropped,
        "drops_outside_fault_s": s.drops_outside_fault_s,
        "host_share_fault": s.host_share_fault,
        "retry_stall_mean_s": s.retry_stall_mean_s,
        "recovery_s": s.recovery_s,
    }


def faults_json(result: FaultStudyResult) -> list:
    return [
        {
            "function": r.function,
            "snic_platform": r.snic_platform,
            "offered_rate_rps": r.offered_rate_rps,
            "deadline_s": r.deadline_s,
            "host": operating_point_json(r.host),
            "snic": operating_point_json(r.snic),
            "scenarios": [_scenario_json(s) for s in r.scenarios],
        }
        for r in result.reports
    ]


register(Experiment(
    name="faults",
    title="Availability under faults: failover and graceful degradation",
    description="Fig. 4 operating points replayed through SNIC outage, "
                "thermal throttle, core loss, and bursty link loss",
    runner=_faults_runner,
    formatter=format_faults,
    to_json=faults_json,
    schema={
        "type": "array",
        "minItems": 1,
        "items": {
            "type": "object",
            "required": ["function", "snic_platform", "offered_rate_rps",
                         "deadline_s", "scenarios"],
            "properties": {
                "function": {"type": "string"},
                "snic_platform": {"type": "string"},
                "scenarios": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["scenario", "availability", "p99_s",
                                     "dropped"],
                        "properties": {
                            "scenario": {"type": "string"},
                            "availability": {"type": "number"},
                            # inf/nan serialize to null by design
                            "p99_inflation": {"type": ["number", "null"]},
                            "recovery_s": {"type": ["number", "null"]},
                        },
                    },
                },
            },
        },
    },
    tiers=smoke_tier(),
    # An extension study: losing one scenario replay should not take the
    # whole report down — degrade to a partial-results verdict and let
    # --resume retry the quarantined units.
    unit_granularity="one (function, fault-scenario) replay",
    degradation=DEGRADE_PARTIAL,
))
