"""Microburst tolerance study (extension of §5.1).

The Fig. 7 trace is bursty: its p99 rate is several times its mean, and
Zhang et al. (cited by the paper) show datacenter traffic microbursts at
sub-millisecond scales.  Average-rate provisioning therefore understates
tail latency.  This study drives REM with on/off traffic — a fixed mean
rate delivered in bursts of increasing peak-to-mean ratio — and measures
how the host software path and the accelerator path absorb them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.executor import ParallelExecutor, WorkUnit
from ..core.queueing import (
    QueueOutcome,
    bounded_waits_reference,
    outcome_to_metrics,
)
from ..core.rng import RandomStreams
from ..core.units import gbps_to_bytes_per_second
from ..calibration import ACCELERATORS, PLATFORMS
from .measurement import (
    ACCEL_PLATFORM,
    BATCH_TIMEOUT_S,
    _add_fixed_latency,
    accel_per_item_seconds,
    cpu_cores,
    cpu_service_seconds,
)
from .profiles import FunctionProfile, get_profile
from .registry import (
    DEGRADE_PARTIAL,
    Experiment,
    ExperimentContext,
    register,
    smoke_tier,
)


@dataclass
class BurstPoint:
    platform: str
    peak_to_mean: float
    mean_gbps: float
    p99_latency_s: float
    loss_fraction: float


def _burst_arrivals(
    mean_rate: float,
    peak_to_mean: float,
    n: int,
    rng: np.random.Generator,
    burst_period_s: float = 200e-6,
) -> np.ndarray:
    """On/off arrival times with the given mean rate and burst intensity.

    During the 'on' share (1/peak_to_mean of each period) packets arrive
    at peak_to_mean x the mean rate; the rest of the period is silent.
    """
    if peak_to_mean < 1.0:
        raise ValueError("peak-to-mean must be >= 1")
    on_fraction = 1.0 / peak_to_mean
    peak_rate = mean_rate * peak_to_mean
    arrivals = np.empty(n)
    period_start = 0.0
    index = 0
    while index < n:
        on_end = period_start + burst_period_s * on_fraction
        t = period_start
        while index < n:
            t += float(rng.exponential(1.0 / peak_rate))
            if t >= on_end:
                break
            arrivals[index] = t
            index += 1
        period_start += burst_period_s
    return arrivals[:n]


def _measure(
    profile: FunctionProfile,
    platform: str,
    mean_gbps: float,
    peak_to_mean: float,
    streams: RandomStreams,
    n_requests: int,
) -> BurstPoint:
    rng = streams.stream(f"burst:{platform}:{peak_to_mean}")
    mean_rate = gbps_to_bytes_per_second(mean_gbps) / profile.wire_bytes
    arrivals = _burst_arrivals(mean_rate, peak_to_mean, n_requests, rng)
    gaps = np.diff(np.concatenate([[0.0], arrivals]))

    if platform == ACCEL_PLATFORM:
        # reuse the batch server against the bursty gap sequence by
        # resampling its arrival machinery: emulate with per-gap pacing
        engine = ACCELERATORS[profile.accel_engine]
        per_item = accel_per_item_seconds(profile)
        # batch simulation over explicit arrivals
        sojourns = np.empty(n_requests)
        services = np.full(n_requests, per_item)
        free_at = 0.0
        i = 0
        while i < n_requests:
            deadline = arrivals[i] + BATCH_TIMEOUT_S
            end = i + 1
            while (end < n_requests and end - i < engine.max_batch
                   and arrivals[end] <= deadline):
                end += 1
            dispatch = max(deadline if end - i < engine.max_batch
                           else arrivals[end - 1], free_at)
            finish = dispatch + engine.setup_latency_s + (end - i) * per_item
            sojourns[i:end] = finish - arrivals[i:end]
            free_at = finish
            i = end
        outcome = QueueOutcome(sojourns=sojourns, services=services,
                               arrivals=arrivals)
        outcome = _add_fixed_latency(outcome, profile, platform, rng)
        metrics = outcome_to_metrics(outcome, mean_rate, profile.wire_bytes)
        loss = 0.0
    else:
        services = cpu_service_seconds(profile, platform)
        cores = cpu_cores(profile, platform)
        calibration = PLATFORMS[platform]
        limit = calibration.stacks[profile.stack].queue_limit_s if profile.stack else 2e-3
        # shard the bursty arrivals round-robin
        shard_arrivals = np.cumsum(gaps * cores)  # thinned stream approximation
        service_draw = rng.choice(services, size=n_requests)
        kept, waits, _, _ = bounded_waits_reference(
            shard_arrivals, service_draw, limit)
        dropped = n_requests - int(kept.sum())
        outcome = QueueOutcome(
            sojourns=waits + service_draw[kept], services=service_draw[kept],
            arrivals=shard_arrivals[kept], dropped=dropped,
        )
        outcome = _add_fixed_latency(outcome, profile, platform, rng)
        metrics = outcome_to_metrics(outcome, mean_rate, profile.wire_bytes,
                                     cores=cores)
        loss = dropped / n_requests

    return BurstPoint(
        platform=platform,
        peak_to_mean=peak_to_mean,
        mean_gbps=mean_gbps,
        p99_latency_s=metrics.latency_p99,
        loss_fraction=loss,
    )


def _burst_point(
    platform: str,
    mean_gbps: float,
    peak_to_mean: float,
    seed: int,
    samples: int,
    n_requests: int,
) -> BurstPoint:
    """Picklable work unit: one (platform, burst-intensity) cell.

    Rebuilds the profile and a fresh ``RandomStreams(seed)``; the cell's
    draws come from the ``burst:{platform}:{ratio}`` substream, a name no
    other cell uses, so results are schedule-independent.
    """
    profile = get_profile("rem:file_executable@mtu", samples=samples)
    return _measure(profile, platform, mean_gbps, peak_to_mean,
                    RandomStreams(seed), n_requests)


def run_microburst_study(
    mean_gbps: float = 20.0,
    peak_to_mean_ratios: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    samples: int = 150,
    n_requests: int = 12_000,
    streams: Optional[RandomStreams] = None,
    executor: Optional[ParallelExecutor] = None,
) -> Dict[str, List[BurstPoint]]:
    """REM under bursty load: host (8 cores) vs the accelerator.

    Every (ratio, platform) cell is an independent work unit, so a
    shared ``executor`` fans them out with output identical to the
    serial run.
    """
    streams = streams or RandomStreams(77)
    seed = streams.root_seed
    executor = executor or ParallelExecutor(1)
    grid = [(float(ratio), platform)
            for ratio in peak_to_mean_ratios
            for platform in ("host", ACCEL_PLATFORM)]
    units = [
        WorkUnit(name=f"microburst:{platform}:{ratio:g}", fn=_burst_point,
                 args=(platform, mean_gbps, ratio, seed, samples, n_requests))
        for ratio, platform in grid
    ]
    points = executor.map(units)
    results: Dict[str, List[BurstPoint]] = {"host": [], ACCEL_PLATFORM: []}
    for (_, platform), point in zip(grid, points):
        results[platform].append(point)
    return results


def format_microburst(results: Dict[str, List[BurstPoint]]) -> str:
    lines = [
        f"{'peak/mean':>10} {'host p99 us':>12} {'host loss':>10} "
        f"{'accel p99 us':>13}"
    ]
    for host_point, accel_point in zip(results["host"], results[ACCEL_PLATFORM]):
        lines.append(
            f"{host_point.peak_to_mean:>10.0f} "
            f"{host_point.p99_latency_s*1e6:>12.1f} "
            f"{host_point.loss_fraction:>10.2%} "
            f"{accel_point.p99_latency_s*1e6:>13.1f}"
        )
    return "\n".join(lines)


def _microburst_runner(ctx: ExperimentContext) -> Dict[str, List[BurstPoint]]:
    fid = ctx.fidelity()
    return run_microburst_study(samples=fid.samples, n_requests=fid.requests,
                                streams=ctx.streams, executor=ctx.executor)


register(Experiment(
    name="microburst",
    title="Microburst tolerance: bursty REM load, host vs accelerator",
    description="REM at a fixed mean rate delivered in on/off bursts of "
                "increasing peak-to-mean ratio",
    runner=_microburst_runner,
    formatter=format_microburst,
    to_json=lambda results: {
        platform: [
            {"peak_to_mean": p.peak_to_mean, "mean_gbps": p.mean_gbps,
             "p99_latency_s": p.p99_latency_s,
             "loss_fraction": p.loss_fraction}
            for p in points
        ]
        for platform, points in results.items()
    },
    schema={
        "type": "object",
        "required": ["host", ACCEL_PLATFORM],
        "properties": {
            platform: {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["peak_to_mean", "mean_gbps",
                                 "p99_latency_s", "loss_fraction"],
                },
            }
            for platform in ("host", ACCEL_PLATFORM)
        },
    },
    tiers=smoke_tier(),
    unit_granularity="one (platform, peak-to-mean) burst run",
    degradation=DEGRADE_PARTIAL,
))
