"""Closed-form queueing estimators behind the rate ladders.

The measurement layer (`experiments.measurement`) uses these for two
things:

* **Ladder anchors.** :func:`sharded_capacity` and
  :func:`batch_capacity` give the saturation rate of a CPU platform and
  of an accelerator; the fixed knee-search ladder (``LADDER_FACTORS``)
  is laid out as multiples of that anchor.
* **Hybrid predictions.** Under the hybrid engine, rungs far from the
  knee are answered per RSS shard by the M/G/1 (Pollaczek–Khinchine)
  mean wait and its exponential-tail p99 instead of a simulation, but
  only inside a trust region the simulated rungs validated.

The M/M/c closed forms (:func:`erlang_c`, :func:`mmc_wait_mean`) are
the oracle the M/G/1 mean wait is tested against at exponential
service.

These are *estimators*: every verdict-deciding number is still
simulated.
"""

from __future__ import annotations

import math

__all__ = [
    "erlang_c",
    "mmc_wait_mean",
    "mg1_wait_mean",
    "mg1_sojourn_p99",
    "sharded_capacity",
    "batch_capacity",
]


def erlang_c(servers: int, offered_load: float) -> float:
    """P(wait > 0) in an M/M/c system (Erlang's C formula).

    ``offered_load`` is a = lambda / mu in Erlangs; requires a < servers
    (a stable system).  Computed with the usual recurrence on the
    Erlang-B blocking probability to stay numerically stable for large
    ``servers``.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if offered_load < 0:
        raise ValueError("offered load must be non-negative")
    if offered_load >= servers:
        return 1.0
    # Erlang B via the stable recurrence B(0) = 1,
    # B(k) = a B(k-1) / (k + a B(k-1)).
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    rho = offered_load / servers
    return blocking / (1.0 - rho + rho * blocking)


def mmc_wait_mean(rate: float, service_mean: float, servers: int) -> float:
    """Mean queueing wait (seconds) of an M/M/c system; inf if unstable."""
    if rate <= 0:
        return 0.0
    offered = rate * service_mean
    if offered >= servers:
        return float("inf")
    wait_probability = erlang_c(servers, offered)
    return wait_probability * service_mean / (servers - offered)


def mg1_wait_mean(rate: float, service_mean: float, service_scv: float) -> float:
    """Pollaczek–Khinchine mean wait of an M/G/1 queue; inf if unstable.

    ``service_scv`` is the squared coefficient of variation
    Var[S] / E[S]^2 (0 deterministic, 1 exponential).
    """
    rho = rate * service_mean
    if rho >= 1.0:
        return float("inf")
    return rho * service_mean * (1.0 + service_scv) / (2.0 * (1.0 - rho))


def mg1_sojourn_p99(rate: float, service_mean: float, service_scv: float) -> float:
    """Approximate p99 sojourn of an M/G/1 queue (seconds).

    Uses the standard exponential-tail approximation
    P(W > t) ~= rho * exp(-t / (W_mean / rho)) with the P-K mean wait,
    plus the mean service.  Used only for hybrid-engine rungs inside a
    simulation-validated trust region.
    """
    rho = rate * service_mean
    if rho >= 1.0:
        return float("inf")
    if rho <= 0.0:
        return service_mean
    wait_mean = mg1_wait_mean(rate, service_mean, service_scv)
    tail = 0.01
    if rho <= tail:
        return service_mean
    wait_p99 = (wait_mean / rho) * math.log(rho / tail)
    return service_mean + max(wait_p99, 0.0)


def sharded_capacity(service_mean: float, cores: int) -> float:
    """Saturation rate of ``cores`` RSS-sharded servers (requests/s)."""
    if service_mean <= 0:
        raise ValueError("service_mean must be positive")
    if cores < 1:
        raise ValueError("cores must be >= 1")
    return cores / service_mean


def batch_capacity(setup_time: float, per_item_time: float, max_batch: int) -> float:
    """Saturation rate of a batch engine running full batches.

    At saturation every batch is full, so the setup cost amortizes over
    ``max_batch`` items: rate = 1 / (per_item + setup / max_batch).
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    denominator = per_item_time + setup_time / max_batch
    if denominator <= 0:
        raise ValueError("degenerate batch timing")
    return 1.0 / denominator
