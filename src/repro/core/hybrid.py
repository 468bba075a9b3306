"""Hybrid analytic/simulation probe-engine selection and trust regions.

The measurement layer can answer a rate probe two ways: run the queueing
kernels (:mod:`repro.core.queueing`) or predict the outcome analytically
(:mod:`repro.core.analytic` M/G/1 / batch models).  The *hybrid* engine
uses the analytic answer only inside a **trust region** — a load range
whose edges have been spot-checked by real simulations that agreed with
the analytic prediction within tolerance — and always simulates near the
saturation knee, so every reported verdict stays simulation-backed
(DESIGN.md "Hybrid probe engine").

Trust regions are content-addressed: the cache key hashes the queueing
model's actual inputs (service moments, cores, caps, RTT floor, seed,
request count), so perturbed calibrations — the sensitivity study and
TCO strategy-1 mutate stack costs in place — can never reuse a record
validated against different physics.

Engine selection is process-global, mirroring the cache and trace
layers: the CLI calls :func:`configure_engine` once, workers receive the
resolved mode inside their work-unit args so fan-out never depends on
inherited globals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

ENGINE_HYBRID = "hybrid"
ENGINE_SIM = "sim"
ENGINES = (ENGINE_HYBRID, ENGINE_SIM)
# The validated fast path is the default; ``--engine sim`` restores the
# pure-simulation behaviour (byte-identical to the pre-hybrid output).
DEFAULT_ENGINE = ENGINE_HYBRID


# Tolerances of the validated analytic fast path.  The knee window is
# the band of ladder load factors (offered rate / analytic capacity
# anchor) that is *always* simulated.  Rungs below it are eligible for
# analytic acceptance, rungs above for analytic rejection, but only
# after the window-edge simulations agreed with the analytic prediction
# (see ``measurement._knee_hybrid``).
SIM_WINDOW_LO = 0.78
SIM_WINDOW_HI = 1.12
# Maximum relative |sim - analytic| p99 disagreement at the low spot
# check under which Fig. 5's sub-window rungs take the analytic p99
# (``measurement.run_validated_ladder``).
P99_TOLERANCE = 0.35


@dataclass
class TrustRecord:
    """One (model, seed, fidelity)'s validated analytic trust region.

    ``low_factor`` is the highest load factor at which a simulation
    confirmed the analytic *accept* (None: analytic acceptance is not
    trusted and sub-window rungs must be simulated); ``high_factor`` the
    lowest factor with a confirmed analytic *reject*.
    """

    anchor_rps: float
    low_factor: Optional[float] = None
    high_factor: Optional[float] = None


_active_engine: str = DEFAULT_ENGINE


def configure_engine(mode: Optional[str]) -> str:
    """Set the process-wide probe engine (None keeps the current one)."""
    global _active_engine
    if mode is not None:
        _active_engine = _validated(mode)
    return _active_engine


def resolve_engine(mode: Optional[str]) -> str:
    """An explicit engine argument, or the process default."""
    if mode is None:
        return _active_engine
    return _validated(mode)


def _validated(mode: str) -> str:
    if mode not in ENGINES:
        raise ValueError(
            f"unknown probe engine {mode!r} (expected one of {ENGINES})")
    return mode

