"""SLO burn monitor: is this run drifting off the paper's anchors?

Each successful ``ctx.run(name)`` result is checked against every band
of the anchor ledger (:mod:`repro.analysis.anchors`) that reads
experiment ``name``.  Each measurement becomes a
``slo.<experiment>.<band id>`` gauge; ``slo.evaluated``/``slo.breaches``
count totals; each breach logs a structured warning on the
``repro.slo`` logger (info at smoke fidelity, where low sample counts
make drift expected); and the findings form a non-verdict ``slo`` block
in the ``--json`` artifact envelope.

**Drift never changes a verdict or an exit code.**  The Key-Observation
gates remain the only science gates.  The bands are the ones the tier-1
anchor tests assert, so a default-fidelity run of a healthy model
evaluates with zero breaches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..analysis import anchors
from . import metrics

logger = logging.getLogger("repro.slo")

EVALUATED = "slo.evaluated"
BREACHES = "slo.breaches"


@dataclass(frozen=True)
class SloFinding:
    """One evaluated band: the measurement and whether it is in band."""

    experiment: str
    target: str  # the ledger band id
    description: str
    measured: float
    lo: Optional[float]
    hi: Optional[float]
    ok: bool

    def describe(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "+inf" if self.hi is None else f"{self.hi:g}"
        state = "in band" if self.ok else "BREACH"
        return (f"{self.experiment}.{self.target} = {self.measured:.4g} "
                f"[{lo}, {hi}] {state} ({self.description})")


def evaluate(experiment: str, result: Any) -> List[SloFinding]:
    """Check every ledger band of ``experiment`` against ``result``.

    Bands whose extractor raises (a smoke subset dropped the key, or the
    result shape changed) are skipped, not failed.
    """
    findings: List[SloFinding] = []
    for anchor, band in anchors.bands(experiment):
        try:
            measured = band.extract(result)
        except Exception:  # noqa: BLE001 — observability must not break runs
            logger.debug("slo extractor %s.%s failed", experiment, band.id,
                         exc_info=True)
            continue
        findings.append(SloFinding(
            experiment=experiment,
            target=band.id,
            description=(f"{anchor.artifact} {anchor.quantity}, "
                         f"paper {anchor.paper}, {band.section}"),
            measured=measured,
            lo=band.lo,
            hi=band.hi,
            ok=band.holds(measured),
        ))
    return findings


def observe(experiment: str, result: Any, *,
            smoke: bool = False) -> List[SloFinding]:
    """Evaluate, record as metrics, and log breaches; returns findings.

    Each measurement becomes a ``slo.<experiment>.<target>`` gauge;
    ``slo.evaluated``/``slo.breaches`` count totals.  Breaches log a
    structured warning (info at smoke fidelity, where drift is expected
    at tiny sample counts).  Never raises, never alters exit codes.
    """
    findings = evaluate(experiment, result)
    if not findings:
        return findings
    registry = metrics.registry()
    registry.counter(EVALUATED).inc(len(findings))
    breaches = [f for f in findings if not f.ok]
    if breaches:
        registry.counter(BREACHES).inc(len(breaches))
    for finding in findings:
        registry.gauge(f"slo.{experiment}.{finding.target}").set(
            finding.measured)
    level = logging.INFO if smoke else logging.WARNING
    for finding in breaches:
        logger.log(level, "SLO drift: %s", finding.describe())
    return findings


def block(findings: Sequence[SloFinding]) -> Optional[Dict[str, Any]]:
    """The non-verdict ``slo`` block for the JSON artifact envelope."""
    findings = list(findings)
    if not findings:
        return None
    return {
        "evaluated": len(findings),
        "breaches": sum(1 for f in findings if not f.ok),
        "targets": [
            {
                "id": f.target,
                "measured": f.measured,
                "lo": f.lo,
                "hi": f.hi,
                "ok": f.ok,
                "description": f.description,
            }
            for f in findings
        ],
    }
