"""CSV and JSON export of measured results.

Reviewers and downstream tooling want raw numbers, not rendered tables:
the CSV writers serialize the Fig. 4/5/6 and Table 5 result objects with
one row per measurement point, suitable for pandas/gnuplot, and the JSON
artifact writer wraps any registered experiment's result in a stable
machine-readable envelope (``python -m repro <verb> --json FILE``) that
CI validates against the spec's declared schema.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence


def write_fig4_csv(stream: IO[str], rows: Sequence) -> int:
    writer = csv.writer(stream)
    writer.writerow([
        "key", "display", "category", "snic_platform",
        "host_capacity_rps", "host_throughput_rps", "host_goodput_gbps",
        "host_p99_us", "host_power_w",
        "snic_capacity_rps", "snic_throughput_rps", "snic_goodput_gbps",
        "snic_p99_us", "snic_power_w",
        "throughput_ratio", "p99_ratio",
    ])
    for row in rows:
        writer.writerow([
            row.key, row.display, row.category, row.snic_platform,
            f"{row.host.capacity_rps:.2f}",
            f"{row.host.throughput_rps:.2f}",
            f"{row.host.goodput_gbps:.4f}",
            f"{row.host.p99_latency_s * 1e6:.3f}",
            f"{row.host.server_power_w:.2f}",
            f"{row.snic.capacity_rps:.2f}",
            f"{row.snic.throughput_rps:.2f}",
            f"{row.snic.goodput_gbps:.4f}",
            f"{row.snic.p99_latency_s * 1e6:.3f}",
            f"{row.snic.server_power_w:.2f}",
            f"{row.throughput_ratio:.4f}",
            f"{row.p99_ratio:.4f}",
        ])
    return len(rows)


def write_fig5_csv(stream: IO[str], figure) -> int:
    writer = csv.writer(stream)
    writer.writerow([
        "ruleset", "series", "platform", "cores",
        "offered_gbps", "achieved_gbps", "p99_us", "saturated",
    ])
    count = 0
    for ruleset, curves in figure.items():
        for curve in curves:
            for point in curve.points:
                writer.writerow([
                    ruleset, curve.label, curve.platform,
                    curve.cores if curve.cores is not None else "",
                    f"{point.offered_gbps:.2f}",
                    f"{point.achieved_gbps:.3f}",
                    f"{point.p99_latency_s * 1e6:.3f}",
                    int(point.saturated),
                ])
                count += 1
    return count


def write_fig6_csv(stream: IO[str], rows: Sequence) -> int:
    writer = csv.writer(stream)
    writer.writerow([
        "key", "display", "snic_platform",
        "host_power_w", "snic_power_w", "snic_device_w",
        "host_goodput_gbps", "snic_goodput_gbps", "efficiency_ratio",
    ])
    for row in rows:
        writer.writerow([
            row.key, row.display, row.snic_platform,
            f"{row.host_power_w:.2f}", f"{row.snic_power_w:.2f}",
            f"{row.snic_device_w:.2f}",
            f"{row.host_goodput_gbps:.4f}", f"{row.snic_goodput_gbps:.4f}",
            f"{row.efficiency_ratio:.4f}",
        ])
    return len(rows)


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------

# Shape of the envelope every `--json` artifact is wrapped in; the CI
# smoke matrix validates this for every registered verb, then validates
# the "result" payload against the experiment spec's own schema.
ARTIFACT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["experiment", "title", "tier", "seed", "fidelity",
                 "code_version", "result", "partial"],
    "properties": {
        "experiment": {"type": "string"},
        "title": {"type": "string"},
        "tier": {"type": "string"},
        "seed": {"type": "integer"},
        "code_version": {"type": "string"},
        "fidelity": {
            "type": "object",
            "required": ["samples", "requests"],
            "properties": {
                "samples": {"type": "integer"},
                "requests": {"type": "integer"},
            },
        },
        # Run-farm degradation: a partial artifact carries a null (or
        # incomplete) result plus the quarantined unit names; its
        # "result" payload is NOT validated against the spec schema.
        "partial": {"type": "boolean"},
        "quarantined": {"type": "array", "items": {"type": "string"}},
        # SLO burn monitoring (repro.obs.slo): purely informational —
        # present only when ledger bands were evaluated, never required,
        # and never a verdict input.  One target per band.
        "slo": {
            "type": "object",
            "required": ["evaluated", "breaches", "targets"],
            "properties": {
                "evaluated": {"type": "integer"},
                "breaches": {"type": "integer"},
                "targets": {"type": "array", "items": {
                    "type": "object",
                    "required": ["id", "measured", "lo", "hi", "ok"],
                    "properties": {"id": {"type": "string"},
                                   "ok": {"type": "boolean"}},
                }},
            },
        },
    },
}


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` to strict-JSON-safe primitives.

    Dataclasses become dicts, numpy scalars/arrays become Python
    numbers/lists, and non-finite floats become ``null`` — ``NaN`` is
    valid to :mod:`json` but not to strict JSON parsers, and artifacts
    are consumed by tooling we don't control.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if hasattr(value, "tolist"):  # numpy scalar or array
        return to_jsonable(value.tolist())
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    return str(value)


def build_artifact(
    *,
    experiment: str,
    title: str,
    tier: str,
    seed: int,
    fidelity: Mapping[str, Any],
    result: Any,
    partial: bool = False,
    quarantined: Sequence[str] = (),
    slo: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The machine-readable envelope around one experiment's result.

    ``partial=True`` marks a run-farm degraded artifact: the supervisor
    quarantined the named units, ``result`` may be ``null``, and
    downstream schema validation of the result payload is skipped.
    ``slo`` (when given) attaches the informational SLO-burn block; its
    absence keeps pre-telemetry artifacts byte-identical.
    """
    from ..core.cache import CODE_VERSION

    artifact = {
        "experiment": experiment,
        "title": title,
        "tier": tier,
        "seed": seed,
        "fidelity": to_jsonable(dict(fidelity)),
        "code_version": CODE_VERSION,
        "partial": bool(partial),
        "quarantined": [str(name) for name in quarantined],
        "result": to_jsonable(result),
    }
    if slo is not None:
        artifact["slo"] = to_jsonable(dict(slo))
    return artifact


def write_artifact(stream: IO[str], artifact: Mapping[str, Any]) -> None:
    json.dump(artifact, stream, indent=2, sort_keys=False, allow_nan=False)
    stream.write("\n")


def validate_artifact(
    doc: Any, schema: Optional[Mapping[str, Any]], path: str = "$"
) -> List[str]:
    """Check ``doc`` against a minimal JSON-Schema subset; returns errors.

    Supports ``type`` (a name or list of names, with "number" accepting
    integers), ``required``/``properties`` for objects, ``items`` and
    ``minItems`` for arrays, and ``enum`` — enough to pin each
    artifact's shape in CI without a jsonschema dependency.
    """
    if schema is None:
        return []
    errors: List[str] = []

    type_spec = schema.get("type")
    if type_spec is not None:
        allowed = [type_spec] if isinstance(type_spec, str) else list(type_spec)
        if not any(_is_type(doc, name) for name in allowed):
            errors.append(
                f"{path}: expected {'/'.join(allowed)}, "
                f"got {type(doc).__name__}"
            )
            return errors  # structural checks below would be nonsense

    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: {doc!r} not in enum {schema['enum']!r}")

    if isinstance(doc, dict):
        for name in schema.get("required", ()):
            if name not in doc:
                errors.append(f"{path}: missing required key {name!r}")
        for name, sub in schema.get("properties", {}).items():
            if name in doc:
                errors.extend(validate_artifact(doc[name], sub,
                                                f"{path}.{name}"))
    if isinstance(doc, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(doc) < min_items:
            errors.append(f"{path}: expected >= {min_items} items, "
                          f"got {len(doc)}")
        items = schema.get("items")
        if items is not None:
            for index, entry in enumerate(doc):
                errors.extend(validate_artifact(entry, items,
                                                f"{path}[{index}]"))
    return errors


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _is_type(value: Any, name: str) -> bool:
    check = _TYPE_CHECKS.get(name)
    return bool(check and check(value))


def write_table5_csv(stream: IO[str], comparisons: Sequence) -> int:
    writer = csv.writer(stream)
    writer.writerow([
        "application", "snic_servers", "nic_servers",
        "snic_power_w", "nic_power_w",
        "snic_tco_usd", "nic_tco_usd", "savings_fraction",
    ])
    for comparison in comparisons:
        writer.writerow([
            comparison.application,
            comparison.snic_fleet.servers,
            comparison.nic_fleet.servers,
            f"{comparison.snic_fleet.power_per_server_w:.2f}",
            f"{comparison.nic_fleet.power_per_server_w:.2f}",
            f"{comparison.snic_fleet.tco_usd:.2f}",
            f"{comparison.nic_fleet.tco_usd:.2f}",
            f"{comparison.savings_fraction:.4f}",
        ])
    return len(comparisons)
