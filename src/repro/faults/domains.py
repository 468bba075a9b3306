"""Correlated fault domains: rack-scope schedules.

Single-node fault schedules treat every target independently; at cluster
scale the interesting failures are *correlated* — a rack PDU trip takes
every node in the rack down together.  This module expands one logical
event into a per-target family of one-shot
:class:`~repro.faults.schedule.FaultSpec` objects with the same window,
so the whole domain fails and recovers in lockstep.

Targets follow the cluster naming convention: ``node:<id>`` for server
nodes, which :class:`repro.cluster.node.Node` understands.
:func:`outage_windows` flattens a materialized timeline back into
per-target ``(start, end)`` windows — the shape
:class:`repro.offload.loadbalancer.NodePathConfig` expects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .schedule import KIND_OUTAGE, Episode, FaultSpec, FaultTimeline

# Target-id helpers (the cluster layer's component namespace).


def node_target(node_id: int) -> str:
    return f"node:{node_id}"


def rack_targets(topo, rack: int) -> List[str]:
    """Targets for every node in ``rack`` of a
    :class:`~repro.cluster.topology.TopologySpec`."""
    if not 0 <= rack < topo.racks:
        raise ValueError(f"rack {rack} outside topology ({topo.racks} racks)")
    return [node_target(node_id) for node_id in topo.node_ids()
            if topo.rack_of(node_id) == rack]


def correlated(name: str, targets: Sequence[str], *,
               kind: str = KIND_OUTAGE, severity: float = 1.0,
               start_s: float = 0.0,
               duration_s: float = 0.0) -> List[FaultSpec]:
    """Expand one logical event into per-target specs that fail together.

    Every member is a one-shot spec over the same window.  Members are
    named ``{name}@{target}`` so :class:`FaultTimeline` keeps them
    distinct.
    """
    if not targets:
        raise ValueError("correlated() needs at least one target")
    return [FaultSpec.one_shot(f"{name}@{target}", target, start_s,
                               duration_s, kind=kind, severity=severity)
            for target in targets]


def rack_outage(topo, rack: int, *, start_s: float = 0.0,
                duration_s: float = 0.0,
                name: Optional[str] = None) -> List[FaultSpec]:
    """A whole-rack power event: every node in the rack down together."""
    return correlated(name or f"rack{rack}-power", rack_targets(topo, rack),
                      kind=KIND_OUTAGE, start_s=start_s,
                      duration_s=duration_s)


def outage_windows(timeline: FaultTimeline) -> Dict[str, List[Episode]]:
    """Per-target outage episodes, in start order.

    The bridge from a materialized cluster fault schedule to the fleet
    balancer: ``outage_windows(tl)["node:3"]`` is exactly the ``outages``
    tuple a :class:`~repro.offload.loadbalancer.NodePathConfig` takes.
    """
    windows: Dict[str, List[Episode]] = {}
    for spec in timeline.specs:
        if spec.kind != KIND_OUTAGE:
            continue
        windows.setdefault(spec.target, []).extend(
            timeline.episodes(spec.name))
    for target in windows:
        windows[target].sort()
    return windows
