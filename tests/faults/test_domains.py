"""Tests for correlated fault domains (rack scope)."""

import pytest

from repro.cluster import TopologySpec
from repro.faults import (
    KIND_OUTAGE,
    FaultSpec,
    FaultTimeline,
    correlated,
    materialize,
    node_target,
    outage_windows,
    rack_outage,
    rack_targets,
)

TOPO = TopologySpec(racks=2, nodes_per_rack=4, spines=2)


class TestCorrelatedMaterialization:
    def test_one_shot_family(self):
        specs = correlated("maint", ["node:0", "node:1"],
                           start_s=2.0, duration_s=1.0)
        for spec in specs:
            assert materialize(spec, 10.0) == [(2.0, 3.0)]

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError):
            correlated("x", [])


class TestScopeHelpers:
    def test_rack_targets(self):
        assert rack_targets(TOPO, 0) == ["node:0", "node:1", "node:2",
                                         "node:3"]
        assert rack_targets(TOPO, 1) == ["node:4", "node:5", "node:6",
                                         "node:7"]
        with pytest.raises(ValueError):
            rack_targets(TOPO, 2)

    def test_rack_outage_family(self):
        specs = rack_outage(TOPO, 1, start_s=2.0, duration_s=1.0)
        assert [s.target for s in specs] == rack_targets(TOPO, 1)
        assert all(s.name.startswith("rack1-power@") for s in specs)
        assert all(s.kind == KIND_OUTAGE for s in specs)
        names = [s.name for s in specs]
        assert len(set(names)) == len(names)

    def test_whole_rack_fails_in_lockstep(self):
        specs = rack_outage(TOPO, 0, start_s=5.0, duration_s=10.0)
        tl = FaultTimeline(specs, horizon_s=20.0)
        per_node = [tl.episodes(s.name) for s in specs]
        assert per_node[0] == [(5.0, 15.0)]
        assert all(eps == per_node[0] for eps in per_node[1:])


class TestOutageWindows:
    def test_windows_keyed_by_target(self):
        specs = rack_outage(TOPO, 0, start_s=1.0, duration_s=2.0)
        specs += rack_outage(TOPO, 1, start_s=5.0, duration_s=1.0)
        windows = outage_windows(FaultTimeline(specs, horizon_s=10.0))
        assert windows[node_target(0)] == [(1.0, 3.0)]
        assert windows[node_target(4)] == [(5.0, 6.0)]

    def test_non_outage_kinds_excluded(self):
        specs = [FaultSpec.one_shot("slow", "node:0", 1.0, 2.0,
                                    kind="degrade")]
        assert outage_windows(FaultTimeline(specs, horizon_s=10.0)) == {}

    def test_windows_sorted(self):
        specs = [
            FaultSpec.one_shot("late", "node:0", 5.0, 1.0),
            FaultSpec.one_shot("early", "node:0", 1.0, 1.0),
        ]
        windows = outage_windows(FaultTimeline(specs, horizon_s=10.0))
        assert windows["node:0"] == [(1.0, 2.0), (5.0, 6.0)]
