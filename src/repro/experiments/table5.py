"""Table 5: five-year TCO of SNIC vs standard-NIC fleets for fio, OvS,
REM, and Compress.

Fleet sizing and power draw come from our measured operating points; the
component prices and electricity cost are the paper's.  Expected shape:
small savings for fio and OvS, a small loss for REM (the SNIC's purchase
premium isn't recovered at trace-like loads), and a dominant ~70 % saving
for Compress where one accelerator replaces ~3.5 servers' worth of CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.tco import TcoComparison, compare
from ..core import hybrid
from ..core.executor import ParallelExecutor, WorkUnit
from ..core.rng import RandomStreams
from .fig4 import snic_platform_for
from .measurement import compute_operating_point, operating_point_cache_key
from .profiles import get_profile
from .registry import Experiment, ExperimentContext, register, smoke_tier
from .table4 import Table4Result, run_table4

# Table 5's four applications mapped to our benchmark configs.
TABLE5_APPS = {
    "fio": "fio:read",
    "OVS": "ovs:100",
    "REM": "rem:file_executable",
    "Compress": "compression:txt",
}


@dataclass
class Table5Result:
    comparisons: List[TcoComparison]

    def by_application(self) -> Dict[str, TcoComparison]:
        return {c.application: c for c in self.comparisons}


def run_table5(
    samples: int = 200,
    n_requests: int = 10_000,
    streams: Optional[RandomStreams] = None,
    snic_servers: int = 10,
    executor: Optional[ParallelExecutor] = None,
    table4: Optional[Table4Result] = None,
    engine: Optional[str] = None,
) -> Table5Result:
    """Five-year TCO per application from measured operating points.

    The non-REM operating points are independent work units fanned
    through ``executor`` and memoized in the result cache — after a fig4
    run at the same fidelity and seed they are free, which is how
    ``repro report`` computes each (function, platform) pair at most
    once.  REM's trace replay comes from Table 4: pass a pre-computed
    ``table4`` (the registry's dependency resolution does) to avoid even
    the cache lookup.
    """
    streams = streams or RandomStreams()
    seed = streams.root_seed
    executor = executor or ParallelExecutor(1)
    engine = hybrid.resolve_engine(engine)
    if table4 is None:
        table4 = run_table4(samples=samples, n_requests=n_requests,
                            streams=streams, executor=executor)

    point_apps = [(app, key) for app, key in TABLE5_APPS.items()
                  if app != "REM"]
    units: List[WorkUnit] = []
    keys: List[str] = []
    for _, key in point_apps:
        profile = get_profile(key, samples=samples)
        for platform in ("host", snic_platform_for(profile)):
            args = (key, platform, seed, samples, n_requests, engine)
            units.append(WorkUnit(name=f"table5:{key}:{platform}",
                                  fn=compute_operating_point, args=args))
            keys.append(operating_point_cache_key(*args))
    points = executor.map_keyed(units, keys)

    comparisons: List[TcoComparison] = []
    index = 0
    for application, key in TABLE5_APPS.items():
        if application == "REM":
            # The paper evaluates REM's TCO at the hyperscaler-trace load
            # (§5.1-5.2): both platforms sustain the trace, so the fleets
            # stay equal and only the power and purchase price differ.
            comparisons.append(
                compare(
                    application,
                    snic_power_w=table4.snic.average_power_w,
                    nic_power_w=table4.host.average_power_w,
                    throughput_ratio_snic_over_host=1.0,
                    snic_servers=snic_servers,
                )
            )
            continue
        host, snic = points[2 * index], points[2 * index + 1]
        index += 1
        ratio = (
            snic.throughput_rps / host.throughput_rps
            if host.throughput_rps > 0
            else 1.0
        )
        comparisons.append(
            compare(
                application,
                snic_power_w=snic.server_power_w,
                nic_power_w=host.server_power_w,
                throughput_ratio_snic_over_host=ratio,
                snic_servers=snic_servers,
            )
        )
    return Table5Result(comparisons=comparisons)


def _table5_runner(ctx: ExperimentContext) -> Table5Result:
    fid = ctx.fidelity()
    return run_table5(samples=fid.samples, n_requests=fid.requests,
                      streams=ctx.streams, executor=ctx.executor,
                      table4=ctx.run("table4"), engine=fid.engine)


def _format_table5(result: Table5Result) -> str:
    from ..analysis.tco import format_comparison

    return format_comparison(result.comparisons)


def _write_table5_csv(stream, result: Table5Result) -> int:
    from ..analysis.export import write_table5_csv

    return write_table5_csv(stream, result.comparisons)


def _fleet_json(fleet) -> dict:
    return {
        "servers": fleet.servers,
        "power_per_server_w": fleet.power_per_server_w,
        "server_cost_usd": fleet.server_cost_usd,
        "tco_usd": fleet.tco_usd,
    }


def table5_json(result: Table5Result) -> list:
    return [
        {
            "application": c.application,
            "snic_fleet": _fleet_json(c.snic_fleet),
            "nic_fleet": _fleet_json(c.nic_fleet),
            "savings_fraction": c.savings_fraction,
        }
        for c in result.comparisons
    ]


_FLEET_SCHEMA = {
    "type": "object",
    "required": ["servers", "power_per_server_w", "tco_usd"],
    "properties": {
        "servers": {"type": "integer"},
        "power_per_server_w": {"type": "number"},
        "tco_usd": {"type": "number"},
    },
}

register(Experiment(
    name="table5",
    title="Table 5: five-year TCO, SNIC vs standard-NIC fleets",
    description="fleet sizing, power, and total cost of ownership for "
                "fio, OvS, REM, and Compress from measured points",
    depends=("table4",),
    runner=_table5_runner,
    formatter=_format_table5,
    csv_writer=_write_table5_csv,
    to_json=table5_json,
    schema={
        "type": "array",
        "minItems": 4,
        "items": {
            "type": "object",
            "required": ["application", "snic_fleet", "nic_fleet",
                         "savings_fraction"],
            "properties": {
                "application": {"type": "string"},
                "snic_fleet": _FLEET_SCHEMA,
                "nic_fleet": _FLEET_SCHEMA,
                "savings_fraction": {"type": "number"},
            },
        },
    },
    tiers=smoke_tier(),
))
