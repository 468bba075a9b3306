"""Run-farm orchestration: resumable, fault-contained experiment fleets.

FireSim-style supervision over the existing parallel executor and
content-addressed cache (ROADMAP item 2): :mod:`manifest` journals every
work unit's state to a resumable JSONL file, :mod:`health` gives workers
heartbeats so the parent can tell hung from slow, and :mod:`supervisor`
drives batches under per-unit deadlines, harness-level retry/backoff,
and poison-pill quarantine.  The CLI installs a
:class:`~repro.runfarm.supervisor.SupervisedExecutor` whenever a runfarm
flag is active, so every registry-declared experiment inherits the whole
machinery through its existing ``executor.map_keyed``/``executor.map``
calls.
"""

from .manifest import ManifestState, RunManifest, UnitRecord
from .supervisor import (
    QuarantinedUnitError,
    RunSupervisor,
    SupervisedExecutor,
    SupervisorConfig,
)

__all__ = [
    "ManifestState",
    "QuarantinedUnitError",
    "RunManifest",
    "RunSupervisor",
    "SupervisedExecutor",
    "SupervisorConfig",
    "UnitRecord",
]
