#!/usr/bin/env python3
"""The repro benchmark: host cost of the CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed run is a cold subprocess of the real CLI at ``--jobs 1`` and
default fidelity (200 samples, 12,000 requests per probe, hybrid
engine), spawned through ``child.py`` so set-up time can be read off.
Runs repeat until ``--seconds`` is spent (at least three).  ``wall_s``
and ``cpu_s`` are the fastest run's: on a shared host, contention only
ever slows a deterministic program, and the minimum varies far less
from run to run than the median.  ``setup_s`` is the median of at least
ten set-ups, ``peak_rss_mb`` the median over the runs.  Workloads:

* ``report-cold``: ``repro --seed N --cache-dir <fresh empty dir>
  report``.  Every run gets its own empty cache dir, so it only ever
  writes the cache.
* ``report-warm``: the same invocation against a copy of a cache dir
  that an untimed cold run at the same seed filled; every run reads a
  fresh copy, so no run sees another's writes.
* ``cluster``: ``repro --seed N cluster``, the default 2x4 leaf-spine
  tier; no cache dir, no probes, no queueing kernels.

The executor pool and the run farm (``--jobs > 1``, ``--run-dir``) are
left out: on a small shared machine they would measure the scheduler.

Every run's stdout is checked section by section (see ``oracle.py``):
at seed 2023 against ``EXPERIMENTS.md``; at other seeds for consistency,
the cold report against a warm run over the first cold run's cache, the
warm report against its cold prefill, and the cluster block against the
report's cluster section.  Reference runs are untimed.

``--trace 1`` adds one traced run after the timed ones (``tracer.py``)
and reports the per-layer ledger instead of the end-to-end metrics.
Its stdout must equal the untraced runs' byte for byte, and its layer
self times must add up to its wall time less set-up within 10%.

The last stdout line is one JSON object with ``correct``, ``attempted``
and ``failed`` (artifact sections, the ``ops`` and ``ops_failed`` of
the benchmark) and ``metrics``; the lines before it give each run and
the machine context (usable CPUs, Python and numpy versions, and a
fixed CPU reference timing to normalise by across hosts).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracle import (  # noqa: E402
    REFERENCE_FILE,
    REFERENCE_SEED,
    cluster_block,
    compare,
    report_sections,
)

CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".perfbench_work"
# Every child is killed at this point of the run, so the benchmark ends
# well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
MIN_RUNS = 3
# Set-up is also timed in extra spawns that stop after it, until a run
# has this many samples.
SETUP_SAMPLES = 10
UNATTRIBUTED_LIMIT = 0.10
FIDELITY = ("--jobs", "1", "--samples", "200", "--requests", "12000",
            "--engine", "hybrid")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops", "count"),
)
# Layers in the order the ledger lists them; the self times of all of
# them, plus set-up, make up the traced run's wall time.
LAYERS = ("profiles", "measurement", "queueing", "loadbalancer", "engine",
          "cluster", "cache", "executor", "render", "experiments", "cli")
EXPERIMENTS = ("fig4", "fig5", "fig6", "fig7", "table4", "table5",
               "observations", "faults", "cluster")


@dataclass
class Run:
    """One CLI process, as the parent saw it."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: Optional[float]
    returncode: int
    stdout: bytes
    stderr: bytes

    @property
    def text(self) -> str:
        return self.stdout.decode("utf-8", errors="replace")


class Bench:
    """Spawns CLI runs inside one scratch directory of the checkout."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def new_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.work)

    def cli(self, cli_args: Optional[List[str]],
            trace_path: Optional[str] = None) -> Run:
        """Run the CLI once; wall time is spawn to exit, CPU time and
        peak RSS come from the child's own resource usage.  Without
        ``cli_args`` the child exits once set-up is done."""
        setup_path = os.path.join(self.work, "setup.json")
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        if os.path.exists(setup_path):
            os.unlink(setup_path)
        command = [sys.executable, CHILD, setup_path]
        if cli_args is None:
            command.append("--setup-only")
        else:
            if trace_path is not None:
                command += ["--trace", trace_path]
            command += ["--", *cli_args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(command, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(max(self.deadline - start, 0.0),
                                       proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup_s = None
        if os.path.exists(setup_path):
            with open(setup_path) as handle:
                setup_s = json.load(handle)["setup_done"] - start
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        with open(err_path, "rb") as handle:
            stderr = handle.read()
        return Run(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   peak_rss_mb=usage.ru_maxrss / 1024.0, setup_s=setup_s,
                   returncode=proc.returncode, stdout=stdout, stderr=stderr)


def cli_args(seed: int, verb: str, cache_dir: Optional[str] = None) -> List[str]:
    args = ["--seed", str(seed), *FIDELITY]
    if cache_dir is not None:
        args += ["--cache-dir", cache_dir]
    return args + [verb]


def committed_report(root: str) -> str:
    with open(os.path.join(root, REFERENCE_FILE), encoding="utf-8") as handle:
        return handle.read()


class Workload:
    """One named workload: its runs' arguments and its output reference."""

    verb = "report"

    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        self.seed = seed

    def prepare(self) -> None:
        """Untimed set-up before the first timed run."""

    def next_run(self) -> Tuple[List[str], Optional[str]]:
        """CLI arguments of one run, and a directory to remove after it."""
        return cli_args(self.seed, self.verb), None

    def sections(self, text: str) -> List[str]:
        return report_sections(text)

    def reference(self) -> Optional[List[str]]:
        """Sections every run must reproduce (None: no reference)."""
        if self.seed == REFERENCE_SEED:
            return report_sections(committed_report(self.bench.root))
        return self.consistency_reference()

    def consistency_reference(self) -> Optional[List[str]]:
        raise NotImplementedError


class ReportCold(Workload):
    def __init__(self, bench: Bench, seed: int):
        super().__init__(bench, seed)
        self.first_cache: Optional[str] = None

    def next_run(self):
        cache = self.bench.new_dir("cold")
        if self.first_cache is None:
            # Kept: the consistency reference is a warm run over it.
            self.first_cache = cache
            return cli_args(self.seed, "report", cache), None
        return cli_args(self.seed, "report", cache), cache

    def consistency_reference(self):
        run = self.bench.cli(cli_args(self.seed, "report", self.first_cache))
        return report_sections(run.text) if run.returncode == 0 else None


class ReportWarm(Workload):
    def prepare(self):
        self.prefill_dir = self.bench.new_dir("prefill")
        self.prefill = self.bench.cli(
            cli_args(self.seed, "report", self.prefill_dir))

    def next_run(self):
        cache = self.bench.new_dir("warm")
        shutil.copytree(self.prefill_dir, cache, dirs_exist_ok=True)
        return cli_args(self.seed, "report", cache), cache

    def consistency_reference(self):
        if self.prefill.returncode != 0:
            return None
        return report_sections(self.prefill.text)


class Cluster(Workload):
    verb = "cluster"

    def sections(self, text):
        return [text]

    def reference(self):
        if self.seed == REFERENCE_SEED:
            report = committed_report(self.bench.root)
        else:
            run = self.bench.cli(cli_args(self.seed, "report"))
            if run.returncode != 0:
                return None
            report = run.text
        block = cluster_block(report)
        return None if block is None else [block]


WORKLOADS = {"report-cold": ReportCold, "report-warm": ReportWarm,
             "cluster": Cluster}


def timed_runs(bench: Bench, workload: Workload, seconds: float) -> List[Run]:
    """Runs until ``seconds`` are spent; one more is started only if a
    typical run still fits, so every workload measures about as long."""
    runs: List[Run] = []
    start = time.monotonic()
    while True:
        args, scratch = workload.next_run()
        runs.append(bench.cli(args))
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
        now = time.monotonic()
        typical = statistics.median(run.wall_s for run in runs)
        if now + typical > bench.deadline:
            break
        if len(runs) >= MIN_RUNS and now - start + typical > seconds:
            break
    return runs


def check(run: Run, workload: Workload,
          reference: Optional[List[str]]) -> Tuple[int, int]:
    """(attempted, failed) artifact sections of one run."""
    if run.returncode != 0:
        count = len(reference) if reference else 1
        return count, count
    return compare(workload.sections(run.text), reference)


def setup_times(bench: Bench, runs: List[Run]) -> List[float]:
    """Set-up times of the timed runs, topped up by set-up-only spawns."""
    setups = [run.setup_s for run in runs if run.setup_s is not None]
    while len(setups) < SETUP_SAMPLES and time.monotonic() + 1 < bench.deadline:
        setup_s = bench.cli(None).setup_s
        if setup_s is None:
            break
        setups.append(setup_s)
    if not setups:
        raise SystemExit("no run of the CLI got through set-up")
    return setups


def end_to_end(runs: List[Run], setups: List[float],
               ops: List[int]) -> Dict[str, float]:
    """Wall and CPU time are the fastest run's: the program is
    deterministic and contention on a shared host only ever slows it,
    so the minimum is the steady estimate of its cost."""
    return {
        "wall_s": min(run.wall_s for run in runs),
        "cpu_s": min(run.cpu_s for run in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
        "ops": statistics.median(ops),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(trace: Dict, traced: Run, untraced_wall: float) -> Dict[str, float]:
    """The ledger of a traced run as named metrics."""
    ledger = trace["otherData"]["ledger"]
    counters = trace["otherData"]["counters"]
    self_s, entries = ledger["self_s"], ledger["entries"]
    calls, work = ledger["calls"], ledger["work"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    simulated = counters.get("probe.simulated", 0)
    analytic = counters.get("analytic.hits", 0)
    fallbacks = calls.get("queueing.bounded_waits_reference", 0)
    packets = work.get("loadbalancer.packets", 0)
    events = counters.get("sim.events_fired", 0)
    hits = counters.get("cache_hits", 0)
    misses = counters.get("cache_misses", 0)
    metrics.update({
        "profiles.calls": entries.get("profiles", 0),
        "profiles.built": work.get("profiles.built", 0),
        "measurement.calls": entries.get("measurement", 0),
        "measurement.probes_simulated": simulated,
        "measurement.probes_analytic": analytic,
        "measurement.analytic_share": _share(analytic, simulated + analytic),
        "queueing.calls": entries.get("queueing", 0),
        "queueing.requests": work.get("queueing.requests", 0),
        "queueing.reference_fallbacks": fallbacks,
        "queueing.fallback_share": _share(
            work.get("queueing.bounded_waits.fell_back", 0),
            calls.get("queueing.bounded_waits", 0)),
        "loadbalancer.calls": entries.get("loadbalancer", 0),
        "loadbalancer.packets": packets,
        "loadbalancer.us_per_packet": _share(
            metrics["loadbalancer.self_s"] * 1e6, packets),
        "engine.events_fired": events,
        "engine.us_per_event": _share(metrics["engine.self_s"] * 1e6, events),
        "cluster.fabric_enqueued": counters.get("fabric.port.enqueued", 0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_share": _share(hits, hits + misses),
    })
    for name in EXPERIMENTS:
        metrics[f"experiment.{name}.s"] = ledger["experiment_s"].get(name, 0.0)
    attributed = (traced.setup_s or 0.0) + sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced_wall
    metrics["trace.unattributed_s"] = traced.wall_s - attributed
    return metrics


def self_check(traced: Run, untraced: Run,
               values: Dict[str, float]) -> List[str]:
    """What is wrong with a traced run; empty when it passes.

    Tracing must not change the output, and the layers must add up: the
    time no layer accounts for stays within 10% of the traced wall.
    """
    failures = []
    if traced.stdout != untraced.stdout:
        failures.append("traced stdout differs from the untraced run's")
    unattributed = values["trace.unattributed_s"]
    if abs(unattributed) > UNATTRIBUTED_LIMIT * traced.wall_s:
        failures.append(f"unattributed {unattributed:.3f} s exceeds "
                        f"{UNATTRIBUTED_LIMIT:.0%} of the traced wall "
                        f"{traced.wall_s:.3f} s")
    return failures


PER_LAYER_UNITS = {
    "self_s": "s", "s": "s", "wall_s": "s", "overhead_s": "s",
    "unattributed_s": "s", "us_per_packet": "us", "us_per_event": "us",
    "analytic_share": "ratio", "fallback_share": "ratio", "hit_share": "ratio",
}


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def cpu_reference() -> Dict[str, float]:
    """Best-of-five times of a fixed pure-Python loop and numpy kernel."""
    import numpy

    data = numpy.random.default_rng(0).random(1_000_000)

    def python_loop():
        total = 0
        for i in range(500_000):
            total += i * i % 7
        return total

    def best(fn) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return {"python_loop_s": best(python_loop),
            "numpy_sort_s": best(lambda: numpy.sort(data))}


def machine_context(root: str) -> Dict[str, object]:
    import platform

    import numpy

    sys.path.insert(0, os.path.join(root, "src"))
    from repro.core.executor import usable_cpu_count

    return {"usable_cpu_count": usable_cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_reference": cpu_reference()}


def describe(label: str, run: Run, attempted: int, failed: int) -> str:
    setup = "nan" if run.setup_s is None else f"{run.setup_s:.4f}"
    return (f"{label}: wall_s {run.wall_s:.4f} cpu_s {run.cpu_s:.4f} "
            f"setup_s {setup} peak_rss_mb {run.peak_rss_mb:.1f} "
            f"ops {attempted} ops_failed {failed} exit {run.returncode}")


def benchmark(root: str, workload_name: str, seed: int, seconds: float,
              trace: bool) -> Dict[str, object]:
    started = time.monotonic()
    # The build step: byte-compile once, so no timed run pays for it.
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        bench = Bench(root, work, deadline=started + RUN_LIMIT_S)
        workload = WORKLOADS[workload_name](bench, seed)
        workload.prepare()
        runs = timed_runs(bench, workload, seconds)
        traced = trace_doc = None
        if not trace:
            setups = setup_times(bench, runs)
        else:
            # Kept after the run, for chrome://tracing or Perfetto.
            trace_path = os.path.join(root, WORK_DIR,
                                      f"trace-{workload_name}.json")
            if os.path.exists(trace_path):
                os.unlink(trace_path)
            args, _ = workload.next_run()
            traced = bench.cli(args, trace_path)
            if os.path.exists(trace_path):
                with open(trace_path) as handle:
                    trace_doc = json.load(handle)
        reference = workload.reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    ops: List[int] = []
    labelled = [(f"run {i + 1}", run) for i, run in enumerate(runs)]
    if traced is not None:
        labelled.append(("traced run", traced))
    for label, run in labelled:
        run_attempted, run_failed = check(run, workload, reference)
        attempted += run_attempted
        failed += run_failed
        if run is not traced:
            ops.append(run_attempted)
        print(describe(f"{workload_name} seed {seed} {label}", run,
                       run_attempted, run_failed))
        if run.returncode != 0:
            sys.stderr.write(run.stderr.decode("utf-8", errors="replace")[-2000:])
    correct = failed == 0
    print("machine: " + json.dumps(machine_context(root), sort_keys=True))

    if traced is None:
        values = end_to_end(runs, setups, ops)
        units = dict(END_TO_END)
    else:
        if trace_doc is None:
            raise SystemExit("the traced run wrote no trace")
        values = per_layer(trace_doc, traced,
                           min(run.wall_s for run in runs))
        failures = self_check(traced, runs[0], values)
        for failure in failures:
            print(f"self-check failed: {failure}", file=sys.stderr)
        correct = correct and not failures
        units = {name: layer_unit(name) for name in values}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    missing = [path for path in (os.path.join("src", "repro", "cli.py"),
                                 REFERENCE_FILE)
               if not os.path.isfile(os.path.join(root, path))]
    if missing:
        print(f"not a repro checkout: {', '.join(missing)} missing under "
              f"{root}", file=sys.stderr)
        return 2
    result = benchmark(root, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
