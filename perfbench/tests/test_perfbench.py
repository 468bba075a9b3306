"""Tests of the benchmark's own machinery: oracle, tracer and self-checks.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q

The tests that use the ``cluster_runs`` fixture spawn the real
``cluster`` verb, untraced and traced (a few seconds each).
"""

import json
import os
import statistics
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def committed_report() -> str:
    return run.committed_report(ROOT)


def test_report_sections_round_trip():
    text = committed_report()
    sections = oracle.report_sections(text)
    assert "".join(sections) == text
    assert sections[0].startswith("# EXPERIMENTS")
    headings = [line for line in text.splitlines() if line.startswith("## ")]
    assert [section.splitlines()[0] for section in sections[1:]] == headings


def test_compare_counts_missing_changed_and_extra_sections():
    reference = ["# t\n", "## a\nx\n", "## b\ny\n"]
    assert oracle.compare(reference, reference) == (3, 0)
    assert oracle.compare(reference[:2], reference) == (3, 1)
    assert oracle.compare(["# t\n", "## a\nX\n", "## b\ny\n"], reference) == (3, 1)
    assert oracle.compare(reference + ["## c\n"], reference) == (4, 1)
    assert oracle.compare(reference, None) == (3, 3)


def test_cluster_block_is_the_fenced_text():
    block = oracle.cluster_block(committed_report())
    assert block.startswith("topology leafspine:")
    assert block.endswith("\n") and "```" not in block
    assert oracle.cluster_block("# t\n\n## Other\n```\nx\n```\n") is None


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "b", "b.inner")
    outer = tracer.wrap(lambda: inner(), "a", "a.outer")
    outer()  # outer 0..3, inner 1..2
    ledger = tracer.ledger()
    assert ledger["self_s"] == {"a": 2.0, "b": 1.0}
    assert [event["dur"] for event in tracer.chrome_events()] == [3e6, 1e6]


def test_layer_entries_count_calls_from_outside_the_layer():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "a", "a.inner")
    outer = tracer.wrap(lambda: inner(), "a", "a.outer")
    outer()
    inner()
    assert tracer.entries == {"a": 2}
    assert tracer.calls == {"a.outer": 1, "a.inner": 2}


def test_fallback_share_counts_each_bounded_waits_call_once():
    tracer = Tracer()
    reference = tracer.wrap(lambda: None, "queueing",
                            "queueing.bounded_waits_reference")

    def blocks(n):
        for _ in range(n):
            reference()

    bounded = tracer.wrap(blocks, "queueing", "queueing.bounded_waits")
    bounded(3)
    bounded(0)
    assert tracer.calls["queueing.bounded_waits_reference"] == 3
    assert tracer.work["queueing.bounded_waits.fell_back"] == 1
    assert tracer.entries == {"queueing": 2}


def test_self_check_flags_changed_output_and_missing_time():
    untraced = run.Run(1.0, 1.0, 50.0, 0.3, 0, b"out\n", b"")
    traced = run.Run(1.0, 1.0, 50.0, 0.3, 0, b"other\n", b"")
    assert len(run.self_check(traced, untraced,
                              {"trace.unattributed_s": 0.5})) == 2
    assert run.self_check(untraced, untraced,
                          {"trace.unattributed_s": 0.05}) == []


@pytest.fixture(scope="module")
def cluster_runs(tmp_path_factory):
    """The cluster verb at the reference seed, untraced then traced."""
    work = str(tmp_path_factory.mktemp("perfbench"))
    bench = run.Bench(ROOT, work, deadline=time.monotonic() + 170.0)
    args = run.cli_args(oracle.REFERENCE_SEED, "cluster")
    untraced = bench.cli(args)
    trace_path = os.path.join(work, "trace.json")
    traced = bench.cli(args, trace_path)
    with open(trace_path) as handle:
        document = json.load(handle)
    values = run.per_layer(document, traced, untraced.wall_s)
    return untraced, traced, document, values


def test_cluster_verb_reproduces_the_committed_block(cluster_runs):
    untraced, _, _, _ = cluster_runs
    assert untraced.returncode == 0, untraced.stderr[-2000:]
    assert untraced.text == oracle.cluster_block(committed_report())
    assert untraced.setup_s is not None and 0 < untraced.setup_s < untraced.wall_s


def test_traced_run_passes_its_self_checks(cluster_runs):
    untraced, traced, _, values = cluster_runs
    assert traced.returncode == 0, traced.stderr[-2000:]
    assert run.self_check(traced, untraced, values) == []


def test_wrappers_reach_callers_that_import_by_name(cluster_runs):
    _, _, document, values = cluster_runs
    # experiments.cluster imports get_profile and run_scenario by name.
    assert values["profiles.calls"] >= 1
    assert values["cluster.self_s"] > 0
    assert values["engine.events_fired"] > 0
    assert values["experiment.cluster.s"] > values["engine.self_s"]
    events = document["traceEvents"]
    assert {event["ph"] for event in events} == {"X"}
    assert statistics.mean(event["dur"] for event in events) > 0


def test_benchmark_json_names_every_metric(cluster_runs):
    _, _, _, values = cluster_runs
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.layer_unit(name)) for name in values]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
