"""SLO burn monitor: in/out-of-band evaluation, metric recording,
logging levels, and the non-verdict JSON block."""

from __future__ import annotations

import logging
from types import SimpleNamespace

import pytest

from repro.analysis import anchors
from repro.analysis.export import (
    ARTIFACT_SCHEMA,
    build_artifact,
    validate_artifact,
)
from repro.core import instrument
from repro.obs import metrics, slo


@pytest.fixture(autouse=True)
def _fresh_registry():
    instrument.reset()
    yield
    instrument.reset()


# The fig4 bands the two-row fixture below feeds: the per-key bands of
# its rows plus the min/max spans over all rows.  Every other fig4 band
# reads a key the fixture lacks and is skipped.
FIXTURE_BANDS = {"udp_64_throughput_ratio", "udp_64_p99_ratio",
                 "compression_txt_throughput_ratio",
                 "throughput_ratio_min", "throughput_ratio_max",
                 "p99_ratio_min", "p99_ratio_max"}


def _fig4_rows(udp64_p99=1.5):
    """Minimal fig4-shaped rows, in band unless ``udp64_p99`` is moved."""
    return [
        SimpleNamespace(key="udp:64", throughput_ratio=0.18,
                        p99_ratio=udp64_p99),
        SimpleNamespace(key="compression:txt", throughput_ratio=2.86,
                        p99_ratio=0.5),
    ]


# Out of the udp:64 p99 band, inside the all-rows p99 span.
BREACHING_P99 = 5.0


class TestTargets:
    def test_every_registered_experiment_has_targets(self):
        experiments = {band.experiment for _, band in anchors.bands()}
        assert experiments == {"fig4", "fig5", "fig6", "table4", "table5"}
        for _, band in anchors.bands():
            assert band.lo is not None or band.hi is not None

    def test_check_band_edges_inclusive(self):
        band = anchors.Band("t", "§0", "fig4", lambda r: 0.0, lo=1.0, hi=2.0)
        assert band.holds(1.0) and band.holds(2.0)
        assert not band.holds(0.999)
        assert not band.holds(2.001)


class TestEvaluate:
    def test_in_band_measurements_are_ok(self):
        findings = slo.evaluate("fig4", _fig4_rows())
        assert {f.target for f in findings} == FIXTURE_BANDS
        assert all(f.ok for f in findings)

    def test_out_of_band_measurement_is_breach(self):
        findings = slo.evaluate("fig4", _fig4_rows(udp64_p99=BREACHING_P99))
        breached = [f for f in findings if not f.ok]
        assert [f.target for f in breached] == ["udp_64_p99_ratio"]
        assert "BREACH" in breached[0].describe()

    def test_missing_keys_skip_targets(self):
        # A smoke subset without the udp:64 row evaluates nothing for it.
        rows = [SimpleNamespace(key="other", throughput_ratio=1.0,
                                p99_ratio=1.0)]
        targets = {f.target for f in slo.evaluate("fig4", rows)}
        assert not targets & {"udp_64_throughput_ratio", "udp_64_p99_ratio"}

    def test_unknown_experiment_evaluates_nothing(self):
        assert slo.evaluate("fig9", object()) == []

    def test_raising_extractor_is_skipped_not_fatal(self):
        # table4 extractors dereference attributes; a wrong shape raises
        # inside, which evaluate() swallows per band.
        findings = slo.evaluate("table4", object())
        assert findings == []


class TestObserve:
    def test_records_gauges_and_counters(self):
        findings = slo.observe("fig4", _fig4_rows(udp64_p99=BREACHING_P99))
        assert len(findings) == len(FIXTURE_BANDS)
        registry = metrics.registry()
        assert registry.counter(slo.EVALUATED).value == len(FIXTURE_BANDS)
        assert registry.counter(slo.BREACHES).value == 1
        gauge = registry.get("slo.fig4.udp_64_p99_ratio")
        assert gauge is not None and gauge.value == pytest.approx(BREACHING_P99)

    def test_breach_logs_warning_at_default_tier(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.slo"):
            slo.observe("fig4", _fig4_rows(udp64_p99=BREACHING_P99),
                        smoke=False)
        records = [r for r in caplog.records if "SLO drift" in r.message]
        assert records and records[0].levelno == logging.WARNING

    def test_breach_logs_info_at_smoke_tier(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.slo"):
            slo.observe("fig4", _fig4_rows(udp64_p99=BREACHING_P99),
                        smoke=True)
        records = [r for r in caplog.records if "SLO drift" in r.message]
        assert records and records[0].levelno == logging.INFO

    def test_clean_run_logs_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.slo"):
            slo.observe("fig4", _fig4_rows())
        assert not [r for r in caplog.records if "SLO drift" in r.message]


class TestBlock:
    def test_shape(self):
        findings = slo.evaluate("fig4", _fig4_rows(udp64_p99=BREACHING_P99))
        block = slo.block(findings)
        assert block["evaluated"] == len(FIXTURE_BANDS)
        assert block["breaches"] == 1
        assert {t["id"] for t in block["targets"]} == FIXTURE_BANDS
        breached = [t for t in block["targets"] if not t["ok"]]
        assert breached[0]["measured"] == pytest.approx(BREACHING_P99)
        band = anchors.band("udp_64_p99_ratio")
        assert (breached[0]["lo"], breached[0]["hi"]) == (band.lo, band.hi)

    def test_block_validates_against_the_artifact_schema(self):
        findings = slo.evaluate("fig4", _fig4_rows(udp64_p99=BREACHING_P99))
        doc = build_artifact(experiment="fig4", title="t", tier="default",
                             seed=1, fidelity={"samples": 1, "requests": 1},
                             result=[], slo=slo.block(findings))
        assert validate_artifact(doc, ARTIFACT_SCHEMA) == []
        del doc["slo"]["targets"][0]["ok"]
        assert validate_artifact(doc, ARTIFACT_SCHEMA)

    def test_empty_findings_yield_none(self):
        assert slo.block([]) is None
