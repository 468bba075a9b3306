"""The committed EXPERIMENTS.md is the report's exact output.

``python -m repro report`` at default fidelity must reproduce the
committed file byte for byte.  A mismatch means either a model change
drifted a measured number without review, or a reviewed change shipped
without regenerating EXPERIMENTS.md — both are bugs.  The default
engine is hybrid, so this also pins the validated analytic fast path:
an untrusted model sneaking a prediction into an anchor row shows up
here as a byte diff.  The same run must evaluate the anchor ledger's
bands with no SLO breach: the monitor stays quiet on the golden report.
"""

from pathlib import Path

from repro.cli import main
from repro.obs import metrics, slo

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_experiments_md_is_the_report_output(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["report", "-o", str(target)]) == 0
    capsys.readouterr()
    registry = metrics.registry()
    assert registry.counter(slo.EVALUATED).value > 0
    assert registry.counter(slo.BREACHES).value == 0
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    assert target.read_text() == committed, (
        "EXPERIMENTS.md is stale — regenerate it with "
        "`python -m repro report > EXPERIMENTS.md`"
    )
