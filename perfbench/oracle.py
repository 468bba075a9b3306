"""Output oracle: the sections a run must produce, checked against a reference.

An operation is one artifact section: each ``## `` section of the
report, plus the title block above the first one (it holds the anchor
table), and the ``cluster`` verb's single block.  A section fails when
it is missing, differs from the reference, or is not in the reference.
The sections of a text joined back together are the text, so no failed
section means byte-identical output.

At the reference seed the reference is the committed ``EXPERIMENTS.md``
(``python -m repro report`` at its default seed); the ``cluster`` verb
must print the fenced block under its heading there.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

REFERENCE_FILE = "EXPERIMENTS.md"
REFERENCE_SEED = 2023
CLUSTER_HEADING = "## Cluster scale (extension)"
FENCE = "```\n"


def report_sections(text: str) -> List[str]:
    """``text`` cut before every line that starts a ``## `` section."""
    sections: List[str] = []
    current: List[str] = []
    for line in text.splitlines(keepends=True):
        if line.startswith("## ") and current:
            sections.append("".join(current))
            current = []
        current.append(line)
    if current:
        sections.append("".join(current))
    return sections


def cluster_block(report_text: str) -> Optional[str]:
    """The fenced block of the report's cluster section, as the
    ``cluster`` verb prints it (with its final newline); None if absent."""
    for section in report_sections(report_text):
        if not section.startswith(CLUSTER_HEADING + "\n"):
            continue
        lines = section.splitlines(keepends=True)
        try:
            start = lines.index(FENCE) + 1
            end = lines.index(FENCE, start)
        except ValueError:
            return None
        return "".join(lines[start:end])
    return None


def compare(sections: Sequence[str],
            reference: Optional[Sequence[str]]) -> Tuple[int, int]:
    """(attempted, failed) sections of an output against its reference.

    Without a reference (the reference run itself failed) nothing can be
    shown correct, so every section fails.
    """
    if reference is None:
        count = max(len(sections), 1)
        return count, count
    attempted = max(len(sections), len(reference))
    failed = sum(
        1 for index in range(attempted)
        if index >= len(sections) or index >= len(reference)
        or sections[index] != reference[index]
    )
    return attempted, failed
