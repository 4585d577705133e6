"""Set-up probe: one fresh interpreter pays what every user of zfuse pays.

It imports zfuse and zfuse.cli, then completes one op of the named workload
on the paper's 3x3 medical fixture, and exits 0 on success.  run.py times
it from spawn to exit as setup_s.  It imports nothing from the benchmark, so
the benchmark's own code and input generation stay out of the figure.

    python3 -I bench/probe.py <workload>
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MEDICAL = SRC / "zfuse" / "fixtures" / "medical.json"


def matrix_from_doc(doc: dict):
    """An AssessmentMatrix from a grid document in the CLI's JSON layout.

    Built through zfuse's public API only, so the library workloads get the
    same objects the CLI would parse from the same document.
    """
    from zfuse import AssessmentMatrix, Frame, TrapezoidalFuzzyNumber, ZNumber, linguistic_term

    def shape(value):
        if isinstance(value, str):
            return linguistic_term(value).shape
        return TrapezoidalFuzzyNumber(*value)

    frame = doc["frame"]
    return AssessmentMatrix(
        frame=Frame(tuple(frame)),
        sources=tuple(source["name"] for source in doc["sources"]),
        cells=tuple(
            tuple(
                ZNumber(shape(source["assessments"][h]["A"]), shape(source["assessments"][h]["B"]))
                for h in frame
            )
            for source in doc["sources"]
        ),
    )


def main(workload: str) -> int:
    sys.path.insert(0, str(SRC))
    import zfuse
    import zfuse.cli

    if workload == "cli_small":
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return zfuse.cli.main(["decide", "--input", str(MEDICAL), "--format", "json"])
    doc = json.loads(MEDICAL.read_text(encoding="utf-8"))
    matrix = matrix_from_doc(doc)
    if workload == "general_evidence":
        zfuse.combine_all(zfuse.source_bpas(matrix, doc["alpha"]))
    else:
        zfuse.decide(matrix, doc["alpha"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
