"""The four workloads: their cases, how one op is timed, and the checks.

Every workload has the same face to run.py:

- cases: the op inputs, cycled in order, each run several times;
- before_op(): untimed reset before each op, so it pays what it should;
- entry: which zfuse entry point an op calls ("main", "decide" or
  "combine_all"), so the traced run can swap in a traced one;
- spans: the span names a traced run must see on this workload;
- call(fn, case) -> (seconds, result): one op, timed on its own;
- check(case, result, sampled) -> problems: the per-op gate, plus a
  re-fuse by a pairwise fold when the op is in the seeded sample;
- io_bytes(case, result) -> (read, written): file bytes of the op;
- summary: what the inputs hold, to compare with zfuse's caches.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from zfuse import DEFAULT_ALPHA, Frame, MassFunction, combine_all, decide, dempster_combine
from zfuse import owa
from zfuse.cli import main as cli_main

from probe import MEDICAL, matrix_from_doc

DECIDE_SPANS = frozenset(
    {
        "pipeline.decide",
        "pipeline.source_bpas",
        "owa.mem_weights",
        "zmodel.similarity",
        "zmodel.refs",
        "evidence.bpa",
        "evidence.combine_all",
        "evidence.dempster_combine",
    }
)

# The paper's worked examples and the ranking each must give.
ANCHORS = (
    (MEDICAL, ("Common-cold", "Measles", "Meningitis")),
    (MEDICAL.parent / "risk.json", ("M2", "M3", "M1")),
)

REFOLD_TOL = 1e-12
REVERSED_TOL = 1e-9


def build(workload: str, docs, workdir: Path):
    if workload == "cli_small":
        return CliSmall(docs, workdir)
    if workload == "general_evidence":
        return GeneralEvidence(docs)
    return Library(docs)


# ---------------------------------------------------------------- checks

def mass_problems(masses: dict) -> list[str]:
    """Finite masses summing to 1 within 1e-9."""
    values = list(masses.values())
    if not all(math.isfinite(v) for v in values):
        return ["mass is not finite"]
    if abs(math.fsum(values) - 1.0) > 1e-9:
        return [f"masses sum to {math.fsum(values)!r}"]
    return []


def fused_problems(masses: dict, steps, sources: int) -> list[str]:
    """mass_problems, and one conflict in [0, 1) per fold step."""
    problems = mass_problems(masses)
    if len(steps) != sources - 1:
        problems.append(f"{len(steps)} conflict steps for {sources} sources")
    if not all(0.0 <= k < 1.0 for k in steps):
        problems.append(f"conflict outside [0, 1): {max(steps)!r}")
    return problems


def report_problems(report, sources: int) -> list[str]:
    problems = fused_problems(report.fused.masses, report.conflict_trace, sources)
    singles = report.fused.singleton_masses()
    ranked = [singles[h] for h in report.ranking]
    if sorted(report.ranking) != sorted(report.frame.hypotheses):
        problems.append("ranking is not a permutation of the frame")
    if any(a < b for a, b in zip(ranked, ranked[1:])):
        problems.append("ranking is not sorted by fused singleton mass")
    if report.decision != report.ranking[0]:
        problems.append(f"decision {report.decision!r} is not ranked first")
    return problems


def refold_problems(bpas, masses: dict, steps) -> list[str]:
    """Re-fuse by a pairwise fold of public dempster_combine and compare."""
    acc = bpas[0]
    conflicts = []
    for m in bpas[1:]:
        outcome = dempster_combine(acc, m)
        acc = outcome.combined
        conflicts.append(outcome.conflict)
    keys = set(acc.masses) | set(masses)
    worst = max(abs(acc.masses.get(k, 0.0) - masses.get(k, 0.0)) for k in keys)
    if worst > REFOLD_TOL:
        return [f"fused masses differ from the pairwise fold by {worst!r}"]
    if len(conflicts) != len(steps) or any(abs(a - b) > REFOLD_TOL for a, b in zip(conflicts, steps)):
        return ["conflict trace differs from the pairwise fold"]
    return []


def anchor_problems() -> list[str]:
    """The paper's anchors, through the library and through the CLI."""
    problems = []
    for path, ranking in ANCHORS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        report = decide(matrix_from_doc(doc), doc.get("alpha", DEFAULT_ALPHA))
        if report.ranking != ranking or report.decision != ranking[0]:
            problems.append(f"library {path.name}: ranking {report.ranking}, expected {ranking}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["decide", "--input", str(path), "--format", "json"])
        payload = json.loads(out.getvalue()) if code == 0 else {}
        if tuple(payload.get("ranking", ())) != ranking or payload.get("decision") != ranking[0]:
            problems.append(f"CLI {path.name}: exit {code}, ranking {payload.get('ranking')}, expected {ranking}")
    return problems


def _masks(frame: Frame, items: list[dict]) -> dict[int, float]:
    """{bitmask: mass} from the CLI's [{"focal": [...], "mass": m}] list."""
    return {frame.subset(item["focal"]): item["mass"] for item in items}


def _shape_summary(matrices) -> dict:
    cells = sum(len(m.sources) * len(m.frame) for m in matrices)
    shapes = {shape for m in matrices for row in m.cells for z in row for shape in (z.A, z.B)}
    focal = [len(m.frame) + 1 for m in matrices for _ in m.sources]
    return {
        "cells": cells,
        "distinct_shapes": len(shapes),
        "distinct_shape_ratio": len(shapes) / (2 * cells),
        "focal_sets_per_bpa": sum(focal) / len(focal),
    }


# ------------------------------------------------------------- workloads

class Workload:
    def before_op(self) -> None:
        """Untimed work before each op; library callers keep their caches."""

    def io_bytes(self, case, result) -> tuple[int, int]:
        """Bytes the op read and wrote, where it reads and writes files."""
        return 0, 0


class Library(Workload):
    """many_sources and wide_frame: one op is decide(matrix) on one grid."""

    entry = "decide"
    spans = DECIDE_SPANS

    def __init__(self, docs: list[dict]):
        self.cases = [(matrix_from_doc(doc), doc["alpha"]) for doc in docs]
        matrices = [matrix for matrix, _ in self.cases]
        self.summary = _shape_summary(matrices) | {
            "grids": len(docs),
            "distinct_alphas": len({alpha for _, alpha in self.cases}),
        }

    def call(self, decide_fn, case):
        matrix, alpha = case
        start = perf_counter()
        report = decide_fn(matrix, alpha)
        return perf_counter() - start, report

    def check(self, case, report, sampled: bool) -> list[str]:
        problems = report_problems(report, len(case[0].sources))
        if sampled:
            problems += refold_problems(report.per_source_bpas, report.fused.masses, report.conflict_trace)
        return problems


@dataclass
class CliCase:
    argv: list[str]
    mode: str
    fmt: str
    matrix: object
    alpha: float
    size: int
    expected: object = None  # library decide on the same grid, made on first check


class CliSmall(Workload):
    """One op is one in-process zfuse.cli.main call on a pre-written file."""

    entry = "main"
    spans = DECIDE_SPANS | {"cli.main"}

    def __init__(self, docs: list[dict], workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.cases = []
        for doc in docs:
            path = workdir / doc["file"]
            data = doc["text"].encode("utf-8")
            path.write_bytes(data)
            grid = doc["grid"]
            self.cases.append(
                CliCase(
                    argv=[doc["mode"], "--input", str(path), "--format", doc["format"]],
                    mode=doc["mode"],
                    fmt=doc["format"],
                    matrix=matrix_from_doc(grid),
                    alpha=grid.get("alpha", DEFAULT_ALPHA),
                    size=len(data),
                )
            )
        self.summary = _shape_summary([case.matrix for case in self.cases]) | {
            "files": len(docs),
            "csv_files": sum(doc["file"].endswith(".csv") for doc in docs),
            "distinct_alphas": len({case.alpha for case in self.cases}),
        }

    def before_op(self) -> None:
        # Each zfuse command is a fresh process, which computes the OWA
        # weights for its alpha anew; an in-process loop would reuse them.
        owa.mem_weights.cache_clear()

    def call(self, main, case: CliCase):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = main(case.argv)
            elapsed = perf_counter() - start
        return elapsed, (code, out.getvalue(), err.getvalue())

    def check(self, case: CliCase, result, sampled: bool) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"{' '.join(case.argv)}: exit {code}: {err.strip()}"]
        if case.expected is None:
            case.expected = decide(case.matrix, case.alpha)
        want = case.expected
        problems = report_problems(want, len(case.matrix.sources))
        if sampled:
            problems += refold_problems(want.per_source_bpas, want.fused.masses, want.conflict_trace)
        if case.fmt == "table":
            if out.rstrip("\n").rsplit("\n", 1)[-1] != f"decision: {want.decision}":
                problems.append(f"{case.argv[2]}: table does not end in 'decision: {want.decision}'")
            return problems
        payload = json.loads(out)
        frame = case.matrix.frame
        bpas = [_masks(frame, entry["masses"]) for entry in payload["bpas"]]
        if bpas != [m.masses for m in want.per_source_bpas]:
            problems.append(f"{case.argv[2]}: CLI BPAs differ from library decide")
        for masses in bpas:
            problems += mass_problems(masses)
        if case.mode == "decide":
            fused = _masks(frame, payload["fused"])
            problems += fused_problems(fused, payload["conflict_trace"], len(case.matrix.sources))
            if (
                fused != want.fused.masses
                or payload["conflict_trace"] != list(want.conflict_trace)
                or payload["ranking"] != list(want.ranking)
                or payload["decision"] != want.decision
            ):
                problems.append(f"{case.argv[2]}: CLI decide differs from library decide")
        return problems

    def io_bytes(self, case: CliCase, result) -> tuple[int, int]:
        return case.size, len(result[1].encode("utf-8"))


class GeneralEvidence(Workload):
    """One op is combine_all over general mass functions on one frame."""

    entry = "combine_all"
    spans = frozenset({"evidence.combine_all", "evidence.dempster_combine"})

    def __init__(self, sets: list[list[dict]]):
        self.cases = [[self._mass(doc) for doc in group] for group in sets]
        focal = [len(m.masses) for group in self.cases for m in group]
        self.summary = {
            "sets": len(self.cases),
            "mass_functions": len(focal),
            "focal_sets_per_bpa": sum(focal) / len(focal),
            "distinct_shape_ratio": 0.0,
            "distinct_alphas": 0,
        }

    @staticmethod
    def _mass(doc: dict) -> MassFunction:
        frame = Frame(tuple(f"H{j + 1}" for j in range(doc["hypotheses"])))
        masses = {mask: value for mask, value in doc["focal"]}
        masses[frame.theta] = doc["theta"]
        return MassFunction(frame, masses)

    def call(self, combine, masses):
        start = perf_counter()
        outcome = combine(masses)
        return perf_counter() - start, outcome

    def check(self, masses, outcome, sampled: bool) -> list[str]:
        fused = outcome.combined.masses
        problems = fused_problems(fused, outcome.steps, len(masses))
        if sampled:
            problems += refold_problems(masses, fused, outcome.steps)
            # combine_all must not depend on the order of its inputs
            backward = combine_all(masses[::-1]).combined.masses
            worst = max(abs(fused.get(m, 0.0) - backward.get(m, 0.0)) for m in set(fused) | set(backward))
            if worst > REVERSED_TOL:
                problems.append(f"reversed input order moves fused masses by {worst!r}")
        return problems
