"""End to end against the paper's formulas: seeded grids of mixed lexicon and
numeric cells through library decide and through the CLI, each compared with
reference_decide, which builds the decision from the suite's independent
oracles alone."""

import contextlib
import io
import json
import random

import pytest

from zfuse import cli
from zfuse.evidence import Frame
from zfuse.fuzzy import TrapezoidalFuzzyNumber
from zfuse.pipeline import AssessmentMatrix, decide
from zfuse.zmodel import LEXICON, ZNumber

from oracles import focal_sets, reference_decide

BPA_TOL = 1e-12
FUSED_TOL = 1e-9
# scores below the anti-ideal's, so the deviation is cut back to 1
FAR_OFF = [-5.0, -5.0, -5.0, -5.0, 1.0]


def grid(rng):
    """A 3-6 x 3-6 grid as the CLI's JSON document, each part a lexicon term
    (half of them), a random shape in the unit square, or now and then one
    that clamps."""

    def part():
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(LEXICON).name
        if roll < 0.95:
            return sorted(rng.random() for _ in range(4)) + [rng.uniform(0.5, 1.0)]
        return FAR_OFF

    frame = [f"H{j}" for j in range(rng.randint(3, 6))]
    return {
        "frame": frame,
        "sources": [
            {"name": f"E{i}", "assessments": {h: {"A": part(), "B": part()} for h in frame}}
            for i in range(rng.randint(3, 6))
        ],
    }


def matrix(doc):
    terms = {term.name: term.shape for term in LEXICON}

    def shape(part):
        return terms[part] if isinstance(part, str) else TrapezoidalFuzzyNumber(*part)

    return AssessmentMatrix(
        frame=Frame(doc["frame"]),
        sources=[s["name"] for s in doc["sources"]],
        cells=[
            [ZNumber(shape(s["assessments"][h]["A"]), shape(s["assessments"][h]["B"])) for h in doc["frame"]]
            for s in doc["sources"]
        ],
    )


def assert_masses_match(got, expected, tol):
    for key in got.keys() | expected.keys():
        assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) <= tol, sorted(key)


def assert_matches(bpas, fused, trace, ranking, reference):
    ref_bpas, ref_fused, ref_trace, _ = reference
    assert len(bpas) == len(ref_bpas)
    for got, expected in zip(bpas, ref_bpas):
        assert_masses_match(got, expected, BPA_TOL)
    assert_masses_match(fused, ref_fused, FUSED_TOL)
    assert len(trace) == len(ref_trace)
    for got, expected in zip(trace, ref_trace):
        assert abs(got - expected) <= FUSED_TOL
    # the order must hold wherever the reference's masses are told apart
    masses = [ref_fused.get(frozenset([h]), 0.0) for h in ranking]
    for ahead, behind in zip(masses, masses[1:]):
        assert ahead >= behind - FUSED_TOL, ranking


def cli_report(path, alpha):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["decide", "--input", str(path), "--alpha", repr(alpha), "--format", "json"])
    assert code == cli.EXIT_OK
    return json.loads(out.getvalue())


def as_sets(masses):
    return {frozenset(m["focal"]): m["mass"] for m in masses}


@pytest.mark.parametrize("seed", range(12))
def test_library_and_cli_follow_the_formulas(tmp_path, seed):
    rng = random.Random(seed)
    doc = grid(rng)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    m = matrix(doc)
    for alpha in (0.3, 0.7, 0.999, rng.randint(1, 999) / 1000, rng.randint(1, 999) / 1000):
        reference = reference_decide(m, alpha)
        report = decide(m, alpha)
        assert_matches(
            [focal_sets(b) for b in report.per_source_bpas],
            focal_sets(report.fused),
            report.conflict_trace,
            report.ranking,
            reference,
        )
        printed = cli_report(path, alpha)
        assert_matches(
            [as_sets(b["masses"]) for b in printed["bpas"]],
            as_sets(printed["fused"]),
            printed["conflict_trace"],
            printed["ranking"],
            reference,
        )
