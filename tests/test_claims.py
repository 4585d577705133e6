"""What the decisions on the paper's two examples rest on: Dempster's rule
against three baselines that decide without it (ROADMAP direction 14).

At alpha 0.7 the sum of similarities and the plain average of the
per-source BPAs rank both fixtures as Dempster's rule does, and each
fixture's per-source plurality vote elects Dempster's decision, 2 votes to
1.  What fusion changes there is the margin between the first two
hypotheses, not the ranking.  The baselines live in tests/oracles.py; each
figure is computed here and compared within half a unit of its last quoted
digit.
"""

from collections import Counter
from importlib.resources import files

import pytest

from oracles import average_bpa, plurality_votes, reference_decide, similarity_sums
from zfuse import decide
from zfuse.cli import _load_matrix

ALPHA = 0.7

# fixture: (Dempster's ranking, each source's vote, top-two margin under
# Dempster's rule and under the BPA average, each as (figure, tolerance))
CLAIMS = {
    "medical.json": (
        ("Common-cold", "Measles", "Meningitis"),
        {"E1": "Common-cold", "E2": "Common-cold", "E3": "Measles"},
        (0.52779, 5e-6),
        (0.15983, 5e-6),
    ),
    "risk.json": (
        ("M2", "M3", "M1"),
        {"C1": "M2", "C2": "M1", "C3": "M2"},
        (0.2236, 5e-5),
        (0.08554, 5e-6),
    ),
}


def ranked(scores):
    """The labels of a label -> score dict, highest score first."""
    return tuple(sorted(scores, key=scores.__getitem__, reverse=True))


def top_two_margin(scores):
    first, second = sorted(scores.values(), reverse=True)[:2]
    return first - second


def average_singletons(matrix):
    """Each hypothesis's mass in the plain average of the per-source BPAs."""
    average = average_bpa(reference_decide(matrix, ALPHA)[0])
    return {h: average[frozenset([h])] for h in matrix.frame.hypotheses}


@pytest.fixture(scope="module", params=sorted(CLAIMS))
def case(request):
    matrix, alpha = _load_matrix(str(files("zfuse") / "fixtures" / request.param))
    # a file that sets its own alpha sets the one the figures are for
    assert alpha in (None, ALPHA), f"{request.param} sets alpha {alpha}"
    return matrix, decide(matrix, ALPHA), CLAIMS[request.param]


def test_sums_and_average_rank_as_dempster(case):
    matrix, report, (ranking, _, _, _) = case
    assert report.ranking == ranking
    assert ranked(similarity_sums(matrix, ALPHA)) == ranking
    assert ranked(average_singletons(matrix)) == ranking


def test_plurality_vote_elects_the_decision_two_to_one(case):
    matrix, report, (_, votes, _, _) = case
    cast = plurality_votes(matrix, ALPHA)
    assert dict(zip(matrix.sources, cast)) == votes
    assert Counter(cast).most_common(1) == [(report.decision, 2)]


def test_fusion_widens_the_top_two_margin(case):
    matrix, report, (_, _, dempster, average) = case
    fused = top_two_margin(report.fused.singleton_masses())
    averaged = top_two_margin(average_singletons(matrix))
    assert fused == pytest.approx(dempster[0], abs=dempster[1])
    assert averaged == pytest.approx(average[0], abs=average[1])
    assert fused > averaged
