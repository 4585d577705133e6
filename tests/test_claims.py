"""What the decisions on the paper's two examples rest on: Dempster's rule
against three baselines that decide without it, and the paper's handling
of a Z-number against Kang et al.'s conversion and against dropping B
(ROADMAP direction 14).

At alpha 0.7 the sum of similarities and the plain average of the
per-source BPAs rank both fixtures as Dempster's rule does, and each
fixture's per-source plurality vote elects Dempster's decision, 2 votes to
1.  What fusion changes there is the margin between the first two
hypotheses, not the ranking.  Kang's conversion ranks both fixtures as the
paper does at 0.7 too; on the 1/100 alpha grid it and the stripped grid
decide otherwise only at low alphas, all below the threshold under which
the paper's ranking is not monotone.  The baselines live in
tests/oracles.py; each figure is computed here and compared within half a
unit of its last quoted digit.
"""

from collections import Counter
from importlib.resources import files

import pytest

from oracles import average_bpa, kang_conversion, plurality_votes, reference_decide, similarity_sums
from test_axioms import THRESHOLD
from zfuse import decide, strip_reliability
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

# fixture: the fused singleton masses of Kang's grid at ALPHA, in the order
# of Dempster's ranking, each as (figure, tolerance); the paper's own are
# 0.7089 / 0.1811 / 0.1075 and 0.5103 / 0.2867 / 0.1740
KANG = {
    "medical.json": ((0.697, 5e-4), (0.188, 5e-4), (0.1118, 5e-5)),
    "risk.json": ((0.4899, 5e-5), (0.2824, 5e-5), (0.1916, 5e-5)),
}

GRID = [i / 100 for i in range(1, 100)]
# fixture: the alphas of GRID, in hundredths, at which decide decides
# otherwise on Kang's grid and on the stripped grid than on the fixture
OTHERWISE = {
    "medical.json": (set(range(1, 26)) - {13}, set(range(1, 26)) - {11}),
    "risk.json": (set(range(6, 23)), set(range(9, 46))),
}


def fixture_matrix(name):
    matrix, alpha = _load_matrix(str(files("zfuse") / "fixtures" / name))
    # a file that sets its own alpha sets the one the figures are for
    assert alpha in (None, ALPHA), f"{name} sets alpha {alpha}"
    return matrix


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
    matrix = fixture_matrix(request.param)
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


@pytest.mark.parametrize("name", sorted(KANG))
def test_kang_conversion_ranks_as_the_paper(name):
    ranking = CLAIMS[name][0]
    converted = kang_conversion(fixture_matrix(name))
    _, fused, _, kang_ranking = reference_decide(converted, ALPHA)
    assert tuple(kang_ranking) == decide(converted, ALPHA).ranking == ranking
    for h, (figure, tolerance) in zip(ranking, KANG[name]):
        assert fused[frozenset([h])] == pytest.approx(figure, abs=tolerance)


@pytest.mark.parametrize("name", sorted(OTHERWISE))
def test_kang_and_stripped_grids_decide_otherwise_only_below_the_threshold(name):
    matrix = fixture_matrix(name)
    kang, stripped = kang_conversion(matrix), strip_reliability(matrix)
    otherwise = set(), set()
    for hundredths, alpha in enumerate(GRID, 1):
        decision = decide(matrix, alpha).decision
        for found, other in zip(otherwise, (kang, stripped)):
            if decide(other, alpha).decision != decision:
                found.add(hundredths)
    assert otherwise == OTHERWISE[name]
    assert max(max(found) for found in otherwise) / 100 < THRESHOLD
