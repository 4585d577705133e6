"""Where the paper's ranking is monotone in the lexicon's order, and where it is not.

H blends centroid, height and compactness 1/(1 + spread) with OWA weights of
orness alpha.  At low alpha compactness dominates, so a crisp term can score
above a wider one that lies above it.  From alpha ≈ 0.542184 up, both the
lexicon's H order and every one-term step of a Z-number on the 9 x 9 lexicon
grid follow the lexicon's order; below it they need not.  These tests pin
that threshold and the counterexamples below it.  Nothing here claims the
ordering is additive (adding one shape to both of two keeps their order),
nor anything about shapes of unequal height.
"""

import json

import pytest

from zfuse.cli import EXIT_OK, main
from zfuse.owa import mem_weights
from zfuse.zmodel import LEXICON, ReferenceBounds, ZNumber, ranking_score, similarity

THRESHOLD = 0.542184


def alpha_grid(start):
    """alpha k / 1000 for k from start to 1000."""
    return [k / 1000 for k in range(start, 1001)]


def h_inversions(alpha):
    """Lexicon pairs whose higher term has an H no higher than the lower one's."""
    weights = mem_weights(3, alpha)
    h = [ranking_score(t.shape, weights) for t in LEXICON]
    return sum(h[j] <= h[i] for i in range(len(h)) for j in range(i + 1, len(h)))


GRID = [[ZNumber(a.shape, b.shape) for b in LEXICON] for a in LEXICON]


def lowering_steps(alpha):
    """One-term steps up in A or in B, on the 9 x 9 lexicon grid, that lower the similarity."""
    refs = ReferenceBounds(alpha)
    s = [[similarity(z, refs) for z in row] for row in GRID]
    n = len(s)
    up_a = sum(s[i + 1][j] < s[i][j] for i in range(n - 1) for j in range(n))
    up_b = sum(s[i][j + 1] < s[i][j] for i in range(n) for j in range(n - 1))
    return up_a + up_b


class TestLexiconOrder:
    @pytest.mark.parametrize(("alpha", "count"), [(0.1, 17), (0.3, 4), (0.5, 1)])
    def test_fails_at_low_alpha(self, alpha, count):
        assert h_inversions(alpha) == count

    def test_holds_from_0_543(self):
        assert [alpha for alpha in alpha_grid(543) if h_inversions(alpha)] == []


class TestZNumberSteps:
    @pytest.mark.parametrize(("alpha", "count"), [(0.1, 3), (0.3, 18), (0.5, 14)])
    def test_fail_at_low_alpha(self, alpha, count):
        assert lowering_steps(alpha) == count

    def test_hold_from_0_543(self):
        assert [alpha for alpha in alpha_grid(543) if lowering_steps(alpha)] == []

    def test_threshold(self):
        low, high = 0.5, 0.543
        assert lowering_steps(low) and not lowering_steps(high)
        while high - low > 1e-7:
            mid = (low + high) / 2
            if lowering_steps(mid):
                low = mid
            else:
                high = mid
        assert abs(high - THRESHOLD) <= 1e-6


class TestRankFuzzyCounterexamples:
    """rank-fuzzy on four terms, below the threshold."""

    TERMS = ["Absolutely-low", "Very-low", "Medium", "Very-high"]

    def scores(self, tmp_path, capsys, alpha):
        path = tmp_path / "terms.json"
        path.write_text(json.dumps(self.TERMS))
        code = main(["rank-fuzzy", "--input", str(path), "--alpha", str(alpha), "--format", "json"])
        assert code == EXIT_OK
        ranking = json.loads(capsys.readouterr().out)["ranking"]
        return [(self.TERMS[entry["index"]], round(entry["score"], 4)) for entry in ranking]

    def test_absolutely_low_above_very_high_at_0_1(self, tmp_path, capsys):
        ranked = self.scores(tmp_path, capsys, 0.1)
        assert ranked[:2] == [("Absolutely-low", 0.9737), ("Very-high", 0.9729)]

    def test_very_low_below_absolutely_low_at_0_5(self, tmp_path, capsys):
        ranked = self.scores(tmp_path, capsys, 0.5)
        assert ranked[-2:] == [("Absolutely-low", 0.6667), ("Very-low", 0.6643)]
