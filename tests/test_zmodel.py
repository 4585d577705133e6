"""Z-numbers: lexicon, ranking scores, deviation, and similarity."""

import base64
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfuse.fuzzy import TrapezoidalFuzzyNumber, centroid, spread
from zfuse import zmodel
from zfuse.owa import mem_weights
from zfuse.zmodel import (
    LEXICON,
    ReferenceBounds,
    ZNumber,
    linguistic_term,
    rank_fuzzy,
    rank_znumbers,
    ranking_score,
    score_znumber,
    similarity,
)

from oracles import reference_score
from test_fuzzy import edge_trapezoids, ulp_trapezoids


def term(name):
    return linguistic_term(name).shape


IDEAL = ZNumber(TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0), TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0))
ANTI_IDEAL = ZNumber(TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0), TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0))


class TestZNumberParts:
    def test_a_term_instead_of_its_shape(self):
        high = linguistic_term("High")
        with pytest.raises(
            TypeError, match=r"^Z-number part A must be a TrapezoidalFuzzyNumber, got LinguisticTerm; pass the term's \.shape$"
        ):
            ZNumber(high, high.shape)

    @pytest.mark.parametrize("part", [None, 0.5, (0.1, 0.2, 0.3, 0.4, 1.0), "High"])
    def test_b_that_is_not_a_shape(self, part):
        with pytest.raises(
            TypeError, match=rf"^Z-number part B must be a TrapezoidalFuzzyNumber, got {type(part).__name__}$"
        ):
            ZNumber(term("High"), part)

    def test_names_a_first(self):
        with pytest.raises(TypeError, match=r"part A .* got NoneType$"):
            ZNumber(None, linguistic_term("Low"))


class TestLexicon:
    def test_has_nine_terms(self):
        assert len(LEXICON) == 9
        assert len({t.name for t in LEXICON}) == 9

    def test_shapes(self):
        expected = {
            "Absolutely-low": (0.0, 0.0, 0.0, 0.0),
            "Very-low": (0.0, 0.0, 0.02, 0.07),
            "Low": (0.04, 0.1, 0.18, 0.23),
            "Fairly-low": (0.17, 0.22, 0.36, 0.42),
            "Medium": (0.32, 0.41, 0.58, 0.65),
            "Fairly-high": (0.58, 0.63, 0.8, 0.86),
            "High": (0.72, 0.78, 0.92, 0.97),
            "Very-high": (0.93, 0.98, 1.0, 1.0),
            "Absolutely-high": (1.0, 1.0, 1.0, 1.0),
        }
        for t in LEXICON:
            assert (t.shape.a, t.shape.b, t.shape.c, t.shape.d) == expected[t.name]
            assert t.shape.w == 1.0

    def test_lookup_is_forgiving(self):
        for spelling in ("Very-high", "very high", "VERY_HIGH", "very-High"):
            assert linguistic_term(spelling).name == "Very-high"

    def test_unknown_term_names_the_options(self):
        with pytest.raises(ValueError, match="Absolutely-low.*Absolutely-high"):
            linguistic_term("sort-of-high")


class TestRankingScore:
    def test_ideal_scores_exactly_one(self):
        assert ranking_score(TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0)) == 1.0

    def test_anchor_values(self):
        assert ranking_score(TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0)) == pytest.approx(
            0.446, abs=5e-4
        )
        assert ranking_score(term("Very-high")) == pytest.approx(0.9813, abs=1e-3)
        assert ranking_score(term("Low")) == pytest.approx(0.5101, abs=1e-3)

    def test_needs_three_weights(self):
        with pytest.raises(ValueError, match="length-3"):
            ranking_score(term("Low"), mem_weights(2, 0.7))

    def test_monotone_in_height(self):
        tall = TrapezoidalFuzzyNumber(0.2, 0.4, 0.6, 0.8, 1.0)
        short = TrapezoidalFuzzyNumber(0.2, 0.4, 0.6, 0.8, 0.5)
        assert ranking_score(tall) > ranking_score(short)

    def test_respects_alternative_weights(self):
        # neutral weights average the three factors
        f = term("Medium")
        v = mem_weights(3, 0.5)
        assert ranking_score(f, v) == pytest.approx((centroid(f) + f.w + 1 / (1 + spread(f))) / 3)


class TestRankFuzzy:
    def test_orders_best_first(self):
        order = rank_fuzzy([term("Low"), term("Very-high"), term("Medium")])
        assert order == [1, 2, 0]

    def test_ties_keep_input_order(self):
        f = term("High")
        assert rank_fuzzy([f, f, term("Low")]) == [0, 1, 2]

    def test_winner_survives_duplicate_entries(self):
        pool = [term("Low"), term("Very-high"), term("Fairly-high")]
        assert rank_fuzzy(pool)[0] == 1
        assert rank_fuzzy(pool + [term("Low")])[0] == 1

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="nothing to rank"):
            rank_fuzzy([])


def old_best_first(scores):
    """best_first as it sorted before: one key call per index."""
    return sorted(range(len(scores)), key=lambda i: -scores[i])


SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, -math.inf, 1, 0, Fraction(1, 2), Fraction(-1, 3)]),
    st.floats(allow_nan=True),
    st.integers(-3, 3),
    st.fractions(max_denominator=4),
)


class TestBestFirst:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(SCORES, min_size=1, max_size=30))
    def test_same_order_as_the_per_index_key(self, scores):
        assert zmodel.best_first(scores) == old_best_first(scores)
        assert zmodel.best_first(tuple(scores)) == old_best_first(scores)

    def test_ties_keep_input_order(self):
        assert zmodel.best_first([0.5, -0.0, 1, 0.0, Fraction(1, 2), 0]) == [2, 0, 4, 1, 3, 5]

    @pytest.mark.parametrize("empty", [[], ()])
    def test_rejects_empty_input(self, empty):
        with pytest.raises(ValueError, match="nothing to rank"):
            zmodel.best_first(empty)


class TestReferenceBounds:
    def test_ideal_and_anti_ideal(self):
        refs = ReferenceBounds.from_alpha(0.7)
        assert refs.hmax == 1.0
        assert refs.hmin == pytest.approx(0.446028, abs=1e-6)

    def test_carries_its_weights(self):
        refs = ReferenceBounds.from_alpha(0.6)
        assert refs.score_weights == mem_weights(3, 0.6)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_carries_the_component_weights_of_its_alpha(self, alpha):
        assert ReferenceBounds.from_alpha(alpha).component_weights == mem_weights(2, alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1e-12])
    def test_no_centroid_weight_is_rejected(self, alpha):
        # the centroid weight is exactly 0 here, so the ideal and the
        # anti-ideal score alike and deviation would divide by zero
        assert mem_weights(3, alpha).weights[0] == 0.0
        with pytest.raises(ValueError, match=f"alpha {alpha}"):
            ReferenceBounds.from_alpha(alpha)


    @given(st.one_of(st.floats(0.0, 1e-7), st.floats(0.0, 1.0)))
    @settings(max_examples=300)
    def test_is_a_function_of_alpha(self, alpha):
        # weighted toward [0, 1e-7]: from_alpha starts to raise near 5e-9
        try:
            refs = ReferenceBounds(alpha)
        except ValueError as error:
            assert "put no weight on the centroid" in str(error)
            with pytest.raises(ValueError, match="put no weight on the centroid"):
                ReferenceBounds.from_alpha(alpha)
            return
        assert refs == ReferenceBounds.from_alpha(alpha)
        assert tuple(getattr(refs, field) for field in ReferenceBounds.__match_args__) == (alpha,)
        weights = mem_weights(2, alpha)
        for a in LEXICON:
            for b in LEXICON:
                z = ZNumber(a.shape, b.shape)
                score = score_znumber(z, refs)
                assert 0.0 <= score.deviation <= 1.0
                h_a, h_b, dev, _ = reference_score(z, weights, refs)
                assert (score.hA.hex(), score.hB.hex(), score.deviation.hex()) == (h_a.hex(), h_b.hex(), dev.hex())

    def test_the_four_value_constructor_is_gone(self):
        refs = ReferenceBounds.from_alpha(0.7)
        with pytest.raises(TypeError):
            ReferenceBounds(refs.hmax, refs.hmin, refs.score_weights, refs.component_weights)


class TestDeviationAndSimilarity:
    def test_ideal_percolates_to_zero_deviation(self):
        assert score_znumber(IDEAL).deviation == 0.0
        assert similarity(IDEAL) == 1.0

    def test_anti_ideal_hits_one_exactly(self):
        score = score_znumber(ANTI_IDEAL)
        assert score.deviation == 1.0
        assert score.similarity == 0.0
        assert not score.clamped

    def test_medical_first_expert_row(self):
        row = [
            ZNumber(term("Very-high"), term("Very-high")),
            ZNumber(term("Low"), term("Very-high")),
            ZNumber(term("Absolutely-low"), term("Very-high")),
        ]
        devs = [score_znumber(z).deviation for z in row]
        assert devs[0] == pytest.approx(0.0338, abs=1e-3)
        assert devs[1] == pytest.approx(0.7401, abs=1e-3)
        assert devs[2] == pytest.approx(0.8368, abs=1e-3)
        sims = [similarity(z) for z in row]
        for d, s in zip(devs, sims):
            assert d + s == pytest.approx(1.0, abs=1e-15)

    def test_component_weights_break_symmetry(self):
        # swapping the components moves the pair along the same unweighted
        # circle, so any difference comes from the 0.7/0.3 split
        lo = TrapezoidalFuzzyNumber(0.3, 0.3, 0.3, 0.3)
        hi = TrapezoidalFuzzyNumber(0.9, 0.9, 0.9, 0.9)
        d_lo_hi = score_znumber(ZNumber(lo, hi)).deviation
        d_hi_lo = score_znumber(ZNumber(hi, lo)).deviation
        assert d_lo_hi != pytest.approx(d_hi_lo, abs=1e-6)
        assert d_lo_hi > d_hi_lo  # the evaluation component weighs more

    def test_far_out_shapes_clamp(self):
        wild = ZNumber(
            TrapezoidalFuzzyNumber(-50.0, -50.0, -50.0, -50.0),
            TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0),
        )
        score = score_znumber(wild)
        assert score.clamped
        assert score.deviation == 1.0
        assert score.similarity == 0.0

    @given(st.sampled_from(LEXICON), st.sampled_from(LEXICON), st.sampled_from(LEXICON))
    @settings(max_examples=200)
    def test_better_evaluation_never_hurts(self, b, lo, hi):
        h_lo = ranking_score(lo.shape)
        h_hi = ranking_score(hi.shape)
        if h_lo >= h_hi:
            return
        worse = similarity(ZNumber(lo.shape, b.shape))
        better = similarity(ZNumber(hi.shape, b.shape))
        assert better > worse


class TestRankZnumbers:
    def test_medical_row_order_and_scores(self):
        row = [
            ZNumber(term("Very-high"), term("Very-high")),
            ZNumber(term("Low"), term("Very-high")),
            ZNumber(term("Absolutely-low"), term("Very-high")),
        ]
        ranked = rank_znumbers(row)
        assert [i for i, _ in ranked] == [0, 1, 2]
        scores = dict(ranked)
        assert scores[0] == pytest.approx(0.9662, abs=1e-3)
        assert scores[1] == pytest.approx(0.2599, abs=1e-3)
        assert scores[2] == pytest.approx(0.1632, abs=1e-3)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="nothing to rank"):
            rank_znumbers([])

    def test_reliability_breaks_evaluation_ties(self):
        a = term("Medium")
        ranked = rank_znumbers([ZNumber(a, term("Low")), ZNumber(a, term("Very-high"))])
        assert [i for i, _ in ranked] == [1, 0]


def scoring_cases(rng):
    """Lexicon x lexicon pairs, then seeded numeric shapes, some far off."""
    for a in LEXICON:
        for b in LEXICON:
            yield ZNumber(a.shape, b.shape)
    for _ in range(500):
        scale = rng.choice((1.0, 1.0, 50.0, 1e200))
        shapes = []
        for _ in range(2):
            vertices = sorted(rng.uniform(-scale, scale) for _ in range(4))
            shapes.append(TrapezoidalFuzzyNumber(*vertices, rng.uniform(0.01, 1.0)))
        yield ZNumber(*shapes)


def scored_reprs(refs):
    """repr of every scoring case's ZScore under refs: equal lists mean equal bits."""
    return [repr(score_znumber(z, refs)) for z in scoring_cases(random.Random(7))]


# base64 of pickle.dumps(ReferenceBounds.from_alpha(0.7), protocol) before
# ReferenceBounds kept its scoring constants: the four fields alone
OLD_REFS_PICKLES = {
    2: (
        "gAJjemZ1c2Uuem1vZGVsClJlZmVyZW5jZUJvdW5kcwpxACmBcQF9cQIoWAQAAABobWF4cQNHP/AAAAAAAABYBAAAAGhtaW5x"
        "BEc/3Iu31sBdS1gNAAAAc2NvcmVfd2VpZ2h0c3EFY3pmdXNlLm93YQpXZWlnaHRWZWN0b3IKcQYpgXEHfXEIKFgHAAAAd2Vp"
        "Z2h0c3EJRz/huiQUn9FbRz/SsQlHGlLDRz/DtV0fTBUQh3EKWAUAAABhbHBoYXELRz/mZmZmZmZmdWJYEQAAAGNvbXBvbmVu"
        "dF93ZWlnaHRzcQxoBimBcQ19cQ4oaAlHP+ZmZmZmZmZHP9MzMzMzMzOGcQ9oC0c/5mZmZmZmZnVidWIu"
    ),
    5: (
        "gAWV+AAAAAAAAACMDHpmdXNlLnptb2RlbJSMD1JlZmVyZW5jZUJvdW5kc5STlCmBlH2UKIwEaG1heJRHP/AAAAAAAACMBGht"
        "aW6URz/ci7fWwF1LjA1zY29yZV93ZWlnaHRzlIwJemZ1c2Uub3dhlIwMV2VpZ2h0VmVjdG9ylJOUKYGUfZQojAd3ZWlnaHRz"
        "lEc/4bokFJ/RW0c/0rEJRxpSw0c/w7VdH0wVEIeUjAVhbHBoYZRHP+ZmZmZmZmZ1YowRY29tcG9uZW50X3dlaWdodHOUaAop"
        "gZR9lChoDUc/5mZmZmZmZkc/0zMzMzMzM4aUaA9HP+ZmZmZmZmZ1YnViLg=="
    ),
}


class TestScoringKernel:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    def test_similarity_matches_score_znumber_and_the_old_scoring(self, alpha):
        weights = mem_weights(2, alpha)
        refs = ReferenceBounds.from_alpha(alpha)
        clamped = 0
        for z in scoring_cases(random.Random(int(alpha * 10))):
            score = score_znumber(z, refs)
            assert similarity(z, refs) == score.similarity
            assert (score.hA, score.hB, score.deviation, score.clamped) == reference_score(z, weights, refs)
            assert score.similarity == 1.0 - score.deviation
            clamped += score.clamped
        assert clamped > 0

    @given(
        st.floats(1e-8, 1.0),
        st.one_of(edge_trapezoids(), ulp_trapezoids()),
        st.one_of(edge_trapezoids(), ulp_trapezoids()),
    )
    @settings(max_examples=300)
    def test_edge_shapes_at_any_alpha_score_as_the_old_scoring(self, alpha, a, b):
        # down to 1e-8, near the ~5e-9 where from_alpha raises, hmax and hmin
        # differ in their last bits, so a normaliser rounded another way shows
        refs = ReferenceBounds.from_alpha(alpha)
        z = ZNumber(a, b)
        score = score_znumber(z, refs)
        h_a, h_b, dev, clamped = reference_score(z, mem_weights(2, alpha), refs)
        got = (score.hA.hex(), score.hB.hex(), score.deviation.hex(), score.clamped)
        assert got == (h_a.hex(), h_b.hex(), dev.hex(), clamped)
        assert similarity(z, refs).hex() == score.similarity.hex() == (1.0 - dev).hex()

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1e-8])
    def test_copies_and_pickles_score_bit_identically(self, alpha):
        refs = ReferenceBounds.from_alpha(alpha)
        pickles = [pickle.loads(pickle.dumps(refs, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        expected = scored_reprs(refs)
        for twin in (copy.copy(refs), copy.deepcopy(refs), *pickles):
            assert twin == refs
            assert scored_reprs(twin) == expected

    @pytest.mark.parametrize("protocol", OLD_REFS_PICKLES)
    def test_a_pickle_of_the_fields_alone_still_scores(self, protocol):
        refs = ReferenceBounds.from_alpha(0.7)
        loaded = pickle.loads(base64.b64decode("".join(OLD_REFS_PICKLES[protocol])))
        assert loaded == refs and repr(loaded) == repr(refs)
        assert scored_reprs(loaded) == scored_reprs(refs)

    @staticmethod
    def counting_kernel(monkeypatch):
        """Route zmodel._h through a wrapper; returns the (shape, weights) it was given."""
        kernel = zmodel._h
        calls = []

        def counting(f, w0, w1, w2):
            calls.append((f, (w0, w1, w2)))
            return kernel(f, w0, w1, w2)

        monkeypatch.setattr(zmodel, "_h", counting)
        return calls

    @pytest.mark.parametrize("score", [similarity, score_znumber])
    def test_each_component_is_scored_by_the_kernel(self, monkeypatch, score):
        refs = ReferenceBounds.from_alpha(0.7)
        weights = refs.score_weights.weights
        calls = self.counting_kernel(monkeypatch)
        for z in scoring_cases(random.Random(3)):
            calls.clear()
            score(z, refs)
            assert calls == [(z.A, weights), (z.B, weights)]

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_ranking_score_returns_the_kernels_value(self, monkeypatch, alpha):
        kernel = zmodel._h
        weights = mem_weights(3, alpha)
        calls = self.counting_kernel(monkeypatch)
        for z in scoring_cases(random.Random(4)):
            calls.clear()
            assert ranking_score(z.A, weights).hex() == kernel(z.A, *weights).hex()
            assert calls == [(z.A, weights.weights)]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_refs_alone_fix_both_weight_vectors(self, alpha):
        # one ReferenceBounds carries the factor and the component weights
        # of its alpha; neither falls back to the default alpha
        refs = ReferenceBounds.from_alpha(alpha)
        for a in LEXICON:
            for b in LEXICON:
                z = ZNumber(a.shape, b.shape)
                want = reference_score(z, mem_weights(2, alpha), refs)
                assert score_znumber(z, refs=refs).deviation == want[2]
                assert rank_znumbers([z], refs=refs) == [(0, 1.0 - want[2])]
