"""Z-numbers: lexicon, ranking scores, deviation, and similarity."""

import base64
import copy
import dis
import functools
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
        # every term, by its exact name and in three forgiving spellings
        for t in LEXICON:
            padded = " " + t.name.lower().replace("-", "  ") + "\t"
            for spelling in (t.name, t.name.upper(), t.name.replace("-", "_"), padded):
                assert linguistic_term(spelling) is t

    def test_unknown_term_names_the_options(self):
        with pytest.raises(ValueError, match="Absolutely-low.*Absolutely-high"):
            linguistic_term("sort-of-high")

    @pytest.mark.parametrize("name", [5, None, ["Low"]], ids=["int", "None", "list"])
    def test_a_name_that_is_not_a_str_is_a_type_error(self, name):
        # a hashable one misses the table and is named there; a list cannot be probed
        with pytest.raises(TypeError, match=type(name).__name__):
            linguistic_term(name)

    def test_an_exact_name_takes_one_probe(self, monkeypatch):
        probes = []

        class Counting(dict):
            def get(self, key):
                probes.append(key)
                return super().get(key)

        monkeypatch.setattr(zmodel, "_TERMS_BY_KEY", Counting(zmodel._TERMS_BY_KEY))
        monkeypatch.setattr(zmodel, "_normalize_term", None)
        for t in LEXICON:
            assert linguistic_term(t.name) is t
        assert probes == [t.name for t in LEXICON]


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

    def test_default_refs_are_built_once_per_process(self, monkeypatch):
        rng = random.Random(290)

        def shape():
            return TrapezoidalFuzzyNumber(*sorted(rng.random() for _ in range(4)), rng.uniform(0.5, 1.0))

        znumbers = [ZNumber(shape(), shape()) for _ in range(1000)]
        refs = ReferenceBounds(0.7)
        sims = [similarity(z, refs).hex() for z in znumbers]
        ranked = [(i, s.hex()) for i, s in rank_znumbers(znumbers, refs)]
        built = []
        init = ReferenceBounds.__init__
        monkeypatch.setattr(ReferenceBounds, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        # as in a fresh process, where no call has asked for the default yet
        monkeypatch.setattr(zmodel, "_default_refs", functools.cache(zmodel._default_refs.__wrapped__))
        assert [similarity(z).hex() for z in znumbers] == sims
        for _ in range(2):
            assert [(i, s.hex()) for i, s in rank_znumbers(znumbers)] == ranked
        assert score_znumber(znumbers[0]) == score_znumber(znumbers[0], refs)
        assert len(built) == 1

    def test_importing_builds_no_default_refs(self):
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(zmodel.__file__).resolve().parents[1])!r})\n"
            "import zfuse, zfuse.cli\n"
            "print(zfuse.zmodel._default_refs.cache_info().currsize, zfuse.owa.mem_weights.cache_info().currsize)\n"
        )
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]


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


# base64 of pickle.dumps(ReferenceBounds(0.7), protocol) in the two formats
# before ReferenceBounds pickled alpha alone
OLD_REFS_PICKLES = {
    # protocol 2, from when it held its four fields alone
    "fields-alone": (
        "gAJjemZ1c2Uuem1vZGVsClJlZmVyZW5jZUJvdW5kcwpxACmBcQF9cQIoWAQAAABobWF4cQNHP/AAAAAAAABYBAAAAGhtaW5x"
        "BEc/3Iu31sBdS1gNAAAAc2NvcmVfd2VpZ2h0c3EFY3pmdXNlLm93YQpXZWlnaHRWZWN0b3IKcQYpgXEHfXEIKFgHAAAAd2Vp"
        "Z2h0c3EJRz/huiQUn9FbRz/SsQlHGlLDRz/DtV0fTBUQh3EKWAUAAABhbHBoYXELRz/mZmZmZmZmdWJYEQAAAGNvbXBvbmVu"
        "dF93ZWlnaHRzcQxoBimBcQ19cQ4oaAlHP+ZmZmZmZmZHP9MzMzMzMzOGcQ9oC0c/5mZmZmZmZnVidWIu"
    ),
    # protocol 5, from when it held alpha and every attribute derived from it
    "every-attribute": (
        "gAWVUAEAAAAAAACMDHpmdXNlLnptb2RlbJSMD1JlZmVyZW5jZUJvdW5kc5STlCmBlH2UKIwFYWxwaGGURz/mZmZmZmZmjARo"
        "bWF4lEc/8AAAAAAAAIwEaG1pbpRHP9yLt9bAXUuMDXNjb3JlX3dlaWdodHOUjAl6ZnVzZS5vd2GUjAxXZWlnaHRWZWN0b3KU"
        "k5QpgZR9lCiMB3dlaWdodHOURz/huiQUn9FbRz/SsQlHGlLDRz/DtV0fTBUQh5RoBUc/5mZmZmZmZnVijBFjb21wb25lbnRf"
        "d2VpZ2h0c5RoCymBlH2UKGgORz/mZmZmZmZmRz/TMzMzMzMzhpRoBUc/5mZmZmZmZnVijAhfc2NvcmluZ5QoRz/huiQUn9Fb"
        "Rz/SsQlHGlLDRz/DtV0fTBUQRz/mZmZmZmZmRz/TMzMzMzMzRz/wAAAAAAAARz/TpAIzBH2MdJR1Yi4="
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

    @pytest.mark.parametrize("name", OLD_REFS_PICKLES)
    def test_an_older_pickle_is_refused(self, name):
        # refused while it loads, not half-built to fail on first use
        with pytest.raises(TypeError, match="^cannot load ReferenceBounds: the pickle predates"):
            pickle.loads(base64.b64decode("".join(OLD_REFS_PICKLES[name])))

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1e-8])
    def test_a_pickle_holds_alpha_alone(self, alpha):
        refs = ReferenceBounds(alpha)
        # the class, one float and the opcodes around them; protocol 4 adds a frame
        sizes = {p: len(pickle.dumps(refs, p)) for p in range(2, 6)}
        assert sizes == {2: 50, 3: 50, 4: 60, 5: 60}
        assert all(pickle.loads(pickle.dumps(refs, p)) == refs for p in sizes)
        assert refs.__reduce__() == (ReferenceBounds, (alpha,))

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

    def test_the_kernel_builds_no_tuples(self):
        # a multiple assignment such as a, b, c, d = f.a, f.b, f.c, f.d
        # compiles to BUILD_TUPLE and UNPACK_SEQUENCE on CPython 3.10-3.13:
        # two throwaway tuples per shape scored
        ops = [i.opname for i in dis.get_instructions(zmodel._h)]
        found = sorted({"BUILD_TUPLE", "UNPACK_SEQUENCE"}.intersection(ops))
        assert not found, f"zmodel._h compiles to {found}; see README, Complexity, for why it assigns one name a statement"

    def test_similarity_calls_no_helper_but_the_kernel(self):
        # a cell takes similarity's frame and two _h frames; a shared helper
        # for the deviation would add a frame per cell
        names = {i.argval for i in dis.get_instructions(zmodel.similarity) if i.opname == "LOAD_GLOBAL"}
        assert names == {"_default_refs", "_h", "_sqrt"}, (
            f"zmodel.similarity loads {sorted(names)}; see README, Complexity, for why it scores a cell itself"
        )

    def test_the_default_refs_score_as_score_znumber(self):
        clamped = 0
        for z in scoring_cases(random.Random(5)):
            score = score_znumber(z)
            assert similarity(z).hex() == score.similarity.hex()
            clamped += score.clamped
        assert clamped > 0

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
