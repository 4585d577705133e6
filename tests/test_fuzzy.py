"""Trapezoidal fuzzy numbers: validation, membership, centroid, spread,
and the copy of centroid and spread that zmodel.ranking_score writes inline."""

import math
import random
import statistics

import pytest
from hypothesis import example, given, assume, settings
from hypothesis import strategies as st

from zfuse.fuzzy import TrapezoidalFuzzyNumber, centroid, membership, spread
from zfuse.owa import DEFAULT_ALPHA, mem_weights
from zfuse.zmodel import LEXICON, ranking_score

from oracles import quadrature_centroid, vertex_std


@st.composite
def trapezoids(draw, lo=-100.0, hi=100.0, min_w=0.05):
    vs = sorted(
        draw(
            st.lists(
                st.floats(lo, hi, allow_nan=False, allow_infinity=False),
                min_size=4,
                max_size=4,
            )
        )
    )
    w = draw(st.floats(min_w, 1.0))
    return TrapezoidalFuzzyNumber(vs[0], vs[1], vs[2], vs[3], w)


class TestValidation:
    def test_vertices_must_be_sorted(self):
        with pytest.raises(ValueError, match="a <= b <= c <= d"):
            TrapezoidalFuzzyNumber(0.5, 0.3, 0.7, 0.9)

    def test_height_must_be_positive(self):
        with pytest.raises(ValueError, match="0 < w <= 1"):
            TrapezoidalFuzzyNumber(0.0, 0.1, 0.2, 0.3, 0.0)

    def test_height_must_not_exceed_one(self):
        with pytest.raises(ValueError, match="0 < w <= 1"):
            TrapezoidalFuzzyNumber(0.0, 0.1, 0.2, 0.3, 1.5)

    def test_degenerate_segments_are_fine(self):
        TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.12)
        TrapezoidalFuzzyNumber(0.2, 0.2, 0.2, 0.2)
        TrapezoidalFuzzyNumber(0.1, 0.3, 0.3, 0.5)

    @pytest.mark.parametrize("field", ["a", "b", "c", "d", "w"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, field, bad):
        values = dict(a=0.1, b=0.2, c=0.3, d=0.4, w=1.0)
        values[field] = bad
        with pytest.raises(ValueError, match=f"finite, got {field} = {bad}"):
            TrapezoidalFuzzyNumber(**values)

    def test_names_the_first_non_finite_value(self):
        with pytest.raises(ValueError, match="finite, got b = nan"):
            TrapezoidalFuzzyNumber(0.1, math.nan, 0.3, math.inf, -math.inf)


class TestMembership:
    def test_zero_outside_support(self):
        f = TrapezoidalFuzzyNumber(0.2, 0.4, 0.6, 0.8)
        assert membership(f, 0.1) == 0.0
        assert membership(f, 0.9) == 0.0

    def test_plateau_reaches_height(self):
        f = TrapezoidalFuzzyNumber(0.2, 0.4, 0.6, 0.8, 0.75)
        assert membership(f, 0.4) == 0.75
        assert membership(f, 0.5) == 0.75
        assert membership(f, 0.6) == 0.75

    def test_ramp_midpoints(self):
        f = TrapezoidalFuzzyNumber(0.2, 0.4, 0.6, 0.8)
        assert membership(f, 0.3) == pytest.approx(0.5)
        assert membership(f, 0.7) == pytest.approx(0.5)

    def test_support_endpoints(self):
        f = TrapezoidalFuzzyNumber(0.2, 0.4, 0.6, 0.8)
        assert membership(f, 0.2) == 0.0
        assert membership(f, 0.8) == 0.0

    def test_point_number_spikes_at_its_vertex(self):
        f = TrapezoidalFuzzyNumber(0.3, 0.3, 0.3, 0.3, 0.9)
        assert membership(f, 0.3) == 0.9
        assert membership(f, 0.3000001) == 0.0

    @given(trapezoids(), st.floats(-150.0, 150.0, allow_nan=False))
    def test_grades_stay_within_height(self, f, x):
        assert 0.0 <= membership(f, x) <= f.w


class TestCentroid:
    def test_known_value(self):
        # (0.93, 0.98, 1, 1): ramp area 0.025 at (a+2b)/3 plus plateau
        # area 0.02 at 0.99 gives 0.04388333/0.045.
        f = TrapezoidalFuzzyNumber(0.93, 0.98, 1.0, 1.0)
        assert centroid(f) == pytest.approx(0.9751851851851852, abs=1e-12)

    def test_symmetric_trapezoid_centers(self):
        f = TrapezoidalFuzzyNumber(0.1, 0.3, 0.5, 0.7)
        assert centroid(f) == pytest.approx(0.4)

    def test_triangle(self):
        f = TrapezoidalFuzzyNumber(0.0, 0.12, 0.12, 0.24)
        assert centroid(f) == pytest.approx(0.12)

    def test_rectangle(self):
        f = TrapezoidalFuzzyNumber(0.2, 0.2, 0.6, 0.6)
        assert centroid(f) == pytest.approx(0.4)

    def test_point_number_is_its_vertex(self):
        assert centroid(TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0)) == 0.0
        assert centroid(TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0)) == 1.0

    def test_height_cancels(self):
        tall = TrapezoidalFuzzyNumber(0.1, 0.2, 0.5, 0.9, 1.0)
        short = TrapezoidalFuzzyNumber(0.1, 0.2, 0.5, 0.9, 0.2)
        assert centroid(tall) == centroid(short)

    @given(trapezoids())
    @example(TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 5e-324))
    # a support one ulp wide, on which a float quadrature's area rounds to 0
    @example(TrapezoidalFuzzyNumber(0.05, 0.05000000000000001, 0.05000000000000001, 0.05000000000000001))
    @settings(max_examples=300)
    def test_matches_quadrature(self, f):
        assume(f.a < f.d)
        scale = max(1.0, abs(f.a), abs(f.d))
        assert centroid(f) == pytest.approx(quadrature_centroid(f), abs=1e-9 * scale)

    def test_subnormal_products_stay_inside_support(self):
        # the segment moments underflow to 0 here; the centroid must not
        f = TrapezoidalFuzzyNumber(3.18e-283, 2.35e-230, 2.35e-230, 2.35e-230)
        assert f.a <= centroid(f) <= f.d
        assert centroid(f) == pytest.approx((f.a + 2.0 * f.b) / 3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "vertices",
        [
            (0.0, 0.0, 0.0, 1e308),
            (-1e308, 0.0, 0.0, 1e308),
            (-1e200, 0.0, 0.0, 1e200),
            (1.7e308, 1.75e308, 1.79e308, 1.797e308),
            (-1.7976931348623157e308, -1e308, 1e308, 1.7976931348623157e308),
            (0.0, 5e-324, 5e-324, 5e-324),
        ],
    )
    def test_finite_inside_support_at_the_float_limits(self, vertices):
        f = TrapezoidalFuzzyNumber(*vertices)
        x = centroid(f)
        assert math.isfinite(x)
        assert f.a <= x <= f.d

    def test_huge_right_ramp(self):
        f = TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 1e308)
        assert centroid(f) == pytest.approx(1e308 / 3.0, rel=1e-15)

    @given(trapezoids())
    def test_stays_inside_support(self, f):
        assert f.a <= centroid(f) <= f.d

    @given(trapezoids(lo=-5.0, hi=5.0), st.floats(-3.0, 3.0, allow_nan=False))
    def test_translation_covariance(self, f, shift):
        moved = TrapezoidalFuzzyNumber(f.a + shift, f.b + shift, f.c + shift, f.d + shift, f.w)
        assert centroid(moved) == pytest.approx(centroid(f) + shift, abs=1e-9)


def unclamped_centroid(f):
    """centroid's arithmetic as written when it clamped with min(max(...)),
    stopped before the clamp."""
    a, b, c, d = 0.5 * f.a, 0.5 * f.b, 0.5 * f.c, 0.5 * f.d
    rise = b - a
    fall = d - c
    left = 0.5 * rise
    plateau = c - b
    right = 0.5 * fall
    area = left + plateau + right
    if area == 0.0:
        return f.a
    x = (
        left / area * (b - rise / 3.0)
        + plateau / area * (b + 0.5 * plateau)
        + right / area * (c + fall / 3.0)
    )
    return 2.0 * x


def minmax_centroid(f):
    """The oracle for the two comparisons that replaced min and max."""
    return min(max(unclamped_centroid(f), f.a), f.d)


# subnormals, the float limits and both zeros; repeats give point numbers
# and zero-width segments
EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-323,
    2.2250738585072014e-308,
    -2.2250738585072014e-308,
    1.79e308,
    -1.79e308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1.0,
)


@st.composite
def edge_trapezoids(draw):
    value = st.one_of(
        st.sampled_from(EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-300, 1e-300),
    )
    distinct = draw(st.lists(value, min_size=1, max_size=4))
    vs = sorted(draw(st.lists(st.sampled_from(distinct), min_size=4, max_size=4)))
    w = draw(st.floats(5e-324, 1.0))
    return TrapezoidalFuzzyNumber(*vs, w)


@st.composite
def ulp_trapezoids(draw):
    """Four vertices within a few ulps of one another, at any magnitude."""
    base = draw(st.floats(allow_nan=False, allow_infinity=False))
    vs = []
    for steps in sorted(draw(st.lists(st.integers(0, 8), min_size=4, max_size=4))):
        v = base
        for _ in range(steps):
            v = math.nextafter(v, math.inf)
        vs.append(v)
    assume(math.isfinite(vs[-1]))
    return TrapezoidalFuzzyNumber(*vs)


# Halving a subnormal vertex rounds, so the weighted mean can land one ulp
# below a; these reach the lower clamp.  No shape that reaches the upper
# clamp is known.
LOWER_CLAMPED = [
    (5e-324, 5e-324, 1e-323, 1e-323),
    (-1.14e-322, -1.14e-322, -1.1e-322, -1.1e-322),
    (-5.4e-323, -5.4e-323, -5e-323, -4.4e-323),
    (3.7146818707917215e-308, 3.7146818707917215e-308, 3.714681870791722e-308, 3.7146818707917224e-308),
]


class TestCentroidClamp:
    """centroid clamps with two comparisons; it must give the bits of
    min(max(2x, a), d), the signed zeros included."""

    def assert_same_bits(self, f):
        assert centroid(f).hex() == minmax_centroid(f).hex()

    @pytest.mark.parametrize("vertices", LOWER_CLAMPED)
    def test_lower_clamp_is_reached(self, vertices):
        f = TrapezoidalFuzzyNumber(*vertices)
        assert unclamped_centroid(f) < f.a
        assert centroid(f) == f.a
        self.assert_same_bits(f)

    @pytest.mark.parametrize(
        "vertices",
        [
            (0.93, 0.98, 1.0, 1.0),
            (0.1, 0.3, 0.5, 0.7),
            (0.0, 0.12, 0.12, 0.24),
            (0.2, 0.2, 0.6, 0.6),
            (0.0, 0.0, 0.0, 0.0),
            (-0.0, -0.0, -0.0, -0.0),
            (-0.0, -0.0, 0.0, 0.0),
            (-0.0, 0.0, 0.0, 5e-324),
            (1.0, 1.0, 1.0, 1.0),
            (0.0, 0.0, 0.0, 5e-324),
            (3.18e-283, 2.35e-230, 2.35e-230, 2.35e-230),
            (0.0, 0.0, 0.0, 1e308),
            (-1e308, 0.0, 0.0, 1e308),
            (-1e200, 0.0, 0.0, 1e200),
            (1.7e308, 1.75e308, 1.79e308, 1.797e308),
            (-1.7976931348623157e308, -1e308, 1e308, 1.7976931348623157e308),
            (0.0, 5e-324, 5e-324, 5e-324),
        ],
    )
    def test_pinned_shapes(self, vertices):
        self.assert_same_bits(TrapezoidalFuzzyNumber(*vertices))

    @given(edge_trapezoids())
    # the mean before the clamp is 0.0 against a = -0.0: a tie that keeps 0.0
    @example(TrapezoidalFuzzyNumber(-0.0, -0.0, 1e-323, 1e-323))
    @example(TrapezoidalFuzzyNumber(-0.0, 5e-324, 1e-323, 1.5e-323))
    @settings(max_examples=500)
    def test_edge_shapes(self, f):
        self.assert_same_bits(f)

    @given(ulp_trapezoids())
    @settings(max_examples=500)
    def test_shapes_a_few_ulps_wide(self, f):
        self.assert_same_bits(f)

    @given(trapezoids())
    def test_ordinary_shapes(self, f):
        self.assert_same_bits(f)


class TestSpread:
    def test_point_number_has_no_spread(self):
        assert spread(TrapezoidalFuzzyNumber(0.4, 0.4, 0.4, 0.4)) == 0.0

    def test_known_values(self):
        # sample standard deviation over the four vertices, divisor 3
        medium = TrapezoidalFuzzyNumber(0.32, 0.41, 0.58, 0.65)
        assert spread(medium) == pytest.approx(vertex_std((medium.a, medium.b, medium.c, medium.d)), abs=1e-12)
        assert spread(medium) == pytest.approx(0.15165751, abs=1e-6)
        very_high = TrapezoidalFuzzyNumber(0.93, 0.98, 1.0, 1.0)
        assert spread(very_high) == pytest.approx(0.03304038, abs=1e-6)
        low = TrapezoidalFuzzyNumber(0.04, 0.1, 0.18, 0.23)
        assert spread(low) == pytest.approx(0.0842121, abs=1e-6)

    def test_matches_exact_stdev(self):
        # statistics.stdev works in exact fractions: the reference the float
        # kernel replaced
        rng = random.Random(2017)
        for _ in range(2000):
            scale = 10.0 ** rng.randint(-6, 6)
            vs = sorted(rng.uniform(-scale, scale) for _ in range(4))
            f = TrapezoidalFuzzyNumber(*vs)
            assert spread(f) == pytest.approx(statistics.stdev(vs), rel=1e-12)

    def test_wide_spreads_do_not_raise(self):
        assert spread(TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 1e308)) == pytest.approx(5e307)
        assert spread(TrapezoidalFuzzyNumber(-1e200, 0.0, 0.0, 1e200)) == pytest.approx(
            math.sqrt(2.0 / 3.0) * 1e200
        )

    @given(trapezoids())
    def test_agrees_with_direct_formula(self, f):
        assert spread(f) == pytest.approx(vertex_std((f.a, f.b, f.c, f.d)), rel=1e-9, abs=1e-12)


def blended_score(f, weights):
    """H as the blend of fuzzy's own centroid and spread: the oracle for the
    factors ranking_score computes inline."""
    w0, w1, w2 = mem_weights(3, DEFAULT_ALPHA) if weights is None else weights
    return w0 * centroid(f) + w1 * f.w + w2 / (1.0 + spread(f))


SCORE_WEIGHTS = [None, *(mem_weights(3, alpha) for alpha in (0.3, 0.5, 0.7, 1.0)), (0.15, 0.6, 0.25)]


class TestRankingScoreInline:
    """ranking_score must give the bits of the blend over centroid and spread,
    signed zeros, clamps and an infinite spread included."""

    def assert_same_bits(self, f):
        for weights in SCORE_WEIGHTS:
            assert ranking_score(f, weights).hex() == blended_score(f, weights).hex()

    def test_lexicon_shapes(self):
        for term in LEXICON:
            self.assert_same_bits(term.shape)

    def test_seeded_unit_shapes(self):
        rng = random.Random(18)
        for _ in range(1000):
            vertices = sorted(rng.random() for _ in range(4))
            self.assert_same_bits(TrapezoidalFuzzyNumber(*vertices, rng.uniform(0.01, 1.0)))

    @pytest.mark.parametrize(
        "vertices",
        [
            # point numbers
            (0.0, 0.0, 0.0, 0.0),
            (-0.0, -0.0, -0.0, -0.0),
            (0.4, 0.4, 0.4, 0.4),
            (-50.0, -50.0, -50.0, -50.0),
            (5e-324, 5e-324, 5e-324, 5e-324),
            # a support one ulp wide
            (0.05, 0.05000000000000001, 0.05000000000000001, 0.05000000000000001),
            # far off the unit interval
            (-1e200, -1e200, 1e200, 1e200),
            (-1e200, 0.0, 0.0, 1e200),
            (1e200, 1e200, 1e200, 1e200),
            (-1e200, -1e200, -1e200, -1e200),
        ],
    )
    def test_pinned_shapes(self, vertices):
        self.assert_same_bits(TrapezoidalFuzzyNumber(*vertices))
        self.assert_same_bits(TrapezoidalFuzzyNumber(*vertices, 0.5))

    def test_spread_overflows_to_inf(self):
        f = TrapezoidalFuzzyNumber(-1.7976931348623157e308, -1e308, 1e308, 1.7976931348623157e308)
        assert spread(f) == math.inf
        self.assert_same_bits(f)

    @pytest.mark.parametrize("vertices", LOWER_CLAMPED)
    def test_clamped_centroids(self, vertices):
        f = TrapezoidalFuzzyNumber(*vertices)
        assert unclamped_centroid(f) < f.a
        self.assert_same_bits(f)

    @given(st.one_of(edge_trapezoids(), ulp_trapezoids(), trapezoids()))
    @settings(max_examples=500)
    def test_generated_shapes(self, f):
        self.assert_same_bits(f)
