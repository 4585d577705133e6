"""Maximal-entropy OWA weights: orness, dispersion, and the solver."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfuse import owa
from zfuse.owa import WeightVector, _complement, dispersion, mem_weights, orness

from oracles import plain_weights

alphas = st.floats(0.0, 1.0, allow_nan=False)
sizes = st.integers(2, 8)


class TestOrness:
    def test_max_like(self):
        assert orness((1.0, 0.0, 0.0)) == 1.0

    def test_min_like(self):
        assert orness((0.0, 0.0, 1.0)) == 0.0

    def test_uniform_is_neutral(self):
        assert orness((1 / 3, 1 / 3, 1 / 3)) == pytest.approx(0.5)
        assert orness((0.25,) * 4) == pytest.approx(0.5)

    def test_two_weights(self):
        assert orness((0.7, 0.3)) == 0.7

    def test_needs_two_entries(self):
        with pytest.raises(ValueError, match="at least two"):
            orness((1.0,))


class TestDispersion:
    def test_degenerate_vector_has_zero_entropy(self):
        # relies on the 0 ln 0 = 0 convention
        assert dispersion((1.0, 0.0, 0.0)) == 0.0
        # == 0.0 holds for -0.0 too, which a table prints as -0.0000
        assert math.copysign(1.0, dispersion((1.0, 0.0, 0.0))) == 1.0

    def test_uniform_maximizes(self):
        assert dispersion((1 / 3,) * 3) == pytest.approx(math.log(3))
        assert dispersion((0.2,) * 5) == pytest.approx(math.log(5))

    def test_known_value(self):
        expected = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
        assert dispersion((0.7, 0.3)) == pytest.approx(expected, abs=1e-15)


class TestWeightVector:
    def test_iterates_and_indexes(self):
        v = mem_weights(3, 0.7)
        assert len(v) == 3
        assert list(v) == [v[0], v[1], v[2]]

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightVector((0.5, 0.6), 0.5)

    def test_rejects_orness_mismatch(self):
        with pytest.raises(ValueError, match="declared orness"):
            WeightVector((0.5, 0.5), 0.9)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="0, 1"):
            WeightVector((1.2, -0.2), 1.0)

    # mem_weights checks n and alpha before it builds a vector, so only a
    # vector built directly reaches these
    def test_rejects_a_single_entry(self):
        with pytest.raises(ValueError, match=r"^a weight vector needs at least two entries$"):
            WeightVector((1.0,), 1.0)

    def test_rejects_alpha_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1\.5$"):
            WeightVector((0.5, 0.5), 1.5)


class TestMemWeights:
    def test_two_point_solution_is_exact(self):
        assert mem_weights(2, 0.7).weights == (0.7, 0.3)
        assert mem_weights(2, 0.9).weights == (0.9, 0.1)

    def test_three_point_solution(self):
        v = mem_weights(3, 0.7)
        assert v[0] == pytest.approx(0.553972, abs=1e-6)
        assert v[1] == pytest.approx(0.292055, abs=1e-6)
        assert v[2] == pytest.approx(0.153972, abs=1e-6)
        assert v[1] + v[2] == pytest.approx(0.446028, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize(
        "n, got",
        [
            (owa._MAX_N + 1, "n = 100001"),
            (10**20, "n = 100000000000000000000"),
            (2**100 - 1, "n = 1267650600228229401496703205375"),
            (1e20, "n = 1e+20"),
            (math.inf, "n = inf"),
            (2**100, "an n of 101 bits"),
            (10**4299, "an n of 14281 bits"),
            (10**5000, "an n of 16610 bits"),
        ],
        ids=["100001", "100000000000000000000", "2**100-1", "1e20", "inf", "2**100", "10**4299", "10**5000"],
    )
    def test_rejects_n_past_the_ceiling(self, monkeypatch, n, got, alpha):
        # checked before anything is built: a solver step fails the test
        # instead of running for hours at 10**20
        monkeypatch.setattr(owa, "_root", None)
        monkeypatch.setattr(owa, "_geometric", None)
        # an int past 100 bits is named by its length, so the message stays
        # short even where str() would write 4300 digits
        with pytest.raises(ValueError, match=rf"^a weight vector has at most 100000 entries, got {re.escape(got)}$"):
            mem_weights(n, alpha)

    def test_neutral_alpha_is_uniform(self):
        for n in (2, 3, 5, 9):
            v = mem_weights(n, 0.5)
            assert all(w == pytest.approx(1.0 / n, abs=1e-15) for w in v)

    def test_corner_alphas(self):
        assert mem_weights(4, 1.0).weights == (1.0, 0.0, 0.0, 0.0)
        assert mem_weights(4, 0.0).weights == (0.0, 0.0, 0.0, 1.0)

    def test_rejects_short_vectors(self):
        with pytest.raises(ValueError, match="at least two"):
            mem_weights(1, 0.7)

    def test_rejects_alpha_outside_unit(self):
        with pytest.raises(ValueError, match="0, 1"):
            mem_weights(3, 1.0001)
        with pytest.raises(ValueError, match="0, 1"):
            mem_weights(3, -0.2)

    def test_cache_is_bounded(self):
        bound = mem_weights.cache_info().maxsize
        assert bound == owa._CACHE_SIZE
        rng = random.Random(1024)
        # alphas below 0.5 also cache their mirror image
        keys = [(rng.choice((2, 3)), rng.random()) for _ in range(3 * bound)]
        mem_weights.cache_clear()
        try:
            first = [mem_weights(n, alpha) for n, alpha in keys]
            assert mem_weights.cache_info().currsize == bound
            # most were dropped and are built again, with the same weights
            again = [mem_weights(n, alpha) for n, alpha in keys]
            assert mem_weights.cache_info().currsize == bound
        finally:
            mem_weights.cache_clear()
        assert again == first
        assert all(type(w) is float for v in again for w in v)

    @given(sizes, alphas)
    @settings(max_examples=300)
    def test_orness_is_recovered(self, n, alpha):
        v = mem_weights(n, alpha)
        assert orness(v) == pytest.approx(alpha, abs=1e-9)

    @given(sizes, alphas)
    def test_weights_sum_to_one(self, n, alpha):
        assert math.fsum(mem_weights(n, alpha)) == pytest.approx(1.0, abs=1e-12)

    @given(sizes, st.floats(0.0, 0.5, allow_nan=False))
    def test_mirror_symmetry(self, n, alpha):
        low = mem_weights(n, alpha)
        high = mem_weights(n, 1.0 - alpha)
        for a, b in zip(low, reversed(high.weights)):
            assert a == pytest.approx(b, abs=1e-9)

    @given(st.integers(3, 8), st.floats(0.55, 0.95))
    def test_weights_form_a_geometric_progression(self, n, alpha):
        v = mem_weights(n, alpha)
        ratios = [v[i + 1] / v[i] for i in range(n - 1)]
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], abs=1e-9)

    @given(st.integers(3, 8), st.floats(0.51, 0.99))
    def test_optimistic_weights_decrease(self, n, alpha):
        v = mem_weights(n, alpha)
        for i in range(n - 1):
            assert v[i] > v[i + 1]


def neighbours(x, toward, count=60):
    """The count floats next to x, stepping toward toward."""
    out = []
    for _ in range(count):
        x = math.nextafter(x, toward)
        out.append(x)
    return out


def grid(count):
    """count alphas evenly inside (0.5, 1)."""
    return [0.5 + 0.5 * (k + 0.5) / count for k in range(count)]


class TestScreenedBisection:
    """mem_weights decides the steps outside a verified bracket by one
    comparison; its weights must equal the plain bisection's bit for bit."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        mem_weights.cache_clear()
        yield
        mem_weights.cache_clear()

    @staticmethod
    def assert_matches(n, alphas):
        for alpha in alphas:
            assert mem_weights.__wrapped__(n, alpha).weights == plain_weights(n, alpha), (n, alpha)

    def test_three_weights(self):
        rng = random.Random(3)
        alphas = grid(17000) + [rng.uniform(0.5, 1.0) for _ in range(3000)]
        # three decimals, as alphas in input files are written
        alphas += [float(f"0.{k:03d}") for k in range(501, 1000)]
        self.assert_matches(3, alphas)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_small_sizes(self, n):
        self.assert_matches(n, grid(600))

    @pytest.mark.parametrize("n, count", [(50, 120), (1000, 12), (3000, 5)])
    def test_large_sizes(self, n, count):
        self.assert_matches(n, grid(count))

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 50])
    def test_next_to_one_half_and_one(self, n):
        self.assert_matches(n, neighbours(0.5, 1.0) + neighbours(1.0, 0.0))

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_mirrored_alphas(self, n):
        low = [1.0 - a for a in grid(500)] + neighbours(0.5, 0.0) + neighbours(0.0, 1.0)
        # those whose 1 - alpha rounds to 0.5 or 1 take the uniform or one-hot vector
        low = [a for a in low if 0.5 < 1.0 - a < 1.0]
        assert len(low) > 500
        for alpha in low:
            assert mem_weights(n, alpha).weights == tuple(reversed(plain_weights(n, 1.0 - alpha))), (n, alpha)

    @pytest.mark.parametrize("n", [3, 4, 12, 200])
    def test_orness_is_within_nine_roundoffs_of_exact(self, n):
        # the premise of _bracket's proof: |F - E| <= 9u, with E the orness
        # of the exact geometric weights, in integers: r = p / q gives
        # E = sum_i (n - 1 - i) t_i / ((n - 1) sum_i t_i), t_i = p**i q**(n-1-i)
        rng = random.Random(n)
        ratios = [rng.random() for _ in range(300)] + [1.0 - rng.random() * 1e-4 for _ in range(100)]
        if n > 12:
            ratios = ratios[::10]
        bound = Fraction(9, 2**53)
        for r in ratios:
            p, q = r.as_integer_ratio()
            terms = [p**i * q ** (n - 1 - i) for i in range(n)]
            exact = Fraction(sum((n - 1 - i) * t for i, t in enumerate(terms)), (n - 1) * sum(terms))
            assert abs(Fraction(orness(owa._geometric(n, r))) - exact) <= bound, r

    def test_few_steps_build_the_weights(self, monkeypatch):
        built = []
        geometric = owa._geometric
        monkeypatch.setattr(owa, "_geometric", lambda n, r: built.append(r) or geometric(n, r))
        alphas = grid(1000)
        for alpha in alphas:
            mem_weights.__wrapped__(3, alpha)
        # one of them is the returned vector; the plain bisection builds ~45
        assert len(built) / len(alphas) < 5

    @pytest.mark.parametrize(
        "n, count", [(n, 200) for n in range(3, 13)] + [(50, 120), (1000, 12), (3000, 5)]
    )
    def test_bracket_ends_clear_the_screen(self, n, count):
        for alpha in grid(count):
            below, above = owa._bracket(n, alpha)
            assert 0.0 < below < above < 1.0, alpha
            assert orness(owa._geometric(n, below)) - alpha >= owa._CLEAR, alpha
            assert orness(owa._geometric(n, above)) - alpha <= -owa._CLEAR, alpha
            # narrow enough that only the last few steps land inside it
            assert above - below < 1e-9, alpha

    @pytest.mark.parametrize("n", [3, 7, 50])
    def test_a_wrong_root_falls_back_to_the_plain_steps(self, n, monkeypatch):
        root = owa._root
        monkeypatch.setattr(owa, "_root", lambda n, alpha: (root(n, alpha)[0] + 1e-6, root(n, alpha)[1]))
        alphas = grid(300 if n < 50 else 60)
        for alpha in alphas:
            assert owa._bracket(n, alpha) == (0.0, 1.0), alpha
        self.assert_matches(n, alphas)

    def test_a_cold_solve_evaluates_only_inside_the_bracket(self, monkeypatch):
        built = []
        geometric = owa._geometric
        monkeypatch.setattr(owa, "_geometric", lambda n, r: built.append(r) or geometric(n, r))
        for alpha in grid(2000) + [float(f"0.{k:03d}") for k in range(501, 1000)]:
            below, above = owa._bracket(3, alpha)
            built.clear()
            mem_weights.__wrapped__(3, alpha)
            # the bracket's two ends, then at most three steps inside it; the
            # weights built last are the ones returned
            assert built[:2] == [below, above], alpha
            assert all(below < r < above for r in built[2:]), alpha
            assert len(built) <= 5, alpha


def decimal_complement(alpha):
    """The oracle: 1 - alpha in the decimal module's default context."""
    return float(Decimal(1) - Decimal(repr(alpha)))


class TestComplement:
    """_complement takes 1 - alpha on the shortest decimal form of alpha,
    in integers, exactly as the decimal module would."""

    def test_matches_decimal(self):
        rng = random.Random(2817)
        # 1 - 1e-30 has 30 significant digits, which round up to 1
        alphas = [5e-324, 1e-30, 0.1, 0.7, 0.30000000000000004]
        for digits in range(1, 18):
            for _ in range(300):
                # digits significant digits, below 1, down to 1e-40
                coefficient = rng.randrange(10 ** (digits - 1), 10**digits)
                alphas.append(float(f"{coefficient}e-{rng.randrange(digits, digits + 40)}"))
        # 1 - alpha lies within 1e-28 of a midpoint between two doubles, so
        # rounding to 28 digits first can move it to the other double
        alphas += [rng.randrange(1, 2**14, 2) * 2.0**-54 for _ in range(300)]
        for alpha in alphas:
            assert _complement(alpha) == decimal_complement(alpha), alpha


class TestEntropyOptimality:
    """The solver's output should locally maximize dispersion on the
    constraint set {sum w = 1, orness(w) = alpha}."""

    @staticmethod
    def tangent_direction(n, rng):
        # random direction orthogonal to both constraint gradients; the
        # gradients themselves are not orthogonal, so orthonormalize first
        basis = []
        for raw in ([1.0] * n, [float(n - 1 - i) for i in range(n)]):
            vec = list(raw)
            for b in basis:
                dot = sum(x * y for x, y in zip(vec, b))
                vec = [x - dot * y for x, y in zip(vec, b)]
            norm = math.sqrt(sum(x * x for x in vec))
            basis.append([x / norm for x in vec])
        v = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        for b in basis:
            dot = sum(x * y for x, y in zip(v, b))
            v = [x - dot * y for x, y in zip(v, b)]
        length = math.sqrt(sum(x * x for x in v))
        return None if length < 1e-9 else [x / length for x in v]

    def test_random_tangent_moves_do_not_raise_entropy(self):
        rng = random.Random(20240811)
        for n in (3, 4, 5, 6):
            for alpha in (0.6, 0.7, 0.85):
                v = mem_weights(n, alpha)
                base = dispersion(v)
                for _ in range(50):
                    direction = self.tangent_direction(n, rng)
                    if direction is None:
                        continue
                    step = 1e-3
                    moved = [w + step * d for w, d in zip(v, direction)]
                    if min(moved) <= 0.0:
                        continue
                    assert math.fsum(moved) == pytest.approx(1.0, abs=1e-9)
                    assert orness(moved) == pytest.approx(alpha, abs=1e-9)
                    assert dispersion(moved) <= base + 1e-9
