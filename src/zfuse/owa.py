"""Ordered weighted averaging: maximal-entropy weight vectors for a target orness.

Among all weight vectors of length n whose orness equals alpha, the one with
maximal entropy (dispersion) has weights in geometric progression.  We solve
for the common ratio by bisection, since orness is strictly decreasing in it;
each step builds the weights at its midpoint and takes their orness.

Before it bisects, the solver finds the root by a few Newton steps and checks
a bracket around it whose ends clear the stopping tolerance by a margin.  A
midpoint outside the bracket is decided by one comparison with its ends, as
the full step provably would decide it, so only the few steps inside build
weights, and the weights are bit for bit the plain bisection's.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import lru_cache

from ._frozen import Frozen, set_field

DEFAULT_ALPHA = 0.7

_ORNESS_TOL = 1e-14
# what _bracket's ends must clear: the tolerance plus 40 roundoffs (see there)
_CLEAR = _ORNESS_TOL + 40 * 2.0**-53
_MAX_BISECTIONS = 200
# Newton steps _root may take; it stops sooner once a step moves the ratio
# by less than _NEWTON_STOP of itself
_NEWTON_STEPS = 50
_NEWTON_STOP = 1e-9
# the (n, alpha) vectors mem_weights keeps; the least recently used goes first
_CACHE_SIZE = 1024
# significant digits of decimal's default context
_DECIMAL_PRECISION = 28
# the longest vector mem_weights builds, in about 0.5 s of one core and a
# 30 MB process at alpha 0.7; a length past the index range would raise
# OverflowError, and one just inside it would run for hours
_MAX_N = 100_000
# the longest n past _MAX_N that the ceiling's message writes out, in bits
# (10**20 has 67, 10**30 has 100)
_NAMED_BITS = 100


def orness(weights: Iterable[float]) -> float:
    """Attitude of a weight vector: 1 is max-like, 0.5 neutral, 0 min-like."""
    ws = list(weights)
    n = len(ws)
    if n < 2:
        raise ValueError("orness needs at least two weights")
    return math.fsum((n - i) * w for i, w in enumerate(ws, start=1)) / (n - 1)


def dispersion(weights: Iterable[float]) -> float:
    """Shannon entropy -sum w ln w of the weights, with 0 ln 0 taken as 0.

    Weights that carry no entropy, such as a one-hot vector, give +0.0.
    """
    # 0.0 - s rather than -s: it is -s for every nonzero s, but +0.0 for s = 0.0
    return 0.0 - math.fsum(w * math.log(w) for w in weights if w > 0.0)


class WeightVector(Frozen):
    """An OWA weight vector tagged with the orness level it was built for."""

    def __init__(self, weights: Iterable[float], alpha: float) -> None:
        weights = tuple(map(float, weights))
        if len(weights) < 2:
            raise ValueError("a weight vector needs at least two entries")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        for w in weights:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weights must lie in [0, 1], got {w}")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if abs(orness(weights) - alpha) > 1e-9:
            raise ValueError("weights do not realize the declared orness")
        set_field(self, "weights", weights)
        set_field(self, "alpha", alpha)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[float]:
        return iter(self.weights)

    def __getitem__(self, i: int) -> float:
        return self.weights[i]


def _geometric(n: int, r: float) -> list[float]:
    # Weights proportional to r**i; r = 0 collapses onto the first entry
    # (0**0 == 1) and r = 1 is uniform.
    powers = [r**i for i in range(n)]
    total = math.fsum(powers)
    return [p / total for p in powers]


def _root(n: int, alpha: float) -> tuple[float, float]:
    # The ratio r where the exact geometric weights have orness alpha, and
    # the orness's slope there, by Newton steps.  That orness is
    # sum_i (n - 1 - i) r**i / ((n - 1) sum_i r**i), so r is the root of
    # f(r) = sum_i ((n - 1 - i) - alpha (n - 1)) r**i: f(0) > 0 > f(1) and
    # its coefficients change sign once, so it is the one root in (0, 1).
    # The steps run on Horner sums of f and f' from the secant through
    # (0, f(0)) and (1, f(1)); a step that would leave the interval [lo, hi]
    # known to hold the root, or that f' >= 0 leaves undefined, bisects it
    # instead.  r only guides _bracket, which checks the ends it puts around it.
    k = alpha * (n - 1)
    lo, hi = 0.0, 1.0
    r = (1.0 - alpha) / ((1.0 - alpha) + n * (alpha - 0.5))
    for _ in range(_NEWTON_STEPS):
        f = df = 0.0
        for coefficient in range(n):
            df = df * r + f
            f = f * r + (coefficient - k)
        if f > 0.0:
            lo = r
        elif f < 0.0:
            hi = r
        else:
            break
        newton = r - f / df if df < 0.0 else -1.0
        step = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        if abs(step - r) <= _NEWTON_STOP * r:
            r = step
            break
        r = step
    powers = 0.0
    for _ in range(n):
        powers = powers * r + 1.0
    # f = (n - 1) * powers * (orness - alpha), and the orness is alpha at r
    return r, df / ((n - 1) * powers)


def _bracket(n: int, alpha: float) -> tuple[float, float]:
    # (below, above) around _root, with the orness of the weights at least
    # alpha + _CLEAR at below and at most alpha - _CLEAR at above; (0.0, 1.0),
    # which holds no midpoint of the bisection, when that fails.
    #
    # Why a step outside it needs no weights: write F(r) for
    # orness(_geometric(n, r)) and E(r) for the exact orness, which strictly
    # decreases in r.  No term of F cancels, so relative errors add: with
    # u = 2**-53, r**i is within 2u, its fsum 3u, a weight 6u, and the
    # product by n - i, the fsum and the division by n - 1 add u each.  F
    # and E lie in [0.5, 1], so |F - E| <= 9u for any n (underflow adds at
    # most n**2 * 2**-1074).  So for every mid <= below,
    #   F(mid) >= E(mid) - 9u >= E(below) - 9u >= F(below) - 18u
    #          >= alpha + _CLEAR - 18u = alpha + _ORNESS_TOL + 22u,
    # so the full step finds residual > _ORNESS_TOL and takes lo = mid;
    # likewise every mid >= above takes hi = mid.  So the bracket changes no
    # decision, midpoint or exit: the bits are the same.  The residuals
    # F - alpha are exact (Sterbenz, as alpha lies in (0.5, 1)), and the 22u
    # left over covers the rounding of _CLEAR.  A bracket that fails its
    # check is not used, however close to the root it is.
    root, slope = _root(n, alpha)
    if not slope < 0.0:
        # the steps went astray
        return 0.0, 1.0
    # twice the distance at which the tangent clears _CLEAR plus the root's
    # error, which Horner sums of f over n terms keep within 2nu in orness
    delta = -2.0 * (_CLEAR + 2 * n * 2.0**-53) / slope
    below, above = root - delta, root + delta
    if (
        0.0 < below
        and above < 1.0
        and orness(_geometric(n, below)) - alpha >= _CLEAR
        and orness(_geometric(n, above)) - alpha <= -_CLEAR
    ):
        return below, above
    return 0.0, 1.0


def _renormalized(ws: list[float]) -> tuple[float, ...]:
    # Pin the exact sum to 1.0 so that downstream convex blends of equal
    # inputs reproduce the input bit for bit.  The true residual is never
    # negative, but for near-corner alpha the leading weights can round to
    # a hair above 1, so floor the pinned entry at zero.
    ws = list(ws)
    ws[-1] = max(0.0, 1.0 - math.fsum(ws[:-1]))
    return tuple(ws)


def _complement(alpha: float) -> float:
    # 1 - alpha through the shortest decimal form, so that 0.7 pairs with
    # 0.3 rather than 0.30000000000000004; these weights are echoed in
    # reports and users expect the decimal complement.  The difference is
    # exact in integers, then rounded half-even to 28 significant digits as
    # Decimal(1) - Decimal(repr(alpha)) rounds it.
    mantissa, _, exponent = repr(alpha).partition("e")
    whole, _, fraction = mantissa.partition(".")
    # repr(alpha) is digits * 10**exp exactly, and 1 - it is coefficient * 10**exp;
    # mem_weights passes alpha in (0, 1) only, whose repr has a fraction or a
    # negative exponent, so exp < 0 and coefficient > 0
    digits = int(whole + fraction)
    exp = int(exponent or 0) - len(fraction)
    coefficient = 10**-exp - digits
    excess = len(str(coefficient)) - _DECIMAL_PRECISION
    if excess > 0:
        # to a multiple of 10**excess: round on an int is exact and half-even
        coefficient = round(coefficient, -excess)
    return float(f"{coefficient}e{exp}")


@lru_cache(maxsize=_CACHE_SIZE)
def mem_weights(n: int, alpha: float = DEFAULT_ALPHA) -> WeightVector:
    """Maximal-entropy OWA weights of length n with orness alpha.

    Corner cases are exact: alpha 1 or 0 puts all weight on the first or
    last position, alpha 0.5 is uniform, and n = 2 is (alpha, 1 - alpha).
    Vectors for alpha < 0.5 are the reverse of those for 1 - alpha.  The
    last _CACHE_SIZE distinct (n, alpha) calls are cached, so a process that
    sweeps alpha keeps a bounded number of vectors.  n may be at most
    _MAX_N (100000); a longer n is rejected before anything is built.
    """
    if n < 2:
        raise ValueError("a weight vector needs at least two entries")
    if n > _MAX_N:
        # an int past _NAMED_BITS is named by its length, not written out
        # digit by digit; a float's repr is always short
        if isinstance(n, int) and n.bit_length() > _NAMED_BITS:
            got = f"an n of {n.bit_length()} bits"
        else:
            got = f"n = {n}"
        raise ValueError(f"a weight vector has at most {_MAX_N} entries, got {got}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")

    if alpha == 1.0:
        return WeightVector((1.0,) + (0.0,) * (n - 1), alpha)
    if alpha == 0.0:
        return WeightVector((0.0,) * (n - 1) + (1.0,), alpha)
    if alpha == 0.5:
        return WeightVector(_renormalized([1.0 / n] * n), alpha)
    if n == 2:
        return WeightVector((alpha, _complement(alpha)), alpha)
    if alpha < 0.5:
        mirrored = mem_weights(n, 1.0 - alpha)
        return WeightVector(tuple(reversed(mirrored.weights)), alpha)

    # alpha in (0.5, 1): ratio r in (0, 1), orness strictly decreasing in r
    # from 1 down to 0.5.
    below, above = _bracket(n, alpha)
    lo, hi = 0.0, 1.0
    # the weights last built, and the ratio they were built at
    ws, built = None, -1.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # outside the bracket the full step's decision is known
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            ws, built = _geometric(n, mid), mid
            residual = orness(ws) - alpha
            if abs(residual) < _ORNESS_TOL:
                break
            if residual > 0.0:
                lo = mid
            else:
                hi = mid
        if not lo < 0.5 * (lo + hi) < hi:
            break
    if built != mid:
        ws = _geometric(n, mid)
    return WeightVector(_renormalized(ws), alpha)
