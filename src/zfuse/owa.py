"""Ordered weighted averaging: maximal-entropy weight vectors for a target orness.

Among all weight vectors of length n whose orness equals alpha, the one with
maximal entropy (dispersion) has weights in geometric progression.  We solve
for the common ratio by bisection, since orness is strictly decreasing in it.
Each step first screens its midpoint with a list-free Horner estimate of the
orness there.  Only when that estimate lies within a margin of the stopping
tolerance, a margin that grows with n and bounds the rounding of both
evaluations, does the step build the weights and take their orness.  So each
step decides as if it had built them, and the weights come out bit for bit
the same, at a few full evaluations per solve instead of about 45.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import lru_cache

from ._frozen import Frozen, set_field

DEFAULT_ALPHA = 0.7

_ORNESS_TOL = 1e-14
_MAX_BISECTIONS = 200
# the (n, alpha) vectors mem_weights keeps; the least recently used goes first
_CACHE_SIZE = 1024
# significant digits of decimal's default context
_DECIMAL_PRECISION = 28


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

    __match_args__ = ("weights", "alpha")

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


def _orness_estimate(n: int, r: float) -> float:
    # orness(_geometric(n, r)) without building the weights: Horner sums of
    # r**i and of (n - 1 - i) * r**i, i = 0 .. n-1, in plain floats.
    powers = ramp = 0.0
    for coefficient in range(n):
        powers = powers * r + 1.0
        ramp = ramp * r + coefficient
    return ramp / ((n - 1) * powers)


def _screen_margin(n: int) -> float:
    # Twice a bound on |_orness_estimate(n, r) - orness(_geometric(n, r))|.
    # Every term of both is positive, so nothing cancels and relative errors
    # add; u = 2**-53 is the unit roundoff.
    # - orness(_geometric(n, r)): r**i is within an ulp (2u) and fsum adds u,
    #   so the total is within 3u; a weight p / total within 6u; the product
    #   by n - i adds u, the fsum u and the division by n - 1 u: 9u.
    # - The estimate: a Horner sum of positive terms over n - 1 steps is
    #   within 2(n - 1)u / (1 - 2(n - 1)u) of its value, and the product and
    #   the quotient add u each: (4n - 2)u, to first order.
    # Powers that underflow add at most n**2 * 2**-1074, and both values lie
    # near [0.5, 1], so they differ by at most (4n + 7)u.  The factor 2
    # covers the second-order terms and a pow a little worse than an ulp.
    # alpha lies in (0.5, 1) too, so both residuals are exact differences
    # (Sterbenz), and an estimate that clears the tolerance by the margin
    # puts the exact residual on the same side of it.
    return (8 * n + 14) * 2.0**-53


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
    # repr(alpha) is digits * 10**exp exactly, and 1 - it is coefficient * 10**exp
    digits = int(whole + fraction)
    exp = int(exponent or 0) - len(fraction)
    if exp < 0:
        coefficient = 10**-exp - digits
    else:
        coefficient, exp = 1 - digits * 10**exp, 0
    excess = len(str(abs(coefficient))) - _DECIMAL_PRECISION
    if excess > 0:
        unit = 10**excess
        kept, dropped = divmod(abs(coefficient), unit)
        if 2 * dropped > unit or (2 * dropped == unit and kept % 2):
            kept += 1
        coefficient = kept if coefficient > 0 else -kept
        exp += excess
    return float(f"{coefficient}e{exp}")


@lru_cache(maxsize=_CACHE_SIZE)
def mem_weights(n: int, alpha: float = DEFAULT_ALPHA) -> WeightVector:
    """Maximal-entropy OWA weights of length n with orness alpha.

    Corner cases are exact: alpha 1 or 0 puts all weight on the first or
    last position, alpha 0.5 is uniform, and n = 2 is (alpha, 1 - alpha).
    Vectors for alpha < 0.5 are the reverse of those for 1 - alpha.  The
    last _CACHE_SIZE distinct (n, alpha) calls are cached, so a process that
    sweeps alpha keeps a bounded number of vectors.
    """
    if n < 2:
        raise ValueError("a weight vector needs at least two entries")
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
    screen = _ORNESS_TOL + _screen_margin(n)
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        residual = _orness_estimate(n, mid) - alpha
        if abs(residual) < screen:
            # near the root: decide on orness of the weights themselves
            residual = orness(_geometric(n, mid)) - alpha
            if abs(residual) < _ORNESS_TOL:
                break
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
        if not lo < 0.5 * (lo + hi) < hi:
            break
    return WeightVector(_renormalized(_geometric(n, mid)), alpha)
