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

Before it bisects, the solver finds the root of the estimate by a few Newton
steps and checks a bracket around it whose ends clear the screen by the
margin.  A midpoint outside the bracket is decided by one comparison with its
ends, which is provably what the screened step would decide there, so only
the few steps inside it evaluate anything.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import lru_cache

from ._frozen import Frozen, set_field

DEFAULT_ALPHA = 0.7

_ORNESS_TOL = 1e-14
_MAX_BISECTIONS = 200
# Newton steps _root may take; it stops sooner once a step moves the ratio
# by less than _NEWTON_STOP of itself
_NEWTON_STEPS = 50
_NEWTON_STOP = 1e-9
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
    #
    # The same bound lets mem_weights decide every step outside a bracket
    # (below, above) with one comparison.  Write E(r) for the orness of the
    # exact geometric weights, which strictly decreases in r; the estimate is
    # within (4n - 2)u < margin / 2 of it.  Let screen = _ORNESS_TOL + margin
    # and clear = screen + margin, and let _bracket have checked that
    # est(below) - alpha >= clear and est(above) - alpha <= -clear.  For
    # every mid <= below,
    #   est(mid) >= E(mid) - margin/2 >= E(below) - margin/2
    #            >= est(below) - margin >= alpha + screen,
    # so the screened step finds residual >= screen, skips the full
    # evaluation and takes lo = mid.  Likewise every mid >= above finds
    # residual <= -screen and takes hi = mid.  So the bracket changes no
    # decision, no midpoint and no exit: the bits are the same.  Both
    # differences est - alpha are exact (Sterbenz), and the factor 2 of the
    # margin covers the rounding of screen and clear, a few ulps of 1e-14.
    # Nothing here depends on how close the bracket is to the root: a
    # bracket that fails its check is not used.
    return (8 * n + 14) * 2.0**-53


def _root(n: int, alpha: float) -> tuple[float, float]:
    # The ratio r where _orness_estimate(n, r) = alpha, and the estimate's
    # slope there, by Newton steps.  It is the root of f(r) = sum_i
    # ((n - 1 - i) - alpha (n - 1)) r**i, the estimate's numerator minus
    # alpha times its denominator: f(0) > 0 > f(1) and its coefficients
    # change sign once, so it is the one root in (0, 1).  The steps run on
    # Horner sums of f and f' and start from the secant through (0, f(0))
    # and (1, f(1)); a step that would leave the interval [lo, hi] known to
    # hold the root, or that f' >= 0 leaves undefined, bisects it instead.
    # r only guides _bracket, which checks the ends it puts around it.
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
    # f = (n - 1) * powers * (estimate - alpha), and the estimate is alpha at r
    return r, df / ((n - 1) * powers)


def _bracket(n: int, alpha: float, clear: float) -> tuple[float, float]:
    # (below, above) around _root, with the estimate at least alpha + clear
    # at below and at most alpha - clear at above (see _screen_margin);
    # (0.0, 1.0), which holds no midpoint of the bisection, when that fails.
    root, slope = _root(n, alpha)
    if not slope < 0.0:
        # the steps went astray
        return 0.0, 1.0
    # twice the distance at which the estimate's tangent clears the screen,
    # which leaves room for the error of the root
    delta = -2.0 * clear / slope
    below, above = root - delta, root + delta
    if (
        0.0 < below
        and above < 1.0
        and _orness_estimate(n, below) - alpha >= clear
        and _orness_estimate(n, above) - alpha <= -clear
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
    margin = _screen_margin(n)
    screen = _ORNESS_TOL + margin
    below, above = _bracket(n, alpha, screen + margin)
    lo, hi = 0.0, 1.0
    # the weights last built, and the ratio they were built at
    ws, built = None, -1.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # outside the bracket the screened step's decision is known
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            residual = _orness_estimate(n, mid) - alpha
            if abs(residual) < screen:
                # near the root: decide on orness of the weights themselves
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
