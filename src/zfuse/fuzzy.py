"""Generalized trapezoidal fuzzy numbers: membership, centroid and spread.

A value is described by the tuple (a, b, c, d; w): membership rises linearly
on [a, b], stays flat at height w on [b, c], and falls linearly on [c, d].
Any segment may have zero width, down to a point number a = b = c = d.
"""

from __future__ import annotations

import math

from ._frozen import Frozen

_INV_SQRT12 = 1.0 / math.sqrt(12.0)


class TrapezoidalFuzzyNumber(Frozen):
    """Trapezoid vertices (a, b, c, d) plus plateau height w in (0, 1]."""

    # _term is not a field: each lexicon shape holds its term index there
    # (zmodel sets it once), every other shape None
    __slots__ = ("a", "b", "c", "d", "w", "_term")

    def __init__(self, a: float, b: float, c: float, d: float, w: float = 1.0) -> None:
        isfinite = math.isfinite
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) and isfinite(w)):
            # the first value that is not finite, named
            for name, value in zip(self.__match_args__, (a, b, c, d, w)):
                if not isfinite(value):
                    raise ValueError(f"fuzzy number values must be finite, got {name} = {value}")
        if not (a <= b <= c <= d):
            raise ValueError(f"vertices must satisfy a <= b <= c <= d, got ({a}, {b}, {c}, {d})")
        if not 0.0 < w <= 1.0:
            raise ValueError(f"height must satisfy 0 < w <= 1, got {w}")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)
        _set_w(self, w)
        _set_term(self, None)


# Each slot's member descriptor stores its field past Frozen.__setattr__ in
# one C call, without object.__setattr__'s lookup of the name on the type; a
# numeric cell builds two shapes.
_set_a, _set_b, _set_c, _set_d, _set_w, _set_term = [
    TrapezoidalFuzzyNumber.__dict__[name].__set__ for name in TrapezoidalFuzzyNumber.__slots__
]


def membership(f: TrapezoidalFuzzyNumber, x: float) -> float:
    """Membership grade of x, in [0, w].

    Zero outside [a, d], w on the plateau [b, c], linear on the ramps.  A
    zero-width ramp jumps straight to w at its boundary point.
    """
    if x < f.a or x > f.d:
        return 0.0
    if f.b <= x <= f.c:
        return f.w
    if x < f.b:
        return (x - f.a) / (f.b - f.a) * f.w
    return (f.d - x) / (f.d - f.c) * f.w


def centroid(f: TrapezoidalFuzzyNumber) -> float:
    """Defuzzified value: abscissa of the area centroid of the membership.

    The mean of the three segment centroids, each weighted by its share of
    the area; zero-width segments get zero weight.  The height cancels, so
    the result is independent of w.  A point number has no area and
    defuzzifies to its single vertex.  The result is finite and lies in
    [a, d] for every finite shape.
    """
    # Work at half scale: halving is exact for normal floats, and keeps every
    # width, area and centre below the float maximum for any finite vertices.
    a, b, c, d = 0.5 * f.a, 0.5 * f.b, 0.5 * f.c, 0.5 * f.d
    rise = b - a
    fall = d - c
    left = 0.5 * rise
    plateau = c - b
    right = 0.5 * fall
    area = left + plateau + right
    if area == 0.0:
        # a point number, or a support too narrow to resolve at half scale
        return f.a
    x = (
        left / area * (b - rise / 3.0)
        + plateau / area * (b + 0.5 * plateau)
        + right / area * (c + fall / 3.0)
    )
    # the weights sum to 1 only up to rounding; two compares cost less than min/max
    x = 2.0 * x
    if x < f.a:
        return f.a
    return f.d if x > f.d else x


def spread(f: TrapezoidalFuzzyNumber) -> float:
    """Sample standard deviation of the four vertices (divisor 3).

    Uses var = sum(gap**2) / 12 over the six pairwise gaps.  The gaps of
    sorted vertices are nonnegative, so nothing cancels, and hypot sums
    their squares without overflow or underflow; only a gap wider than the
    float range gives inf.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    return math.hypot(b - a, c - a, d - a, c - b, d - b, d - c) * _INV_SQRT12
