"""Frames of discernment, basic probability assignments, and Dempster's rule.

Focal sets are bitmasks over the frame's hypothesis indices, so the
combination rule works for arbitrary subsets, not just singletons.  The
mass functions the library builds with mass only on singletons and the
whole frame (every BPA from similarities, and every Dempster step on them)
carry their masses as a frame-order vector, and Dempster's rule runs on
those vectors.  A mass function built from a dict has no vector and fuses
on the general rule.

Masses are checked once, where they come in from outside the library: a
dict by the constructor, similarities by bpa_from_similarities' range
check.  A BPA from checked similarities is valid, and so is Dempster's
rule on two valid mass functions, so everything the library computes is
built by _unchecked, without the checks.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from itertools import chain, repeat
from operator import mul, truediv

from ._frozen import Frozen, set_field


class TotalConflictError(ValueError):
    """Combination is undefined: the two operands conflict completely."""

    def __init__(self, message: str, left: object = None, right: object = None):
        super().__init__(message)
        self.left = left
        self.right = right


class Frame(Frozen):
    """Ordered, distinct hypothesis labels; subsets are bitmasks over them."""

    def __init__(self, hypotheses: Iterable[str]) -> None:
        hypotheses = tuple(hypotheses)
        if not hypotheses:
            raise ValueError("a frame needs at least one hypothesis")
        if len(set(hypotheses)) != len(hypotheses):
            seen: set[str] = set()
            for label in hypotheses:
                if label in seen:
                    raise ValueError(f"hypothesis labels must be distinct, got {label!r} twice")
                seen.add(label)
        set_field(self, "hypotheses", hypotheses)

    def __len__(self) -> int:
        return len(self.hypotheses)

    @property
    def theta(self) -> int:
        """Bitmask of the whole frame."""
        return (1 << len(self.hypotheses)) - 1

    def index(self, label: str) -> int:
        try:
            return self.hypotheses.index(label)
        except ValueError:
            raise ValueError(f"unknown hypothesis {label!r}") from None

    def subset(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return mask

    def labels(self, mask: int) -> tuple[str, ...]:
        """The hypotheses in mask, in frame order; bits beyond the frame are ignored."""
        hypotheses = self.hypotheses
        if mask < 0 or mask >> len(hypotheses):  # bits beyond the frame
            mask &= self.theta
        # visit the set bits only, highest first: testing all H bits would
        # make focal_items O(H^2)
        out = []
        while mask:
            i = mask.bit_length() - 1
            out.append(hypotheses[i])
            mask ^= 1 << i
        out.reverse()
        return tuple(out)


class MassFunction(Frozen):
    """A basic probability assignment: mass per focal set, summing to one.

    Zero-mass entries are dropped at construction, so equal assignments
    compare equal regardless of how they were written down.  The masses
    dict is not to be changed after construction.

    Every BPA from similarities on two or more hypotheses, and every
    Dempster step on them, has a frame-order vector: it makes its masses
    dict the first time it is read, and its other methods read the vector.
    Any other holds a dict, which the constructor checks with _cleaned in
    one O(F) loop; a dict the library computes skips it.
    """

    # (singleton masses in frame order, mass of the frame); set by _unchecked only
    _vector = None

    def __init__(self, frame: Frame, masses: Mapping[int, float]) -> None:
        set_field(self, "frame", frame)
        # hides the cached_property below, which only vector-built instances reach
        set_field(self, "masses", _cleaned(masses, frame.theta))

    @cached_property
    def masses(self) -> dict[int, float]:
        """The masses dict of a vector-built mass function, built on first read."""
        return _vector_masses(self.frame, *self._vector)

    def theta_mass(self) -> float:
        vector = self._vector
        if vector is None:
            return self.masses.get(self.frame.theta, 0.0)
        return vector[1]

    def singleton_masses(self) -> dict[str, float]:
        """Mass of each hypothesis on its own, zero where not focal."""
        return dict(zip(self.frame.hypotheses, self._singles()))

    def _singles(self) -> list[float]:
        """singleton_masses' values in frame order, not to be changed: the
        vector's own list where there is one."""
        vector = self._vector
        if vector is not None:
            return vector[0]
        singles = [0.0] * len(self.frame)
        for mask, value in self.masses.items():
            if mask.bit_count() == 1:
                singles[mask.bit_length() - 1] = value
        return singles

    def focal_items(self) -> list[tuple[tuple[str, ...], float]]:
        """(labels, mass) pairs in deterministic bitmask order."""
        vector = self._vector
        if vector is None:
            return [(self.frame.labels(m), v) for m, v in sorted(self.masses.items())]
        # singletons in frame order, then the frame: the order of their masks
        singles, theta_mass = vector
        hypotheses = self.frame.hypotheses
        items = [((h,), v) for h, v in zip(hypotheses, singles) if v]
        if theta_mass:
            items.append((hypotheses, theta_mass))
        return items

    def is_vacuous(self) -> bool:
        vector = self._vector
        if vector is None:
            return self.masses == {self.frame.theta: 1.0}
        return vector[1] == 1.0 and not any(vector[0])


def _unchecked(frame: Frame, name: str, value: object) -> MassFunction:
    """A MassFunction over frame holding value as its "masses" dict or its
    "_vector", built without the checks: only for a value known to pass
    them, a dict that _cleaned would give back unchanged or a vector of
    floats in [0, 1] that sum to 1, on two or more hypotheses."""
    m = MassFunction.__new__(MassFunction)
    set_field(m, "frame", frame)
    set_field(m, name, value)
    return m


def _vector_masses(frame: Frame, singles: list[float], theta_mass: float) -> dict[int, float]:
    """The masses dict of a frame-order vector, zeros left out."""
    masses = {1 << i: value for i, value in enumerate(singles) if value}
    if theta_mass:
        masses[frame.theta] = theta_mass
    return masses


def _cleaned(masses: Mapping[int, float], theta: int) -> dict[int, float]:
    """The masses as floats with zero entries dropped; raises if they are no BPA."""
    for mask in masses:
        if isinstance(mask, float):
            raise ValueError(f"focal set masks must be ints, got {mask!r}")
    cleaned: dict[int, float] = {}
    for mask, value in masses.items():
        value = float(value)
        if not value >= 0.0:  # NaN fails this too
            raise ValueError(f"masses must be nonnegative, got {value}")
        if value == 0.0:
            continue
        if mask == 0:
            raise ValueError("the empty set must carry no mass")
        if not 0 < mask <= theta:
            raise ValueError(f"focal set {mask:#x} is outside the frame")
        cleaned[mask] = cleaned.get(mask, 0.0) + value
    if not abs(math.fsum(cleaned.values()) - 1.0) <= 1e-12:
        raise ValueError("masses must sum to 1")
    return cleaned


class CombinationOutcome(Frozen):
    """A combined mass function plus the conflict seen along the way.

    conflict is the k of the final pairwise step; steps holds one k per
    fold step when several functions were combined.  Each k lies in [0, 1].
    """

    def __init__(self, combined: MassFunction, conflict: float, steps: tuple[float, ...] = ()) -> None:
        set_field(self, "combined", combined)
        set_field(self, "conflict", conflict)
        set_field(self, "steps", steps)


def bpa_from_similarities(frame: Frame, scores: Sequence[float]) -> MassFunction:
    """Turn per-hypothesis similarities into a BPA over the frame.

    Each hypothesis gets its similarity as a pre-mass; the residual
    1 - max(scores) goes to the whole frame, then everything is normalized.
    All-zero scores therefore collapse to the vacuous assignment, and a
    perfect score leaves no residual ignorance.

    Scores are real numbers.  The range check runs on them as given; then
    each is read once with float(), and the arithmetic runs on those
    floats.  A type whose float() leaves the interval its own comparisons
    accept is outside this contract.
    """
    if len(scores) != len(frame):
        raise ValueError(
            f"expected {len(frame)} scores for frame {frame.hypotheses}, got {len(scores)}"
        )
    # two plain comparisons, not a chained one, which copies and swaps s
    # on the stack for every score; NaN fails the first
    for s in scores:
        if s >= 0.0 and s <= 1.0:
            continue
        raise ValueError(f"similarities must lie in [0, 1], got {s}")
    sims = list(map(float, scores))
    residual = 1.0 - max(sims)
    total = math.fsum(sims) + residual
    singles = list(map(truediv, sims, repeat(total)))
    # each score, like the residual, is at most total, so every mass is a
    # float in [0, 1], and they sum to 1 within a few ulps
    if len(singles) == 1:
        # the one hypothesis is the frame, which takes both masses
        return _unchecked(frame, "masses", {frame.theta: singles[0] + residual / total})
    return _unchecked(frame, "_vector", (singles, residual / total))


def dempster_combine(m1: MassFunction, m2: MassFunction) -> CombinationOutcome:
    """Dempster's rule: intersect focal sets, renormalize by the surviving mass.

    Sums go through fsum, so the result does not depend on focal-set
    iteration order.  The normalizer is the sum of the surviving products:
    1 - k in exact arithmetic, but accurate however close k comes to 1.  So
    the rule decides wherever it is defined, and raises TotalConflictError
    only when the surviving mass is 0.0 or subnormal (below
    sys.float_info.min), where the quotients would lose precision.  No total
    exceeds the surviving mass, so no quotient is inf or NaN.

    When both operands carry a frame-order vector, as every BPA from
    bpa_from_similarities and every step on them does, a closed form costs
    O(H) instead of O(F1 * F2) and gives the same masses.  A mass function
    built from a dict takes the general rule, whatever its focal sets.
    """
    # a fold passes one frame object to every step: identity first skips
    # the Python-level __eq__
    if m1.frame is not m2.frame and m1.frame != m2.frame:
        raise ValueError("cannot combine mass functions over different frames")
    # total ignorance is the neutral element; skip the arithmetic so the
    # other operand comes back untouched
    if m1.is_vacuous():
        return CombinationOutcome(m2, 0.0, (0.0,))
    if m2.is_vacuous():
        return CombinationOutcome(m1, 0.0, (0.0,))
    if m1._vector is not None and m2._vector is not None:
        return _combine_singletons(m1, m2)
    return _combine_general(m1, m2)


def _combine_general(m1: MassFunction, m2: MassFunction) -> CombinationOutcome:
    """Dempster's rule over every pair of focal sets, for any structure."""
    # the products that conflict land in bucket 0
    buckets: defaultdict[int, list[float]] = defaultdict(list)
    # read once per step, as a tuple: it iterates faster than a dict view
    right = tuple(m2.masses.items())
    for s1, v1 in m1.masses.items():
        for s2, v2 in right:
            buckets[s1 & s2].append(v1 * v2)
    k = math.fsum(buckets.pop(0, ()))
    # masses sum to 1 only within a few ulps, so k can read a hair above 1
    if k > 1.0:
        k = 1.0
    totals = list(map(math.fsum, buckets.values()))
    survived = math.fsum(totals)
    if not survived >= sys.float_info.min:
        raise TotalConflictError(f"total conflict (k = {k}) between the two mass functions", left=0, right=1)
    combined = dict(zip(buckets, map(truediv, totals, repeat(survived))))
    # the operands' masks are in the frame, so each nonempty intersection
    # is too; each total is at most survived, so every mass is a float in
    # [0, 1], and the masses sum to 1 within a few ulps.  A product that
    # underflowed to 0.0 leaves a zero mass, dropped as the constructor would.
    if 0.0 in combined.values():
        combined = {mask: value for mask, value in combined.items() if value}
    return CombinationOutcome(_unchecked(m1.frame, "masses", combined), k, (k,))


def _combine_singletons(m1: MassFunction, m2: MassFunction) -> CombinationOutcome:
    """Dempster's rule when every focal set is a singleton or the frame.

    A singleton h survives from (h, h), (h, frame) and (frame, h), the frame
    from (frame, frame) alone, and every pair of distinct singletons
    conflicts: k = s1 * s2 - sum over h of m1(h) * m2(h), with s1 and s2
    the singleton totals.  That form of k is symmetric in the operands, so
    the rule still commutes bit for bit.  Each sum is one fsum, so the
    masses equal _combine_general's exactly.  The step runs on the two
    frame-order vectors; the result's dict is the one keyed pass.
    """
    xs, t_a = m1._vector
    ys, t_b = m2._vector
    fsum = math.fsum
    xy = list(map(mul, xs, ys))
    totals = list(map(fsum, zip(xy, map(mul, xs, repeat(t_b)), map(mul, repeat(t_a), ys))))
    # fsum(-v) is -fsum(v) bit for bit, as fsum rounds correctly; k can come
    # out a hair below zero, or as -0.0, which max turns into +0.0, or a
    # hair above 1, as the masses sum to 1 only within a few ulps
    k = max(0.0, -fsum(chain(xy, (-(fsum(xs) * fsum(ys)),))))
    if k > 1.0:
        k = 1.0
    theta_mass = t_a * t_b
    survived = fsum(chain(totals, (theta_mass,)))
    if not survived >= sys.float_info.min:
        raise TotalConflictError(f"total conflict (k = {k}) between the two mass functions", left=0, right=1)
    singles = list(map(truediv, totals, repeat(survived)))
    # each total, like theta_mass, is at most survived: every mass is a
    # float in [0, 1], and the masses sum to 1 within a few ulps
    return CombinationOutcome(_unchecked(m1.frame, "_vector", (singles, theta_mass / survived)), k, (k,))


def combine_all(masses: Sequence[MassFunction]) -> CombinationOutcome:
    """Left fold of dempster_combine over one or more mass functions.

    A single input comes back unchanged with zero conflict.  On total
    conflict the error names which input clashed with the running fold.

    The frame's mass shrinks by the product of every input's frame mass, so
    it underflows on long folds: on random numeric grids the fused frame
    mass is about 1e-44 at 200 sources x 20 hypotheses, 1e-191 at 1000 x 5,
    and 0.0 at 2000 x 5.  Once it reaches 0 it is dropped as a focal set;
    the fold goes on over singletons alone, still on the closed-form step.
    """
    if not masses:
        raise ValueError("need at least one mass function to combine")
    acc = masses[0]
    steps: list[float] = []
    for i, m in enumerate(masses[1:], start=1):
        try:
            outcome = dempster_combine(acc, m)
        except TotalConflictError as err:
            raise TotalConflictError(
                f"total conflict combining input {i} into the fold of inputs 0..{i - 1}",
                left=i - 1,
                right=i,
            ) from err
        acc = outcome.combined
        steps.append(outcome.conflict)
    return CombinationOutcome(acc, steps[-1] if steps else 0.0, tuple(steps))
