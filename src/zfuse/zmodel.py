"""Z-numbers, the linguistic lexicon, and ranking by deviation from the ideal.

A Z-number pairs an evaluation A with a reliability judgement B, both
trapezoidal fuzzy numbers.  Each component is condensed to a scalar ranking
score H, and the pair is scored by its weighted distance from the ideal
(H = 1 on both components), normalized so the all-zero Z-number lands at 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cache
from operator import neg

from ._frozen import Frozen, set_field
from .fuzzy import _INV_SQRT12, TrapezoidalFuzzyNumber
from .owa import DEFAULT_ALPHA, WeightVector, mem_weights


class ZNumber(Frozen):
    """Evaluation A constrained by reliability B."""

    __slots__ = ("A", "B")

    def __init__(self, A: TrapezoidalFuzzyNumber, B: TrapezoidalFuzzyNumber) -> None:
        if not (isinstance(A, TrapezoidalFuzzyNumber) and isinstance(B, TrapezoidalFuzzyNumber)):
            name, part = ("B", B) if isinstance(A, TrapezoidalFuzzyNumber) else ("A", A)
            hint = "; pass the term's .shape" if isinstance(part, LinguisticTerm) else ""
            raise TypeError(
                f"Z-number part {name} must be a TrapezoidalFuzzyNumber, got {type(part).__name__}{hint}"
            )
        _set_A(self, A)
        _set_B(self, B)


# stores through the slots' member descriptors, as TrapezoidalFuzzyNumber does
_set_A, _set_B = [ZNumber.__dict__[name].__set__ for name in ZNumber.__slots__]


class LinguisticTerm(Frozen):
    def __init__(self, name: str, shape: TrapezoidalFuzzyNumber) -> None:
        set_field(self, "name", name)
        set_field(self, "shape", shape)


LEXICON: tuple[LinguisticTerm, ...] = (
    LinguisticTerm("Absolutely-low", TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0)),
    LinguisticTerm("Very-low", TrapezoidalFuzzyNumber(0.0, 0.0, 0.02, 0.07)),
    LinguisticTerm("Low", TrapezoidalFuzzyNumber(0.04, 0.1, 0.18, 0.23)),
    LinguisticTerm("Fairly-low", TrapezoidalFuzzyNumber(0.17, 0.22, 0.36, 0.42)),
    LinguisticTerm("Medium", TrapezoidalFuzzyNumber(0.32, 0.41, 0.58, 0.65)),
    LinguisticTerm("Fairly-high", TrapezoidalFuzzyNumber(0.58, 0.63, 0.8, 0.86)),
    LinguisticTerm("High", TrapezoidalFuzzyNumber(0.72, 0.78, 0.92, 0.97)),
    LinguisticTerm("Very-high", TrapezoidalFuzzyNumber(0.93, 0.98, 1.0, 1.0)),
    LinguisticTerm("Absolutely-high", TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0)),
)

# Mark each lexicon shape with its index, which source_bpas reads to find a term pair.
for _index, _entry in enumerate(LEXICON):
    set_field(_entry.shape, "_term", _index)
del _index, _entry


def _normalize_term(name: str) -> str:
    return "-".join(name.replace("_", " ").replace("-", " ").casefold().split())


# Each term under its exact name, which input spells nearly always, and its
# normalized key: a name is probed as given before it is normalized.
_TERMS_BY_KEY = {key: term for term in LEXICON for key in (term.name, _normalize_term(term.name))}


def linguistic_term(name: str) -> LinguisticTerm:
    """Look up a lexicon term; case, hyphens, and underscores do not matter."""
    term = _TERMS_BY_KEY.get(name)
    if term is None:
        if not isinstance(name, str):
            raise TypeError(f"a linguistic term name must be a str, got {type(name).__name__}")
        term = _TERMS_BY_KEY.get(_normalize_term(name))
        if term is None:
            known = ", ".join(t.name for t in LEXICON)
            raise ValueError(f"unknown linguistic term {name!r}; expected one of: {known}")
    return term


def ranking_score(f: TrapezoidalFuzzyNumber, weights: Sequence[float] | None = None) -> float:
    """Scalar score H(f): OWA blend of centroid, height, and compactness.

    The three factors are taken in that fixed order of importance, not
    sorted by value, so the blend stays monotone in each factor.  It equals
    w0 * centroid(f) + w1 * f.w + w2 / (1.0 + spread(f)) bit for bit.
    """
    if weights is None:
        weights = mem_weights(3, DEFAULT_ALPHA)
    if len(weights) != 3:
        raise ValueError(f"ranking needs a length-3 weight vector, got {len(weights)}")
    w0, w1, w2 = weights
    return _h(f, w0, w1, w2)


# read as one global per shape or cell, not a global and an attribute
_hypot = math.hypot
_sqrt = math.sqrt


def _h(f: TrapezoidalFuzzyNumber, w0: float, w1: float, w2: float) -> float:
    # H itself, for ranking_score, score_znumber and similarity, which check
    # or unpack the weights; both factors are written out here, term for term
    # as in fuzzy, so scoring a shape takes one Python frame instead of three.
    # fuzzy.centroid and fuzzy.spread stay as written there: they are the
    # reference the tests hold this kernel to, and are off the hot path.
    # One statement per name: a multiple assignment builds and unpacks a
    # tuple on every CPython from 3.10 to 3.13
    a = f.a
    b = f.b
    c = f.c
    d = f.d
    # centroid(f); the halves of a and d are each used once, so inline
    hb = 0.5 * b
    hc = 0.5 * c
    rise = hb - 0.5 * a
    fall = 0.5 * d - hc
    left = 0.5 * rise
    plateau = hc - hb
    right = 0.5 * fall
    area = left + plateau + right
    if area == 0.0:
        x = a
    else:
        x = 2.0 * (
            left / area * (hb - rise / 3.0)
            + plateau / area * (hb + 0.5 * plateau)
            + right / area * (hc + fall / 3.0)
        )
        if x < a:
            x = a
        elif x > d:
            x = d
    # spread(f)
    s = _hypot(b - a, c - a, d - a, c - b, d - b, d - c) * _INV_SQRT12
    return w0 * x + w1 * f.w + w2 / (1.0 + s)


def best_first(scores: Sequence[float]) -> list[int]:
    """Indices of scores, highest score first; ties keep input order."""
    if not scores:
        raise ValueError("nothing to rank")
    # the keys -scores[i], made in one C pass instead of a call per index
    return sorted(range(len(scores)), key=list(map(neg, scores)).__getitem__)


def rank_fuzzy(
    numbers: Sequence[TrapezoidalFuzzyNumber],
    weights: WeightVector | None = None,
) -> list[int]:
    """Indices of numbers ordered best first; ties keep input order."""
    return best_first([ranking_score(f, weights) for f in numbers])


_IDEAL = TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0)
_WORST = TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0)


class ReferenceBounds(Frozen):
    """Everything scoring needs for one alpha, its one field.

    Derived from alpha: score_weights and component_weights (its length-3
    and length-2 OWA weights), hmax and hmin (the H scores of the ideal's
    and anti-ideal's components, which deviations are normalized against),
    and the private _scoring: the three score weights, the two component
    weights, hmax and the deviation's normaliser, unpacked once for
    score_znumber and similarity.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        score_weights = mem_weights(3, alpha)
        # the ideal and anti-ideal differ only in the centroid factor, so they
        # score alike when its weight is 0: alpha 0 and alpha up to about 5e-9
        hmax = ranking_score(_IDEAL, score_weights)
        hmin = ranking_score(_WORST, score_weights)
        if hmax == hmin:
            raise ValueError(
                f"score weights for alpha {score_weights.alpha} put no weight on the centroid, "
                "so the ideal and anti-ideal score alike and deviation is undefined"
            )
        w1, w2 = component_weights = mem_weights(2, alpha)
        # products, not ** 2: see score_znumber
        d_ref = hmin - hmax
        set_field(self, "alpha", alpha)
        set_field(self, "hmax", hmax)
        set_field(self, "hmin", hmin)
        set_field(self, "score_weights", score_weights)
        set_field(self, "component_weights", component_weights)
        set_field(self, "_scoring", (*score_weights, w1, w2, hmax, w1 * d_ref * d_ref + w2 * d_ref * d_ref))

    def __reduce__(self) -> tuple:
        # copy and pickle carry alpha alone and derive the rest again
        return ReferenceBounds, (self.alpha,)

    def __setstate__(self, state: dict) -> None:
        # __reduce__ passes no state, so only a pickle written before it gets here
        raise TypeError("cannot load ReferenceBounds: the pickle predates its format of alpha alone")

    @classmethod
    def from_alpha(cls, alpha: float = DEFAULT_ALPHA) -> "ReferenceBounds":
        return cls(alpha)


@cache
def _default_refs() -> ReferenceBounds:
    """ReferenceBounds(DEFAULT_ALPHA), built on first use and shared, as it is
    immutable; not at import, which would solve OWA weights."""
    return ReferenceBounds.from_alpha(DEFAULT_ALPHA)


class ZScore(Frozen):
    """Component scores and the resulting deviation/similarity of a Z-number.

    clamped flags a raw deviation beyond 1 (possible for shapes far outside
    the unit interval) that was cut back to the nominal range.
    """

    def __init__(self, hA: float, hB: float, deviation: float, similarity: float, clamped: bool = False) -> None:
        set_field(self, "hA", hA)
        set_field(self, "hB", hB)
        set_field(self, "deviation", deviation)
        set_field(self, "similarity", similarity)
        set_field(self, "clamped", clamped)


def score_znumber(z: ZNumber, refs: ReferenceBounds | None = None) -> ZScore:
    """Deviation of z from the ideal and the complementary similarity.

    Deviation is the component-weighted root mean square distance of
    (H(A), H(B)) from the ideal point, scaled so the anti-ideal scores
    exactly 1.  refs defaults to one shared ReferenceBounds(DEFAULT_ALPHA).
    H(A) then H(B) come from _h, fed the constants refs unpacked once.
    """
    if refs is None:
        refs = _default_refs()
    s0, s1, s2, w1, w2, hmax, den = refs._scoring
    h_a = _h(z.A, s0, s1, s2)
    h_b = _h(z.B, s0, s1, s2)
    # products, not ** 2: a far-off shape overflows to inf instead of raising,
    # and a zero weight times that gap stays 0
    d_a = h_a - hmax
    d_b = h_b - hmax
    dev = _sqrt((w1 * d_a * d_a + w2 * d_b * d_b) / den)
    if dev > 1.0:
        return ZScore(hA=h_a, hB=h_b, deviation=1.0, similarity=0.0, clamped=True)
    return ZScore(hA=h_a, hB=h_b, deviation=dev, similarity=1.0 - dev)


def similarity(z: ZNumber, refs: ReferenceBounds | None = None) -> float:
    """score_znumber(...).similarity, without building the ZScore: the same
    deviation, written out again so that a cell takes this frame and two _h."""
    if refs is None:
        refs = _default_refs()
    s0, s1, s2, w1, w2, hmax, den = refs._scoring
    d_a = _h(z.A, s0, s1, s2) - hmax
    d_b = _h(z.B, s0, s1, s2) - hmax
    dev = _sqrt((w1 * d_a * d_a + w2 * d_b * d_b) / den)
    if dev > 1.0:
        return 0.0
    return 1.0 - dev


def rank_znumbers(
    znumbers: Sequence[ZNumber], refs: ReferenceBounds | None = None
) -> list[tuple[int, float]]:
    """(index, similarity) pairs ordered best first; ties keep input order."""
    sims = [similarity(z, refs) for z in znumbers]
    return [(i, sims[i]) for i in best_first(sims)]
