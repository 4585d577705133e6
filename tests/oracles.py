"""Independent oracles shared by the test modules, and reference_decide, which
builds the paper's whole decision from them.

Each oracle computes a layer's result another way than the library does:
plain_weights by the bisection that builds the weights at every step,
quadrature_centroid by exact quadrature of the membership function,
vertex_std by the textbook standard deviation, reference_combine by
Dempster's rule over frozensets, and exact_fold by Dempster's rule in exact
rational arithmetic.  reference_score scores a Z-number as
zmodel did before its kernel took constants unpacked once per alpha, and
cleaned_masses checks a masses dict rule by rule, as MassFunction should.
similarity_sums, average_bpa and plurality_votes are the baselines that
decide without Dempster's rule, and kang_conversion the standard
conversion of a Z-number that the paper's handling is set against, for
tests/test_claims.py.
"""

import math
from fractions import Fraction

from zfuse import LEXICON, AssessmentMatrix, ZNumber, owa
from zfuse.fuzzy import TrapezoidalFuzzyNumber, centroid, membership, spread
from zfuse.owa import _complement, orness


def plain_weights(n, alpha):
    """mem_weights(n, alpha).weights by the plain bisection, which builds the
    weights and takes their orness at every step: the oracle for the
    bracketed one, for alpha in (0.5, 1).  n = 2 has a closed form and never
    bisects."""
    if n == 2:
        return (alpha, _complement(alpha))
    lo, hi = 0.0, 1.0
    ws = owa._geometric(n, 0.5)
    for _ in range(owa._MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        ws = owa._geometric(n, mid)
        residual = orness(ws) - alpha
        if abs(residual) < owa._ORNESS_TOL:
            break
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
        if not lo < 0.5 * (lo + hi) < hi:
            break
    return owa._renormalized(ws)


def simpson(g, lo, hi):
    """Simpson's rule on [lo, hi]; exact for polynomials up to degree 3."""
    if hi <= lo:
        return 0
    return (g(lo) + 4 * g((lo + hi) / 2) + g(hi)) * (hi - lo) / 6


def quadrature_centroid(f):
    """Centroid via piecewise quadrature of the membership function.

    The integrands are at most quadratic per piece, membership included at
    the piece's ends, so Simpson's rule is exact.  The shape is rebuilt on
    Fraction vertices, so every step is exact rational arithmetic and only
    the result is rounded: no support is too narrow or too small to resolve,
    where a float rule's area can round to 0 on a support one ulp wide.
    """
    g = TrapezoidalFuzzyNumber(*map(Fraction, (f.a, f.b, f.c, f.d, f.w)))
    area = moment = 0
    for lo, hi in ((g.a, g.b), (g.b, g.c), (g.c, g.d)):
        area += simpson(lambda x: membership(g, x), lo, hi)
        moment += simpson(lambda x: x * membership(g, x), lo, hi)
    return float(moment / area)


def point_or_quadrature_centroid(f):
    """quadrature_centroid, except that a point number, which has no area,
    has its one vertex as centroid."""
    return f.a if f.a == f.d else quadrature_centroid(f)


def vertex_std(vertices):
    mean = sum(vertices) / 4.0
    return math.sqrt(sum((v - mean) ** 2 for v in vertices) / 3.0)


def cleaned_masses(masses, theta):
    """The masses dict MassFunction should keep over a frame of mask theta,
    or the error it should raise, with the library's messages.

    A float mask is named first, even at zero mass.  Then entry by entry:
    NaN or a negative mass is rejected, a zero entry is dropped wherever it
    sits, and a mass on the empty set or outside the frame is rejected.
    The masses left must sum to 1 within 1e-12.
    """
    floats = [mask for mask in masses if isinstance(mask, float)]
    if floats:
        raise ValueError(f"focal set masks must be ints, got {floats[0]!r}")
    kept = {}
    for mask, value in masses.items():
        value = float(value)
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"masses must be nonnegative, got {value}")
        if value == 0.0:
            continue
        if mask == 0:
            raise ValueError("the empty set must carry no mass")
        # 0 < mask first, so that a str mask raises the library's TypeError
        if not 0 < mask or mask > theta:
            raise ValueError(f"focal set {mask:#x} is outside the frame")
        kept[mask] = value
    if abs(math.fsum(kept.values()) - 1.0) > 1e-12:
        raise ValueError("masses must sum to 1")
    return kept


def reference_combine(m1, m2):
    """Independent frozenset-based implementation of Dempster's rule.

    Same math, different bookkeeping; used to cross-check the bitmask
    version.  Returns (masses keyed by frozenset, conflict).
    """
    return combine_sets(focal_sets(m1), focal_sets(m2))


def focal_sets(m):
    """A MassFunction's masses keyed by the frozenset of their labels."""
    return {frozenset(labels): v for labels, v in m.focal_items()}


def combine_sets(lhs, rhs):
    """reference_combine on masses keyed by frozenset."""
    combined = {}
    conflict = 0.0
    for s1, v1 in lhs.items():
        for s2, v2 in rhs.items():
            inter = s1 & s2
            if inter:
                combined[inter] = combined.get(inter, 0.0) + v1 * v2
            else:
                conflict += v1 * v2
    return {s: v / (1.0 - conflict) for s, v in combined.items()}, conflict


def exact_fold(masses):
    """combine_all(masses) in exact rational arithmetic.

    The float masses are read as Fractions, and each step is normalised by
    its exact surviving total, not by 1 - k: float BPAs sum to 1 only within
    a few ulps, and dividing by 1 - k would scale that error by 1 / (1 - k)
    at every step.  Returns the fused masses keyed by mask, and the exact
    conflict of each step.
    """
    fused = {mask: Fraction(v) for mask, v in masses[0].masses.items()}
    steps = []
    for m in masses[1:]:
        right = [(mask, Fraction(v)) for mask, v in m.masses.items()]
        combined, conflict = {}, Fraction(0)
        for s1, v1 in fused.items():
            for s2, v2 in right:
                if s1 & s2:
                    combined[s1 & s2] = combined.get(s1 & s2, 0) + v1 * v2
                else:
                    conflict += v1 * v2
        survived = sum(combined.values())
        fused = {mask: v / survived for mask, v in combined.items()}
        steps.append(conflict)
    return fused, steps


def reference_weights(n, alpha):
    """mem_weights(n, alpha).weights as its docstring states them: n = 2 is
    (alpha, 1 - alpha), alpha 1 is one-hot, 0.5 uniform, alpha < 0.5 the
    reverse of 1 - alpha's, and every other alpha the plain bisection's."""
    if n == 2:
        return plain_weights(2, alpha)
    if alpha == 1.0:
        return (1.0,) + (0.0,) * (n - 1)
    if alpha == 0.5:
        return (1.0 / n,) * n
    if alpha < 0.5:
        return tuple(reversed(reference_weights(n, 1.0 - alpha)))
    return plain_weights(n, alpha)


def reference_score(z, component_weights, refs):
    """Scoring with H spelled out here, not taken from ranking_score, and
    the deviation's normaliser computed for each Z-number.

    Returns (hA, hB, deviation, clamped).
    """
    w1, w2 = component_weights
    s0, s1, s2 = refs.score_weights
    h_a, h_b = (s0 * centroid(f) + s1 * f.w + s2 / (1.0 + spread(f)) for f in (z.A, z.B))
    d_a = h_a - refs.hmax
    d_b = h_b - refs.hmax
    d_ref = refs.hmin - refs.hmax
    dev = math.sqrt((w1 * d_a * d_a + w2 * d_b * d_b) / (w1 * d_ref * d_ref + w2 * d_ref * d_ref))
    return (h_a, h_b, 1.0, True) if dev > 1.0 else (h_a, h_b, dev, False)


IDEAL = TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0)
ANTI_IDEAL = TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0)


def reference_similarities(matrix, alpha):
    """Each source's row of similarities, in frame order, by the paper's
    formulas.

    H(f) = w0 * centroid + w1 * height + w2 / (1 + spread) on the length-3
    weights; a Z-number's deviation is the root of the length-2 blend of
    (H(A) - H(ideal))**2 and (H(B) - H(ideal))**2 over that of the
    anti-ideal, cut back to 1, and its similarity 1 - deviation.
    """
    w0, w1, w2 = reference_weights(3, alpha)
    c1, c2 = reference_weights(2, alpha)

    def score(f):
        return w0 * point_or_quadrature_centroid(f) + w1 * f.w + w2 / (1.0 + vertex_std((f.a, f.b, f.c, f.d)))

    hmax, hmin = score(IDEAL), score(ANTI_IDEAL)

    def similarity(z):
        da, db = score(z.A) - hmax, score(z.B) - hmax
        deviation = math.sqrt((c1 * da * da + c2 * db * db) / ((c1 + c2) * (hmin - hmax) ** 2))
        return 1.0 - min(deviation, 1.0)

    return [[similarity(z) for z in row] for row in matrix.cells]


def reference_decide(matrix, alpha):
    """decide(matrix, alpha) from the oracles, by the paper's formulas.

    Each source's BPA gives every hypothesis its similarity (as
    reference_similarities computes it) and the frame 1 - max, normalised,
    and the BPAs are folded left by Dempster's rule.  Returns (per-source
    masses, fused masses, conflict trace, ranking), the masses keyed by
    frozensets of labels.
    """
    hypotheses = matrix.frame.hypotheses
    bpas = []
    for sims in reference_similarities(matrix, alpha):
        residual = 1.0 - max(sims)
        total = sum(sims) + residual
        bpa = {frozenset([h]): s / total for h, s in zip(hypotheses, sims)}
        bpa[frozenset(hypotheses)] = residual / total
        bpas.append(bpa)
    fused, trace = bpas[0], []
    for bpa in bpas[1:]:
        fused, conflict = combine_sets(fused, bpa)
        trace.append(conflict)
    ranking = sorted(hypotheses, key=lambda h: -fused.get(frozenset([h]), 0.0))
    return bpas, fused, trace, ranking


# Baselines that decide without Dempster's rule, against which the paper's
# fusion is judged on its own examples; they are checks of the paper, not
# part of its method.


def similarity_sums(matrix, alpha):
    """Each hypothesis's similarities summed over the sources, by label."""
    columns = zip(*reference_similarities(matrix, alpha))
    return {h: math.fsum(column) for h, column in zip(matrix.frame.hypotheses, columns)}


def average_bpa(bpas):
    """The plain mean of mass functions keyed by frozensets, as
    reference_decide returns them; a set missing from one has mass 0 there."""
    focal = {s for bpa in bpas for s in bpa}
    return {s: math.fsum(bpa.get(s, 0.0) for bpa in bpas) / len(bpas) for s in focal}


def plurality_votes(matrix, alpha):
    """Each source's vote: the hypothesis it gives the highest similarity,
    the first in frame order on a tie."""
    hypotheses = matrix.frame.hypotheses
    return tuple(hypotheses[max(range(len(row)), key=row.__getitem__)] for row in reference_similarities(matrix, alpha))


def kang_conversion(matrix):
    """The grid with each Z = (A, B) turned into a plain fuzzy number by Kang
    et al.'s conversion, held with full reliability: A's vertices scaled by
    the square root of B's centroid, its height kept, and B Absolutely-high.

    B. Kang, D. Wei, Y. Li, Y. Deng, "A method of converting Z-number to
    classical fuzzy number", Journal of Information & Computational Science
    9, 2012.
    """

    def converted(z):
        scale = math.sqrt(point_or_quadrature_centroid(z.B))
        a = z.A
        return ZNumber(TrapezoidalFuzzyNumber(scale * a.a, scale * a.b, scale * a.c, scale * a.d, a.w), LEXICON[-1].shape)

    return AssessmentMatrix(matrix.frame, matrix.sources, [[converted(z) for z in row] for row in matrix.cells])
