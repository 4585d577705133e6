"""Same bits: pinned digests of whole results, and the expressions that the
fast paths replaced, kept here as oracles.

Inputs are drawn with random.Random(seed).random() and getrandbits only,
whose streams are the same on every supported Python, and are summed with
math.fsum, which rounds correctly everywhere (the builtin sum of floats
compensates its rounding error since Python 3.12, so its last bit can
differ), so the digests hold across versions.
"""

import hashlib
import math
import random
import sys
from itertools import chain
from operator import mul, neg

from zfuse import evidence
from zfuse.evidence import Frame, MassFunction, TotalConflictError, combine_all
from zfuse.fuzzy import TrapezoidalFuzzyNumber
from zfuse.pipeline import AssessmentMatrix, decide
from zfuse.zmodel import LEXICON, ZNumber, best_first


def below(rng, n):
    """An int in [0, n) from random() alone."""
    return int(rng.random() * n)


def general_set(rng, sources=12, hypotheses=10, focal=8):
    """Mass functions shaped like the general_evidence benchmark's: each has
    focal random focal sets plus the frame, built from a dict."""
    frame = Frame(tuple(f"H{j + 1}" for j in range(hypotheses)))
    theta = frame.theta
    group = []
    for _ in range(sources):
        masks: list[int] = []
        while len(masks) < focal:
            mask = rng.getrandbits(hypotheses)
            if 0 < mask < theta and mask not in masks:
                masks.append(mask)
        theta_mass = 0.05 + 0.25 * rng.random()
        weights = [rng.random() + 0.05 for _ in masks]
        total = math.fsum(weights)
        masses = {mask: (1.0 - theta_mass) * w / total for mask, w in zip(masks, weights)}
        masses[theta] = theta_mass
        group.append(MassFunction(frame, masses))
    return group


def unit_shape(rng):
    a, b, c, d = sorted(rng.random() for _ in range(4))
    return TrapezoidalFuzzyNumber(a, b, c, d, 0.5 + 0.5 * rng.random())


def grid(rows):
    return AssessmentMatrix(
        frame=Frame(tuple(f"H{j}" for j in range(len(rows[0])))),
        sources=tuple(f"E{i}" for i in range(len(rows))),
        cells=rows,
    )


def lexicon_grid(rng, sources, hypotheses):
    terms = len(LEXICON)
    return grid([
        [ZNumber(LEXICON[below(rng, terms)].shape, LEXICON[below(rng, terms)].shape) for _ in range(hypotheses)]
        for _ in range(sources)
    ])


def numeric_grid(rng, sources, hypotheses):
    return grid([[ZNumber(unit_shape(rng), unit_shape(rng)) for _ in range(hypotheses)] for _ in range(sources)])


def mass_dump(m):
    """Masses in key order, with key types and float bits."""
    return [(type(mask).__name__, mask, value.hex()) for mask, value in m.masses.items()]


def digest(parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class TestGolden:
    """SHA-256 of .hex() dumps pinned at a commit whose results were checked
    against the plain rule; any change of a bit, a key's order or its type
    moves them."""

    def test_general_rule_folds(self):
        rng = random.Random(3001)
        parts = []
        for _ in range(16):
            outcome = combine_all(general_set(rng))
            parts.append((mass_dump(outcome.combined), outcome.conflict.hex(), [k.hex() for k in outcome.steps]))
        assert digest(parts) == "fb7920a0c6ea3267a26a233e4c0d55ea3867e38e7c0a1e594dbc3066e87886af"

    def report_dump(self, report):
        return (
            [mass_dump(m) for m in report.per_source_bpas],
            mass_dump(report.fused),
            [k.hex() for k in report.conflict_trace],
            report.ranking,
            report.decision,
        )

    def test_decide_on_a_wide_lexicon_grid(self):
        report = decide(lexicon_grid(random.Random(3002), 3, 1500))
        assert digest(self.report_dump(report)) == "187168bf43214251dedec0d77e5c8897754ee3cdb7166125f63a79d57a579a60"

    def test_decide_on_a_numeric_grid(self):
        report = decide(numeric_grid(random.Random(3003), 40, 20))
        assert digest(self.report_dump(report)) == "ac64f60478174428de19997147bdd427d17fce2c6ac7ede2fce3be5d5cfdb616"


def old_conflict(xs, ys):
    """k of the closed-form step as written before the sign was taken out of
    the fsum: the oracle for the library's conflict."""
    fsum = math.fsum
    xy = list(map(mul, xs, ys))
    return max(0.0, fsum(chain(map(neg, xy), (fsum(xs) * fsum(ys),))))


def surviving_mass(left, right):
    """The closed-form step's normaliser: each hypothesis' three surviving
    products, summed per hypothesis, then with the frame's product."""
    (xs, t_a), (ys, t_b) = left, right
    totals = [math.fsum((x * y, x * t_b, t_a * y)) for x, y in zip(xs, ys)]
    return math.fsum(totals + [t_a * t_b])


def vector(frame, singles, theta_mass):
    return evidence._unchecked(frame, "_vector", (singles, theta_mass))


def random_vector(rng, size):
    """Singleton masses with zeros, subnormal and tiny masses, and sometimes
    no mass on the frame, normalised to sum to 1."""
    raw = [rng.random() for _ in range(size)]
    for _ in range(below(rng, size + 1)):
        raw[below(rng, size)] = 0.0
    for tiny in (5e-324, 1e-300):
        if rng.random() < 0.3:
            raw[below(rng, size)] = tiny
    theta_mass = 0.0 if rng.random() < 0.3 else rng.random()
    total = math.fsum(raw) + theta_mass
    if total == 0.0:
        return [0.0] * size, 1.0
    return [v / total for v in raw], theta_mass / total


def cancelling_pairs(rng, size):
    """Pairs whose singleton mass lies on one common hypothesis, so the cross
    terms cancel s1 * s2 exactly; the masses are dyadic, so no step rounds."""
    for _ in range(5):
        i = below(rng, size)
        for a, b in ((1.0, 1.0), (0.5, 0.25), (0.75, 0.5), (2.0**-30, 2.0**-40)):
            xs, ys = [0.0] * size, [0.0] * size
            xs[i], ys[i] = a, b
            yield (xs, 1.0 - a), (ys, 1.0 - b)


class TestConflictExpression:
    """_combine_singletons' k is the old expression's, bit for bit."""

    def assert_same(self, frame, left, right):
        want = old_conflict(left[0], right[0])
        try:
            got = evidence._combine_singletons(vector(frame, *left), vector(frame, *right)).conflict
        except TotalConflictError:
            # raised only when less than the smallest normal float survives
            assert surviving_mass(left, right) < sys.float_info.min
            return None
        assert got.hex() == want.hex()
        return got

    def test_seeded_vector_pairs(self):
        rng = random.Random(3010)
        for size in (2, 3, 20, 61, 1500):
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            zero = ([0.0] * size, 1.0)
            for _ in range(20 if size == 1500 else 300):
                left, right = random_vector(rng, size), random_vector(rng, size)
                self.assert_same(frame, left, right)
                self.assert_same(frame, zero, right)
                self.assert_same(frame, left, zero)

    def test_exactly_cancelling_cross_terms_give_positive_zero(self):
        rng = random.Random(3011)
        for size in (2, 3, 20, 61, 1500):
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            for left, right in cancelling_pairs(rng, size):
                assert self.assert_same(frame, left, right).hex() == "0x0.0p+0"


def tied_grid(rng, sources, hypotheses):
    """A numeric grid in which some columns repeat others cell for cell."""
    rows = [[ZNumber(unit_shape(rng), unit_shape(rng)) for _ in range(hypotheses)] for _ in range(sources)]
    for _ in range(1 + below(rng, hypotheses)):
        src, dst = below(rng, hypotheses), below(rng, hypotheses)
        for row in rows:
            row[dst] = row[src]
    return grid(rows)


class TestDecideRanking:
    """decide ranks as best_first over singleton_masses' values did."""

    def test_matches_the_singleton_dict(self):
        rng = random.Random(3020)
        ties = 0
        for n in range(60):
            sources, hypotheses = 1 + below(rng, 6), 2 + below(rng, 30)
            matrix = tied_grid(rng, sources, hypotheses) if n % 2 else lexicon_grid(rng, sources, hypotheses)
            report = decide(matrix)
            singles = list(report.fused.singleton_masses().values())
            want = tuple(report.frame.hypotheses[j] for j in best_first(singles))
            assert report.ranking == want
            assert report.decision == want[0]
            ties += len(set(singles)) < len(singles)
        assert ties > 30
