"""Evidence layer: frames, mass functions, BPA generation, Dempster's rule."""

import copy
import math
import pickle
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from zfuse import cli, evidence
from zfuse.evidence import (
    CombinationOutcome,
    Frame,
    MassFunction,
    TotalConflictError,
    bpa_from_similarities,
    _combine_general,
    combine_all,
    dempster_combine,
)
from zfuse.pipeline import AssessmentMatrix, decide, source_bpas
from zfuse.zmodel import LEXICON, ZNumber

from oracles import cleaned_masses, exact_fold, reference_combine
from test_pipeline import labelled, numeric_rows

ABC = Frame(("A", "B", "C"))


def random_mass(rng, frame, max_focal=4):
    # always keep some mass on the whole frame, like the BPAs this package
    # generates; it also rules out accidental total conflict
    pool = range(1, frame.theta)
    count = rng.randint(0, min(max_focal - 1, frame.theta - 1))
    masks = rng.sample(pool, count) + [frame.theta]
    values = [rng.random() + 0.01 for _ in masks]
    total = math.fsum(values)
    return MassFunction(frame, {m: v / total for m, v in zip(masks, values)})


class TestFrame:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="^hypothesis labels must be distinct, got 'A' twice$"):
            Frame(("A", "B", "A"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Frame(())

    def test_masks_round_trip(self):
        assert ABC.subset(("A", "C")) == 0b101
        assert ABC.labels(0b101) == ("A", "C")
        assert ABC.theta == 0b111
        assert ABC.subset(("B",)) == 0b010

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown hypothesis"):
            ABC.index("D")

    def test_labels_match_a_scan_of_every_bit(self):
        def scan(frame, mask):
            return tuple(h for i, h in enumerate(frame.hypotheses) if mask >> i & 1)

        rng = random.Random(4)
        for size in range(2, 71):
            frame = Frame(tuple(f"H{i}" for i in range(size)))
            # bits beyond the frame and negative masks are ignored alike
            masks = [0, frame.theta, -1, -(1 << size // 2)]
            masks += [1 << i for i in range(size + 3)]
            masks += [rng.getrandbits(size + 8) for _ in range(40)]
            masks += [-rng.getrandbits(size + 8) for _ in range(10)]
            for mask in masks:
                assert frame.labels(mask) == scan(frame, mask), (size, mask)


class TestMassFunction:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MassFunction(ABC, {0b001: 0.5, 0b010: 0.4})

    def test_masses_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MassFunction(ABC, {0b001: 1.2, 0b010: -0.2})

    def test_empty_set_carries_no_mass(self):
        with pytest.raises(ValueError, match="empty set"):
            MassFunction(ABC, {0b000: 0.3, 0b111: 0.7})

    def test_focal_sets_must_fit_the_frame(self):
        with pytest.raises(ValueError, match="outside the frame"):
            MassFunction(ABC, {0b1000: 1.0})

    def test_zero_entries_are_dropped(self):
        m = MassFunction(ABC, {0b001: 1.0, 0b010: 0.0})
        assert m == MassFunction(ABC, {0b001: 1.0})
        assert 0b010 not in m.masses

    def test_vacuous(self):
        m = MassFunction(ABC, {ABC.theta: 1.0})
        assert m.is_vacuous()
        assert m.theta_mass() == 1.0
        assert m.singleton_masses() == {"A": 0.0, "B": 0.0, "C": 0.0}
        # all of the mass, exactly, and on the frame alone
        assert not MassFunction(ABC, {ABC.theta: 1.0 - 1e-13}).is_vacuous()
        assert not MassFunction(ABC, {0b001: 0.5, ABC.theta: 0.5}).is_vacuous()

    def test_focal_items_are_sorted_by_mask(self):
        m = MassFunction(ABC, {0b111: 0.5, 0b001: 0.25, 0b010: 0.25})
        assert [labels for labels, _ in m.focal_items()] == [("A",), ("B",), ("A", "B", "C")]

    def test_focal_items_on_a_wide_frame_are_fast(self):
        frame = Frame(tuple(f"H{i}" for i in range(4000)))
        m = bpa_from_similarities(frame, [(1 + i % 97) / 100 for i in range(4000)])
        start = time.perf_counter()
        items = m.focal_items()
        assert time.perf_counter() - start < 0.5
        assert len(items) == 4000 + 1
        assert items[-1][0] == frame.hypotheses


class TestBpaFromSimilarities:
    def test_medical_first_expert(self):
        frame = Frame(("Common-cold", "Meningitis", "Measles"))
        m = bpa_from_similarities(frame, [0.9662, 0.2599, 0.1632])
        singles = m.singleton_masses()
        assert singles["Common-cold"] == pytest.approx(0.6789, abs=2e-3)
        assert singles["Meningitis"] == pytest.approx(0.1826, abs=2e-3)
        assert singles["Measles"] == pytest.approx(0.1147, abs=2e-3)
        assert m.theta_mass() == pytest.approx(0.0238, abs=2e-3)

    def test_all_zero_scores_mean_total_ignorance(self):
        assert bpa_from_similarities(ABC, [0.0, 0.0, 0.0]).is_vacuous()

    def test_perfect_score_leaves_no_residual(self):
        m = bpa_from_similarities(ABC, [1.0, 0.0, 0.0])
        assert m.theta_mass() == 0.0
        assert m.singleton_masses()["A"] == 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="expected 3 scores"):
            bpa_from_similarities(ABC, [0.5, 0.5])

    def test_scores_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bpa_from_similarities(ABC, [0.5, 1.2, 0.1])

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize(
        "bad, error, shown",
        [
            ("0.5", TypeError, None),
            (b"0.5", TypeError, None),
            (None, TypeError, None),
            (math.nan, ValueError, "nan"),
            (-0.1, ValueError, "-0.1"),
            (1.2, ValueError, "1.2"),
            (2, ValueError, "2"),
            (Fraction(3, 2), ValueError, "3/2"),
            (10**400, ValueError, str(10**400)),
        ],
        ids=["str", "bytes", "None", "nan", "negative", "above-one", "int", "Fraction", "huge-int"],
    )
    def test_the_range_check_reads_scores_as_given(self, size, bad, error, shown):
        # the check runs before any float(): a value is named as given, and
        # an int past the float range is out of range, not an OverflowError
        frame = Frame(tuple(f"h{i}" for i in range(size)))
        scores = [0.5] * size
        scores[-1] = bad
        with pytest.raises(error) as got:
            bpa_from_similarities(frame, scores)
        if shown is not None:
            assert str(got.value) == f"similarities must lie in [0, 1], got {shown}"

    @pytest.mark.parametrize(
        "scores, shown",
        [
            ([1.5, 0.2, 0.3], "1.5"),
            ([0.2, -0.5, 0.3], "-0.5"),
            ([0.2, 0.3, math.nan], "nan"),
            ([0.2, 3.0, -1.0], "3.0"),
            ([math.nan, 0.2, 2.0], "nan"),
            ([0.2, -5e-324, math.nan], "-5e-324"),
            ([0.2, math.nextafter(1.0, 2.0), 0.3], "1.0000000000000002"),
        ],
        ids=["first", "middle", "last", "two", "nan-then-one", "denormal-then-nan", "next-above-one"],
    )
    def test_the_first_score_out_of_range_is_named(self, scores, shown):
        with pytest.raises(ValueError) as got:
            bpa_from_similarities(ABC, scores)
        assert str(got.value) == f"similarities must lie in [0, 1], got {shown}"

    @pytest.mark.parametrize("scores", [[-0.0], [1.0], [-0.0, 1.0, 0.0], [1.0, -0.0, 1.0], [0, 1, Fraction(1, 2)]])
    def test_the_ends_of_the_interval_are_accepted(self, scores):
        frame = Frame(tuple(f"h{i}" for i in range(len(scores))))
        m = bpa_from_similarities(frame, scores)
        assert math.fsum(m.masses.values()) == pytest.approx(1.0, abs=1e-12)

    def test_argmax_and_normalization_hold_up(self):
        rng = random.Random(7)
        for _ in range(200):
            scores = [rng.random() for _ in range(3)]
            m = bpa_from_similarities(ABC, scores)
            assert math.fsum(m.masses.values()) == pytest.approx(1.0, abs=1e-12)
            singles = m.singleton_masses()
            best = max(range(3), key=scores.__getitem__)
            assert singles[ABC.hypotheses[best]] == max(singles.values())


class TestDempsterCombine:
    def test_frames_must_match(self):
        with pytest.raises(ValueError, match="different frames"):
            dempster_combine(MassFunction(ABC, {ABC.theta: 1.0}), MassFunction(Frame(("A", "B")), {0b11: 1.0}))

    def test_vacuous_is_the_identity(self):
        m = MassFunction(ABC, {ABC.subset(("A",)): 0.6, ABC.subset(("B", "C")): 0.3, ABC.theta: 0.1})
        out = dempster_combine(m, MassFunction(ABC, {ABC.theta: 1.0}))
        assert out.combined == m
        assert out.conflict == 0.0

    def test_commutes_exactly(self):
        rng = random.Random(11)
        for _ in range(50):
            m1, m2 = random_mass(rng, ABC), random_mass(rng, ABC)
            assert dempster_combine(m1, m2).combined == dempster_combine(m2, m1).combined

    def test_associative_within_tolerance(self):
        rng = random.Random(13)
        for _ in range(50):
            m1, m2, m3 = (random_mass(rng, ABC) for _ in range(3))
            left = dempster_combine(dempster_combine(m1, m2).combined, m3).combined
            right = dempster_combine(m1, dempster_combine(m2, m3).combined).combined
            assert set(left.masses) == set(right.masses)
            for mask, v in left.masses.items():
                assert v == pytest.approx(right.masses[mask], abs=1e-12)

    def test_agrees_with_reference_implementation(self):
        rng = random.Random(17)
        for size in (2, 3, 4, 5):
            frame = Frame(tuple("hyp%d" % i for i in range(size)))
            for _ in range(25):
                m1, m2 = random_mass(rng, frame, 6), random_mass(rng, frame, 6)
                out = dempster_combine(m1, m2)
                expected, conflict = reference_combine(m1, m2)
                assert out.conflict == pytest.approx(conflict, abs=1e-12)
                assert 0.0 <= out.conflict < 1.0
                got = {frozenset(labels): v for labels, v in out.combined.focal_items()}
                assert set(got) == set(expected)
                for key, v in expected.items():
                    assert got[key] == pytest.approx(v, abs=1e-12)

    def test_nearly_certain_disagreement(self):
        # the classic two-expert standoff: the barely-supported middle
        # hypothesis takes everything
        m1 = MassFunction(ABC, {ABC.subset(("A",)): 0.99, ABC.subset(("B",)): 0.01})
        m2 = MassFunction(ABC, {ABC.subset(("C",)): 0.99, ABC.subset(("B",)): 0.01})
        out = dempster_combine(m1, m2)
        assert out.conflict == pytest.approx(0.9999, abs=1e-12)
        assert out.combined.singleton_masses()["B"] == pytest.approx(1.0, abs=1e-9)

    def test_total_conflict_raises(self):
        m1 = MassFunction(ABC, {ABC.subset(("A",)): 1.0})
        m2 = MassFunction(ABC, {ABC.subset(("B",)): 1.0})
        with pytest.raises(TotalConflictError, match="total conflict"):
            dempster_combine(m1, m2)

    def test_self_combination_concentrates_mass(self):
        # Folding a singletons-plus-theta mass with itself must not erode
        # its strongest singleton, and the leader stays the leader.
        rng = random.Random(19)
        for _ in range(100):
            scores = [rng.random() for _ in range(len(ABC))]
            m = bpa_from_similarities(ABC, scores)
            before = m.singleton_masses()
            leader = max(before, key=before.get)
            if sum(1 for v in before.values() if v == before[leader]) != 1:
                continue
            after = dempster_combine(m, m).combined.singleton_masses()
            assert after[leader] >= before[leader] - 1e-12
            assert max(after, key=after.get) == leader


class TestCombineAll:
    def test_needs_input(self):
        with pytest.raises(ValueError, match="at least one"):
            combine_all([])

    def test_single_input_passes_through(self):
        m = MassFunction(ABC, {ABC.subset(("A",)): 0.4, ABC.subset(("A", "B")): 0.6})
        out = combine_all([m])
        assert out.combined == m
        assert out.conflict == 0.0
        assert out.steps == ()

    def test_records_one_conflict_per_step(self):
        rng = random.Random(19)
        ms = [random_mass(rng, ABC) for _ in range(4)]
        out = combine_all(ms)
        assert len(out.steps) == 3
        assert out.conflict == out.steps[-1]
        assert isinstance(out, CombinationOutcome)

    def test_order_does_not_matter(self):
        rng = random.Random(23)
        ms = [random_mass(rng, ABC) for _ in range(3)]
        base = combine_all(ms).combined
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            other = combine_all([ms[i] for i in perm]).combined
            assert set(other.masses) == set(base.masses)
            for mask, v in base.masses.items():
                assert other.masses[mask] == pytest.approx(v, abs=1e-12)

    def test_total_conflict_names_the_pair(self):
        m1 = MassFunction(ABC, {ABC.subset(("A",)): 1.0})
        m2 = MassFunction(ABC, {ABC.subset(("A",)): 0.5, ABC.subset(("A", "B")): 0.5})
        m3 = MassFunction(ABC, {ABC.subset(("B",)): 1.0})
        with pytest.raises(TotalConflictError, match="input 2") as err:
            combine_all([m1, m2, m3])
        assert err.value.left == 1
        assert err.value.right == 2


def near_conflict_row(rng, size, peak, tiny):
    """Similarities with hypothesis peak at or just below 1 and every other
    one within a factor of 2 of tiny: rows peaked on different hypotheses
    conflict all but totally, and no product of two masses underflows."""
    row = [tiny * (0.5 + 0.5 * rng.random()) for _ in range(size)]
    # half the rows keep a residual of about tiny for the frame
    row[peak] = 1.0 - (tiny * rng.random() if rng.random() < 0.5 else 0.0)
    return row


def near_conflict_mass(rng, frame, core, tiny):
    """A dict-built mass function with all but a few tiny masses on core,
    the tiny ones on up to six random focal sets, the frame among them."""
    masks = {rng.getrandbits(len(frame)) or frame.theta for _ in range(rng.randint(0, 5))} | {frame.theta}
    masks.discard(core)
    masses = {mask: tiny * (0.5 + 0.5 * rng.random()) for mask in masks}
    masses[core] = 1.0 - math.fsum(masses.values())
    return MassFunction(frame, masses)


def tiny_scale(rng, top):
    """Log-uniform from top down to top * 1e-3 for half the calls, where a
    step's surviving mass is about 1e-12 to 1e-16 and k lies just below 1,
    and down to top * 1e-137 for the other half, where k reads 1.0 or a
    few ulps more, as the inputs sum to 1 only within a few ulps."""
    return top * 10.0 ** -rng.uniform(0.0, 3.0 if rng.random() < 0.5 else 137.0)


def assert_exact(outcome, masses):
    """Every fused mass and every step's k of outcome, combine_all(masses),
    lies within 1e-13, relative, of the exact rational fold."""
    want, steps = exact_fold(masses)
    have = outcome.combined.masses
    assert set(have) == set(want)
    for mask, value in want.items():
        assert abs(Fraction(have[mask]) - value) <= value * Fraction(1, 10**13)
    assert len(outcome.steps) == len(steps)
    for k, value in zip(outcome.steps, steps):
        assert abs(Fraction(k) - value) <= value * Fraction(1, 10**13)


class TestNearTotalConflict:
    """Dempster's rule decides wherever a normal amount of mass survives,
    however close k comes to 1, and raises only where it does not."""

    def test_nearly_disjoint_similarities_decide(self):
        m1 = bpa_from_similarities(ABC, [1.0, 1e-13, 0.0])
        m2 = bpa_from_similarities(ABC, [1e-13, 1.0, 0.0])
        for pair in ((m1, m2), (MassFunction(ABC, m1.masses), MassFunction(ABC, m2.masses))):
            out = dempster_combine(*pair)
            assert 1.0 - 1e-12 <= out.conflict < 1.0
            assert out.combined.masses == {ABC.subset("A"): 0.5, ABC.subset("B"): 0.5}

    @pytest.mark.parametrize("general", [False, True], ids=["vector", "dict"])
    @pytest.mark.parametrize(
        "overlap, decides",
        [
            (sys.float_info.min / 2, True),
            (math.nextafter(sys.float_info.min / 2, 0.0), False),
            (1e-310, False),
            (5e-324, False),
        ],
        ids=["half-min", "below-half-min", "1e-310", "5e-324"],
    )
    def test_raises_only_below_the_smallest_normal_surviving_mass(self, general, overlap, decides):
        # each operand's overlap times the other's 1.0 survives: the sum is
        # the smallest normal float for the first case, subnormal after
        masses = [bpa_from_similarities(ABC, [1.0, overlap, 0.0]), bpa_from_similarities(ABC, [overlap, 1.0, 0.0])]
        if general:
            masses = [MassFunction(ABC, m.masses) for m in masses]
        if decides:
            out = dempster_combine(*masses)
            assert out.combined.masses == {ABC.subset("A"): 0.5, ABC.subset("B"): 0.5}
            return
        with pytest.raises(TotalConflictError, match=r"^total conflict \(k = 1\.0\) between") as err:
            dempster_combine(*masses)
        assert (err.value.left, err.value.right) == (0, 1)
        with pytest.raises(TotalConflictError, match="input 1 into the fold of inputs 0..0"):
            combine_all(masses)

    def test_conflict_reads_at_most_1(self):
        # the masses of each operand sum to 1 only within a few ulps: before
        # the clamp both rules gave k = 1.0000000000000002 on this pair
        frame = Frame(tuple(f"h{i}" for i in range(5)))
        masses = [
            bpa_from_similarities(frame, [5e-324, 1.0, 0.0, 1e-300, 1e-310]),
            bpa_from_similarities(frame, [1.0, 1e-300, 0.871062774235532, 1.0, 1e-13]),
        ]
        for pair in (masses, [MassFunction(frame, m.masses) for m in masses]):
            out = dempster_combine(*pair)
            assert out.conflict == 1.0 and out.steps == (1.0,)
            values = list(out.combined.masses.values())
            assert all(0.0 < v <= 1.0 for v in values)
            assert abs(math.fsum(values) - 1.0) <= 1e-12

    def test_the_smallest_masses_give_no_inf_or_nan(self):
        rng = random.Random(3101)
        pool = [5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-13, 0.0, 1.0]
        decided = raised = 0
        for _ in range(400):
            frame = Frame(tuple(f"h{i}" for i in range(rng.randint(2, 6))))
            rows = [[rng.choice(pool + [rng.random()]) for _ in frame.hypotheses] for _ in range(2)]
            masses = [bpa_from_similarities(frame, row) for row in rows]
            for pair in (masses, [MassFunction(frame, m.masses) for m in masses]):
                try:
                    out = dempster_combine(*pair)
                except TotalConflictError:
                    raised += 1
                    continue
                decided += 1
                assert 0.0 <= out.conflict <= 1.0
                values = list(out.combined.masses.values())
                assert all(0.0 < v <= 1.0 for v in values)
                assert abs(math.fsum(values) - 1.0) <= 1e-12
        assert decided > 500 and raised > 0

    def test_vector_pairs_match_the_exact_rule(self):
        rng = random.Random(3102)
        below_one = 0
        for _ in range(150):
            size = rng.randint(2, 20)
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            i, j = rng.sample(range(size), 2)
            masses = [
                bpa_from_similarities(frame, near_conflict_row(rng, size, peak, tiny_scale(rng, 2e-13)))
                for peak in (i, j)
            ]
            for pair in (masses, [MassFunction(frame, m.masses) for m in masses]):
                out = combine_all(pair)
                assert 1.0 - 1e-12 <= out.conflict <= 1.0
                assert_exact(out, pair)
            below_one += out.conflict < 1.0
        assert 30 < below_one < 120

    def test_dict_built_pairs_match_the_exact_rule(self):
        rng = random.Random(3103)
        for _ in range(200):
            size = rng.randint(2, 12)
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            order = rng.sample(range(size), size)
            cut = rng.randint(1, size - 1)
            cores = [sum(1 << h for h in part) for part in (order[:cut], order[cut:])]
            tiny = tiny_scale(rng, 5e-14)
            pair = [near_conflict_mass(rng, frame, core, tiny) for core in cores]
            out = combine_all(pair)
            assert 1.0 - 1e-12 <= out.conflict <= 1.0
            assert_exact(out, pair)

    def test_folds_match_the_exact_rule(self):
        # each source peaks on a hypothesis of its own, so every step of
        # the fold conflicts all but totally with the fold before it
        rng = random.Random(3104)
        for _ in range(20):
            size = rng.randint(4, 20)
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            tiny = tiny_scale(rng, 1e-13)
            masses = [
                bpa_from_similarities(frame, near_conflict_row(rng, size, peak, tiny))
                for peak in rng.sample(range(size), rng.randint(3, 4))
            ]
            for fold in (masses, [MassFunction(frame, m.masses) for m in masses]):
                out = combine_all(fold)
                assert all(1.0 - 1e-12 <= k <= 1.0 for k in out.steps)
                assert_exact(out, fold)


def singleton_bpa(rng, frame, peaked):
    """Random mass on one or more singletons plus the whole frame, built
    from its frame-order vector as the library builds its BPAs.

    A peaked BPA puts almost everything on one hypothesis, so two peaked
    BPAs that disagree conflict with k close to 1.
    """
    if peaked:
        masses = {1 << rng.randrange(len(frame)): 1.0, frame.theta: rng.uniform(1e-4, 1e-3)}
    else:
        focal = rng.sample(range(len(frame)), rng.randint(1, len(frame)))
        masses = {1 << i: rng.random() for i in focal}
        masses[frame.theta] = rng.uniform(0.01, 1.0)
    total = math.fsum(masses.values())
    # in a one-hypothesis frame the singleton is the frame: its mass is the frame's
    masks = [1 << i for i in range(len(frame))]
    singles = [0.0 if mask == frame.theta else masses.get(mask, 0.0) / total for mask in masks]
    return vector_bpa(frame, singles, masses[frame.theta] / total)


def assert_valid_vector(singles, theta_mass):
    """The oracle for a frame-order vector: float masses in [0, 1] that sum
    to 1 within 1e-12, the dict check's own bound."""
    assert all(type(v) is float and 0.0 <= v <= 1.0 for v in (*singles, theta_mass))
    assert abs(math.fsum((*singles, theta_mass)) - 1.0) <= 1e-12


def vector_bpa(frame, singles, theta_mass):
    """A mass function holding a checked frame-order vector, as the library
    builds its BPAs; on one hypothesis, where no vector exists, the dict
    with the frame's mass."""
    assert_valid_vector(singles, theta_mass)
    if len(frame) == 1:
        return MassFunction(frame, {frame.theta: singles[0] + theta_mass})
    return evidence._unchecked(frame, "_vector", (singles, theta_mass))


class TestSingletonFastPath:
    """The closed-form step for singletons-plus-frame BPAs, against the
    general bitmask rule it replaces on that structure."""

    def test_folds_match_the_general_rule(self, monkeypatch):
        rng = random.Random(2024)
        max_k = 0.0
        for _ in range(30):
            size = rng.randint(2, 50)
            frame = Frame(tuple("h%d" % i for i in range(size)))
            peaked = rng.random() < 0.5
            ms = [singleton_bpa(rng, frame, peaked) for _ in range(rng.randint(2, 200))]
            acc = ms[0]
            for m in ms[1:]:
                expected = _combine_general(acc, m)
                with monkeypatch.context() as patch:
                    patch.setattr(evidence, "_combine_general", None)
                    got = dempster_combine(acc, m)
                    swapped = dempster_combine(m, acc)
                assert got.combined == expected.combined
                assert got.conflict == pytest.approx(expected.conflict, abs=1e-15)
                assert 0.0 <= got.conflict < 1.0
                assert swapped.combined == got.combined
                assert swapped.conflict == got.conflict
                max_k = max(max_k, got.conflict)
                acc = got.combined
        assert max_k > 0.999

    def test_negligible_cross_terms_give_no_negative_conflict(self):
        m = vector_bpa(ABC, [0.6, 1e-17, 0.0], 0.4 - 1e-17)
        out = dempster_combine(m, m)
        assert out.conflict == pytest.approx(_combine_general(m, m).conflict, abs=1e-15)
        assert out.conflict >= 0.0

    def test_mixed_structure_takes_the_general_path(self, monkeypatch):
        m1 = MassFunction(ABC, {ABC.subset(("A",)): 0.5, ABC.subset(("B",)): 0.3, ABC.theta: 0.2})
        m2 = MassFunction(ABC, {ABC.subset(("A", "B")): 0.6, ABC.subset(("C",)): 0.1, ABC.theta: 0.3})
        monkeypatch.setattr(evidence, "_combine_singletons", None)
        out = dempster_combine(m1, m2)
        expected, conflict = reference_combine(m1, m2)
        assert out.conflict == pytest.approx(conflict, abs=1e-12)
        got = {frozenset(labels): v for labels, v in out.combined.focal_items()}
        assert got == pytest.approx(expected, abs=1e-12)


class _Float(float):
    pass


def validation_cases(rng):
    """Seeded mass dicts: valid BPAs, and BPAs with one entry spoiled.

    Spoilers are zeros, negatives, NaN, inf, ints, float subclasses, masks
    outside the frame, the empty mask, bool, float and str masks, zero
    entries (valid wherever they sit, unless their mask is a float), and
    masses nudged so they sum to 1 within 1e-12 or miss it by 1e-9.
    """
    yield 3, {}
    for _ in range(2000):
        size = rng.randint(1, 12)
        theta = (1 << size) - 1
        masks = rng.sample(range(1, theta + 1), rng.randint(1, min(theta, 8)))
        values = [rng.random() + 1e-3 for _ in masks]
        total = math.fsum(values)
        masses = {m: v / total for m, v in zip(masks, values)}
        for _ in range(rng.choice((0, 0, 1, 2))):
            mask = rng.choice(list(masses))
            kind = rng.randrange(13)
            if kind == 0:
                masses[mask] = 0.0
            elif kind == 1:
                masses[mask] = -masses[mask]
            elif kind == 2:
                masses[mask] = math.nan
            elif kind == 3:
                masses[mask] = math.inf
            elif kind == 4:
                masses[mask] = rng.choice((0, 1))
            elif kind == 5:
                masses[mask] = _Float(masses[mask])
            elif kind == 6:
                masses[theta << 1] = masses.pop(mask)
            elif kind == 7:
                masses[0] = masses.pop(mask)
            elif kind == 8:
                masses[float(mask)] = masses.pop(mask)
            elif kind == 9:
                masses["h0"] = masses.pop(mask)
            elif kind == 10:
                zero = rng.choice((0, theta << 1, rng.randrange(1, theta + 1)))
                masses.setdefault(rng.choice((zero, float(zero))), 0.0)
            elif kind == 11:
                masses[mask] += rng.choice((-1e-9, 1e-9, 1e-14))
            elif 1 not in masses:
                masses[True] = masses.pop(mask)
        yield size, masses


# every message the dict check can give
VALIDATION_ERRORS = (
    r"masses must be nonnegative, got (-\S+|nan)",
    r"the empty set must carry no mass",
    r"focal set 0x[0-9a-f]+ is outside the frame",
    r"masses must sum to 1",
    r"'<' not supported between instances of 'int' and 'str'",
    r"focal set masks must be ints, got \S+",
)


class TestValidationFastPath:
    """The constructor's one check of a masses dict, and the BPAs that the
    library builds without it.  The check has no fast path of its own, only
    plain loops; the name is kept so that the test ids stay stable."""

    def test_same_masses_or_same_error_as_the_loop(self):
        rng = random.Random(11)
        valid = spoiled = 0
        for size, masses in validation_cases(rng):
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            try:
                expected = cleaned_masses(masses, frame.theta)
            except (TypeError, ValueError) as err:
                with pytest.raises(type(err)) as got:
                    MassFunction(frame, masses)
                assert str(got.value) == str(err)
                assert any(re.fullmatch(p, str(err)) for p in VALIDATION_ERRORS), str(err)
                spoiled += 1
                continue
            assert not any(isinstance(mask, float) for mask in masses)
            got = MassFunction(frame, masses).masses
            assert got == expected == {mask: float(v) for mask, v in masses.items() if v}
            assert list(got) == list(expected) == [mask for mask, v in masses.items() if v]
            assert all(type(v) is float for v in got.values())
            assert got is not masses
            valid += 1
        assert valid > 500 and spoiled > 500

    @pytest.mark.parametrize(
        "masses, error, message",
        [
            ({0b001: 0.5, 0b010: 0.4}, ValueError, "masses must sum to 1"),
            ({0b001: 1.2, 0b010: -0.2}, ValueError, "masses must be nonnegative, got -0.2"),
            ({0b000: 0.3, 0b111: 0.7}, ValueError, "the empty set must carry no mass"),
            ({0b1000: 1.0}, ValueError, "focal set 0x8 is outside the frame"),
            ({0b001: math.inf}, ValueError, "masses must sum to 1"),
            ({"A": 1.0}, TypeError, "'<' not supported between instances of 'int' and 'str'"),
            ({0b001: 0.35, 62.0: 0.65}, ValueError, "focal set masks must be ints, got 62.0"),
            ({0b001: 0.35, 2.0: 0.65}, ValueError, "focal set masks must be ints, got 2.0"),
            ({0b001: 0.35, 2.0: 0.0, 0b010: 0.65}, ValueError, "focal set masks must be ints, got 2.0"),
        ],
        ids=[
            "sum", "negative", "empty-set", "outside", "inf", "str-mask",
            "float-mask-outside", "float-mask", "float-mask-zero-mass",
        ],
    )
    def test_messages(self, masses, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            MassFunction(ABC, masses)

    def test_bpas_take_the_fast_path(self, monkeypatch):
        frame = Frame(tuple(f"h{i}" for i in range(300)))
        scores = [0.0, 1.0] + [0.5] * 298
        expected = bpa_from_similarities(frame, scores)
        monkeypatch.setattr(evidence, "_cleaned", None)  # the loop is not reached
        m = bpa_from_similarities(frame, scores)
        assert m == expected
        assert 1 not in m.masses and m.theta_mass() == 0.0

    @pytest.mark.parametrize(
        "masses",
        [{0b01: math.nan, 0b11: 1.0}, {0b01: 0.5, 0b10: math.nan, 0b11: 0.5}, {0b11: math.nan}],
        ids=["nan-first", "nan-between", "nan-only"],
    )
    def test_nan_mass_is_rejected(self, masses):
        frame = Frame(("a", "b"))
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            MassFunction(frame, masses)


ONE = Frame(("only",))


def hashed_vector(m):
    """The vector by dict lookups of 1 << i and theta: the oracle for an attached one."""
    masses = m.masses
    return [masses.get(1 << i, 0.0) for i in range(len(m.frame))], masses.get(m.frame.theta, 0.0)


def hashed_singletons(m):
    """singleton_masses as it was written before the vectors."""
    return {h: m.masses.get(1 << i, 0.0) for i, h in enumerate(m.frame.hypotheses)}


def dict_conflict(m1, m2):
    """k of the closed-form step on dicts, as it was written before the vectors."""
    theta = m1.frame.theta
    a, b = m1.masses, m2.masses
    parts = [-(x * b.get(h, 0.0)) for h, x in a.items() if h != theta]
    singles_a = math.fsum(x for h, x in a.items() if h != theta)
    singles_b = math.fsum(y for h, y in b.items() if h != theta)
    parts.append(singles_a * singles_b)
    return max(0.0, math.fsum(parts))


def seeded_frames(rng, count=40):
    """Frames of 1-200 hypotheses, most past the 61 hash classes of 1 << i."""
    sizes = [1, 2, 3, 61, 62] + [rng.randint(1, 200) for _ in range(count)]
    return [Frame(tuple(f"h{i}" for i in range(size))) for size in sizes]


def similarity_rows(rng, size, count):
    """Seeded similarity rows with zeros; the first may hold a perfect score,
    which leaves its BPA no mass on the frame."""
    rows = []
    for j in range(count):
        row = [rng.random() for _ in range(size)]
        for _ in range(rng.randint(0, size)):
            row[rng.randrange(size)] = 0.0
        if j == 0 and rng.random() < 0.5:
            row[rng.randrange(size)] = 1.0
        rows.append(row)
    return rows


def general_mass(rng, frame):
    """Random focal sets of any size, some of them singletons, plus the frame."""
    size = len(frame)
    masks = {1 << rng.randrange(size) for _ in range(rng.randint(0, 4))}
    masks |= {rng.getrandbits(size) or 1 for _ in range(rng.randint(1, 4))}
    masks.add(frame.theta)
    values = [rng.random() + 0.01 for _ in masks]
    total = math.fsum(values)
    return MassFunction(frame, {m: v / total for m, v in zip(masks, values)})


class TestOneHypothesisFrame:
    """In a frame of one hypothesis, the singleton and the frame are both mask 1.
    No mass function there has a vector, so every step takes the general rule."""

    @pytest.mark.parametrize("score", [0.0, 0.4, 1.0])
    def test_bpa_puts_everything_on_the_frame(self, score):
        m = bpa_from_similarities(ONE, [score])
        assert m.masses == {1: 1.0}
        assert m._vector is None
        assert m.is_vacuous() and m.theta_mass() == 1.0

    def test_singleton_masses(self):
        assert bpa_from_similarities(ONE, [0.4]).singleton_masses() == {"only": 1.0}
        m = MassFunction(ONE, {1: 1.0 - 1e-13})
        assert m.singleton_masses() == hashed_singletons(m) == {"only": 1.0 - 1e-13}

    def test_dempster_combine(self, monkeypatch):
        m = MassFunction(ONE, {1: 1.0 - 1e-13})  # not vacuous, so the step runs
        monkeypatch.setattr(evidence, "_combine_singletons", None)
        out = dempster_combine(m, m)
        assert out.combined.masses == {1: 1.0}
        assert out.conflict == 0.0
        fused = combine_all([bpa_from_similarities(ONE, [s]) for s in (0.4, 0.0, 1.0)])
        assert fused.combined.masses == {1: 1.0}
        assert fused.steps == (0.0, 0.0)


class TestFrameOrderVectors:
    """Singleton+frame mass functions carry their masses in frame order too."""

    def test_attached_vector_is_the_one_read_from_the_masses(self):
        rng = random.Random(61)
        frames = seeded_frames(rng) + [Frame(tuple(f"h{i}" for i in range(1500)))]
        for frame in frames:
            size = len(frame)
            rows = similarity_rows(rng, size, 2 if size > 200 else rng.randint(2, 8))
            rows.append([0.0] * size)  # a vacuous BPA
            bpas = [bpa_from_similarities(frame, row) for row in rows]
            fused = combine_all(bpas).combined
            for m in [*bpas, fused]:
                if size > 1:
                    assert "_vector" in m.__dict__  # attached when built
                    assert m._vector == hashed_vector(m)
                else:
                    assert m._vector is None
            assert bpas[-1].theta_mass() == 1.0

    def test_zero_frame_mass(self):
        frame = Frame(tuple(f"h{i}" for i in range(130)))
        scores = [0.0, 1.0] + [0.25] * 128
        m = bpa_from_similarities(frame, scores)
        assert frame.theta not in m.masses and 1 not in m.masses
        assert m._vector == hashed_vector(m)
        assert m._vector[1] == 0.0

    def test_general_structures_have_no_vector(self):
        rng = random.Random(62)
        for frame in seeded_frames(rng):
            m = general_mass(rng, frame)
            assert m._vector is None and "_vector" not in m.__dict__

    def test_fold_matches_the_general_rule(self, monkeypatch):
        rng = random.Random(63)
        for frame in seeded_frames(rng, count=25):
            rows = similarity_rows(rng, len(frame), rng.randint(2, 10))
            # BPAs from similarities, and random ones of which the peaked
            # conflict with k close to 1
            for bpas in (
                [bpa_from_similarities(frame, row) for row in rows],
                [singleton_bpa(rng, frame, rng.random() < 0.5) for _ in range(rng.randint(2, 6))],
            ):
                acc, steps, oracle_steps = bpas[0], [], []
                for m in bpas[1:]:
                    if acc.is_vacuous() or m.is_vacuous():
                        out = dempster_combine(acc, m)
                        k = out.conflict
                    else:
                        out = _combine_general(acc, m)
                        k = dict_conflict(acc, m)
                    acc = out.combined
                    steps.append(out.conflict)
                    oracle_steps.append(k)
                with monkeypatch.context() as patch:
                    patch.setattr(evidence, "_combine_general", None)
                    got = combine_all(bpas)
                assert got.combined.masses == acc.masses
                # k from the closed form is the old dict step's, bit for bit;
                # it is within an ulp of the general rule's sum over every
                # cross product
                assert got.steps == tuple(oracle_steps)
                assert got.steps == pytest.approx(steps, abs=1e-15)

    def test_singleton_masses_match_the_lookups(self):
        rng = random.Random(65)
        for frame in seeded_frames(rng):
            bpas = [bpa_from_similarities(frame, row) for row in similarity_rows(rng, len(frame), 3)]
            general = [general_mass(rng, frame) for _ in range(3)]
            for m in [*bpas, combine_all(bpas).combined, *general, combine_all(general).combined]:
                assert m.singleton_masses() == hashed_singletons(m)


def eager_twin(m):
    """A mass function built by the dict constructor from m's vector, by
    lookups of 1 << i: the oracle for the dict a vector-built one makes."""
    singles, theta_mass = m._vector
    masses = {1 << i: v for i, v in enumerate(singles) if v}
    if theta_mass:
        masses[m.frame.theta] = theta_mass
    return MassFunction(m.frame, masses)


class TestLazyMasses:
    """A mass function built from a frame-order vector makes its masses dict
    on first read, and until then answers from the vector."""

    SIZES = (2, 3, 61, 62, 200, 1500)

    def lazy_cases(self, rng, size):
        """BPAs from similarity rows, with zeros, a perfect score, and a
        vacuous row, plus their fusion; none has had its dict read."""
        frame = Frame(tuple(f"h{i}" for i in range(size)))
        rows = similarity_rows(rng, size, 3) + [[0.0] * size]
        rows[1][rng.randrange(size)] = 1.0  # no mass left on the frame
        bpas = [bpa_from_similarities(frame, row) for row in rows]
        return [*bpas, combine_all(bpas).combined]

    def test_methods_and_dict_match_an_eager_twin(self):
        rng = random.Random(1500)
        for size in self.SIZES:
            cases = self.lazy_cases(rng, size)
            assert cases[1].theta_mass() == 0.0 and cases[3].is_vacuous()
            for m in cases:
                twin = eager_twin(m)
                assert m.focal_items() == twin.focal_items()
                assert m.theta_mass() == twin.theta_mass()
                assert m.is_vacuous() == twin.is_vacuous()
                assert m.singleton_masses() == twin.singleton_masses()
                assert "masses" not in m.__dict__  # nothing above built it
                assert m.masses == twin.masses
                assert list(m.masses) == list(twin.masses)
                assert all(type(v) is float and v for v in m.masses.values())
                assert m.masses is m.masses  # built once

    def test_dataclass_protocols_match_an_eager_twin(self):
        rng = random.Random(1501)
        for size in self.SIZES:
            for m in self.lazy_cases(rng, size):
                twin = eager_twin(m)
                copied, pickled = copy.copy(m), pickle.loads(pickle.dumps(m))
                assert "masses" not in copied.__dict__ and "masses" not in pickled.__dict__
                rebuilt = MassFunction(frame=m.frame, masses=m.masses)
                assert m == twin and twin == m
                assert copied == twin and pickled == twin and rebuilt == twin
                assert repr(m) == repr(twin)
                assert MassFunction(m.frame, {m.frame.theta: 1.0}).is_vacuous()

    def test_masses_has_no_default(self):
        with pytest.raises(TypeError, match="masses"):
            MassFunction(ABC)
        with pytest.raises(TypeError, match="masses"):
            MassFunction(frame=ABC)
        assert "masses" in MassFunction(ABC, {ABC.theta: 1.0}).__dict__
        lazy = bpa_from_similarities(ABC, [0.5, 0.2, 0.0])
        assert "masses" not in lazy.__dict__
        assert lazy.masses and "masses" in lazy.__dict__


class TestDictBuiltEvidence:
    """A singleton+frame mass function built from a dict has no vector: it
    answers from its dict and fuses on the general rule, to the masses of
    the closed form on its vector-built twin."""

    def test_matches_the_vector_built_twin(self):
        rng = random.Random(64)
        for frame in seeded_frames(rng, count=8):
            size = len(frame)
            rows = similarity_rows(rng, size, rng.randint(2, 4)) + [[0.0] * size]
            rows.insert(1, [0.0] * size)  # a vacuous BPA inside the fold
            twins = [bpa_from_similarities(frame, row) for row in rows]
            expected = combine_all(twins)
            ms = [MassFunction(m.frame, dict(m.masses)) for m in twins]
            assert all(m._vector is None for m in ms)
            got = combine_all(ms)
            assert got.combined._vector is None
            assert got.combined.masses == expected.combined.masses
            assert got.steps == pytest.approx(expected.steps, abs=1e-15)
            for m, twin in zip((*ms, got.combined), (*twins, expected.combined)):
                assert m.is_vacuous() == twin.is_vacuous()
                assert m.theta_mass() == twin.theta_mass()
                assert m.singleton_masses() == twin.singleton_masses()
                assert m.focal_items() == twin.focal_items()

    def test_decide_validates_no_dict(self, monkeypatch):
        # nor any vector: decide on a lexicon and a numeric grid, and
        # combine_all on mass functions built from dicts beforehand
        rng = random.Random(200)
        shapes = [term.shape for term in LEXICON]
        lexicon = AssessmentMatrix(
            frame=Frame(tuple(f"H{j}" for j in range(200))),
            sources=("E0", "E1", "E2"),
            cells=tuple(
                tuple(ZNumber(rng.choice(shapes), rng.choice(shapes)) for _ in range(200)) for _ in range(3)
            ),
        )
        grids = (lexicon, labelled(numeric_rows(rng, 40, 12)))
        frame = Frame(tuple(f"h{i}" for i in range(10)))
        general = [bucket_mass(rng, frame) for _ in range(12)]
        expected = [decide(m) for m in grids], combine_all(general)

        # {A: 1e-200} and {B: 1e-200} with A & B nonempty: a product underflows
        underflow = [MassFunction(frame, {mask: 1e-200, frame.theta: 1.0}) for mask in (0b011, 0b110)]
        expected_underflow = setdefault_combine(*underflow)

        def validated(*args):
            raise AssertionError("a masses dict was validated")

        monkeypatch.setattr(evidence, "_cleaned", validated)
        # BPAs from scores of every type, on one, two and 1500 hypotheses
        for size in (1, 2, 1500):
            wide = Frame(tuple(f"h{i}" for i in range(size)))
            row = [rng.random() for _ in range(size)]
            for kind in SCORE_TYPES:
                assert bpa_from_similarities(wide, typed_scores(kind, row)).masses
        got = dempster_combine(*underflow)
        assert exact_items(got.combined) == exact_items(expected_underflow.combined)
        steps = []
        step = evidence.dempster_combine
        monkeypatch.setattr(evidence, "dempster_combine", lambda m1, m2: steps.append(1) or step(m1, m2))
        for m, want in zip(grids, expected[0]):
            report = decide(m)
            assert len(report.conflict_trace) == len(m.sources) - 1
            assert exact_items(report.fused) == exact_items(want.fused)
            assert [k.hex() for k in report.conflict_trace] == [k.hex() for k in want.conflict_trace]
            assert report.ranking == want.ranking
            for mode in ("decide", "bpa"):
                build, table = cli._MODES[mode]
                table(build(m, 0.7), ".4f")
        got = combine_all(general)
        assert exact_items(got.combined) == exact_items(expected[1].combined)
        # every fold step went through the module global: decide and the
        # decide report each fold 3 and 40 sources, and combine_all 12 inputs
        assert len(steps) == 2 * (2 + 39) + 11


def setdefault_combine(m1, m2):
    """_combine_general as written with setdefault and a separate list of
    conflicting products: the reference for its defaultdict buckets."""
    buckets: dict[int, list[float]] = {}
    conflict_parts: list[float] = []
    # once per step, not per left focal set
    right = m2.masses.items()
    for s1, v1 in m1.masses.items():
        for s2, v2 in right:
            product = v1 * v2
            inter = s1 & s2
            if inter:
                buckets.setdefault(inter, []).append(product)
            else:
                conflict_parts.append(product)
    k = math.fsum(conflict_parts)
    totals = {mask: math.fsum(parts) for mask, parts in buckets.items()}
    survived = math.fsum(totals.values())
    # the rule is defined while a normal amount of mass survives
    if survived < sys.float_info.min:
        raise TotalConflictError(f"total conflict (k = {k}) between the two mass functions", left=0, right=1)
    combined = {mask: value / survived for mask, value in totals.items()}
    return CombinationOutcome(MassFunction(m1.frame, combined), k, (k,))


def bucket_mass(rng, frame, common=0):
    """1-12 random focal sets plus the frame, built from a dict; mask 1 is
    sometimes keyed as True.  Every focal set contains the bits of common."""
    masks = {rng.getrandbits(len(frame)) | common or 1 for _ in range(rng.randint(1, 12))}
    masks.add(frame.theta)
    if 1 in masks and rng.random() < 0.5:
        masks = {True if m == 1 else m for m in masks}
    values = [rng.random() + 0.01 for _ in masks]
    total = math.fsum(values)
    return MassFunction(frame, {m: v / total for m, v in zip(masks, values)})


def exact_items(m):
    """Masses in key order, with key types and float bits."""
    return [(type(mask), mask, value.hex()) for mask, value in m.masses.items()]


class TestGeneralRuleBuckets:
    """_combine_general gives the masses, key order and k of the setdefault
    loop it replaced, bit for bit."""

    def assert_same(self, m1, m2):
        got, want = _combine_general(m1, m2), setdefault_combine(m1, m2)
        assert exact_items(got.combined) == exact_items(want.combined)
        assert got.conflict.hex() == want.conflict.hex()
        assert [k.hex() for k in got.steps] == [k.hex() for k in want.steps]
        return got

    def test_matches_the_setdefault_loop(self):
        rng = random.Random(1515)
        bools = 0
        for _ in range(400):
            frame = Frame(tuple(f"h{i}" for i in range(rng.randint(2, 12))))
            m1, m2 = bucket_mass(rng, frame), bucket_mass(rng, frame)
            bools += any(type(mask) is bool for mask in (*m1.masses, *m2.masses))
            self.assert_same(m1, m2)
        assert bools > 20

    def test_no_conflicting_product_gives_positive_zero(self):
        rng = random.Random(1516)
        for _ in range(100):
            frame = Frame(tuple(f"h{i}" for i in range(rng.randint(2, 12))))
            common = 1 << rng.randrange(len(frame))
            got = self.assert_same(bucket_mass(rng, frame, common), bucket_mass(rng, frame, common))
            assert got.conflict.hex() == "0x0.0p+0"

    def test_total_conflict_message(self):
        rng = random.Random(1517)
        for _ in range(50):
            size = rng.randint(2, 12)
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            cut = rng.randint(1, size - 1)
            low, high = (1 << cut) - 1, frame.theta ^ ((1 << cut) - 1)
            # disjoint halves of the frame: every product conflicts
            m1, m2 = (
                MassFunction(frame, {mask: 1.0 / len(masks) for mask in masks})
                for masks in ({low, 1 << rng.randrange(cut)}, {high, 1 << rng.randrange(cut, size)})
            )
            with pytest.raises(TotalConflictError) as got:
                _combine_general(m1, m2)
            with pytest.raises(TotalConflictError) as want:
                setdefault_combine(m1, m2)
            assert str(got.value) == str(want.value)
            assert (got.value.left, got.value.right) == (want.value.left, want.value.right)

    def test_folds_match(self):
        rng = random.Random(1518)
        for _ in range(40):
            frame = Frame(tuple(f"h{i}" for i in range(rng.randint(2, 12))))
            ms = [bucket_mass(rng, frame) for _ in range(rng.randint(2, 6))]
            acc, steps = ms[0], []
            for m in ms[1:]:
                out = setdefault_combine(acc, m)
                acc, steps = out.combined, steps + [out.conflict]
            got = combine_all(ms)
            assert exact_items(got.combined) == exact_items(acc)
            assert [k.hex() for k in got.steps] == [k.hex() for k in steps]


def assert_checks_keep(m):
    """m is a mass function the checks would accept unchanged: a vector is
    valid, and _cleaned gives back the masses dict with the same items, key
    order, key types and float bits."""
    if m._vector is not None:
        assert_valid_vector(*m._vector)
    cleaned = evidence._cleaned(m.masses, m.frame.theta)
    assert [(type(mask), mask, value.hex()) for mask, value in cleaned.items()] == exact_items(m)


def parent_bpa(frame, scores):
    """bpa_from_similarities as written when its BPAs went through the dict
    check: the scores' own quotients, in a dict the constructor builds.  The
    oracle for the BPAs built without the check."""
    residual = 1.0 - max(scores)
    total = math.fsum(scores) + residual
    masses = {1 << i: s / total for i, s in enumerate(scores) if s}
    # in a one-hypothesis frame the singleton is the frame itself
    masses[frame.theta] = masses.get(frame.theta, 0.0) + residual / total
    return MassFunction(frame, masses)


class _Scaled(float):
    """A float whose quotients are _Scaled too, so no float."""

    def __truediv__(self, other):
        return _Scaled(float(self) / other)


SCORE_TYPES = [float, int, bool, Fraction, _Float, _Scaled]


def typed_scores(kind, row):
    """row as scores of type kind; ints and bools are rounded to 0 or 1."""
    return [kind(round(s)) if kind in (int, bool) else kind(s) for s in row]


class TestUncheckedResults:
    """BPAs from similarities and Dempster results on checked operands skip
    the checks; each is one the checks would have kept unchanged."""

    def test_bpas_and_fold_steps(self):
        rng = random.Random(2801)
        sizes = [2, 3, 5, 61, 62, 200, 1500] + [rng.randint(2, 300) for _ in range(10)]
        tiny = (0.0, 1e-300, 5e-324)
        for size in sizes:
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            rows = similarity_rows(rng, size, 2 if size > 200 else 4)
            rows += [[0.0] * size, [1e-300] * size, [5e-324] * size]
            rows.append([rng.choice((*tiny, rng.random())) for _ in range(size)])
            rng.shuffle(rows)
            bpas = [bpa_from_similarities(frame, row) for row in rows]
            for m, row in zip(bpas, rows):
                assert m._vector is not None
                assert_checks_keep(m)
                assert exact_items(m) == exact_items(parent_bpa(frame, row))
            acc = bpas[0]
            for m in bpas[1:]:
                acc = dempster_combine(acc, m).combined
                assert_checks_keep(acc)

    def test_theta_underflow_fold(self):
        # the 2000 x 5 grid of test_pipeline's TestThetaUnderflow
        bpas = source_bpas(labelled(numeric_rows(random.Random(2000), 2000, 5)))
        acc = bpas[0]
        for bpa in bpas:
            assert_checks_keep(bpa)
        for bpa in bpas[1:]:
            acc = dempster_combine(acc, bpa).combined
            assert_checks_keep(acc)
        assert acc.theta_mass() == 0.0

    def test_general_rule_pairs(self):
        rng = random.Random(2802)
        for _ in range(3000):
            frame = Frame(tuple(f"h{i}" for i in range(rng.randint(2, 12))))
            assert_checks_keep(_combine_general(bucket_mass(rng, frame), bucket_mass(rng, frame)).combined)

    def test_an_underflowed_product_takes_the_constructor(self, monkeypatch):
        # the constructor's treatment, without the constructor: the zero
        # mass is dropped and the rest keep their order and bits
        frame = Frame(("a", "b", "c"))
        theta, left, right = frame.theta, 0b011, 0b110
        m1 = MassFunction(frame, {left: 1e-200, theta: 1.0})
        m2 = MassFunction(frame, {right: 1e-200, theta: 1.0})
        want = setdefault_combine(m1, m2)
        checked = []
        monkeypatch.setattr(evidence, "_cleaned", lambda *args: checked.append(args))
        got = dempster_combine(m1, m2)
        # left & right = 0b010 gets 1e-200 * 1e-200, which is 0.0
        assert checked == []
        assert left & right not in got.combined.masses
        assert exact_items(got.combined) == exact_items(want.combined)
        assert list(got.combined.masses) == [left, right, theta]
        assert got.conflict.hex() == want.conflict.hex() == "0x0.0p+0"

    @pytest.mark.parametrize(
        "kind", SCORE_TYPES, ids=["float", "int", "bool", "Fraction", "float-subclass", "no-float-quotient"]
    )
    def test_score_types_give_the_checked_bpa(self, kind):
        # every type gets a vector of exact floats, so none falls off the
        # closed form, and the masses the dict check gave its own quotients
        rng = random.Random(2804)
        for size in (1, 2, 3, 62, 300):
            frame = Frame(tuple(f"h{i}" for i in range(size)))
            for row in similarity_rows(rng, size, 4) + [[0.0] * size, [1.0] * size]:
                scores = typed_scores(kind, row)
                got, want = bpa_from_similarities(frame, scores), parent_bpa(frame, scores)
                if size == 1:
                    assert got._vector is None
                else:
                    singles, theta_mass = got._vector
                    assert all(type(v) is float for v in (*singles, theta_mass))
                    assert "masses" not in got.__dict__
                assert got == want
                assert exact_items(got) == exact_items(want)
                assert all(type(v) is float for v in got.masses.values())
