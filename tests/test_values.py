"""The public value types: equality, hashing, repr, immutability, copy and pickle.

Every type compares, hashes and prints field by field, in the layout of a
frozen dataclass; the repr strings below are pinned to that layout.
"""

import copy
import pickle

import pytest

import zfuse
from zfuse import (
    AssessmentMatrix,
    CombinationOutcome,
    DecisionReport,
    Frame,
    LinguisticTerm,
    MassFunction,
    ReferenceBounds,
    TrapezoidalFuzzyNumber,
    WeightVector,
    ZNumber,
    ZScore,
)

F = TrapezoidalFuzzyNumber


def frame():
    return Frame(("a", "b"))


def mass():
    return MassFunction(frame(), {1: 0.5, 3: 0.5})


def znumber():
    return ZNumber(F(0.1, 0.2, 0.3, 0.4, 0.9), F(1.0, 1.0, 1.0, 1.0))


def weights():
    return WeightVector((0.75, 0.25), 0.75)


FRAME = "Frame(hypotheses=('a', 'b'))"
MASS = f"MassFunction(frame={FRAME}, masses={{1: 0.5, 3: 0.5}})"
FUZZY = "TrapezoidalFuzzyNumber(a=0.1, b=0.2, c=0.3, d=0.4, w=0.9)"
ONE = "TrapezoidalFuzzyNumber(a=1.0, b=1.0, c=1.0, d=1.0, w=1.0)"
Z = f"ZNumber(A={FUZZY}, B={ONE})"
WEIGHTS = "WeightVector(weights=(0.75, 0.25), alpha=0.75)"

# name: (a maker of equal instances, the field values in order, the repr)
CASES = {
    "TrapezoidalFuzzyNumber": (lambda: F(0.1, 0.2, 0.3, 0.4, 0.9), (0.1, 0.2, 0.3, 0.4, 0.9), FUZZY),
    "WeightVector": (weights, ((0.75, 0.25), 0.75), WEIGHTS),
    "ZNumber": (znumber, (F(0.1, 0.2, 0.3, 0.4, 0.9), F(1.0, 1.0, 1.0, 1.0)), Z),
    "LinguisticTerm": (
        lambda: LinguisticTerm("Low", F(0.04, 0.1, 0.18, 0.23)),
        ("Low", F(0.04, 0.1, 0.18, 0.23)),
        "LinguisticTerm(name='Low', shape=TrapezoidalFuzzyNumber(a=0.04, b=0.1, c=0.18, d=0.23, w=1.0))",
    ),
    "ReferenceBounds": (
        lambda: ReferenceBounds(1.0, 0.25, weights(), WeightVector((0.5, 0.5), 0.5)),
        (1.0, 0.25, weights(), WeightVector((0.5, 0.5), 0.5)),
        f"ReferenceBounds(hmax=1.0, hmin=0.25, score_weights={WEIGHTS}, "
        "component_weights=WeightVector(weights=(0.5, 0.5), alpha=0.5))",
    ),
    "ZScore": (
        lambda: ZScore(0.5, 0.25, 0.125, 0.875),
        (0.5, 0.25, 0.125, 0.875, False),
        "ZScore(hA=0.5, hB=0.25, deviation=0.125, similarity=0.875, clamped=False)",
    ),
    "Frame": (frame, (("a", "b"),), FRAME),
    "MassFunction": (mass, (frame(), {1: 0.5, 3: 0.5}), MASS),
    "CombinationOutcome": (
        lambda: CombinationOutcome(mass(), 0.25, (0.25,)),
        (mass(), 0.25, (0.25,)),
        f"CombinationOutcome(combined={MASS}, conflict=0.25, steps=(0.25,))",
    ),
    "AssessmentMatrix": (
        lambda: AssessmentMatrix(frame(), ("s",), ((znumber(), znumber()),)),
        (frame(), ("s",), ((znumber(), znumber()),)),
        f"AssessmentMatrix(frame={FRAME}, sources=('s',), cells=(({Z}, {Z}),))",
    ),
    "DecisionReport": (
        lambda: DecisionReport(
            frame=frame(),
            sources=("s",),
            per_source_bpas=(mass(),),
            fused=mass(),
            conflict_trace=(),
            ranking=("a", "b"),
            decision="a",
            alpha=0.75,
            score_weights=weights(),
            component_weights=weights(),
        ),
        (frame(), ("s",), (mass(),), mass(), (), ("a", "b"), "a", 0.75, weights(), weights()),
        f"DecisionReport(frame={FRAME}, sources=('s',), per_source_bpas=({MASS},), fused={MASS}, "
        f"conflict_trace=(), ranking=('a', 'b'), decision='a', alpha=0.75, score_weights={WEIGHTS}, "
        f"component_weights={WEIGHTS})",
    ),
}
# the types with a dict among their fields, directly or inside one
UNHASHABLE = {"MassFunction", "CombinationOutcome", "DecisionReport"}

# name: an instance of it that differs from CASES[name] in one field
DIFFERENT = {
    "TrapezoidalFuzzyNumber": lambda: F(0.0, 0.2, 0.3, 0.4, 0.9),
    "WeightVector": lambda: WeightVector((0.75, 0.25), 0.75000000001),
    "ZNumber": lambda: ZNumber(F(0.1, 0.2, 0.3, 0.4, 0.9), F(0.5, 1.0, 1.0, 1.0)),
    "LinguisticTerm": lambda: LinguisticTerm("low", F(0.04, 0.1, 0.18, 0.23)),
    "ReferenceBounds": lambda: ReferenceBounds(1.0, 0.5, weights(), WeightVector((0.5, 0.5), 0.5)),
    "ZScore": lambda: ZScore(0.5, 0.25, 0.125, 0.875, True),
    "Frame": lambda: Frame(("b", "a")),
    "MassFunction": lambda: MassFunction(frame(), {1: 0.25, 3: 0.75}),
    "CombinationOutcome": lambda: CombinationOutcome(mass(), 0.25, ()),
    "AssessmentMatrix": lambda: AssessmentMatrix(frame(), ("t",), ((znumber(), znumber()),)),
    "DecisionReport": lambda: DecisionReport(
        frame(), ("s",), (mass(),), mass(), (), ("a", "b"), "b", 0.75, weights(), weights()
    ),
}

each_type = pytest.mark.parametrize("name", CASES)


def test_cases_cover_every_public_type():
    public = {n for n in zfuse.__all__ if isinstance(getattr(zfuse, n), type)} - {"TotalConflictError"}
    assert set(CASES) == set(DIFFERENT) == public
    for name, (make, _, _) in CASES.items():
        assert type(make()) is getattr(zfuse, name)


@each_type
def test_fields_are_the_constructor_arguments(name):
    make, values, _ = CASES[name]
    x = make()
    fields = type(x).__match_args__
    assert len(fields) == len(values)
    assert tuple(getattr(x, field) for field in fields) == values
    assert type(x)(*values) == x
    assert type(x)(**dict(zip(fields, values))) == x


@each_type
def test_equality(name):
    make, values, _ = CASES[name]
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    # only an instance of the very same class compares equal
    assert x != values and not x == values
    assert values != x
    assert x != object()
    different = DIFFERENT[name]()
    assert x != different and not x == different


@each_type
def test_hash(name):
    make, _, _ = CASES[name]
    x, y = make(), make()
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="dict"):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert {x: 1}[y] == 1


@each_type
def test_repr(name):
    make, _, expected = CASES[name]
    assert repr(make()) == expected


@each_type
def test_fields_cannot_be_set_or_deleted(name):
    make, _, _ = CASES[name]
    x = make()
    for field in type(x).__match_args__:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == make()


@each_type
def test_copy_and_pickle_round_trips(name):
    make, _, expected = CASES[name]
    x = make()
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x)
        assert twin == x and x == twin
        assert repr(twin) == expected
        with pytest.raises(AttributeError):
            setattr(twin, type(x).__match_args__[0], None)
