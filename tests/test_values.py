"""The public value types: equality, hashing, repr, immutability, copy and pickle.

Every type compares, hashes and prints field by field, in the layout of a
frozen dataclass; the repr strings below are pinned to that layout.
"""

import base64
import copy
import pickle

import pytest

import zfuse
from zfuse import (
    LEXICON,
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
    decide,
    linguistic_term,
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
    "ReferenceBounds": (lambda: ReferenceBounds(0.75), (0.75,), "ReferenceBounds(alpha=0.75)"),
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
    "ReferenceBounds": lambda: ReferenceBounds(0.5),
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
    pickles = [pickle.loads(pickle.dumps(x, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(x), copy.deepcopy(x), *pickles):
        assert type(twin) is type(x)
        assert twin == x and x == twin
        assert repr(twin) == expected
        with pytest.raises(AttributeError):
            setattr(twin, type(x).__match_args__[0], None)


# the types that hold a shape, whose __slots__ copyreg will not pickle
# below protocol 2
NO_LOW_PROTOCOLS = {"TrapezoidalFuzzyNumber", "ZNumber", "LinguisticTerm", "AssessmentMatrix"}


@each_type
@pytest.mark.parametrize("protocol", [0, 1])
def test_pickle_protocols_0_and_1(name, protocol):
    make, _, expected = CASES[name]
    x = make()
    if name in NO_LOW_PROTOCOLS:
        with pytest.raises(TypeError, match="defines __slots__ without defining __getstate__"):
            pickle.dumps(x, protocol)
    else:
        twin = pickle.loads(pickle.dumps(x, protocol))
        assert twin == x and repr(twin) == expected


def medical_matrix():
    """The paper's medical grid, as tests/test_acceptance.py builds it."""

    def z(a, b):
        return ZNumber(linguistic_term(a).shape, linguistic_term(b).shape)

    return AssessmentMatrix(
        frame=Frame(("Common-cold", "Meningitis", "Measles")),
        sources=("E1", "E2", "E3"),
        cells=(
            (z("Very-high", "Very-high"), z("Low", "Very-high"), z("Absolutely-low", "Very-high")),
            (z("Fairly-high", "High"), z("Low", "High"), z("Low", "Very-high")),
            (z("Low", "Very-high"), z("Low", "High"), z("High", "Very-high")),
        ),
    )


# a numeric shape, a marked lexicon shape, a Z-number of both, and a grid
PICKLED = {
    "numeric": lambda: F(0.1, 0.2, 0.3, 0.4, 0.9),
    "term": lambda: LEXICON[3].shape,
    "znumber": lambda: ZNumber(F(0.1, 0.2, 0.3, 0.4, 0.9), LEXICON[3].shape),
    "medical": medical_matrix,
}
# (name, protocol): the base64 of what PICKLED[name]() pickled to when shapes
# and Z-numbers still kept an instance dict
OLD_PICKLES = {
    ("numeric", 2): (
        "gAJjemZ1c2UuZnV6enkKVHJhcGV6b2lkYWxGdXp6eU51bWJlcgpxACmBcQF9cQIoWAEAAABhcQNHP7mZmZmZmZpYAQAAAGJx"
        "BEc/yZmZmZmZmlgBAAAAY3EFRz/TMzMzMzMzWAEAAABkcQZHP9mZmZmZmZpYAQAAAHdxB0c/7MzMzMzMzXViLg=="
    ),
    ("numeric", 5): (
        "gAWVcwAAAAAAAACMC3pmdXNlLmZ1enp5lIwWVHJhcGV6b2lkYWxGdXp6eU51bWJlcpSTlCmBlH2UKIwBYZRHP7mZmZmZmZqM"
        "AWKURz/JmZmZmZmajAFjlEc/0zMzMzMzM4wBZJRHP9mZmZmZmZqMAXeURz/szMzMzMzNdWIu"
    ),
    ("term", 2): (
        "gAJjemZ1c2UuZnV6enkKVHJhcGV6b2lkYWxGdXp6eU51bWJlcgpxACmBcQF9cQIoWAEAAABhcQNHP8XCj1wo9cNYAQAAAGJx"
        "BEc/zCj1wo9cKVgBAAAAY3EFRz/XCj1wo9cKWAEAAABkcQZHP9rhR64UeuFYAQAAAHdxB0c/8AAAAAAAAFgFAAAAX3Rlcm1x"
        "CEsDdWIu"
    ),
    ("term", 5): (
        "gAWVfQAAAAAAAACMC3pmdXNlLmZ1enp5lIwWVHJhcGV6b2lkYWxGdXp6eU51bWJlcpSTlCmBlH2UKIwBYZRHP8XCj1wo9cOM"
        "AWKURz/MKPXCj1wpjAFjlEc/1wo9cKPXCowBZJRHP9rhR64UeuGMAXeURz/wAAAAAAAAjAVfdGVybZRLA3ViLg=="
    ),
    ("znumber", 2): (
        "gAJjemZ1c2Uuem1vZGVsClpOdW1iZXIKcQApgXEBfXECKFgBAAAAQXEDY3pmdXNlLmZ1enp5ClRyYXBlem9pZGFsRnV6enlO"
        "dW1iZXIKcQQpgXEFfXEGKFgBAAAAYXEHRz+5mZmZmZmaWAEAAABicQhHP8mZmZmZmZpYAQAAAGNxCUc/0zMzMzMzM1gBAAAA"
        "ZHEKRz/ZmZmZmZmaWAEAAAB3cQtHP+zMzMzMzM11YlgBAAAAQnEMaAQpgXENfXEOKGgHRz/Fwo9cKPXDaAhHP8wo9cKPXClo"
        "CUc/1wo9cKPXCmgKRz/a4UeuFHrhaAtHP/AAAAAAAABYBQAAAF90ZXJtcQ9LA3VidWIu"
    ),
    ("znumber", 5): (
        "gAWV6QAAAAAAAACMDHpmdXNlLnptb2RlbJSMB1pOdW1iZXKUk5QpgZR9lCiMAUGUjAt6ZnVzZS5mdXp6eZSMFlRyYXBlem9p"
        "ZGFsRnV6enlOdW1iZXKUk5QpgZR9lCiMAWGURz+5mZmZmZmajAFilEc/yZmZmZmZmowBY5RHP9MzMzMzMzOMAWSURz/ZmZmZ"
        "mZmajAF3lEc/7MzMzMzMzXVijAFClGgIKYGUfZQoaAtHP8XCj1wo9cNoDEc/zCj1wo9cKWgNRz/XCj1wo9cKaA5HP9rhR64U"
        "euFoD0c/8AAAAAAAAIwFX3Rlcm2USwN1YnViLg=="
    ),
    ("medical", 2): (
        "gAJjemZ1c2UucGlwZWxpbmUKQXNzZXNzbWVudE1hdHJpeApxACmBcQF9cQIoWAUAAABmcmFtZXEDY3pmdXNlLmV2aWRlbmNl"
        "CkZyYW1lCnEEKYFxBX1xBlgKAAAAaHlwb3RoZXNlc3EHWAsAAABDb21tb24tY29sZHEIWAoAAABNZW5pbmdpdGlzcQlYBwAA"
        "AE1lYXNsZXNxCodxC3NiWAcAAABzb3VyY2VzcQxYAgAAAEUxcQ1YAgAAAEUycQ5YAgAAAEUzcQ+HcRBYBQAAAGNlbGxzcRFj"
        "emZ1c2Uuem1vZGVsClpOdW1iZXIKcRIpgXETfXEUKFgBAAAAQXEVY3pmdXNlLmZ1enp5ClRyYXBlem9pZGFsRnV6enlOdW1i"
        "ZXIKcRYpgXEXfXEYKFgBAAAAYXEZRz/two9cKPXDWAEAAABicRpHP+9cKPXCj1xYAQAAAGNxG0c/8AAAAAAAAFgBAAAAZHEc"
        "Rz/wAAAAAAAAWAEAAAB3cR1HP/AAAAAAAABYBQAAAF90ZXJtcR5LB3ViWAEAAABCcR9oF3ViaBIpgXEgfXEhKGgVaBYpgXEi"
        "fXEjKGgZRz+keuFHrhR7aBpHP7mZmZmZmZpoG0c/xwo9cKPXCmgcRz/NcKPXCj1xaB1HP/AAAAAAAABoHksCdWJoH2gXdWJo"
        "EimBcSR9cSUoaBVoFimBcSZ9cScoaBlHAAAAAAAAAABoGkcAAAAAAAAAAGgbRwAAAAAAAAAAaBxHAAAAAAAAAABoHUc/8AAA"
        "AAAAAGgeSwB1YmgfaBd1YodxKGgSKYFxKX1xKihoFWgWKYFxK31xLChoGUc/4o9cKPXCj2gaRz/kKPXCj1wpaBtHP+mZmZmZ"
        "mZpoHEc/64UeuFHrhWgdRz/wAAAAAAAAaB5LBXViaB9oFimBcS19cS4oaBlHP+cKPXCj1wpoGkc/6PXCj1wo9mgbRz/tcKPX"
        "Cj1xaBxHP+8KPXCj1wpoHUc/8AAAAAAAAGgeSwZ1YnViaBIpgXEvfXEwKGgVaCJoH2gtdWJoEimBcTF9cTIoaBVoImgfaBd1"
        "YodxM2gSKYFxNH1xNShoFWgiaB9oF3ViaBIpgXE2fXE3KGgVaCJoH2gtdWJoEimBcTh9cTkoaBVoLWgfaBd1YodxOodxO3Vi"
        "Lg=="
    ),
    ("medical", 5): (
        "gAWV/QIAAAAAAACMDnpmdXNlLnBpcGVsaW5llIwQQXNzZXNzbWVudE1hdHJpeJSTlCmBlH2UKIwFZnJhbWWUjA56ZnVzZS5l"
        "dmlkZW5jZZSMBUZyYW1llJOUKYGUfZSMCmh5cG90aGVzZXOUjAtDb21tb24tY29sZJSMCk1lbmluZ2l0aXOUjAdNZWFzbGVz"
        "lIeUc2KMB3NvdXJjZXOUjAJFMZSMAkUylIwCRTOUh5SMBWNlbGxzlIwMemZ1c2Uuem1vZGVslIwHWk51bWJlcpSTlCmBlH2U"
        "KIwBQZSMC3pmdXNlLmZ1enp5lIwWVHJhcGV6b2lkYWxGdXp6eU51bWJlcpSTlCmBlH2UKIwBYZRHP+3Cj1wo9cOMAWKURz/v"
        "XCj1wo9cjAFjlEc/8AAAAAAAAIwBZJRHP/AAAAAAAACMAXeURz/wAAAAAAAAjAVfdGVybZRLB3VijAFClGgfdWJoGCmBlH2U"
        "KGgbaB4pgZR9lChoIUc/pHrhR64Ue2giRz+5mZmZmZmaaCNHP8cKPXCj1wpoJEc/zXCj1wo9cWglRz/wAAAAAAAAaCZLAnVi"
        "aCdoH3ViaBgpgZR9lChoG2geKYGUfZQoaCFHAAAAAAAAAABoIkcAAAAAAAAAAGgjRwAAAAAAAAAAaCRHAAAAAAAAAABoJUc/"
        "8AAAAAAAAGgmSwB1YmgnaB91YoeUaBgpgZR9lChoG2geKYGUfZQoaCFHP+KPXCj1wo9oIkc/5Cj1wo9cKWgjRz/pmZmZmZma"
        "aCRHP+uFHrhR64VoJUc/8AAAAAAAAGgmSwV1YmgnaB4pgZR9lChoIUc/5wo9cKPXCmgiRz/o9cKPXCj2aCNHP+1wo9cKPXFo"
        "JEc/7wo9cKPXCmglRz/wAAAAAAAAaCZLBnVidWJoGCmBlH2UKGgbaCpoJ2g1dWJoGCmBlH2UKGgbaCpoJ2gfdWKHlGgYKYGU"
        "fZQoaBtoKmgnaB91YmgYKYGUfZQoaBtoKmgnaDV1YmgYKYGUfZQoaBtoNWgnaB91YoeUh5R1Yi4="
    ),
}


def marks(x):
    """The _term of every shape in x, in field order."""
    if isinstance(x, F):
        return [x._term]
    if isinstance(x, ZNumber):
        return [x.A._term, x.B._term]
    return [mark for row in x.cells for cell in row for mark in marks(cell)]


@pytest.mark.parametrize("name, protocol", OLD_PICKLES)
def test_pickles_from_before_slots_still_load(name, protocol):
    expected = PICKLED[name]()
    loaded = pickle.loads(base64.b64decode("".join(OLD_PICKLES[name, protocol])))
    assert type(loaded) is type(expected)
    assert loaded == expected and repr(loaded) == repr(expected)
    assert marks(loaded) == marks(expected)
    if name == "term":
        assert loaded._term == 3
    if name == "medical":
        assert repr(decide(loaded)) == repr(decide(expected))


@pytest.mark.parametrize("name", PICKLED)
def test_copies_and_new_pickles_keep_the_term_mark(name):
    x = PICKLED[name]()
    pickles = [pickle.loads(pickle.dumps(x, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    twins = [copy.copy(x), copy.deepcopy(x), *pickles]
    for twin in twins:
        assert twin == x and marks(twin) == marks(x)
