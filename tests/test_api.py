"""The package's public names: exactly these, and each one importable."""

import zfuse

PUBLIC = [
    "TrapezoidalFuzzyNumber",
    "membership",
    "centroid",
    "spread",
    "WeightVector",
    "orness",
    "dispersion",
    "mem_weights",
    "DEFAULT_ALPHA",
    "ZNumber",
    "LinguisticTerm",
    "LEXICON",
    "linguistic_term",
    "ReferenceBounds",
    "ZScore",
    "ranking_score",
    "rank_fuzzy",
    "score_znumber",
    "similarity",
    "rank_znumbers",
    "Frame",
    "MassFunction",
    "CombinationOutcome",
    "TotalConflictError",
    "bpa_from_similarities",
    "dempster_combine",
    "combine_all",
    "AssessmentMatrix",
    "DecisionReport",
    "decide",
    "source_bpas",
    "strip_reliability",
    "__version__",
]


def test_all_lists_exactly_the_public_names():
    assert zfuse.__all__ == PUBLIC


def test_every_listed_name_resolves():
    # a stale string in __all__ imports fine and only fails here
    for name in zfuse.__all__:
        assert getattr(zfuse, name) is not None
