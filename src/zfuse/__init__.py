"""Z-number decision fusion.

Trapezoidal fuzzy numbers are condensed to scalar ranking scores, Z-number
assessments to similarities against the ideal, similarities to basic
probability assignments, and those are fused with Dempster's rule.
"""

from .fuzzy import TrapezoidalFuzzyNumber, centroid, membership, spread
from .owa import DEFAULT_ALPHA, WeightVector, dispersion, mem_weights, orness
from .zmodel import (
    LEXICON,
    LinguisticTerm,
    ReferenceBounds,
    ZNumber,
    ZScore,
    linguistic_term,
    rank_fuzzy,
    rank_znumbers,
    ranking_score,
    score_znumber,
    similarity,
)
from .evidence import (
    CombinationOutcome,
    Frame,
    MassFunction,
    TotalConflictError,
    bpa_from_similarities,
    combine_all,
    dempster_combine,
)
from .pipeline import AssessmentMatrix, DecisionReport, decide, source_bpas, strip_reliability

__version__ = "0.1.0"

__all__ = [
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
