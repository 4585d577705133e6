"""End-to-end decision flow: a grid of Z-number assessments in, a ranking out.

Every source's row is scored against the ideal Z-number, turned into a BPA,
and the BPAs are fused with Dempster's rule.  Hypotheses are ranked by their
fused singleton mass.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import itemgetter

from ._frozen import Frozen, set_field
from .evidence import (
    Frame,
    MassFunction,
    TotalConflictError,
    bpa_from_similarities,
    combine_all,
)
from .owa import DEFAULT_ALPHA, WeightVector, mem_weights
from .zmodel import LEXICON, ReferenceBounds, ZNumber, best_first, similarity

_N_TERMS = len(LEXICON)
# the rows of source_bpas' term table, each copied into a list of its own
# per call: map(list, ...) builds the nine in C, about 0.5 us less than a
# list comprehension on CPython 3.11 and 0.3 us less on 3.12
_EMPTY_TABLE = ((None,) * _N_TERMS,) * _N_TERMS
# Absolutely-high: a stripped term grid stays on source_bpas' term table
_FULL_RELIABILITY = LEXICON[-1].shape


class AssessmentMatrix(Frozen):
    """A complete sources-by-hypotheses grid of Z-number assessments.

    Rows follow sources, columns follow frame.hypotheses.
    """

    def __init__(
        self, frame: Frame, sources: Iterable[str], cells: Iterable[Iterable[ZNumber]]
    ) -> None:
        sources = tuple(sources)
        cells = tuple(tuple(row) for row in cells)
        if len(frame) < 2:
            raise ValueError("a decision needs at least two hypotheses")
        if not sources:
            raise ValueError("a decision needs at least one source")
        seen: set[str] = set()
        for label in sources:
            if label in seen:
                raise ValueError(f"source names must be distinct, got {label!r} twice")
            seen.add(label)
        if len(cells) != len(sources):
            raise ValueError(f"got {len(cells)} rows for {len(sources)} sources")
        for label, row in zip(sources, cells):
            if len(row) != len(frame):
                raise ValueError(f"source {label!r} has {len(row)} cells, expected {len(frame)}")
        set_field(self, "frame", frame)
        set_field(self, "sources", sources)
        set_field(self, "cells", cells)

    def transposed(self) -> "AssessmentMatrix":
        """Swap the roles of sources and hypotheses."""
        flipped = tuple(
            tuple(self.cells[i][j] for i in range(len(self.sources)))
            for j in range(len(self.frame))
        )
        return AssessmentMatrix(
            frame=Frame(self.sources),
            sources=self.frame.hypotheses,
            cells=flipped,
        )


class DecisionReport(Frozen):
    """Everything the fusion produced, plus the configuration that shaped it."""

    def __init__(
        self,
        frame: Frame,
        sources: tuple[str, ...],
        per_source_bpas: tuple[MassFunction, ...],
        fused: MassFunction,
        conflict_trace: tuple[float, ...],
        ranking: tuple[str, ...],
        decision: str,
        alpha: float,
        score_weights: WeightVector,
        component_weights: WeightVector,
    ) -> None:
        set_field(self, "frame", frame)
        set_field(self, "sources", sources)
        set_field(self, "per_source_bpas", per_source_bpas)
        set_field(self, "fused", fused)
        set_field(self, "conflict_trace", conflict_trace)
        set_field(self, "ranking", ranking)
        set_field(self, "decision", decision)
        set_field(self, "alpha", alpha)
        set_field(self, "score_weights", score_weights)
        set_field(self, "component_weights", component_weights)


def source_bpas(matrix: AssessmentMatrix, alpha: float = DEFAULT_ALPHA) -> tuple[MassFunction, ...]:
    """One BPA per source: its row of similarities plus residual ignorance.

    A cell whose A and B are both lexicon shape objects (as every parser
    and linguistic_term give them) is scored once per term pair per call,
    so a grid written in terms costs at most 81 similarity calls however
    large it is.  Such a shape carries its term index as _term, which
    every other shape reads as None, so recognising a cell takes one or
    two attribute reads; copies and unpickled lexicon shapes keep the
    index and their values.  Every other cell is scored on its own,
    including shapes that are shared or value-equal to a term; the BPAs
    are the same either way.
    """
    refs = ReferenceBounds.from_alpha(alpha)
    # table[i][j] scores term i as A with term j as B
    table: list[list[float | None]] = list(map(list, _EMPTY_TABLE))
    bpas = []
    for row in matrix.cells:
        sims = []
        for z in row:
            i = z.A._term
            if i is not None:
                j = z.B._term
                if j is not None:
                    s = table[i][j]
                    if s is None:
                        s = table[i][j] = similarity(z, refs)
                    sims.append(s)
                    continue
            sims.append(similarity(z, refs))
        bpas.append(bpa_from_similarities(matrix.frame, sims))
    return tuple(bpas)


def decide(matrix: AssessmentMatrix, alpha: float = DEFAULT_ALPHA) -> DecisionReport:
    """Score, convert, and fuse an assessment matrix into a decision report.

    alpha is the single attitude knob: it fixes both the length-3 factor
    weights and the length-2 component weights.
    """
    score_weights = mem_weights(3, alpha)
    component_weights = mem_weights(2, alpha)

    bpas = source_bpas(matrix, alpha)
    try:
        outcome = combine_all(bpas)
    except TotalConflictError as err:
        left, right = matrix.sources[err.left], matrix.sources[err.right]
        raise TotalConflictError(
            f"assessments of {right!r} totally conflict with those of {left!r}"
            " (folded together with any earlier sources)",
            left=left,
            right=right,
        ) from err

    fused = outcome.combined
    # the singleton masses in frame order, without building their dict; a
    # matrix has at least two hypotheses, so itemgetter gets two or more
    # indices and returns a tuple
    ranking = itemgetter(*best_first(fused._singles()))(matrix.frame.hypotheses)
    return DecisionReport(
        frame=matrix.frame,
        sources=matrix.sources,
        per_source_bpas=bpas,
        fused=fused,
        conflict_trace=outcome.steps,
        ranking=ranking,
        decision=ranking[0],
        alpha=alpha,
        score_weights=score_weights,
        component_weights=component_weights,
    )


def strip_reliability(matrix: AssessmentMatrix) -> AssessmentMatrix:
    """Replace every reliability component with full confidence (1,1,1,1;1)."""
    rows = tuple(
        tuple(ZNumber(z.A, _FULL_RELIABILITY) for z in row) for row in matrix.cells
    )
    return AssessmentMatrix(frame=matrix.frame, sources=matrix.sources, cells=rows)
