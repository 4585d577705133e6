"""Decision pipeline: assessment grids through fusion to a ranking."""

import contextlib
import copy
import io
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zfuse import cli, evidence, pipeline
from zfuse.evidence import Frame, TotalConflictError, bpa_from_similarities
from zfuse.fuzzy import TrapezoidalFuzzyNumber
from zfuse.pipeline import AssessmentMatrix, decide, source_bpas, strip_reliability
from zfuse.zmodel import LEXICON, ReferenceBounds, ZNumber, best_first, linguistic_term, score_znumber, similarity

from oracles import exact_fold

DISEASES = ("Common-cold", "Meningitis", "Measles")
EXPERTS = ("E1", "E2", "E3")
TERMS = [t.name for t in LEXICON]


def z(a, b):
    return ZNumber(linguistic_term(a).shape, linguistic_term(b).shape)


def zn(a, b):
    return ZNumber(TrapezoidalFuzzyNumber(*a), TrapezoidalFuzzyNumber(*b))


def medical_matrix():
    return AssessmentMatrix(
        frame=Frame(DISEASES),
        sources=EXPERTS,
        cells=(
            (z("Very-high", "Very-high"), z("Low", "Very-high"), z("Absolutely-low", "Very-high")),
            (z("Fairly-high", "High"), z("Low", "High"), z("Low", "Very-high")),
            (z("Low", "Very-high"), z("Low", "High"), z("High", "Very-high")),
        ),
    )


def risk_matrix():
    return AssessmentMatrix(
        frame=Frame(("M1", "M2", "M3")),
        sources=("C1", "C2", "C3"),
        cells=(
            (
                zn((0.12, 0.24, 0.24, 0.36), (0.24, 0.36, 0.36, 0.48)),
                zn((0.72, 0.84, 0.84, 0.96), (0.72, 0.84, 0.84, 0.96)),
                zn((0.84, 1.0, 1.0, 1.0), (0.24, 0.36, 0.36, 0.48)),
            ),
            (
                zn((0.48, 0.6, 0.6, 0.72), (0.36, 0.48, 0.48, 0.6)),
                zn((0.26, 0.36, 0.36, 0.48), (0.48, 0.6, 0.6, 0.72)),
                zn((0.0, 0.0, 0.0, 0.12), (0.6, 0.72, 0.72, 0.84)),
            ),
            (
                zn((0.0, 0.12, 0.12, 0.24), (0.48, 0.6, 0.6, 0.72)),
                zn((0.36, 0.48, 0.48, 0.6), (0.36, 0.48, 0.48, 0.6)),
                zn((0.6, 0.72, 0.72, 0.84), (0.0, 0.12, 0.12, 0.24)),
            ),
        ),
    )


def singleton_row(bpa):
    values = list(bpa.singleton_masses().values())
    return values + [bpa.theta_mass()]


class TestAssessmentMatrix:
    def test_rejects_ragged_grid(self):
        with pytest.raises(ValueError, match="expected 3"):
            AssessmentMatrix(
                frame=Frame(DISEASES),
                sources=("E1",),
                cells=((z("Low", "High"), z("Low", "High")),),
            )

    def test_needs_a_row_per_source(self):
        with pytest.raises(ValueError, match="^got 2 rows for 3 sources$"):
            AssessmentMatrix(frame=Frame(DISEASES), sources=EXPERTS, cells=medical_matrix().cells[:2])

    def test_needs_at_least_two_hypotheses(self):
        with pytest.raises(ValueError, match="two hypotheses"):
            AssessmentMatrix(
                frame=Frame(("only",)),
                sources=("E1",),
                cells=((z("Low", "High"),),),
            )

    def test_needs_a_source(self):
        with pytest.raises(ValueError, match="one source"):
            AssessmentMatrix(frame=Frame(DISEASES), sources=(), cells=())

    def test_cell_lookup(self):
        m = medical_matrix()
        assert m.cells[m.sources.index("E2")][m.frame.index("Measles")] == z("Low", "Very-high")

    def test_transpose_round_trips(self):
        m = medical_matrix()
        t = m.transposed()
        assert t.sources == DISEASES
        assert t.frame.hypotheses == EXPERTS
        i, j = EXPERTS.index("E3"), DISEASES.index("Measles")
        assert t.cells[j][i] == m.cells[i][j]
        assert t.transposed() == m


class TestDecideMedical:
    def test_per_expert_bpas(self):
        report = decide(medical_matrix())
        expected = (
            (0.6789, 0.1836, 0.1147, 0.0238),
            (0.4746, 0.1674, 0.1718, 0.1862),
            (0.1717, 0.1675, 0.5596, 0.1012),
        )
        for bpa, row in zip(report.per_source_bpas, expected):
            for got, want in zip(singleton_row(bpa), row):
                assert got == pytest.approx(want, abs=2e-3)

    def test_fused_masses_and_decision(self):
        report = decide(medical_matrix())
        fused = report.fused.singleton_masses()
        assert fused["Common-cold"] == pytest.approx(0.7085, abs=2e-3)
        assert fused["Meningitis"] == pytest.approx(0.1076, abs=2e-3)
        assert fused["Measles"] == pytest.approx(0.1814, abs=2e-3)
        assert report.fused.theta_mass() == pytest.approx(0.0025, abs=2e-3)
        assert report.decision == "Common-cold"
        assert report.ranking == ("Common-cold", "Measles", "Meningitis")
        assert len(report.conflict_trace) == 2

    def test_config_echo(self):
        report = decide(medical_matrix(), alpha=0.7)
        assert report.alpha == 0.7
        assert len(report.score_weights) == 3
        assert report.component_weights.weights == (0.7, 0.3)
        assert report.sources == EXPERTS

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    def test_echoes_the_weights_scoring_used(self, alpha):
        report = decide(medical_matrix(), alpha)
        refs = ReferenceBounds.from_alpha(alpha)
        assert report.score_weights == refs.score_weights
        assert report.component_weights == refs.component_weights

    def test_source_order_does_not_matter(self):
        m = medical_matrix()
        base = decide(m).fused
        shuffled = AssessmentMatrix(
            frame=m.frame,
            sources=(m.sources[2], m.sources[0], m.sources[1]),
            cells=(m.cells[2], m.cells[0], m.cells[1]),
        )
        other = decide(shuffled).fused
        for mask, value in base.masses.items():
            assert other.masses[mask] == pytest.approx(value, abs=1e-12)

    def test_hypothesis_relabeling_permutes_masses(self):
        m = medical_matrix()
        base = decide(m)
        order = (2, 0, 1)
        relabeled = AssessmentMatrix(
            frame=Frame(tuple(DISEASES[i] for i in order)),
            sources=m.sources,
            cells=tuple(tuple(row[i] for i in order) for row in m.cells),
        )
        other = decide(relabeled)
        before, after = base.fused.singleton_masses(), other.fused.singleton_masses()
        for disease in DISEASES:
            assert after[disease] == pytest.approx(before[disease], abs=1e-12)
        assert other.decision == base.decision

    def test_single_source_skips_fusion(self):
        m = medical_matrix()
        solo = AssessmentMatrix(frame=m.frame, sources=("E1",), cells=(m.cells[0],))
        report = decide(solo)
        assert report.fused == report.per_source_bpas[0]
        assert report.conflict_trace == ()

    def test_dominant_cell_takes_everything(self):
        best = ZNumber(
            TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0),
            TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0),
        )
        worst = ZNumber(
            TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0),
            TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0),
        )
        solo = AssessmentMatrix(
            frame=Frame(DISEASES), sources=("E1",), cells=((worst, best, worst),)
        )
        report = decide(solo)
        assert report.decision == "Meningitis"
        assert report.fused.singleton_masses()["Meningitis"] == 1.0
        assert report.fused.theta_mass() == 0.0

    def test_all_zero_source_changes_nothing(self):
        m = medical_matrix()
        nothing = ZNumber(
            TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0),
            TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0),
        )
        padded = AssessmentMatrix(
            frame=m.frame,
            sources=m.sources + ("E4",),
            cells=m.cells + ((nothing, nothing, nothing),),
        )
        assert padded.cells[3][0] is nothing
        base = decide(m).fused
        extended = decide(padded).fused
        for mask, value in base.masses.items():
            assert extended.masses[mask] == pytest.approx(value, abs=1e-12)

    def test_alpha_knob_changes_the_numbers(self):
        neutral = decide(medical_matrix(), alpha=0.5)
        tilted = decide(medical_matrix(), alpha=0.9)
        assert neutral.fused != tilted.fused
        assert neutral.decision == "Common-cold"


class TestDecideRisk:
    def test_per_component_bpas(self):
        report = decide(risk_matrix())
        expected = (
            (0.1326, 0.4336, 0.3355, 0.0983),
            (0.3413, 0.2571, 0.1062, 0.2954),
            (0.1260, 0.2758, 0.2682, 0.3300),
        )
        for bpa, row in zip(report.per_source_bpas, expected):
            for got, want in zip(singleton_row(bpa), row):
                assert got == pytest.approx(want, abs=2e-3)

    def test_fused_ranking(self):
        report = decide(risk_matrix())
        fused = report.fused.singleton_masses()
        assert fused["M1"] == pytest.approx(0.1740, abs=2e-3)
        assert fused["M2"] == pytest.approx(0.5103, abs=2e-3)
        assert fused["M3"] == pytest.approx(0.2866, abs=2e-3)
        assert report.fused.theta_mass() == pytest.approx(0.0291, abs=2e-3)
        assert report.ranking == ("M2", "M3", "M1")


class TestStripReliability:
    def test_replaces_reliability_with_full_confidence(self):
        stripped = strip_reliability(medical_matrix())
        one = TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0)
        for row, original in zip(stripped.cells, medical_matrix().cells):
            for cell, before in zip(row, original):
                assert cell.B == one
                assert cell.A == before.A

    def test_idempotent(self):
        stripped = strip_reliability(medical_matrix())
        assert strip_reliability(stripped) == stripped

    def test_reliability_still_matters_after_stripping(self):
        base = decide(medical_matrix()).fused
        flat = decide(strip_reliability(medical_matrix())).fused
        assert base != flat

    def test_stripped_fused_regression(self):
        fused = decide(strip_reliability(medical_matrix())).fused.singleton_masses()
        assert fused["Common-cold"] == pytest.approx(0.7181, abs=2e-3)
        assert fused["Meningitis"] == pytest.approx(0.1067, abs=2e-3)
        assert fused["Measles"] == pytest.approx(0.1732, abs=2e-3)


class TestTransposedAblation:
    """Reading the stripped grid per hypothesis across sources (rows and
    columns swapped) reproduces a published no-reliability table this
    project uses as a regression fixture."""

    def test_per_row_bpas(self):
        report = decide(strip_reliability(medical_matrix()).transposed())
        expected = (
            (0.4868, 0.3689, 0.1302, 0.0141),
            (0.1711, 0.1711, 0.1711, 0.4867),
            (0.1147, 0.1827, 0.5957, 0.1069),
        )
        for bpa, row in zip(report.per_source_bpas, expected):
            for got, want in zip(singleton_row(bpa), row):
                assert got == pytest.approx(want, abs=2e-3)

    def test_fused_row(self):
        report = decide(strip_reliability(medical_matrix()).transposed())
        values = singleton_row(report.fused)
        for got, want in zip(values, (0.3423, 0.3420, 0.3122, 0.0035)):
            assert got == pytest.approx(want, abs=2e-3)


class TestTotalConflictPropagation:
    def test_names_the_sources(self):
        sure = ZNumber(
            TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0),
            TrapezoidalFuzzyNumber(1.0, 1.0, 1.0, 1.0),
        )
        no = ZNumber(
            TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0),
            TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 0.0),
        )
        matrix = AssessmentMatrix(
            frame=Frame(("up", "down")),
            sources=("optimist", "pessimist"),
            cells=((sure, no), (no, sure)),
        )
        with pytest.raises(TotalConflictError, match="'pessimist'.*'optimist'") as err:
            decide(matrix)
        assert err.value.left == "optimist"
        assert err.value.right == "pessimist"


class TestSourceBpas:
    def test_matches_decide(self):
        m = medical_matrix()
        assert source_bpas(m) == decide(m).per_source_bpas

    def test_row_independence(self):
        m = medical_matrix()
        solo = AssessmentMatrix(frame=m.frame, sources=("E2",), cells=(m.cells[1],))
        assert source_bpas(solo)[0] == source_bpas(m)[1]


def unmemoised_bpas(matrix, alpha=0.7):
    """source_bpas without the term table: one similarity call per cell."""
    refs = ReferenceBounds.from_alpha(alpha)
    return tuple(
        bpa_from_similarities(matrix.frame, [similarity(z, refs) for z in row])
        for row in matrix.cells
    )


def counted_similarity(monkeypatch):
    calls = []

    def counting(z, *args):
        calls.append(z)
        return similarity(z, *args)

    monkeypatch.setattr(pipeline, "similarity", counting)
    return calls


def term_mark(shape):
    """The lexicon index a shape holds in its _term slot, or None."""
    return TrapezoidalFuzzyNumber._term.__get__(shape)


def table_calls(matrix):
    """similarity calls source_bpas makes: one per distinct pair of marked
    lexicon shapes (a term's own shape, or a copy of it), plus one per cell
    with any other shape."""
    pairs = set()
    other = 0
    for row in matrix.cells:
        for c in row:
            i, j = term_mark(c.A), term_mark(c.B)
            if i is not None and j is not None:
                pairs.add((i, j))
            else:
                other += 1
    return len(pairs) + other


def traced_bytes(code, *args):
    """What a fresh interpreter running code with args prints, as a float."""
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


def unit_shape(rng):
    return TrapezoidalFuzzyNumber(*sorted(rng.random() for _ in range(4)), rng.uniform(0.5, 1.0))


class TestShapeMemo:
    """source_bpas scores each pair of marked lexicon shapes once per call,
    and every other cell once."""

    def grid(self, rng, cell, sources=6, hypotheses=40):
        return AssessmentMatrix(
            frame=Frame(tuple(f"H{j}" for j in range(hypotheses))),
            sources=tuple(f"E{i}" for i in range(sources)),
            cells=tuple(tuple(cell(rng) for _ in range(hypotheses)) for _ in range(sources)),
        )

    def test_lexicon_grid_reuses_shape_objects(self, monkeypatch):
        m = self.grid(random.Random(5), lambda rng: z(rng.choice(TERMS), rng.choice(TERMS)))
        expected = unmemoised_bpas(m)
        calls = counted_similarity(monkeypatch)
        assert source_bpas(m) == expected
        distinct = {(id(c.A), id(c.B)) for row in m.cells for c in row}
        assert len(calls) == len(distinct) <= 81
        source_bpas(m)  # a fresh table per call
        assert len(calls) == 2 * len(distinct)

    def test_value_equal_numeric_shapes_are_scored_per_cell(self, monkeypatch):
        pool = [(sorted(random.Random(k).random() for _ in range(4)) + [0.8]) for k in range(3)]
        m = self.grid(random.Random(6), lambda rng: zn(rng.choice(pool), rng.choice(pool)))
        expected = unmemoised_bpas(m)
        calls = counted_similarity(monkeypatch)
        assert source_bpas(m) == expected
        assert len(calls) == 6 * 40

    def test_copies_of_term_shapes_are_scored_per_cell(self, monkeypatch):
        high = TrapezoidalFuzzyNumber(0.72, 0.78, 0.92, 0.97)
        assert high == linguistic_term("High").shape and high is not linguistic_term("High").shape
        terms = self.grid(random.Random(8), lambda rng: z("High", rng.choice(TERMS)))
        copies = AssessmentMatrix(
            frame=terms.frame,
            sources=terms.sources,
            cells=tuple(tuple(ZNumber(high, c.B) for c in row) for row in terms.cells),
        )
        calls = counted_similarity(monkeypatch)
        assert source_bpas(copies) == source_bpas(terms) == unmemoised_bpas(terms)
        assert len(calls) == 6 * 40 + table_calls(terms)
        assert table_calls(terms) <= 9

    def test_mixed_grid(self, monkeypatch):
        def shape(rng):
            return unit_shape(rng) if rng.random() < 0.4 else linguistic_term(rng.choice(TERMS)).shape

        m = self.grid(random.Random(9), lambda rng: ZNumber(shape(rng), shape(rng)))
        calls = counted_similarity(monkeypatch)
        assert source_bpas(m) == unmemoised_bpas(m)
        assert len(calls) == table_calls(m) < 6 * 40
        # a second call, at another alpha, fills a table of its own
        assert source_bpas(m, 0.3) == unmemoised_bpas(m, 0.3)
        assert len(calls) == 2 * table_calls(m)

    def test_stripped_term_grid_stays_on_the_table(self, monkeypatch):
        m = strip_reliability(self.grid(random.Random(10), lambda rng: z(rng.choice(TERMS), rng.choice(TERMS))))
        expected = unmemoised_bpas(m)
        calls = counted_similarity(monkeypatch)
        assert source_bpas(m) == expected
        assert len(calls) <= 9

    @pytest.mark.parametrize(
        "clone, fresh",
        [(copy.copy, False), (copy.deepcopy, True), (lambda m: pickle.loads(pickle.dumps(m)), True)],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copied_term_grid_stays_on_the_table(self, monkeypatch, clone, fresh):
        m = self.grid(random.Random(11), lambda rng: z(rng.choice(TERMS), rng.choice(TERMS)))
        expected = unmemoised_bpas(m)
        cloned = clone(m)
        lexicon = {id(t.shape) for t in LEXICON}
        assert fresh == all(id(c.A) not in lexicon and id(c.B) not in lexicon for row in cloned.cells for c in row)
        calls = counted_similarity(monkeypatch)
        assert source_bpas(cloned) == expected
        assert len(calls) == table_calls(cloned) <= 81

    def test_marker_is_not_a_field(self):
        for i, t in enumerate(LEXICON):
            fresh = TrapezoidalFuzzyNumber(t.shape.a, t.shape.b, t.shape.c, t.shape.d, t.shape.w)
            assert term_mark(t.shape) == t.shape._term == i
            assert fresh._term is None
            assert t.shape == fresh and fresh == t.shape
            assert hash(t.shape) == hash(fresh)
            assert repr(t.shape) == repr(fresh)

    def test_numeric_shapes_hold_no_marker(self):
        copy.deepcopy(LEXICON)  # copying marked shapes marks no other shape
        shape = unit_shape(random.Random(12))
        for s in (shape, copy.copy(shape), pickle.loads(pickle.dumps(shape))):
            assert term_mark(s) is None
            assert s._term is None

    def test_cells_hold_no_instance_dict(self):
        shape, term = unit_shape(random.Random(13)), LEXICON[3].shape
        cell = ZNumber(shape, term)
        for x in (shape, term, cell):
            assert not hasattr(x, "__dict__")
            with pytest.raises(TypeError):
                vars(x)
        # compared, hashed and printed field by field, as with a dict
        assert cell == ZNumber(copy.copy(shape), copy.deepcopy(term)) != ZNumber(term, shape)
        assert hash(shape) == hash((shape.a, shape.b, shape.c, shape.d, shape.w))
        assert hash(cell) == hash((shape, term))
        assert repr(term) == "TrapezoidalFuzzyNumber(a=0.17, b=0.22, c=0.36, d=0.42, w=1.0)"
        assert repr(cell) == f"ZNumber(A={shape!r}, B={term!r})"

    @pytest.mark.parametrize("clone", ["pickle.loads(pickle.dumps(shape))", "copy.copy(shape)", "copy.deepcopy(shape)"])
    def test_copying_a_term_shape_grows_no_later_shape(self, clone):
        # bytes per shape built after the clone, against a process that made none;
        # a marker added to the instances' shared keys costs 8 B or more each
        code = (
            "import copy, pickle, sys, tracemalloc\n"
            "from zfuse import LEXICON, TrapezoidalFuzzyNumber\n"
            "shape = LEXICON[3].shape\n"
            "if sys.argv[1] == 'clone':\n"
            f"    assert {clone}._term == 3\n"
            "tracemalloc.start()\n"
            "before = tracemalloc.get_traced_memory()[0]\n"
            "keep = [TrapezoidalFuzzyNumber(0.1, 0.2, 0.3, 0.4) for _ in range(10000)]\n"
            "print((tracemalloc.get_traced_memory()[0] - before) / len(keep))\n"
        )
        control, cloned = traced_bytes(code, "control"), traced_bytes(code, "clone")
        assert abs(cloned - control) < 4, (control, cloned)

    def test_a_numeric_cell_takes_at_most_224_bytes(self):
        # one ZNumber and two shapes of their own, the floats aside: 208 B on
        # CPython 3.10-3.13, against 313 B when each of the three kept a dict
        code = (
            "import tracemalloc\n"
            "from zfuse import TrapezoidalFuzzyNumber as F, ZNumber\n"
            "keep = [None] * 10000\n"
            "tracemalloc.start()\n"
            "before = tracemalloc.get_traced_memory()[0]\n"
            "for i in range(len(keep)):\n"
            "    keep[i] = ZNumber(F(0.1, 0.2, 0.3, 0.4, 0.9), F(0.5, 0.6, 0.7, 0.8))\n"
            "print((tracemalloc.get_traced_memory()[0] - before) / len(keep))\n"
        )
        assert traced_bytes(code) <= 224

    def test_clamped_far_off_shapes(self, monkeypatch):
        far = TrapezoidalFuzzyNumber(-1e200, -1e200, 1e200, 1e200)
        shapes = [far, TrapezoidalFuzzyNumber(-50.0, -50.0, -50.0, -50.0)] + [
            linguistic_term(t).shape for t in TERMS
        ]
        m = self.grid(
            random.Random(7),
            lambda rng: ZNumber(rng.choice(shapes), rng.choice(shapes)),
            hypotheses=30,
        )
        expected = unmemoised_bpas(m)
        calls = counted_similarity(monkeypatch)
        assert source_bpas(m) == expected
        assert any(score_znumber(c).clamped for c in calls)
        assert len(calls) == table_calls(m)


class TestNoMassesDict:
    """decide and the CLI's reports answer from frame-order vectors; on wide
    frames each masses dict costs O(H^2/61), as hash(1 << i) == 1 << (i % 61)."""

    def test_decide_and_reports_build_none(self, monkeypatch):
        rng = random.Random(200)
        m = AssessmentMatrix(
            frame=Frame(tuple(f"H{j}" for j in range(200))),
            sources=("E0", "E1", "E2"),
            cells=tuple(tuple(z(rng.choice(TERMS), rng.choice(TERMS)) for _ in range(200)) for _ in range(3)),
        )
        builds = []
        make = evidence._vector_masses
        monkeypatch.setattr(evidence, "_vector_masses", lambda *args: builds.append(args) or make(*args))
        report = decide(m)
        for mode in ("decide", "bpa"):
            build, table = cli._MODES[mode]
            payload = build(m, 0.7)
            json.dumps(payload)
            table(payload, ".4f")
        assert builds == []
        assert all("masses" not in bpa.__dict__ for bpa in (*report.per_source_bpas, report.fused))
        report.fused.masses  # the first read builds it
        assert len(builds) == 1


class TestThetaUnderflow:
    """combine_all's documented behaviour on a long fold: the fused frame mass
    reaches 0.0 at 2000 sources x 5 hypotheses, and the fold goes on over the
    singletons on the closed-form step."""

    def test_long_numeric_fold(self, monkeypatch):
        rng = random.Random(2000)

        def shape():
            return TrapezoidalFuzzyNumber(*sorted(rng.random() for _ in range(4)), rng.uniform(0.5, 1.0))

        m = AssessmentMatrix(
            frame=Frame(tuple(f"H{j}" for j in range(5))),
            sources=tuple(f"E{i}" for i in range(2000)),
            cells=tuple(tuple(ZNumber(shape(), shape()) for _ in range(5)) for _ in range(2000)),
        )

        def general(m1, m2):
            raise AssertionError("a step left the closed form")

        monkeypatch.setattr(evidence, "_combine_general", general)
        report = decide(m)
        assert m.frame.theta not in report.fused.masses
        assert report.fused.theta_mass() == 0.0
        assert len(report.conflict_trace) == 1999
        assert report.decision == report.ranking[0]
        assert sum(report.fused.singleton_masses().values()) == pytest.approx(1.0, abs=1e-12)


# as bench/workloads.py: a fold over the sources in another order may round
# differently, so fused masses agree to this, not bit for bit
REVERSED_TOL = 1e-9


def numeric_rows(rng, sources=40, hypotheses=12):
    return [[ZNumber(unit_shape(rng), unit_shape(rng)) for _ in range(hypotheses)] for _ in range(sources)]


def lexicon_rows(rng, sources=3, hypotheses=300):
    return [[ZNumber(rng.choice(LEXICON).shape, rng.choice(LEXICON).shape) for _ in range(hypotheses)] for _ in range(sources)]


def labelled(rows, hypotheses=None, sources=None):
    """rows as a matrix; hypotheses and sources default to H0.. and E0.."""
    return AssessmentMatrix(
        frame=Frame(hypotheses or tuple(f"H{j}" for j in range(len(rows[0])))),
        sources=sources or tuple(f"E{i}" for i in range(len(rows))),
        cells=rows,
    )


def bits(values):
    return [float(v).hex() for v in values]


def many_sources_rows(rng):
    """A numeric grid of the many_sources benchmark's size."""
    return numeric_rows(rng, 200, 20)


def wide_frame_rows(rng):
    """A lexicon-only grid of the wide_frame benchmark's size."""
    return lexicon_rows(rng, 3, 1500)


def seeded(*makers):
    return pytest.mark.parametrize(
        "make, seed", [(make, seed) for make in makers for seed in (1, 2, 3)], ids=lambda v: getattr(v, "__name__", v)
    )


class TestMetamorphic:
    """Exact properties of decide on seeded numeric 40 x 12 and lexicon-only
    3 x 300 grids, and on grids of the benchmark's sizes, which every fast
    path must keep together."""

    @seeded(numeric_rows, lexicon_rows, many_sources_rows, wide_frame_rows)
    def test_permuting_hypotheses_permutes_the_result_bit_for_bit(self, make, seed):
        rng = random.Random(seed)
        rows = make(rng)
        base = decide(labelled(rows))
        order = list(range(len(rows[0])))
        rng.shuffle(order)
        hypotheses = tuple(base.frame.hypotheses[j] for j in order)
        other = decide(labelled([[row[j] for j in order] for row in rows], hypotheses))
        masses, moved = base.fused.singleton_masses(), other.fused.singleton_masses()
        assert bits(moved.values()) == bits(masses[h] for h in hypotheses)
        assert bits([other.fused.theta_mass()]) == bits([base.fused.theta_mass()])
        assert bits(other.conflict_trace) == bits(base.conflict_trace)

    @seeded(numeric_rows, lexicon_rows, many_sources_rows, wide_frame_rows)
    def test_appending_an_absolutely_low_source_changes_nothing(self, make, seed):
        rows = make(random.Random(seed))
        nothing = linguistic_term("Absolutely-low").shape
        base = decide(labelled(rows))
        padded = decide(labelled(rows + [[ZNumber(nothing, nothing)] * len(rows[0])]))
        assert bits(padded.fused.singleton_masses().values()) == bits(base.fused.singleton_masses().values())
        assert bits([padded.fused.theta_mass()]) == bits([base.fused.theta_mass()])
        assert padded.ranking == base.ranking
        assert bits(padded.conflict_trace) == bits(base.conflict_trace + (0.0,))

    @seeded(numeric_rows, lexicon_rows)
    def test_permuting_sources_keeps_masses_and_decision(self, make, seed):
        rng = random.Random(seed)
        rows = make(rng)
        m = labelled(rows)
        base = decide(m)
        order = list(range(len(rows)))
        rng.shuffle(order)
        other = decide(labelled([rows[i] for i in order], m.frame.hypotheses, tuple(m.sources[i] for i in order)))
        after = other.fused.singleton_masses()
        for h, value in base.fused.singleton_masses().items():
            assert abs(after[h] - value) <= REVERSED_TOL, h
        assert abs(other.fused.theta_mass() - base.fused.theta_mass()) <= REVERSED_TOL
        assert other.decision == base.decision


class TestExactFold:
    """decide on 50 x 20 numeric grids at alpha 0.7, a quarter of the
    many_sources benchmark's sources, against the exact rational fold of
    the report's own per-source BPAs."""

    @pytest.mark.parametrize("seed", [7, 8])
    def test_fused_masses_and_decision_match_the_exact_fold(self, seed):
        report = decide(labelled(numeric_rows(random.Random(seed), 50, 20)), 0.7)
        want, _ = exact_fold(report.per_source_bpas)
        have = report.fused.masses
        assert set(have) == set(want)
        for mask, value in want.items():
            assert abs(Fraction(have[mask]) - value) <= value * Fraction(1, 10**13)
        singles = sorted((want.get(1 << j, 0), j) for j in range(len(report.frame)))
        (second, _), (top, best) = singles[-2:]
        if top - second > Fraction(1, 10**12):
            assert report.decision == report.frame.hypotheses[best]


class TestRankingLabels:
    """decide's ranking is a tuple of the frame's labels in best_first order
    of the fused singleton masses."""

    @staticmethod
    def check(report):
        expected = tuple(report.frame.hypotheses[i] for i in best_first(report.fused._singles()))
        assert type(report.ranking) is tuple
        assert report.ranking == expected
        assert report.decision == expected[0]
        return report.ranking

    def test_two_hypotheses(self):
        # the fewest a matrix holds: two indices to label
        rankings = set()
        for a, b in (("High", "Low"), ("Low", "High"), ("Medium", "Medium")):
            rows = [[z(a, "Very-high"), z(b, "Very-high")], [z(a, "High"), z(b, "Fairly-high")]]
            rankings.add(self.check(decide(labelled(rows, ("up", "down")))))
        assert rankings == {("up", "down"), ("down", "up")}

    @seeded(lexicon_rows, wide_frame_rows)
    def test_seeded_lexicon_grids(self, make, seed):
        ranking = self.check(decide(labelled(make(random.Random(seed)))))
        assert sorted(ranking) == sorted(f"H{j}" for j in range(len(ranking)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_json_and_csv_grids_print_the_same(tmp_path, seed):
    """A lexicon-only 3 x 300 grid, written as JSON and as CSV, prints the same
    through the CLI in both modes and both formats."""
    rng = random.Random(seed)
    names = [[(rng.choice(TERMS), rng.choice(TERMS)) for _ in range(300)] for _ in range(3)]
    frame = [f"H{j}" for j in range(300)]
    doc = {
        "frame": frame,
        "sources": [
            {"name": f"E{i}", "assessments": {h: {"A": a, "B": b} for h, (a, b) in zip(frame, row)}}
            for i, row in enumerate(names)
        ],
    }
    lines = [",".join(["source", *frame])]
    for i, row in enumerate(names):
        lines += [",".join([f"E{i}", *(a for a, _ in row)]), ",".join([f"E{i}", *(b for _, b in row)])]
    as_json, as_csv = tmp_path / "grid.json", tmp_path / "grid.csv"
    as_json.write_text(json.dumps(doc))
    as_csv.write_text("\n".join(lines) + "\n")

    def stdout(path, mode, fmt):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([mode, "--input", str(path), "--format", fmt])
        assert code == cli.EXIT_OK
        return out.getvalue()

    for mode in ("decide", "bpa"):
        for fmt in ("table", "json"):
            assert stdout(as_csv, mode, fmt) == stdout(as_json, mode, fmt), (mode, fmt)
