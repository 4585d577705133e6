"""Command-line interface: modes, formats, input handling, exit codes."""

import contextlib
import csv
import dis
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfuse import cli, owa
from zfuse.cli import EXIT_CLOSED, EXIT_CONFLICT, EXIT_INVALID, EXIT_OK, EXIT_PARSE, InputError, main
from zfuse.evidence import Frame, MassFunction, combine_all
from zfuse.fuzzy import TrapezoidalFuzzyNumber
from zfuse.pipeline import AssessmentMatrix
from zfuse.zmodel import LEXICON, ReferenceBounds, ZNumber, linguistic_term, rank_znumbers

MEDICAL = str(files("zfuse") / "fixtures" / "medical.json")
MEDICAL_CSV = str(files("zfuse") / "fixtures" / "medical.csv")
RISK = str(files("zfuse") / "fixtures" / "risk.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grid(cell=None):
    """A one-source grid over hypotheses a and b; cell overrides S/a."""
    a = {"A": "Low", "B": "High"}
    a.update(cell or {})
    return {
        "frame": ["a", "b"],
        "sources": [{"name": "S", "assessments": {"a": a, "b": {"A": "Medium", "B": "High"}}}],
    }


def sources_doc(sources):
    """A grid file over hypotheses a and b whose "sources" entry is sources."""
    return json.dumps({"frame": ["a", "b"], "sources": sources})


def finite_json(text):
    def reject(constant):
        raise AssertionError(f"non-finite number {constant} in output")

    return json.loads(text, parse_constant=reject)


class TestDecideMode:
    def test_table_output(self, capsys):
        code, out, err = run(capsys, "decide", "--input", MEDICAL)
        assert code == EXIT_OK
        assert err == ""
        assert "decision: Common-cold" in out
        assert "ranking: Common-cold > Measles > Meningitis" in out
        assert "0.7089" in out and "0.0025" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "decide", "--input", MEDICAL, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["decision"] == "Common-cold"
        assert doc["frame"] == ["Common-cold", "Meningitis", "Measles"]
        fused = {tuple(item["focal"]): item["mass"] for item in doc["fused"]}
        assert fused[("Common-cold",)] == pytest.approx(0.7085, abs=2e-3)
        assert len(doc["conflict_trace"]) == 2
        assert doc["component_weights"] == [0.7, 0.3]

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "decide", "--input", MEDICAL, "--format", "json")
        _, second, _ = run(capsys, "decide", "--input", MEDICAL, "--format", "json")
        assert first == second

    def test_csv_and_json_inputs_agree(self, capsys):
        _, from_json, _ = run(capsys, "decide", "--input", MEDICAL)
        _, from_csv, _ = run(capsys, "decide", "--input", MEDICAL_CSV)
        assert from_json == from_csv

    def test_risk_fixture(self, capsys):
        code, out, _ = run(capsys, "decide", "--input", RISK)
        assert code == EXIT_OK
        assert "decision: M2" in out
        assert "ranking: M2 > M3 > M1" in out

    def test_precision_flag(self, capsys):
        _, out, _ = run(capsys, "decide", "--input", MEDICAL, "--format", "json")
        fused = {
            tuple(item["focal"]): item["mass"] for item in json.loads(out)["fused"]
        }
        _, table, _ = run(capsys, "decide", "--input", MEDICAL, "--precision", "6")
        assert f"{fused[('Common-cold',)]:.6f}" in table

    def test_vertices_far_outside_the_unit_interval(self, tmp_path, capsys):
        # one huge spread, one huge centroid
        doc = grid({"A": [-1e200, 0.0, 0.0, 1e200, 1.0]})
        far = grid({"A": [1e200, 1e200, 1e200, 1e200, 1.0]})["sources"][0]
        far["name"] = "T"
        doc["sources"].append(far)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "decide", "--input", str(path), "--format", "json")
        assert code == EXIT_OK, err
        doc = finite_json(out)
        assert math.fsum(item["mass"] for item in doc["fused"]) == pytest.approx(1.0, abs=1e-12)

    def test_fixture_run_is_fast(self, capsys):
        start = time.monotonic()
        run(capsys, "decide", "--input", MEDICAL)
        assert time.monotonic() - start < 1.0


class TestBpaMode:
    def test_stops_before_fusion(self, capsys):
        code, out, _ = run(capsys, "bpa", "--input", MEDICAL)
        assert code == EXIT_OK
        assert "E1" in out and "E3" in out
        assert "fused" not in out
        assert "decision" not in out

    def test_round_trip_matches_decide(self, capsys):
        """Feeding the emitted BPAs back through the combination rule must
        land on decide's fused masses."""
        _, bpa_out, _ = run(capsys, "bpa", "--input", MEDICAL, "--format", "json")
        _, decide_out, _ = run(capsys, "decide", "--input", MEDICAL, "--format", "json")
        bpa_doc = json.loads(bpa_out)
        decide_doc = json.loads(decide_out)
        frame = Frame(tuple(bpa_doc["frame"]))
        rebuilt = [
            MassFunction(frame, {frame.subset(item["focal"]): item["mass"] for item in entry["masses"]})
            for entry in bpa_doc["bpas"]
        ]
        fused = combine_all(rebuilt).combined
        expected = {tuple(item["focal"]): item["mass"] for item in decide_doc["fused"]}
        got = {labels: value for labels, value in fused.focal_items()}
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-9)


class TestRankModes:
    def test_rank_fuzzy(self, tmp_path, capsys):
        doc = ["Low", "Very-high", [0.32, 0.41, 0.58, 0.65, 1.0]]
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "rank-fuzzy", "--input", str(path))
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert [line.split()[1] for line in lines] == ["1", "2", "0"]

    def test_rank_fuzzy_json_scores(self, tmp_path, capsys):
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps(["Very-high", "Low"]))
        _, out, _ = run(capsys, "rank-fuzzy", "--input", str(path), "--format", "json")
        doc = json.loads(out)
        assert doc["ranking"][0]["index"] == 0
        assert doc["ranking"][0]["score"] == pytest.approx(0.9813, abs=1e-3)

    def test_rank_z(self, tmp_path, capsys):
        doc = {
            "items": [
                {"A": "Low", "B": "Very-high"},
                {"A": "Very-high", "B": "Very-high"},
            ]
        }
        path = tmp_path / "zs.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "rank-z", "--input", str(path), "--format", "json")
        assert code == EXIT_OK
        ranking = json.loads(out)["ranking"]
        assert ranking[0]["index"] == 1
        assert ranking[0]["similarity"] == pytest.approx(0.9662, abs=1e-3)
        assert ranking[1]["similarity"] == pytest.approx(0.2599, abs=1e-3)

    @pytest.mark.parametrize("alpha", ["0.3", "0.5", "0.7", "1"])
    def test_rank_z_scores_as_the_library_does(self, tmp_path, capsys, alpha):
        items = [{"A": a, "B": b} for a in ("Low", "Medium", "Very-high") for b in ("Low", "High")]
        path = tmp_path / "zs.json"
        path.write_text(json.dumps(items))
        _, out, _ = run(capsys, "rank-z", "--input", str(path), "--alpha", alpha, "--format", "json")
        got = [(entry["index"], entry["similarity"]) for entry in json.loads(out)["ranking"]]
        zs = [ZNumber(linguistic_term(i["A"]).shape, linguistic_term(i["B"]).shape) for i in items]
        assert got == rank_znumbers(zs, ReferenceBounds.from_alpha(float(alpha)))

    def test_alpha_in_file_is_honored(self, tmp_path, capsys):
        neutral = {"items": ["Very-high", "Low"], "alpha": 0.5}
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps(neutral))
        _, out, _ = run(capsys, "rank-fuzzy", "--input", str(path), "--format", "json")
        assert json.loads(out)["alpha"] == 0.5

    def test_cli_alpha_beats_file_alpha(self, tmp_path, capsys):
        doc = {"items": ["Very-high", "Low"], "alpha": 0.5}
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps(doc))
        _, out, _ = run(capsys, "rank-fuzzy", "--input", str(path), "--alpha", "0.7", "--format", "json")
        assert json.loads(out)["alpha"] == 0.7


class TestWeightsMode:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "weights", "--n", "3")
        assert code == EXIT_OK
        assert "0.5540  0.2921  0.1540" in out
        assert "orness: 0.7000" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "weights", "--n", "4", "--alpha", "0.6", "--format", "json")
        doc = json.loads(out)
        assert doc["n"] == 4
        assert doc["orness"] == pytest.approx(0.6, abs=1e-9)
        assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-12)

    # one-hot vectors carry no entropy; dispersion must print as +0, not -0
    ONE_HOT = [
        ("1", "1", 1.0, [1.0, 0.0, 0.0], "1.0000  0.0000  0.0000", 1.0, "1.0000"),
        ("0", "0", 0.0, [0.0, 0.0, 1.0], "0.0000  0.0000  1.0000", 0.0, "0.0000"),
        ("1e-320", "9.99989e-321", 1e-320, [0.0, 0.0, 1.0], "0.0000  0.0000  1.0000", 0.0, "0.0000"),
    ]

    @pytest.mark.parametrize("arg, shown, alpha, weights, weights_text, orness, orness_text", ONE_HOT)
    def test_one_hot_table(self, capsys, arg, shown, alpha, weights, weights_text, orness, orness_text):
        expected = (
            f"n: 3\nalpha: {shown}\nweights: {weights_text}\n"
            f"orness: {orness_text}\ndispersion: 0.0000\n"
        )
        assert run(capsys, "weights", "--n", "3", "--alpha", arg) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("arg, shown, alpha, weights, weights_text, orness, orness_text", ONE_HOT)
    def test_one_hot_json(self, capsys, arg, shown, alpha, weights, weights_text, orness, orness_text):
        payload = {"mode": "weights", "n": 3, "alpha": alpha, "weights": weights, "orness": orness, "dispersion": 0.0}
        expected = json.dumps(payload, indent=2) + "\n"
        assert run(capsys, "weights", "--n", "3", "--alpha", arg, "--format", "json") == (EXIT_OK, expected, "")


# Inputs and expected bytes for TestPinnedOutput.  The expected text was
# captured from the CLI before its renderers were merged; any change in what
# a mode prints, table or JSON, must show up here.
SHAPES = ["Low", "Very-high", [0.32, 0.41, 0.58, 0.65, 1.0], "Medium"]
ZS = {
    "items": [
        {"A": "Low", "B": "Very-high"},
        {"A": "Very-high", "B": "Very-high"},
        {"A": [1e200, 1e200, 1e200, 1e200, 1.0], "B": "High"},
        {"A": "Low", "B": "Very-high"},
    ]
}
GRID = {
    "frame": ["a", "b"],
    "alpha": 0.6,
    "sources": [
        {"name": "S", "assessments": {"a": {"A": "Low", "B": "High"}, "b": {"A": "Medium", "B": "High"}}},
        {"name": "T", "assessments": {
            "a": {"A": "High", "B": "Very-high"},
            "b": {"A": [0.1, 0.2, 0.3, 0.4, 0.8], "B": "Medium"},
        }},
    ],
}

MEDICAL_HEAD = """\
alpha: 0.7
score weights: 0.5540  0.2921  0.1540
component weights: 0.7000  0.3000

source  Common-cold  Meningitis  Measles   Theta
E1           0.6791      0.1826   0.1146  0.0237
E2           0.4746      0.1674   0.1717  0.1862
E3           0.1717      0.1674   0.5596  0.1013
"""

PINNED_TABLES = {
    "decide": MEDICAL_HEAD + """\
fused        0.7089      0.1075   0.1811  0.0025

conflict trace: 0.4219  0.6917
ranking: Common-cold > Measles > Meningitis
decision: Common-cold
""",
    "bpa": MEDICAL_HEAD,
    "rank-fuzzy": """\
alpha: 0.7

rank  index   score                                     shape
1         1  0.9813  (0.9300, 0.9800, 1.0000, 1.0000; 1.0000)
2         2  0.6969  (0.3200, 0.4100, 0.5800, 0.6500; 1.0000)
3         3  0.6969  (0.3200, 0.4100, 0.5800, 0.6500; 1.0000)
4         0  0.5101  (0.0400, 0.1000, 0.1800, 0.2300; 1.0000)
""",
    "rank-z": """\
alpha: 0.7

rank  index  similarity  deviation  clamped
1         1      0.9663     0.0337       no
2         0      0.2598     0.7402       no
3         3      0.2598     0.7402       no
4         2      0.0000     1.0000      yes
""",
    "weights": """\
n: 3
alpha: 0.7
weights: 0.5540  0.2921  0.1540
orness: 0.7000
dispersion: 0.9747
""",
}

GRID_BPAS = [
    {"source": "S", "masses": [
        {"focal": ["a"], "mass": 0.22269610550904786},
        {"focal": ["b"], "mass": 0.4119535678014447},
        {"focal": ["a", "b"], "mass": 0.36535032668950745},
    ]},
    {"source": "T", "masses": [
        {"focal": ["a"], "mass": 0.7137212833067372},
        {"focal": ["b"], "mass": 0.14564388209186888},
        {"focal": ["a", "b"], "mass": 0.14063483460139392},
    ]},
]

# Payloads as dict literals: key order matters, and the CLI must print each
# as json.dumps(payload, indent=2) followed by a newline.
PINNED_PAYLOADS = {
    "decide": {
        "mode": "decide",
        "alpha": 0.6,
        "frame": ["a", "b"],
        "sources": ["S", "T"],
        "score_weights": [0.4383714066067989, 0.3232571867864065, 0.23837140660679457],
        "component_weights": [0.6, 0.4],
        "bpas": GRID_BPAS,
        "conflict_trace": [0.3264543544071143],
        "fused": [
            {"focal": ["a"], "mass": 0.669620666614706},
            {"focal": ["b"], "mass": 0.2540949967531179},
            {"focal": ["a", "b"], "mass": 0.07628433663217615},
        ],
        "ranking": ["a", "b"],
        "decision": "a",
    },
    "bpa": {"mode": "bpa", "alpha": 0.6, "frame": ["a", "b"], "sources": ["S", "T"], "bpas": GRID_BPAS},
    "rank-fuzzy": {
        "mode": "rank-fuzzy",
        "alpha": 0.7,
        "ranking": [
            {"rank": 1, "index": 1, "score": 0.9813286881612737, "shape": [0.93, 0.98, 1.0, 1.0, 1.0]},
            {"rank": 2, "index": 2, "score": 0.69690264472152, "shape": [0.32, 0.41, 0.58, 0.65, 1.0]},
            {"rank": 3, "index": 3, "score": 0.69690264472152, "shape": [0.32, 0.41, 0.58, 0.65, 1.0]},
            {"rank": 4, "index": 0, "score": 0.5100516194554562, "shape": [0.04, 0.1, 0.18, 0.23, 1.0]},
        ],
    },
    "rank-z": {
        "mode": "rank-z",
        "alpha": 0.7,
        "ranking": [
            {"rank": 1, "index": 1, "similarity": 0.9662955847746543, "deviation": 0.033704415225345764,
             "hA": 0.9813286881612737, "hB": 0.9813286881612737, "clamped": False},
            {"rank": 2, "index": 0, "similarity": 0.2598045317522545, "deviation": 0.7401954682477455,
             "hA": 0.5100516194554562, "hB": 0.9813286881612737, "clamped": False},
            {"rank": 3, "index": 3, "similarity": 0.2598045317522545, "deviation": 0.7401954682477455,
             "hA": 0.5100516194554562, "hB": 0.9813286881612737, "clamped": False},
            {"rank": 4, "index": 2, "similarity": 0.0, "deviation": 1.0,
             "hA": 5.539722826784258e+199, "hB": 0.8992598094731518, "clamped": True},
        ],
    },
    "weights": {
        "mode": "weights",
        "n": 3,
        "alpha": 0.7,
        "weights": [0.5539722826784258, 0.2920554346431283, 0.15397228267844598],
        "orness": 0.69999999999999,
        "dispersion": 0.9747432399394441,
    },
}


class TestPinnedOutput:
    @pytest.fixture
    def inputs(self, tmp_path):
        paths = {}
        for name, doc in (("shapes", SHAPES), ("zs", ZS), ("grid", GRID)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        return {
            "table": {
                "decide": ["--input", MEDICAL],
                "bpa": ["--input", MEDICAL],
                "rank-fuzzy": ["--input", str(paths["shapes"])],
                "rank-z": ["--input", str(paths["zs"])],
                "weights": ["--n", "3"],
            },
            "json": {
                "decide": ["--input", str(paths["grid"])],
                "bpa": ["--input", str(paths["grid"])],
                "rank-fuzzy": ["--input", str(paths["shapes"])],
                "rank-z": ["--input", str(paths["zs"])],
                "weights": ["--n", "3"],
            },
        }

    @pytest.mark.parametrize("mode", list(PINNED_TABLES))
    def test_table(self, capsys, inputs, mode):
        assert run(capsys, mode, *inputs["table"][mode]) == (EXIT_OK, PINNED_TABLES[mode], "")

    @pytest.mark.parametrize("mode", list(PINNED_PAYLOADS))
    def test_json(self, capsys, inputs, mode):
        expected = json.dumps(PINNED_PAYLOADS[mode], indent=2) + "\n"
        assert run(capsys, mode, *inputs["json"][mode], "--format", "json") == (EXIT_OK, expected, "")


# labels a report quotes: non-ASCII, quotes, backslashes and control characters
ODD_LABELS = ["Fièvre", "流感", 'say "ah"', "back\\slash", "tab\there", "bell\x07", "emoji \U0001f912", "  sep"]


def seeded_grid(rng: random.Random) -> dict:
    """A 3-6 x 3-6 grid with half its cells lexicon terms and half numeric, as small CLI inputs are."""
    terms = [term.name for term in LEXICON]

    def shape():
        if rng.random() < 0.5:
            return rng.choice(terms)
        digits = rng.choice((2, 3, 17))
        return sorted(round(rng.random(), digits) for _ in range(4)) + [round(rng.uniform(0.3, 1.0), 3)]

    pool = ODD_LABELS + [f"H{k}" for k in range(6)]
    frame = rng.sample(pool, rng.randint(3, 6))
    sources = [f"E{k}" if rng.random() < 0.7 else f"{rng.choice(ODD_LABELS)} {k}" for k in range(rng.randint(3, 6))]
    return {
        "frame": frame,
        "sources": [{"name": s, "assessments": {h: {"A": shape(), "B": shape()} for h in frame}} for s in sources],
    }


def check_report_types(value):
    """Fail unless value holds only str keys, dict/list/tuple containers and
    str/float/int/bool/None leaves, each of exactly that type."""
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            assert type(key) is str, repr(key)
            check_report_types(item)
    elif kind is list or kind is tuple:
        for item in value:
            check_report_types(item)
    else:
        assert value is None or kind in (str, float, int, bool), repr(value)


class TestJsonWriter:
    """--format json is json.dumps(report, indent=2), written by cli._json_text."""

    ALPHAS = [0.3, 0.5, 0.7, 0.912, 1.0]

    @staticmethod
    def check(capsys, mode, data, alpha, *argv):
        report = cli._MODES[mode][0](data, alpha)
        check_report_types(report)
        expected = json.dumps(report, indent=2) + "\n"
        assert run(capsys, mode, *argv, "--alpha", repr(alpha), "--format", "json") == (EXIT_OK, expected, "")
        return report

    @pytest.mark.parametrize("mode", ["decide", "bpa"])
    def test_grid_modes(self, tmp_path, capsys, mode):
        rng = random.Random(3)
        for k in range(12):
            path = tmp_path / f"grid{k}.json"
            path.write_text(json.dumps(seeded_grid(rng)))
            matrix, _ = cli._load_matrix(str(path))
            for alpha in self.ALPHAS:
                self.check(capsys, mode, matrix, alpha, "--input", str(path))

    def test_rank_modes(self, tmp_path, capsys):
        rng = random.Random(3)
        cells = [cell for _ in range(3) for row in seeded_grid(rng)["sources"] for cell in row["assessments"].values()]
        # a far-off shape, which rank-z scores outside [0, 1] and clamps
        cells.append({"A": [-5, -5, -5, -5, 1], "B": "Low"})
        shapes = [cell["A"] for cell in cells]
        for mode, items in (("rank-fuzzy", shapes), ("rank-z", cells)):
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(items))
            for alpha in self.ALPHAS:
                report = self.check(capsys, mode, items, alpha, "--input", str(path))
        assert {entry["clamped"] for entry in report["ranking"]} == {True, False}

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_weights_mode(self, capsys, n):
        for alpha in self.ALPHAS + [0.0, 1e-320]:
            self.check(capsys, "weights", n, alpha, "--n", str(n))

    LEAVES = [
        float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e300, 0.1, 1e16, -2.5e-7,
        0, -7, 10**40, True, False, None,
        "", "plain", *ODD_LABELS, "\x00\x1f\x7f", "\ud800",
        {}, [], (), (1, 2.5), [[]], {"": {}},
    ]

    @pytest.mark.parametrize("leaf", LEAVES, ids=repr)
    def test_leaves(self, leaf):
        for doc in (leaf, [leaf], {"k": leaf}, {"a": [leaf, {"b": (leaf, leaf)}], "c": leaf}):
            assert cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_labels_as_keys(self):
        doc = {label: {label: [label]} for label in ODD_LABELS + ["\x00", "\ud800"]}
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_unserializable_raises_as_the_stdlib_does(self):
        doc = {"a": [object()]}
        with pytest.raises(TypeError) as stdlib:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError) as ours:
            cli._json_text(doc)
        assert str(ours.value) == str(stdlib.value)


def outcome(entry, argv):
    """(exit code, stdout, stderr) of entry(argv); a SystemExit gives ("exit", its code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


def main_on_fresh_parser(argv):
    """main with every argv, well formed or not, read by a parser of its own."""
    return cli.run(cli.build_parser().parse_args(cli._alpha_joined(argv)))


class TestSharedParser:
    """main builds an argparse parser only for an argv its own reader declines,
    one per such call; each call behaves as on a fresh parser."""

    @pytest.fixture
    def well_formed(self, tmp_path):
        paths = {}
        for name, doc in (("shapes", SHAPES), ("zs", ZS), ("grid", GRID)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        inputs = {
            "decide": [["--input", MEDICAL], ["--input", MEDICAL_CSV], ["--input", str(paths["grid"])]],
            "bpa": [["--input", RISK], ["--input", str(paths["grid"])]],
            "rank-fuzzy": [["--input", str(paths["shapes"])]],
            "rank-z": [["--input", str(paths["zs"])]],
            "weights": [["--n", "3"], ["--n", "7"]],
        }
        options = [[], ["--precision", "12"], ["--alpha", "0.3"], ["--alpha", "1", "--precision", "2"]]
        return [
            [mode, *given, "--format", fmt, *extra]
            for mode, given_list in inputs.items()
            for given in given_list
            for fmt in ("table", "json")
            for extra in options
        ]

    @pytest.fixture
    def argvs(self, well_formed):
        return well_formed + [
            ["decide"],  # argparse: --input is required
            ["weights", "--n", "3", "--alpha", "--format", "json"],
            ["no-such-mode"],
            ["--help"],
            ["rank-z", "--help"],
            ["weights", "--n", "3", "--alpha", "-1e-3"],
            ["decide", "--input", MEDICAL, "--alpha", "-inf", "--format", "json"],
            ["decide", "--input", "/no/such/file.json"],  # well formed: run exits 2
        ]

    @pytest.fixture
    def builds(self, monkeypatch):
        """A list that gains an entry for each parser build_parser builds during the test."""
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        return built

    def test_interleaved_calls_match_a_fresh_parser(self, argvs):
        rng = random.Random(9)
        calls = argvs + rng.sample(argvs, len(argvs))
        codes = set()
        for argv in calls:
            shared = outcome(main, argv)
            assert shared == outcome(main_on_fresh_parser, argv), argv
            codes.add(shared[0])
        # ok, usage errors, --help, and exit 2 and 3 from run
        assert {EXIT_OK, EXIT_PARSE, EXIT_INVALID, ("exit", 0), ("exit", 2)} <= codes

    def test_build_parser_returns_a_new_parser(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second

    def test_main_builds_at_most_one_parser(self, builds, argvs):
        # one for each argv the strict reader declines, however many came before it
        declined = 0
        for argv in argvs + argvs:
            before = len(builds)
            outcome(main, argv)
            expected = int(cli._read_argv(argv) is None)
            assert len(builds) - before == expected, argv
            declined += expected
        assert declined == 2 * 7

    def test_well_formed_argv_builds_no_parser(self, builds, well_formed):
        # each option also written --OPT=VALUE, and --input also as -i
        joined = [[mode, *map("=".join, zip(rest[::2], rest[1::2]))] for mode, *rest in well_formed]
        short = [["-i" if token == "--input" else token for token in argv] for argv in well_formed]
        for argv in well_formed + joined + short:
            assert outcome(main, argv)[0] == EXIT_OK, argv
        assert len(builds) == 0
        assert outcome(main, ["decide"])[0] == ("exit", EXIT_PARSE)  # --input is required
        assert len(builds) == 1


# Argv for TestArgvReader: a mode and its options spelled in full, in any
# order, each written OPT VALUE or --OPT=VALUE with a value its converter
# takes; then up to two tokens put in, or put in place of a token, from what
# only argparse reads: an abbreviation, -i=x, a repeat, an option of another
# mode, a negative or malformed number, an empty value, -h, -- and junk.
ARGV_VALUES = {
    "--input": ["g.json", "a=b", "decide", "7"],
    "--alpha": ["0.3", "1", "0", "nan", "NaN", "inf", "1e400", " 0.5 ", "+0.2"],
    "--format": ["table", "json"],
    "--precision": ["3", "12", "+2", " 4", "1_0"],
    "--n": ["2", "7", "\u0663"],  # an Arabic-Indic three, which int() reads
}
ARGV_VALUES["-i"] = ARGV_VALUES["--input"]
ARGV_JUNK = [
    *ARGV_VALUES, "--inp", "--i", "--alph", "--a", "--form", "--prec", "-h", "--help", "--", "-", "-x", "-i=x", "-ix",
    "-1", "-1e-3", "-inf", " -1", "", "JSON", "1.5", "0x10", "--alpha=-1", "--input=", "--n=", "junk", "weights",
]


@st.composite
def argv_lists(draw):
    mode = draw(st.sampled_from(list(cli._MODES)))
    required = "--n" if mode == "weights" else draw(st.sampled_from(["--input", "-i"]))
    optional = draw(st.lists(st.sampled_from(["--alpha", "--format", "--precision"]), unique=True))
    argv = [mode]
    for option in draw(st.permutations([required, *optional])):
        value = draw(st.sampled_from(ARGV_VALUES[option]))
        argv += [f"{option}={value}"] if option != "-i" and draw(st.booleans()) else [option, value]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        argv[at : at + draw(st.integers(0, 1))] = [draw(st.sampled_from(ARGV_JUNK) | st.text(max_size=3))]
    return argv


class TestArgvReader:
    """main's own argv reader accepts only what build_parser's parser reads the same way."""

    @settings(max_examples=400, deadline=None)
    @given(argv=argv_lists())
    def test_agrees_with_argparse_whenever_it_accepts(self, argv):
        read = cli._read_argv(argv)
        if read is None:
            return
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                parsed = cli.build_parser().parse_args(cli._alpha_joined(argv))
            except SystemExit:
                pytest.fail(f"read {argv} that argparse rejects: {err.getvalue()}")
        # by repr, so that NaN equals NaN
        assert {k: repr(v) for k, v in vars(read).items()} == {k: repr(v) for k, v in vars(parsed).items()}

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["decide", "--input", "g.json"], {"mode": "decide", "input": "g.json", "alpha": None, "fmt": "table", "precision": 4}),
            (["rank-z", "-i", "a=b", "--alpha=nan"], {"mode": "rank-z", "input": "a=b", "alpha": math.nan, "fmt": "table", "precision": 4}),
            (["weights", "--n=3", "--format", "json", "--precision", "+2"], {"mode": "weights", "alpha": None, "fmt": "json", "precision": 2, "n": 3}),
        ],
    )
    def test_reads_well_formed_argv(self, argv, fields):
        assert {k: repr(v) for k, v in vars(cli._read_argv(argv)).items()} == {k: repr(v) for k, v in fields.items()}

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["decide"],
            ["weights", "--alpha", "0.3"],
            ["decide", "--inp", "g.json"],
            ["decide", "-i=g.json"],
            ["decide", "--input", "g.json", "-i", "g.json"],
            ["decide", "--input", "g.json", "--alpha", "-1e-3"],
            ["decide", "--input", "g.json", "--alpha=-inf"],
            ["decide", "--input", ""],
            ["decide", "--input", "g.json", "--n", "3"],
            ["decide", "--input", "g.json", "--format", "JSON"],
            ["weights", "--n", "1.5"],
            ["decide", "--input", "g.json", "--"],
            ["decide", "-h"],
            ["--help"],
            ["decide", "--input", "g.json", "junk"],
        ],
    )
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_argv(argv) is None


class TestStartup:
    """What every zfuse process pays before it reads its input."""

    # heavy modules zfuse used to import; each one is a few ms of start-up
    SLOW_IMPORTS = ("dataclasses", "inspect", "decimal", "csv", "typing", "pathlib")
    # argparse, and what building its parser loads: shutil for the terminal
    # width, gettext and locale for its messages
    ARGPARSE_IMPORTS = ("argparse", "shutil", "locale", "gettext")

    def test_import_loads_no_slow_module(self):
        # -I -S: no site hooks, which import some of these themselves
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(cli.__file__).resolve().parents[1])!r})\n"
            "import zfuse, zfuse.cli\n"
            f"print(sorted(set({self.SLOW_IMPORTS!r}) & set(sys.modules)))\n"
            "import contextlib, io\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = zfuse.cli.main(['decide', '--input', {MEDICAL_CSV!r}])\n"
            "print(code, out.getvalue().splitlines()[-1])\n"
        )
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "0 decision: Common-cold"]

    def test_well_formed_argv_loads_no_argparse(self):
        # -I -S, as above; streams are swapped by hand, so that the check
        # itself imports nothing but io
        code = (
            "import io, sys\n"
            f"sys.path.insert(0, {str(Path(cli.__file__).resolve().parents[1])!r})\n"
            "import zfuse.cli\n"
            "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
            f"code = zfuse.cli.main(['decide', '--input', {MEDICAL!r}, '--format', 'json'])\n"
            "sys.stdout, out = stdout, sys.stdout.getvalue()\n"
            "print(code, out.rstrip().splitlines()[-2].strip())\n"
            f"print(sorted(set({self.ARGPARSE_IMPORTS!r}) & set(sys.modules)))\n"
            # then a usage error, on the parser main builds only now
            "stderr, sys.stderr = sys.stderr, io.StringIO()\n"
            "try:\n"
            "    zfuse.cli.main(['decide'])\n"
            "except SystemExit as exc:\n"
            "    sys.stderr, err = stderr, sys.stderr.getvalue()\n"
            "    print(exc.code, err.splitlines()[0])\n"
        )
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[:2] == ['0 "decision": "Common-cold"', "[]"]
        assert lines[2].startswith("2 usage: zfuse decide ")
        assert len(lines) == 3


# The oracle readers: cli._number, cli._parse_shape and cli._parse_cell as
# they were when every cell took the checked path with its location text
# built first, kept verbatim.  TestShapeScan and TestWholeFile compare the
# CLI's one reader with these.
def _number(value, where: str) -> float:
    """A JSON number as a float; where names the field in error messages."""
    # JSON true/false load as bool, a subclass of int
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{where}: number out of float range") from None


def _parse_shape(value, where: str) -> TrapezoidalFuzzyNumber:
    if isinstance(value, str):
        try:
            return linguistic_term(value).shape
        except ValueError as err:
            raise InputError(f"{where}: {err}") from None
    if isinstance(value, list):
        if len(value) != 5:
            raise InputError(f"{where}: a numeric shape needs exactly [a, b, c, d, w]")
        numbers = [_number(v, where) for v in value]
        try:
            return TrapezoidalFuzzyNumber(*numbers)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    raise InputError(f"{where}: expected a term name or [a, b, c, d, w], got {value!r}")


def _parse_cell(value, where: str) -> ZNumber:
    if not isinstance(value, dict) or set(value) != {"A", "B"}:
        raise InputError(f'{where}: a cell must be an object with exactly "A" and "B"')
    return ZNumber(
        A=_parse_shape(value["A"], f"{where}.A"),
        B=_parse_shape(value["B"], f"{where}.B"),
    )


def loop_shape(value, where):
    """_parse_shape on a 5-entry list, one _number call per entry: the oracle for its numeric path."""
    numbers = [_number(v, where) for v in value]
    try:
        return TrapezoidalFuzzyNumber(*numbers)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def cli_shape(value, where):
    """cli._parse_shape with where as its location text."""
    return cli._parse_shape(value, ("{}", where))


def parse_result(parse, value):
    """The shape's repr, which tells -0.0 from 0.0, or the error's type and message."""
    try:
        return repr(parse(value, "items[0]"))
    except (InputError, ValueError) as err:
        return type(err), str(err)


# entries that are not plain floats in [0, 1]: each must parse, or fail, as the loop does
ODD_ENTRIES = [
    True, False, None, "0.5", "", 10**400, -(10**400), 2**53 + 1, 0, 1, -1, 3,
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan,
]


def seeded_shapes(seed, count):
    """5-entry lists: sorted vertices and a height, with up to two entries swapped for odd ones."""
    rng = random.Random(seed)
    for _ in range(count):
        shape = sorted(rng.choice([rng.random(), rng.randint(0, 1), rng.uniform(-2, 2)]) for _ in range(4))
        shape.append(rng.choice([rng.random(), 1, 1.0, rng.uniform(-0.5, 1.5)]))
        for _ in range(rng.choice([0, 0, 1, 2])):
            shape[rng.randrange(5)] = rng.choice(ODD_ENTRIES)
        yield shape


class TestShapeScan:
    """A numeric shape parses, or fails, exactly as the per-entry loop does: a regression
    guard for the fast case of the CLI's one reader."""

    def test_matches_the_per_entry_loop(self):
        kinds = set()
        for shape in seeded_shapes(3, 3000):
            # through JSON, as the CLI reads it
            shape = json.loads(json.dumps(shape))
            expected = parse_result(loop_shape, shape)
            assert parse_result(cli_shape, shape) == expected, shape
            kinds.add("shape" if isinstance(expected, str) else expected[0])
        # valid shapes, entry errors (exit 2) and invariant errors (exit 3)
        assert kinds == {"shape", InputError, ValueError}

    def test_names_read_as_the_shared_lexicon_shapes(self):
        for term in LEXICON:
            assert cli_shape(term.name, "items[0]") is term.shape
        # any other spelling is normalized to the same shared shape, or named as unknown
        for name in ("very_high", " VERY-HIGH ", "very high"):
            assert cli_shape(name, "items[0]") is linguistic_term("Very-high").shape
        for name in ("Sorta-high", ""):
            assert parse_result(cli_shape, name) == parse_result(_parse_shape, name)

    def test_cli_exit_code_and_stderr_match_the_loop(self, tmp_path, capsys):
        path = tmp_path / "shapes.json"
        for shape in seeded_shapes(4, 300):
            path.write_text(json.dumps([shape]))
            expected = parse_result(loop_shape, json.loads(json.dumps(shape)))
            code, out, err = run(capsys, "rank-fuzzy", "--input", str(path))
            if isinstance(expected, str):
                assert (code, err) == (EXIT_OK, ""), shape
            else:
                kind, message = expected
                assert code == (EXIT_PARSE if kind is InputError else EXIT_INVALID), shape
                assert (out, err) == ("", f"zfuse: {message}\n"), shape


def respelled(value, integral: bool):
    """value with each number written as an int where it is integral, or with
    every number written as a float; a bool stays as it is."""
    kind = type(value)
    if kind is dict:
        return {key: respelled(item, integral) for key, item in value.items()}
    if kind is list:
        return [respelled(item, integral) for item in value]
    if integral and kind is float and value.is_integer():
        return int(value)
    if not integral and kind is int:
        return float(value)
    return value


def integral_grid(rng: random.Random) -> dict:
    """A 3-6 x 3-6 numeric grid whose shapes often hold 0, 1 and a height of 1."""

    def shape():
        vertices = sorted(rng.choice((0.0, 1.0, round(rng.random(), 3))) for _ in range(4))
        return vertices + [rng.choice((1.0, 1.0, round(rng.uniform(0.3, 1.0), 3)))]

    frame = [f"H{j}" for j in range(rng.randint(3, 6))]
    sources = [f"E{k}" for k in range(rng.randint(3, 6))]
    return {
        "frame": frame,
        "sources": [{"name": s, "assessments": {h: {"A": shape(), "B": shape()} for h in frame}} for s in sources],
    }


class TestNumericFastCase:
    """The reader's fast case, a list of five floats, builds the shape the
    checked path would; a list with an int in it takes the checked path."""

    def test_one_constructor_call_site(self):
        # every numeric shape, fast case or checked, is built by one call;
        # the reader keeps no table of number types beside _number's checks
        names = [i.argval for i in dis.get_instructions(cli._parse_shape) if i.opname == "LOAD_GLOBAL"]
        assert names.count("TrapezoidalFuzzyNumber") == 1, "cli._parse_shape builds a shape at more than one call"
        assert "_NUMBER_TYPES" not in names, "cli._parse_shape scans the entries' types again"

    def test_a_cell_takes_no_generic_store_or_star_call(self):
        # a shape and a Z-number store each field through its slot's member
        # descriptor, not object.__setattr__; the reader passes the five
        # entries by position, not through a *args call
        for init in (TrapezoidalFuzzyNumber.__init__, ZNumber.__init__):
            names = {i.argval for i in dis.get_instructions(init) if i.opname == "LOAD_GLOBAL"}
            found = sorted(names & {"set_field", "object", "setattr"})
            assert not found, f"{init.__qualname__} loads {found}; see README, Complexity, for its slot stores"
        ops = {i.opname for i in dis.get_instructions(cli._parse_shape)}
        assert "CALL_FUNCTION_EX" not in ops, "cli._parse_shape makes a star-call"

    @pytest.mark.parametrize(
        "value",
        [[0.1, 0.2, 0.3, 0.4, 0.9], [0.1, 0.2, 0.3, 0.4, 1], [0, 0, 1, 1, 1]],
        ids=["floats", "int-height", "ints"],
    )
    def test_a_numeric_shape_reads_unmarked(self, value):
        shape = cli._parse_shape(value, ("items[0]",))
        assert shape == TrapezoidalFuzzyNumber(*map(float, value))
        assert all(type(v) is float for v in (shape.a, shape.b, shape.c, shape.d, shape.w))
        assert shape._term is None

    def test_a_term_reads_as_its_marked_lexicon_shape(self):
        for index, term in enumerate(LEXICON):
            assert cli._parse_shape(term.name, ("items[0]",))._term == index

    @pytest.mark.parametrize("source", ["medical", "risk", "seeded"])
    def test_ints_and_floats_print_alike(self, tmp_path, capsys, source):
        if source == "seeded":
            doc = integral_grid(random.Random(37))
        else:
            doc = json.loads(Path(MEDICAL if source == "medical" else RISK).read_text(encoding="utf-8"))
        spellings = [json.dumps(respelled(doc, integral)) for integral in (True, False)]
        # the lexicon-only medical grid holds no integral number to respell
        assert (spellings[0] != spellings[1]) == (source != "medical")
        outputs = {}
        for k, text in enumerate(spellings):
            path = tmp_path / f"spelling{k}.json"
            path.write_text(text, encoding="utf-8")
            for mode in ("decide", "bpa"):
                for fmt in ("table", "json"):
                    code, out, err = run(capsys, mode, "--input", str(path), "--format", fmt)
                    assert (code, err) == (EXIT_OK, "")
                    outputs.setdefault((mode, fmt), set()).add(out)
        assert all(len(outs) == 1 for outs in outputs.values())


# The whole-file oracle: the two loaders as they were when every cell went
# through the oracle readers above, cli._label as it was when its location
# text was built first, and cli's alpha reader, UTF-8 error and JSON loader,
# so that a fault in one of those shows as a difference, not in both sides.
def _label(value: str, what: str) -> str:
    """value, unless it is empty or only whitespace; what names it in the error."""
    if not value.strip():
        raise InputError(f"{what} is blank")
    return value


def _file_alpha(doc: dict, name: str) -> float | None:
    alpha = doc.get("alpha")
    return None if alpha is None else _number(alpha, f'{name}: "alpha"')


def _not_utf8(name: str, err: UnicodeDecodeError) -> InputError:
    return InputError(f"{name}: not UTF-8 text: {err.reason}")


def checked_json(path: str):
    """cli._load_json, kept verbatim: the oracle's JSON reader."""
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as err:
            raise _not_utf8(name, err) from None
        except (ValueError, RecursionError) as err:
            raise InputError(f"{name}: invalid JSON: {err}") from None


def checked_matrix_doc(doc, name: str) -> tuple[AssessmentMatrix, float | None]:
    """cli._parse_matrix_doc as it was before its cells skipped the checked
    parse, kept verbatim: the oracle for TestWholeFile."""
    if not isinstance(doc, dict):
        raise InputError(f"{name}: expected a top-level object")
    frame_labels = doc.get("frame")
    if not isinstance(frame_labels, list) or not all(isinstance(h, str) for h in frame_labels):
        raise InputError(f'{name}: "frame" must be a list of hypothesis labels')
    for j, h in enumerate(frame_labels):
        _label(h, f'{name}: "frame"[{j}]')
    sources = doc.get("sources")
    if not isinstance(sources, list) or not sources:
        raise InputError(f'{name}: "sources" must be a non-empty list')
    alpha = _file_alpha(doc, name)

    frame = Frame(tuple(frame_labels))
    labels: list[str] = []
    rows: list[tuple[ZNumber, ...]] = []
    for k, entry in enumerate(sources):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise InputError(f'{name}: sources[{k}] needs a "name"')
        label = _label(entry["name"], f'{name}: sources[{k}] "name"')
        cells = entry.get("assessments")
        if not isinstance(cells, dict):
            raise InputError(f'{name}: source {label!r} needs an "assessments" object')
        extra = set(cells) - set(frame_labels)
        if extra:
            raise InputError(f"{name}: source {label!r} assesses unknown hypotheses {sorted(extra)}")
        row = []
        for h in frame_labels:
            if h not in cells:
                raise InputError(f"{name}: source {label!r} is missing an assessment for {h!r}")
            row.append(_parse_cell(cells[h], f"{label}/{h}"))
        labels.append(label)
        rows.append(tuple(row))
    matrix = AssessmentMatrix(frame=frame, sources=tuple(labels), cells=tuple(rows))
    return matrix, alpha


def checked_csv_matrix(path: str) -> AssessmentMatrix:
    """cli._load_csv_matrix as it was before its cells skipped the checked
    parse, kept verbatim: the oracle for TestWholeFile."""
    # imported here, so that JSON input and the other modes never load it
    import csv

    name = os.path.basename(path)
    # (first line, stripped cells) of each row that is not blank; errors name
    # the line a row starts on, counting blank lines
    rows: list[tuple[int, list[str]]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            line = 1
            for row in reader:
                cells = [cell.strip() for cell in row]
                if any(cells):
                    rows.append((line, cells))
                line = reader.line_num + 1
        except UnicodeDecodeError as err:
            raise _not_utf8(name, err) from None
        except csv.Error as err:  # a NUL byte, before Python 3.11
            raise InputError(f"{name}: {err}") from None
    if not rows:
        raise InputError(f"{name}: empty file")
    header = rows[0][1]
    if len(header) < 2:
        raise InputError(f"{name}: header must name a source column and the hypotheses")
    for j, h in enumerate(header[1:], start=2):
        _label(h, f"{name}: header column {j}")
    frame = Frame(tuple(header[1:]))
    data = rows[1:]
    if not data or len(data) % 2 != 0:
        raise InputError(f"{name}: expected two rows (A then B) per source")
    labels: list[str] = []
    grid: list[tuple[ZNumber, ...]] = []
    for (line_a, row_a), (line_b, row_b) in zip(data[::2], data[1::2]):
        _label(row_a[0], f"{name}: line {line_a}: the source name")
        for line, row in ((line_a, row_a), (line_b, row_b)):
            if len(row) != len(header):
                raise InputError(f"{name}: line {line}: expected {len(header)} columns")
        if row_a[0] != row_b[0]:
            raise InputError(
                f"{name}: line {line_b}: rows must pair up per source, "
                f"got {row_a[0]!r} then {row_b[0]!r}"
            )
        cells = tuple(
            ZNumber(
                A=_parse_shape(a, f"{name}: line {line_a} ({row_a[0]}/{h})"),
                B=_parse_shape(b, f"{name}: line {line_b} ({row_a[0]}/{h})"),
            )
            for h, a, b in zip(header[1:], row_a[1:], row_b[1:])
        )
        labels.append(row_a[0])
        grid.append(cells)
    return AssessmentMatrix(frame=frame, sources=tuple(labels), cells=tuple(grid))


def load_result(path):
    """cli._load_matrix's matrix and alpha, or its error's type and message."""
    try:
        return cli._load_matrix(path)
    except (InputError, ValueError) as err:
        return type(err), str(err)


def checked_result(path):
    """The same from the checked loaders."""
    try:
        if path.endswith(".csv"):
            return checked_csv_matrix(path), None
        return checked_matrix_doc(checked_json(path), os.path.basename(path))
    except (InputError, ValueError) as err:
        return type(err), str(err)


# one-cell mutations of a JSON grid; each replaces a part ("A" or "B") of a
# cell, or changes the cell or the row around it
JSON_MUTATIONS = [
    ("vertex", True), ("vertex", "0.5"), ("vertex", 10**400), ("vertex", math.nan), ("vertex", math.inf),
    ("vertex", -math.inf), ("vertex", -0.0), ("part", [0.5, 0.2, 0.6, 0.7, 1.0]), ("part", [0.1, 0.2, 0.3, 0.4, 0]),
    ("part", [0.1, 0.2, 0.3, 0.4]), ("part", [0.1, 0.2, 0.3, 0.4, 1.0, 1.0]), ("part", [0, 0, 1, 1, 1]),
    ("part", "Sorta-high"), ("part", "very_high"), ("part", " VERY-HIGH "), ("part", "Medium"), ("part", None),
    ("part", {"A": "Low"}), ("cell", "extra key"), ("cell", "only A"), ("cell", "list"),
    ("row", "missing"), ("row", "extra"), ("none", None),
]
CSV_MUTATIONS = ["very_high", " VERY-HIGH ", "very high", "Sorta-high", "true", "NaN", "1e400", "0.5", "", "Medium"]
# bytes that are not UTF-8, and whether they may go anywhere in a file or
# only at its end; the reason each gives is part of the message
NOT_UTF8 = [(b"\xff", True), (b"\xc3(", True), (b"\xed\xa0\x80", True), (b"\xe2\x82", False)]


def mutated_json(rng, kind, value):
    doc = seeded_grid(rng)
    source = rng.choice(doc["sources"])["assessments"]
    h = rng.choice(list(source))
    cell = source[h]
    part = rng.choice("AB")
    if kind == "vertex":
        cell[part] = sorted(round(rng.random(), 3) for _ in range(4)) + [1.0]
        cell[part][rng.randrange(5)] = value
    elif kind == "part":
        cell[part] = value
    elif kind == "cell":
        variants = {"extra key": {**cell, "C": "Low"}, "only A": {"A": cell["A"]}, "list": [cell["A"], cell["B"]]}
        source[h] = variants[value]
    elif kind == "row" and value == "missing":
        del source[h]
    elif kind == "row":
        source["not in the frame"] = cell
    if rng.random() < 0.3:
        doc["alpha"] = rng.choice([0.25, 0.7, 1, True, "0.5", 10**400])
    # json.dumps writes NaN and Infinity as the literals json.load reads back
    return json.dumps(doc)


def mutated_csv(rng, value):
    terms = [term.name for term in LEXICON]
    frame = [f"H{k}" for k in range(rng.randint(3, 6))]
    rows = [["source", *frame]]
    for k in range(rng.randint(3, 6)):
        name = f"E{k}" if rng.random() < 0.7 else f"{rng.choice(ODD_LABELS)} {k}"
        rows += [[name] + [rng.choice(terms) for _ in frame] for _ in range(2)]
    rows[rng.randrange(1, len(rows))][rng.randrange(1, len(frame) + 1)] = value
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def lexicon_parts(matrix, parts):
    """(shape, name) for each cell part written as a string, in matrix order."""
    pairs = []
    for row, row_parts in zip(matrix.cells, parts):
        for z, (a, b) in zip(row, row_parts):
            pairs += [(shape, name) for shape, name in ((z.A, a), (z.B, b)) if isinstance(name, str)]
    return pairs


class TestWholeFile:
    """cli._load_matrix reads every file as the checked loaders do: an equal
    matrix, or the same error with the same message."""

    @staticmethod
    def assert_same(path):
        got, want = load_result(path), checked_result(path)
        assert got == want, path
        # repr tells -0.0 from 0.0
        assert repr(got) == repr(want), path
        return got

    def test_seeded_json_grids_with_one_mutated_cell(self, tmp_path):
        rng = random.Random(17)
        outcomes = set()
        for i in range(400):
            kind, value = JSON_MUTATIONS[i % len(JSON_MUTATIONS)]
            path = tmp_path / f"grid{i}.json"
            text = mutated_json(rng, kind, value)
            path.write_text(text, encoding="utf-8")
            got = self.assert_same(str(path))
            if isinstance(got[0], AssessmentMatrix):
                outcomes.add("matrix")
                doc = json.loads(text)
                rows = [source["assessments"] for source in doc["sources"]]
                parts = [[(row[h]["A"], row[h]["B"]) for h in doc["frame"]] for row in rows]
                for shape, name in lexicon_parts(got[0], parts):
                    assert shape is linguistic_term(name).shape, (path, name)
            else:
                outcomes.add(got[0])
        assert outcomes == {"matrix", InputError, ValueError}

    def test_seeded_csv_grids_with_one_mutated_cell(self, tmp_path):
        rng = random.Random(18)
        outcomes = set()
        for i in range(200):
            path = tmp_path / f"grid{i}.csv"
            text = mutated_csv(rng, CSV_MUTATIONS[i % len(CSV_MUTATIONS)])
            path.write_text(text, encoding="utf-8")
            got = self.assert_same(str(path))
            if isinstance(got[0], AssessmentMatrix):
                outcomes.add("matrix")
                rows = [[cell.strip() for cell in row] for row in csv.reader(io.StringIO(text))][1:]
                parts = [list(zip(a[1:], b[1:])) for a, b in zip(rows[::2], rows[1::2])]
                for shape, name in lexicon_parts(got[0], parts):
                    assert shape is linguistic_term(name).shape, (path, name)
            else:
                outcomes.add(got[0])
        assert outcomes == {"matrix", InputError}

    def test_seeded_grids_that_do_not_decode(self, tmp_path):
        rng = random.Random(19)
        reasons = set()
        for i in range(72):
            if i % 3 == 2:
                text = json.dumps(seeded_grid(rng))
                path = tmp_path / f"cut{i}.json"
                path.write_text(text[: rng.randrange(len(text))], encoding="utf-8")
                got = self.assert_same(str(path))
                assert got[0] is InputError and got[1].startswith(f"cut{i}.json: invalid JSON: "), got
                continue
            if i % 3:
                name, data = f"grid{i}.csv", mutated_csv(rng, "Low").encode("utf-8")
            else:
                name, data = f"grid{i}.json", json.dumps(seeded_grid(rng)).encode("utf-8")
            bad, anywhere = NOT_UTF8[i // 3 % len(NOT_UTF8)]
            at = rng.randrange(len(data) + 1) if anywhere else len(data)
            path = tmp_path / name
            path.write_bytes(data[:at] + bad + data[at:])
            got = self.assert_same(str(path))
            assert got[0] is InputError and got[1].startswith(f"{name}: not UTF-8 text: "), got
            reasons.add(got[1].removeprefix(f"{name}: not UTF-8 text: "))
        assert reasons == {"invalid start byte", "invalid continuation byte", "unexpected end of data"}


# labels that would change, or fail, if an error message used them as a format string
FORMAT_LABELS = ["{}", "{0}", "%s", "back\\slash", "{x} {{", "}"]


class TestLocationText:
    """An error names a bad cell's source, hypothesis and file as they were written."""

    @pytest.mark.parametrize("label", FORMAT_LABELS)
    @pytest.mark.parametrize(
        "cell, code, message",
        [
            ({"A": "Hgh", "B": "High"}, EXIT_PARSE, ".A: unknown linguistic term 'Hgh'"),
            ({"A": "Low", "B": [0.1, 0.2, 0.3, 0.4, 0]}, EXIT_INVALID, ".B: height must satisfy 0 < w <= 1, got 0.0"),
            ({"A": "Low", "B": [0.1, True, 0.3, 0.4, 1]}, EXIT_PARSE, ".B: expected a number, got true"),
            ({"A": "Low"}, EXIT_PARSE, ': a cell must be an object with exactly "A" and "B"'),
        ],
        ids=["term", "height", "bool", "cell"],
    )
    def test_json_cell(self, tmp_path, capsys, label, cell, code, message):
        source, h = f"S{label}", f"{label}H"
        doc = {"frame": ["a", h], "sources": [{"name": source, "assessments": {"a": {"A": "Low", "B": "High"}, h: cell}}]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        got, out, err = run(capsys, "decide", "--input", str(path))
        assert (got, out) == (code, "")
        assert err.startswith(f"zfuse: {source}/{h}{message}"), err

    @pytest.mark.parametrize("label", FORMAT_LABELS)
    def test_csv_cell(self, tmp_path, capsys, label):
        name = f"g{label}.csv"
        path = tmp_path / name
        path.write_text(f"source,a,{label}H\nS{label},Low,High\nS{label},Low,Hgh\n", encoding="utf-8")
        got, out, err = run(capsys, "decide", "--input", str(path))
        assert (got, out) == (EXIT_PARSE, "")
        assert err.startswith(f"zfuse: {name}: line 3 (S{label}/{label}H): unknown linguistic term 'Hgh'"), err

    @pytest.mark.parametrize("label", FORMAT_LABELS)
    @pytest.mark.parametrize(
        "mode, items, code, message",
        [
            ("rank-fuzzy", ["Low", [0.1, 0.2, 0.3, 0.4, 1.5]], EXIT_INVALID, "items[1]: height must satisfy 0 < w <= 1, got 1.5"),
            ("rank-fuzzy", ["Low", "Hgh"], EXIT_PARSE, "items[1]: unknown linguistic term 'Hgh'"),
            ("rank-z", [{"A": "Low", "B": "High"}, {"A": [0, 1], "B": "Low"}], EXIT_PARSE,
             "items[1].A: a numeric shape needs exactly [a, b, c, d, w]"),
            ("rank-z", [{"A": "Low", "B": "High", "C": "Low"}], EXIT_PARSE,
             'items[0]: a cell must be an object with exactly "A" and "B"'),
        ],
        ids=["fuzzy-height", "fuzzy-term", "z-length", "z-cell"],
    )
    def test_rank_item(self, tmp_path, capsys, label, mode, items, code, message):
        path = tmp_path / f"items{label}.json"
        path.write_text(json.dumps(items), encoding="utf-8")
        got, out, err = run(capsys, mode, "--input", str(path))
        assert (got, out) == (code, "")
        assert err.startswith(f"zfuse: {message}"), err


class TestInputPath:
    """--input is a plain string: its extension picks the loader and its basename names errors."""

    def test_upper_case_csv_extension_decides(self, tmp_path, capsys):
        path = tmp_path / "GRID.CSV"
        path.write_bytes(Path(MEDICAL_CSV).read_bytes())
        expected = run(capsys, "decide", "--input", MEDICAL_CSV)
        assert run(capsys, "decide", "--input", str(path)) == expected
        assert expected[1].endswith("decision: Common-cold\n")

    def test_a_file_named_csv_is_read_as_json(self, tmp_path, capsys):
        path = tmp_path / ".csv"
        path.write_bytes(Path(MEDICAL).read_bytes())
        assert run(capsys, "decide", "--input", str(path)) == run(capsys, "decide", "--input", MEDICAL)
        path.write_bytes(Path(MEDICAL_CSV).read_bytes())
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("zfuse: .csv: invalid JSON: ")

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("broken.json", "{not json", "broken.json: invalid JSON: "),
            ("doc.csv", "\n\n", "doc.csv: empty file\n"),
            ("bad.csv", b"source,a\n\xff\n", "bad.csv: not UTF-8 text: invalid start byte\n"),
            ("x.json", sources_doc([]), 'x.json: "sources" must be a non-empty list\n'),
            ("x.json", sources_doc({"S": {}}), 'x.json: "sources" must be a non-empty list\n'),
            ("x.json", sources_doc(["S"]), 'x.json: sources[0] needs a "name"\n'),
            ("x.json", sources_doc([{"name": 3, "assessments": {}}]), 'x.json: sources[0] needs a "name"\n'),
            ("x.json", sources_doc([{"name": "S"}]), 'x.json: source \'S\' needs an "assessments" object\n'),
            ("x.json", sources_doc([{"name": "S", "assessments": []}]),
             'x.json: source \'S\' needs an "assessments" object\n'),
        ],
        ids=[
            "json", "csv", "csv-not-utf8", "sources-empty", "sources-not-a-list", "source-not-an-object",
            "name-not-a-string", "no-assessments", "assessments-a-list",
        ],
    )
    def test_errors_name_only_the_basename(self, tmp_path, capsys, name, text, message):
        path = tmp_path / "sub" / name
        path.parent.mkdir()
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"zfuse: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("mode", ["decide", "rank-fuzzy"])
    @pytest.mark.parametrize("suffix", ["", "/"], ids=["empty", "trailing-slash"])
    def test_unopenable_paths_exit_2(self, tmp_path, capsys, mode, suffix):
        # an empty path names no file, and x.json/ asks for x.json as a directory
        path = tmp_path / "x.json"
        path.write_text(json.dumps(grid() if mode == "decide" else ["Low", "High"]))
        arg = str(path) + suffix if suffix else ""
        code, out, err = run(capsys, mode, "--input", arg)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("zfuse: cannot read input: ") and err.count("\n") == 1, err


# an integer over Python's default limit for converting digits to int (4300)
LONG_INT = "9" * 5000
needs_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_INT),
    reason="this Python converts 5000-digit integers",
)


class TestFailureModes:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "decide", "--input", "/no/such/file.json")
        assert code == EXIT_PARSE
        assert out == ""
        assert "cannot read input" in err

    def test_broken_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert "invalid JSON" in err

    def test_unknown_term(self, tmp_path, capsys):
        doc = {
            "frame": ["a", "b"],
            "sources": [
                {"name": "S", "assessments": {
                    "a": {"A": "Kinda-high", "B": "High"},
                    "b": {"A": "Low", "B": "High"},
                }}
            ],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert "S/a" in err and "Kinda-high" in err

    def test_missing_assessment(self, tmp_path, capsys):
        doc = {
            "frame": ["a", "b"],
            "sources": [{"name": "S", "assessments": {"a": {"A": "Low", "B": "High"}}}],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_PARSE
        assert "missing an assessment for 'b'" in err

    def test_csv_odd_row_count(self, tmp_path, capsys):
        path = tmp_path / "doc.csv"
        path.write_text("source,a,b\nS,Low,High\n")
        code, _, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_PARSE
        assert "two rows" in err

    def test_unsorted_vertices_are_semantic_errors(self, tmp_path, capsys):
        doc = {
            "frame": ["a", "b"],
            "sources": [
                {"name": "S", "assessments": {
                    "a": {"A": [0.5, 0.3, 0.7, 0.9, 1.0], "B": "High"},
                    "b": {"A": "Low", "B": "High"},
                }}
            ],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_INVALID
        assert out == ""
        assert "a <= b <= c <= d" in err

    def test_alpha_out_of_range(self, capsys):
        code, out, err = run(capsys, "decide", "--input", MEDICAL, "--alpha", "1.5")
        assert code == EXIT_INVALID
        assert out == ""
        assert "alpha" in err

    @pytest.mark.parametrize("mode, argv", [("decide", ["--input", MEDICAL]), ("weights", ["--n", "3"])])
    @pytest.mark.parametrize("value, shown", [("-1e-3", "-0.001"), ("-inf", "-inf")])
    def test_negative_alpha_is_named_in_either_form(self, capsys, mode, argv, value, shown):
        # argparse alone takes "-1e-3" after a space for an option, not a value
        expected = (EXIT_INVALID, "", f"zfuse: alpha must lie in [0, 1], got {shown}\n")
        assert run(capsys, mode, *argv, "--alpha", value) == expected
        assert run(capsys, mode, *argv, f"--alpha={value}") == expected
        for prefix in ("--alph", "--al", "--a"):  # abbreviations argparse accepts
            assert run(capsys, mode, *argv, prefix, value) == expected

    def test_alpha_followed_by_an_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "--input", MEDICAL, "--alpha", "--format", "json"])
        assert exc.value.code == EXIT_PARSE
        assert capsys.readouterr().err.endswith("error: argument --alpha: expected one argument\n")

    def test_precision_out_of_range(self, capsys):
        code, _, err = run(capsys, "decide", "--input", MEDICAL, "--precision", "0")
        assert code == EXIT_INVALID
        assert "precision" in err

    def test_weights_rejects_n_below_two(self, capsys):
        code, _, err = run(capsys, "weights", "--n", "1")
        assert code == EXIT_INVALID
        assert "at least two" in err

    @pytest.mark.parametrize("alpha", ["1", "0.7", "0.5", "0"])
    @pytest.mark.parametrize("n", ["100001", "100000000000000000000"])
    def test_weights_rejects_n_past_the_ceiling(self, capsys, monkeypatch, n, alpha):
        # rejected by an argument check: a solver step would fail the test
        monkeypatch.setattr(owa, "_root", None)
        monkeypatch.setattr(owa, "_geometric", None)
        assert run(capsys, "weights", "--n", n, "--alpha", alpha) == (
            EXIT_INVALID,
            "",
            f"zfuse: a weight vector has at most 100000 entries, got n = {n}\n",
        )

    def test_total_conflict_exit_code(self, tmp_path, capsys):
        sure = [1.0, 1.0, 1.0, 1.0, 1.0]
        no = [0.0, 0.0, 0.0, 0.0, 1.0]
        doc = {
            "frame": ["up", "down"],
            "sources": [
                {"name": "optimist", "assessments": {
                    "up": {"A": sure, "B": sure},
                    "down": {"A": no, "B": no},
                }},
                {"name": "pessimist", "assessments": {
                    "up": {"A": no, "B": no},
                    "down": {"A": sure, "B": sure},
                }},
            ],
        }
        path = tmp_path / "standoff.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_CONFLICT
        assert out == ""
        assert err == (
            "zfuse: assessments of 'pessimist' totally conflict with those of 'optimist'"
            " (folded together with any earlier sources)\n"
        )

    def test_near_total_conflict_decides(self, tmp_path, capsys):
        # b's A = (0, 0, 0, 1e-13; 1) scores a similarity of about 1.35e-14:
        # k is 1 - 2.7e-14, and the surviving mass is far above subnormal
        sure = {"A": "Absolutely-high", "B": "Absolutely-high"}
        faint = {"A": [0, 0, 0, 1e-13, 1], "B": "Absolutely-low"}
        none = {"A": "Absolutely-low", "B": "Absolutely-low"}
        doc = {
            "frame": ["a", "b", "c"],
            "sources": [
                {"name": "S1", "assessments": {"a": sure, "b": faint, "c": none}},
                {"name": "S2", "assessments": {"a": faint, "b": sure, "c": none}},
            ],
        }
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert out.endswith(
            "fused   0.5000  0.5000  0.0000  0.0000\n\n"
            "conflict trace: 1.0000\n"
            "ranking: a > b > c\n"
            "decision: a\n"
        )
        code, out, err = run(capsys, "decide", "--input", str(path), "--format", "json")
        report = finite_json(out)
        assert report["conflict_trace"] == [0.9999999999999729]
        assert report["fused"] == [{"focal": ["a"], "mass": 0.5}, {"focal": ["b"], "mass": 0.5}]
        assert report["decision"] == "a"

    @pytest.mark.parametrize("mode", ["rank-fuzzy", "rank-z"])
    @pytest.mark.parametrize("doc", [[], {"items": []}, {"items": [], "alpha": 2}], ids=["list", "items", "bad-alpha"])
    def test_nothing_to_rank_names_the_file(self, tmp_path, capsys, mode, doc):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, mode, "--input", str(path)) == (EXIT_PARSE, "", "zfuse: empty.json: nothing to rank\n")

    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN", "1e999"])
    def test_non_finite_vertex(self, tmp_path, capsys, bad):
        path = tmp_path / "doc.json"
        text = json.dumps(grid({"A": [0.0, 0.1, 0.2, "BAD", 1.0]}))
        path.write_text(text.replace('"BAD"', bad))
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_INVALID
        assert out == ""
        assert "must be finite, got d = " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "expected a number, got true"),
            (False, "expected a number, got false"),
            ("0.5", 'expected a number, got "0.5"'),
            (None, "expected a number, got null"),
            (10**400, "number out of float range"),
        ],
        ids=["true", "false", "string", "null", "huge-int"],
    )
    def test_shape_entries_must_be_numbers(self, tmp_path, capsys, bad, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(grid({"A": [bad, 0.0, 0.0, 1.0, 1.0]})))
        assert run(capsys, "decide", "--input", str(path)) == (EXIT_PARSE, "", f"zfuse: S/a.A: {message}\n")

    @pytest.mark.parametrize("mode", ["decide", "rank-fuzzy"])
    def test_boolean_alpha(self, tmp_path, capsys, mode):
        doc = grid() if mode == "decide" else {"items": ["Low", "High"]}
        doc["alpha"] = True
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, mode, "--input", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert '"alpha": expected a number, got true' in err

    @pytest.mark.parametrize(
        "mode, doc, message",
        [
            ("rank-fuzzy", ["Low", [0.3, 0.2, 0.4, 0.5, 1]],
             "items[1]: vertices must satisfy a <= b <= c <= d, got (0.3, 0.2, 0.4, 0.5)"),
            ("rank-fuzzy", {"items": ["Low", [0.1, 0.2, 0.4, 0.5, 1.5]]},
             "items[1]: height must satisfy 0 < w <= 1, got 1.5"),
            ("rank-z", {"items": [{"A": "Low", "B": [0.1, 0.2, 0.3, 0.4, 0]}]},
             "items[0].B: height must satisfy 0 < w <= 1, got 0.0"),
            ("decide", grid({"A": [0.5, 0.3, 0.7, 0.9, 1.0]}),
             "S/a.A: vertices must satisfy a <= b <= c <= d, got (0.5, 0.3, 0.7, 0.9)"),
            ("bpa", grid({"B": [0.1, 0.2, 0.3, 0.4, -1]}),
             "S/a.B: height must satisfy 0 < w <= 1, got -1.0"),
        ],
        ids=["items-unsorted", "items-height", "rank-z-height", "grid-unsorted", "grid-height"],
    )
    def test_shape_invariant_errors_name_the_cell(self, tmp_path, capsys, mode, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, mode, "--input", str(path)) == (EXIT_INVALID, "", f"zfuse: {message}\n")

    @pytest.mark.parametrize(
        "name, text",
        [
            ("doc.json", json.dumps({"frame": ["H1", "H2", "H1"], "sources": grid()["sources"]})),
            ("doc.csv", "source,H1,H2,H1\nE1,Low,High,Low\nE1,Low,High,Low\n"),
        ],
        ids=["json", "csv"],
    )
    def test_duplicate_hypothesis_labels(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        expected = (EXIT_INVALID, "", f"zfuse: {name}: hypothesis labels must be distinct, got 'H1' twice\n")
        assert run(capsys, "decide", "--input", str(path)) == expected

    def test_duplicate_source_names(self, tmp_path, capsys):
        doc = grid()
        doc["sources"].append(doc["sources"][0])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        expected = (EXIT_INVALID, "", "zfuse: doc.json: source names must be distinct, got 'S' twice\n")
        assert run(capsys, "decide", "--input", str(path)) == expected

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("doc.json", json.dumps({"frame": [], "sources": grid()["sources"]}),
             "a frame needs at least one hypothesis"),
            ("doc.json",
             json.dumps({"frame": ["a"], "sources": [{"name": "S", "assessments": {"a": {"A": "Low", "B": "High"}}}]}),
             "a decision needs at least two hypotheses"),
            ("doc.csv", "source,H1\nE1,Low\nE1,High\n", "a decision needs at least two hypotheses"),
            ("doc.csv", "source,H1,H2\n" + "E1,Low,High\n" * 4, "source names must be distinct, got 'E1' twice"),
        ],
        ids=["json-empty-frame", "json-one-hypothesis", "csv-one-hypothesis", "csv-duplicate-source"],
    )
    def test_grid_errors_name_the_file(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert run(capsys, "decide", "--input", str(path)) == (EXIT_INVALID, "", f"zfuse: {name}: {message}\n")

    @pytest.mark.parametrize("mode", ["decide", "rank-z"])
    def test_alpha_without_centroid_weight(self, tmp_path, capsys, mode):
        path = tmp_path / "zs.json"
        path.write_text(json.dumps(ZS))
        code, out, err = run(capsys, mode, "--input", MEDICAL if mode == "decide" else str(path), "--alpha", "0")
        assert code == EXIT_INVALID
        assert out == ""
        assert "score weights for alpha 0.0 put no weight on the centroid" in err
        assert "Traceback" not in err

    def test_unreadable_file_is_reported_before_alpha(self, capsys):
        code, _, err = run(capsys, "decide", "--input", "/no/such/file.json", "--alpha", "1.5")
        assert code == EXIT_PARSE
        assert "cannot read input" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("source,H1,\nE1,Low,High\nE1,Low,High\n", "doc.csv: header column 3 is blank"),
            ("source, ,H2\nE1,Low,High\nE1,Low,High\n", "doc.csv: header column 2 is blank"),
            ("source,H1,H2\n ,Low,High\n ,Low,High\n", "doc.csv: line 2: the source name is blank"),
        ],
        ids=["trailing-comma", "space", "source"],
    )
    def test_blank_csv_labels(self, tmp_path, capsys, text, where):
        path = tmp_path / "doc.csv"
        path.write_text(text)
        for mode in ("decide", "bpa"):
            code, out, err = run(capsys, mode, "--input", str(path))
            assert code == EXIT_PARSE
            assert out == ""
            assert err == f"zfuse: {where}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("source,H1,H2\n\n\nE1,Low,Hgh\nE1,Low,High\n", "line 4 (E1/H2): unknown linguistic term 'Hgh'"),
            ("source,H1,H2\n\nE1,Low,High\n\nE1,Hgh,High\n", "line 5 (E1/H1): unknown linguistic term 'Hgh'"),
            (
                'source,H1,H2\nE1,"Low\n",High\nE1,Low,High\nE2,Low,Hgh\nE2,Low,High\n',
                "line 5 (E2/H2): unknown linguistic term 'Hgh'",
            ),
            ('source,H1,H2\nE1,"Hgh\n",High\nE1,Low,High\n', "line 2 (E1/H1): unknown linguistic term 'Hgh'"),
            ("source,H1,H2\n\nE1,Low,High\nE1,Low\n", "line 4: expected 3 columns\n"),
            (
                "source,H1,H2\n\nE1,Low,High\n\nE2,Low,High\n",
                "line 5: rows must pair up per source, got 'E1' then 'E2'\n",
            ),
        ],
        ids=["blank-lines", "blank-between-pair", "quoted-newline", "in-quoted-row", "columns", "pairing"],
    )
    def test_csv_errors_name_the_line_and_cell(self, tmp_path, capsys, text, message):
        path = tmp_path / "doc.csv"
        path.write_text(text)
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"zfuse: doc.csv: {message}")

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda doc: doc["frame"].__setitem__(1, ""), 'doc.json: "frame"[1] is blank'),
            (lambda doc: doc["frame"].__setitem__(0, " \t"), 'doc.json: "frame"[0] is blank'),
            (lambda doc: doc["sources"][0].__setitem__("name", ""), 'doc.json: sources[0] "name" is blank'),
        ],
        ids=["empty-hypothesis", "whitespace-hypothesis", "empty-source"],
    )
    def test_blank_json_labels(self, tmp_path, capsys, edit, where):
        doc = grid()
        edit(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"zfuse: {where}\n"

    @pytest.mark.parametrize(
        "mode, name, data",
        [
            ("rank-z", "x.json", b"\xff"),
            ("rank-fuzzy", "x.json", b'["Low", "\xe9"]'),
            ("decide", "x.json", json.dumps(grid()).encode() + b"\xc3"),
            ("decide", "x.csv", b"source,a,b\nS,Low,H\xffigh\nS,Low,High\n"),
        ],
        ids=["rank-z", "rank-fuzzy", "json-tail", "csv"],
    )
    def test_non_utf8_input(self, tmp_path, capsys, mode, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, mode, "--input", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"zfuse: {name}: not UTF-8 text: ")

    @pytest.mark.parametrize("mode", ["decide", "bpa", "rank-fuzzy", "rank-z"])
    @pytest.mark.parametrize(
        "name, text",
        [
            ("deep.json", "[" * 100_000 + "]" * 100_000),
            pytest.param("long-alpha.json", '{"alpha": ' + LONG_INT + ', "items": []}', marks=needs_digit_limit),
            pytest.param("long-entry.json", "[[0, 0, 0, " + LONG_INT + ", 1]]", marks=needs_digit_limit),
        ],
        ids=["deep", "long-alpha", "long-entry"],
    )
    def test_json_the_decoder_rejects_names_the_file(self, tmp_path, capsys, mode, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, mode, "--input", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"zfuse: {name}: invalid JSON: ")

    def test_nesting_that_loads_but_is_too_deep_to_quote(self, tmp_path, capsys):
        # at some depth the decoder still loads the entry, and quoting it in
        # the error message one stack frame deeper runs out of recursion
        path = tmp_path / "nested.json"
        for depth in range(sys.getrecursionlimit()):
            path.write_text("[[" + "[" * depth + "]" * depth + ", 0, 0, 0, 1]]")
            code, out, err = run(capsys, "rank-fuzzy", "--input", str(path))
            assert (code, out) == (EXIT_PARSE, ""), depth
            assert err.startswith(("zfuse: items[0]: expected a number", "zfuse: nested.json: ")), depth

    @pytest.mark.parametrize(
        "argv",
        [["weights", "--n", "3"], ["decide", "--format", "json", "--input", MEDICAL]],
        ids=["weights", "decide-json"],
    )
    def test_closed_stdout_exits_one_without_a_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the start, so that the first write fails
        try:
            done = subprocess.run(
                [sys.executable, "-m", "zfuse", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_CLOSED, b"")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc to count open fds")
    def test_closed_stdout_leaks_no_fd(self, tmp_path, monkeypatch):
        class ClosedPipe(io.TextIOWrapper):
            def write(self, text):
                raise BrokenPipeError

        # a file of its own, so that pointing it at devnull leaves pytest's fd 1 alone
        stdout = ClosedPipe(open(tmp_path / "out.txt", "wb"))
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            assert main(["weights", "--n", "3"]) == EXIT_CLOSED
        after = len(os.listdir("/proc/self/fd"))
        stdout.close()
        assert after == before

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["decide"])  # --input is required
        assert exc.value.code == 2


# Generated documents for TestFuzz: valid shapes, of which one may be
# replaced by anything goes, so that about half the documents reach scoring.
# Valid shapes come from a fixed pool, which keeps generation cheap.
shapes = st.sampled_from(
    [t.name for t in LEXICON]
    + ["very high", "FAIRLY_LOW"]
    + [
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [0.2, 0.2, 0.6, 0.6, 0.5],
        [0.1, 0.3, 0.3, 0.9, 0.01],
        [-1.0, 0.5, 0.5, 2.0, 1.0],
        [-1e200, 0.0, 0.0, 1e200, 1.0],
        [1e200, 1e200, 1e200, 1e200, 1.0],
        [-1e200, -1e200, -1e200, -1e200, 0.3],
        [0.0, 1e-300, 2e-300, 1e-200, 1.0],
        # scores a similarity of about 1e-14: rows conflict all but totally
        [0.0, 0.0, 0.0, 1e-13, 1.0],
    ]
)
# unsorted, non-finite, out of range or not numbers at all
any_shapes = st.lists(st.floats() | st.sampled_from([-1e200, 1e200]) | st.booleans(), min_size=5, max_size=5)
# None leaves alpha out of the document
alphas = st.sampled_from([None, 0, 1e-12, 1.5, True]) | st.floats(0.0, 1.0)


# hypothesis labels and source names, now and then blank
def labels(stem):
    return st.sampled_from([stem, stem, stem, "", " "])


@st.composite
def documents(draw):
    frame = [draw(labels(f"h{j}")) for j in range(draw(st.integers(2, 3)))]
    sources = [
        {"name": draw(labels(f"s{k}")), "assessments": {h: {"A": draw(shapes), "B": draw(shapes)} for h in frame}}
        for k in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        cell = draw(st.sampled_from([c for s in sources for c in s["assessments"].values()]))
        cell[draw(st.sampled_from("AB"))] = draw(any_shapes)
    return {"frame": frame, "sources": sources}, draw(alphas)


# CSV cells hold term names only; a few are not terms at all
csv_cells = st.sampled_from([t.name for t in LEXICON] + ["very high", "", " ", "0.5", "Lo\x00w", '"Low"'])


@st.composite
def csv_documents(draw):
    """CSV bytes: a header and two rows per source, perhaps ragged or not UTF-8."""
    hypotheses = draw(st.integers(1, 3))
    lines = [["source"] + [draw(labels(f"h{j}")) for j in range(hypotheses)]]
    for k in range(draw(st.integers(0, 3))):
        name = draw(labels(f"s{k}"))
        lines += [[name] + [draw(csv_cells) for _ in range(hypotheses)] for _ in range(2)]
    if draw(st.booleans()):
        line = draw(st.sampled_from(lines))
        if draw(st.booleans()):
            line.append(draw(csv_cells))
        else:
            line.pop()
    data = "".join(",".join(line) + "\n" for line in lines).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"])) + data[at:]
    return data


# Generated input for rank-fuzzy and weights: shapes from subnormal to
# +-1e308 with heights in (0, 1], and alphas at and next to the corners.
magnitudes = st.floats(-1e308, 1e308) | st.sampled_from([5e-324, -5e-324, 2.2e-308, 1e-300, 1e308, -1e308, 0.0])
fuzzy_shapes = st.tuples(
    st.lists(magnitudes, min_size=4, max_size=4).map(sorted),
    st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([5e-324, 1e-300, 1.0]),
).map(lambda shape: shape[0] + [shape[1]])
edge_alphas = st.sampled_from(
    [0.0, 1.0, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 1e-300, math.nan, math.inf, -math.inf]
) | st.floats(0.0, 1.0)


# Raw bytes for TestFuzz: the fixtures and item lists built from their
# cells, mutated at the byte level into documents no generator above makes.
# The inserts are a NUL, invalid UTF-8 and a byte order mark.
FIXTURE_BYTES = [Path(p).read_bytes() for p in (MEDICAL, RISK, MEDICAL_CSV)] + [
    json.dumps({"items": [cell for s in doc["sources"] for cell in s["assessments"].values()]}).encode()
    for doc in (json.loads(Path(p).read_text()) for p in (MEDICAL, RISK))
] + [json.dumps(SHAPES).encode()]
RAW_INSERTS = [b"\x00", b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80", b"\xef\xbb\xbf"]


@st.composite
def raw_documents(draw):
    """A fixture's bytes after one to three mutations, kept under 1 MB."""
    data = draw(st.sampled_from(FIXTURE_BYTES))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["truncate", "splice", "duplicate", "nest", "digits", "insert"]))
        if kind == "truncate":
            data = data[:at]
        elif kind == "splice":
            other = draw(st.sampled_from(FIXTURE_BYTES))
            data = data[:at] + other[draw(st.integers(0, len(other))) :]
        elif kind == "duplicate":
            end = draw(st.integers(at, len(data)))
            data = data[:end] + data[at:end] + data[end:]
        elif kind == "nest":
            # after a ':', ',' or '[' the decoder descends into the nest at once
            starts = [i + 1 for i, byte in enumerate(data) if byte in b":,["]
            if starts:
                at = draw(st.sampled_from(starts))
            depth = draw(st.sampled_from([2, 50, 900, 1000, 100_000]))
            end = draw(st.integers(at, len(data)))
            data = data[:at] + b"[" * depth + data[at:end] + b"]" * depth + data[end:]
        elif kind == "digits":
            # at a digit, or where a value starts, the run is read as a number
            digits = [i for i, byte in enumerate(data) if byte in b"0123456789:,["]
            if digits:
                at = draw(st.sampled_from(digits))
            data = data[:at] + b"9" * draw(st.sampled_from([20, 400, 4300, 5000])) + data[at:]
        else:
            data = data[:at] + draw(st.sampled_from(RAW_INSERTS)) + data[at:]
    assert len(data) < 1 << 20
    return data


def assert_clean_exit(mode, path, fmt, precision, *extra):
    """The CLI decides, or exits 2, 3 or 4 with nothing on stdout."""
    argv = [mode, "--input", str(path)] if path is not None else [mode]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt, "--precision", str(precision), *extra])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_INVALID, EXIT_CONFLICT)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if code != EXIT_OK:
        assert text == ""
    elif fmt == "json":
        report = finite_json(text)
        if "decision" in report:
            assert report["decision"].strip()
    else:
        assert "nan" not in text and "inf" not in text
        assert "decision:" not in [line.strip() for line in text.splitlines()]


class TestFuzz:
    @given(documents(), st.sampled_from(["table", "json"]), st.integers(0, 13))
    @settings(max_examples=200, deadline=None)
    def test_every_document_decides_or_exits_cleanly(self, tmp_path_factory, generated, fmt, precision):
        grid_doc, alpha = generated
        items_doc = {"items": [cell for s in grid_doc["sources"] for cell in s["assessments"].values()]}
        for doc in (grid_doc, items_doc):
            if alpha is not None:
                doc["alpha"] = alpha
        folder = tmp_path_factory.getbasetemp()
        grid_path, items_path = folder / "fuzz_grid.json", folder / "fuzz_items.json"
        grid_path.write_text(json.dumps(grid_doc))
        items_path.write_text(json.dumps(items_doc))
        for mode, path in (("decide", grid_path), ("bpa", grid_path), ("rank-z", items_path)):
            assert_clean_exit(mode, path, fmt, precision)

    @given(csv_documents(), st.sampled_from(["table", "json"]), st.integers(0, 13))
    @settings(max_examples=200, deadline=None)
    def test_every_csv_decides_or_exits_cleanly(self, tmp_path_factory, data, fmt, precision):
        path = tmp_path_factory.getbasetemp() / "fuzz_grid.csv"
        path.write_bytes(data)
        for mode in ("decide", "bpa"):
            assert_clean_exit(mode, path, fmt, precision)

    @given(
        st.lists(fuzzy_shapes | st.sampled_from([t.name for t in LEXICON]), min_size=1, max_size=6),
        st.none() | edge_alphas,
        st.booleans(),
        st.sampled_from(["table", "json"]),
        st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_rank_fuzzy_input_ranks_or_exits_cleanly(
        self, tmp_path_factory, items, alpha, in_file, fmt, precision
    ):
        path = tmp_path_factory.getbasetemp() / "fuzz_rank_fuzzy.json"
        extra = []
        if alpha is not None and in_file:
            path.write_text(json.dumps({"items": items, "alpha": alpha}))
        else:
            path.write_text(json.dumps(items))
            if alpha is not None:
                extra = [f"--alpha={alpha!r}"]
        assert_clean_exit("rank-fuzzy", path, fmt, precision, *extra)

    @given(st.integers(2, 2000), edge_alphas, st.sampled_from(["table", "json"]), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_every_weights_run_exits_cleanly(self, n, alpha, fmt, precision):
        assert_clean_exit("weights", None, fmt, precision, "--n", str(n), f"--alpha={alpha!r}")

    @given(raw_documents(), st.sampled_from(["table", "json"]))
    @settings(max_examples=200, deadline=None)
    def test_every_mutated_file_decides_or_exits_cleanly(self, tmp_path_factory, data, fmt):
        folder = tmp_path_factory.getbasetemp()
        json_path, csv_path = folder / "fuzz_raw.json", folder / "fuzz_raw.csv"
        json_path.write_bytes(data)
        csv_path.write_bytes(data)
        for mode, path in (
            ("decide", json_path),
            ("bpa", json_path),
            ("rank-z", json_path),
            ("rank-fuzzy", json_path),
            ("decide", csv_path),
            ("bpa", csv_path),
        ):
            assert_clean_exit(mode, path, fmt, 4)
