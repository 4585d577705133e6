"""Command-line interface: modes, formats, input handling, exit codes."""

import json
import math
import time
from importlib.resources import files

import pytest

from zfuse.cli import EXIT_CONFLICT, EXIT_INVALID, EXIT_OK, EXIT_PARSE, main
from zfuse.evidence import Frame, MassFunction, combine_all

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
            MassFunction.from_items(
                frame, {tuple(item["focal"]): item["mass"] for item in entry["masses"]}
            )
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

    def test_precision_out_of_range(self, capsys):
        code, _, err = run(capsys, "decide", "--input", MEDICAL, "--precision", "0")
        assert code == EXIT_INVALID
        assert "precision" in err

    def test_weights_rejects_n_below_two(self, capsys):
        code, _, err = run(capsys, "weights", "--n", "1")
        assert code == EXIT_INVALID
        assert "at least two" in err

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
        assert "totally conflict" in err

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
        "bad", [True, False, "0.5", None, 10**400], ids=["true", "false", "string", "null", "huge-int"]
    )
    def test_shape_entries_must_be_numbers(self, tmp_path, capsys, bad):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(grid({"A": [bad, 0.0, 0.0, 1.0, 1.0]})))
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert "S/a.A" in err

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

    def test_duplicate_source_names(self, tmp_path, capsys):
        doc = grid()
        doc["sources"].append(doc["sources"][0])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "decide", "--input", str(path))
        assert code == EXIT_INVALID
        assert out == ""
        assert "source names must be distinct, got 'S' twice" in err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["decide"])  # --input is required
        assert exc.value.code == 2
