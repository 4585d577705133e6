"""Tests of the benchmark itself: seeded inputs, and a tiny run of each workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "cli_small": {"files": 6, "smallest": 3, "largest": 4},
    "many_sources": {"grids": 2, "sources": 4, "hypotheses": 3},
    "wide_frame": {"grids": 2, "sources": 3, "hypotheses": 30},
    "general_evidence": {"sets": 2, "sources": 3, "hypotheses": 4, "focal": 3},
}


def test_spec_names_the_workloads_and_units_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    sys.path.insert(0, str(run.SRC))
    import gen

    first = gen.input_bytes(gen.generate(workload, 11, TINY[workload]))
    again = gen.input_bytes(gen.generate(workload, 11, TINY[workload]))
    other = gen.input_bytes(gen.generate(workload, 12, TINY[workload]))
    assert first == again
    assert first != other
    assert gen.input_bytes(gen.generate(workload, 11)) == gen.input_bytes(gen.generate(workload, 11))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace]
    assert run.main(argv, shape=TINY[workload]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
