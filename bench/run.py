"""zfuse benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli_small --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each op starts when the previous one
and its checks are done.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it runs half its time traced and half untraced and
reports the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it describe
the inputs and the run.  Exit status is 0 only when every check passed.
See README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

WORKLOADS = ("cli_small", "many_sources", "wide_frame", "general_evidence")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "op_ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "cli.input_bytes": "bytes",
    "cli.output_bytes": "bytes",
    "owa.calls": "count",
    "owa.distinct_args": "count",
    "owa.ms": "ms",
    "zmodel.cells": "count",
    "zmodel.ms": "ms",
    "zmodel.us_per_cell": "us",
    "zmodel.refs_calls": "count",
    "zmodel.distinct_shape_ratio": "ratio",
    "evidence.bpa_calls": "count",
    "evidence.bpa_ms": "ms",
    "evidence.fuse_ms": "ms",
    "evidence.fuse_steps": "count",
    "evidence.fuse_products": "count",
    "evidence.conflict_max": "ratio",
    "evidence.focal_sets_out": "count",
    "pipeline.decide_ms": "ms",
    "pipeline.self_ms": "ms",
    "trace_overhead_ratio": "ratio",
}

# Share of ops re-fused by a pairwise fold after their check; op 0 always is.
SAMPLE_RATE = 0.02
# Child interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 11

# Host speed.  Other tenants of the host change its speed by up to 50%
# within seconds, and by different amounts for interpreter-bound, C-library
# and allocation-heavy work.  So a fixed reference kernel with all three
# kinds of work is timed right before and right after every timed stretch,
# and each time is rescaled to the speed at which the kernel takes
# REFERENCE_S:  adjusted = wall * REFERENCE_S / mean(kernel before, after).
REFERENCE_S = 0.00125


def _blend(acc: float, x: float) -> float:
    return acc * 0.5 + x


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter, C-library and allocation work.

    The collector is off while it runs, so the program's heap (which a full
    collection would walk) does not enter the divisor; the kernel's own
    objects are freed by reference counting.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_kernel()
    finally:
        if enabled:
            gc.enable()


def _reference_kernel() -> float:
    start = perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(1250):
        pair = (i, i * 0.25)
        acc = _blend(acc, pair[1]) % 1000.0
        table[i & 255] = table.get(i & 255, 0.0) + math.sqrt(acc + 1.0)
    sum(Fraction(i, 7) for i in range(30))
    json.loads(json.dumps({"a": [i * 0.5 for i in range(200)], "b": {str(i): i for i in range(100)}}))
    values = [i * 0.5 for i in range(10000)]
    buckets: dict[int, list[float]] = {}
    for i in range(0, 10000, 10):
        buckets.setdefault(i & 1023, []).append(values[i])
    math.fsum(values)
    return perf_counter() - start


class Phase:
    """What one timed loop saw.  Times are host-speed adjusted unless raw."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.scale: dict[int, float] = {}  # op id -> REFERENCE_S / kernel time around it
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_in = 0
        self.bytes_out = 0
        self.wall = 0.0


def run_loop(work, entry, seconds: float, rng: random.Random, tracer=None) -> Phase:
    """Closed loop over work.cases until `seconds` of wall time have passed."""
    phase = Phase()
    cases = work.cases
    start = perf_counter()
    deadline = start + seconds
    while phase.attempted == 0 or perf_counter() < deadline:
        op = phase.attempted
        case = cases[op % len(cases)]
        sampled = op == 0 or rng.random() < SAMPLE_RATE
        phase.attempted += 1
        work.before_op()
        before = reference_seconds()
        if tracer is not None:
            tracer.op = op
            tracer.paused = False
        try:
            elapsed, result = work.call(entry, case)
        except Exception as err:  # a raising op is a failed op; the run goes on
            phase.failed += 1
            phase.problems.append(f"op {op} raised {err!r}")
            continue
        finally:
            if tracer is not None:
                tracer.paused = True
        scale = 2 * REFERENCE_S / (before + reference_seconds())
        phase.scale[op] = scale
        phase.raw.append(elapsed)
        phase.latencies.append(elapsed * scale)
        problems = work.check(case, result, sampled)
        if problems:
            phase.failed += 1
            phase.problems += problems
        bytes_in, bytes_out = work.io_bytes(case, result)
        phase.bytes_in += bytes_in
        phase.bytes_out += bytes_out
    phase.wall = perf_counter() - start
    return phase


def setup_seconds(workload: str) -> float:
    """Median adjusted time of fresh interpreters that import zfuse and do one op."""
    times = []
    for _ in range(SETUP_RUNS):
        before = reference_seconds()
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-I", str(BENCH / "probe.py"), workload],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        elapsed = perf_counter() - start
        times.append(elapsed * 2 * REFERENCE_S / (before + reference_seconds()))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace').strip()}")
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, shape: dict | None) -> tuple[dict, list[str]]:
    """One run: the result object and the human-readable lines before it."""
    import gen
    import spans
    import workloads

    setup = None if trace else setup_seconds(workload)
    docs = gen.generate(workload, seed, shape)
    workdir = OUT / f"{workload}-{seed}-inputs"
    rng = random.Random(f"zfuse-bench-sample:{workload}:{seed}")
    try:
        work = workloads.build(workload, docs, workdir)
        if trace:
            tracer = spans.Tracer()
            with tracer.installed() as entries:
                phase = run_loop(work, entries[work.entry], seconds / 2, rng, tracer)
            plain = run_loop(work, spans.ENTRY_POINTS[work.entry], seconds / 2, rng)
            phases = [phase, plain]
        else:
            phase = run_loop(work, spans.ENTRY_POINTS[work.entry], seconds, rng)
            phases = [phase]
        anchors = workloads.anchor_problems()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [msg for p in phases for msg in p.problems] + anchors
    if not all(p.latencies for p in phases):
        raise SystemExit(f"bench: {workload}: every op failed, first: {problems[0]}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + len(anchors)
    lines = [f"{workload} seed={seed} inputs: " + ", ".join(f"{k}={_num(v)}" for k, v in work.summary.items())]
    lines += [_describe(p, name) for p, name in zip(phases, ("traced", "untraced") if trace else ("",))]
    lat = phase.latencies
    if trace:
        missing = sorted(work.spans - tracer.names())
        if missing:
            raise SystemExit(f"bench: {workload}: expected spans never fired: {', '.join(missing)}")
        metrics = tracer.layer_metrics(phase.attempted, phase.scale)
        metrics["cli.input_bytes"] = phase.bytes_in / phase.attempted
        metrics["cli.output_bytes"] = phase.bytes_out / phase.attempted
        metrics["zmodel.distinct_shape_ratio"] = work.summary["distinct_shape_ratio"]
        metrics["trace_overhead_ratio"] = statistics.median(lat) / statistics.median(plain.latencies)
        units = PER_LAYER_UNITS
        lines.append(_shares(metrics, 1e3 * sum(lat) / phase.attempted))
        path = OUT / f"trace-{workload}.jsonl"
        tracer.write(path)
        lines.append(f"{len(tracer.spans)} spans written to {path.relative_to(BENCH.parent)}")
    else:
        metrics = {
            "setup_s": setup,
            "ops_per_s": len(lat) / sum(lat),
            "op_ms_p50": statistics.median(lat) * 1e3,
            "op_ms_p90": percentile(lat, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_ok_ratio": 1.0 - min(failed, attempted) / attempted,
        }
        units = END_TO_END_UNITS
        lines.append(f"setup_s: median of {SETUP_RUNS} fresh interpreters {_num(setup)} s (adjusted)")
    lines += [f"CHECK FAILED: {msg}" for msg in problems[:10]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def _describe(phase: Phase, name: str) -> str:
    """Adjusted and raw op latency of one loop, with the sample count."""
    adjusted, raw = phase.latencies, phase.raw
    return (
        f"{name + ' ' if name else ''}ops={phase.attempted} failed={phase.failed} wall={_num(phase.wall)}s "
        f"samples={len(raw)}; op ms adjusted p50={_num(statistics.median(adjusted) * 1e3)} "
        f"p90={_num(percentile(adjusted, 90) * 1e3)}, raw p50={_num(statistics.median(raw) * 1e3)} "
        f"p90={_num(percentile(raw, 90) * 1e3)}; host speed x{_num(statistics.median(phase.scale.values()))}"
    )


def _shares(m: dict, op_ms: float) -> str:
    """The shares each workload was chosen to stress, as a readable line."""

    def share(part: float, whole: float) -> str:
        return _num(part / whole) if whole else "n/a"

    return (
        f"shares of the mean traced op ({_num(op_ms)} ms): cli.self={share(m['cli.self_ms'], op_ms)} "
        f"zmodel={share(m['zmodel.ms'], op_ms)} evidence.fuse={share(m['evidence.fuse_ms'], op_ms)} "
        f"pipeline.self={share(m['pipeline.self_ms'], op_ms)} owa={share(m['owa.ms'], op_ms)}; "
        f"zmodel/decide={share(m['zmodel.ms'], m['pipeline.decide_ms'])}"
    )


def _num(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed wall time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, shape: dict | None = None) -> int:
    """Run one workload; shape overrides its default input sizes (tests)."""
    args = parse_args(argv)
    if not (SRC / "zfuse" / "__init__.py").is_file():
        print(f"bench: zfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zfuse

    if not Path(zfuse.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported zfuse from {zfuse.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), shape)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
