"""Command-line front end.

Modes: decide (full fusion report), bpa (per-source assignments only),
rank-fuzzy, rank-z, and weights.  Output goes to stdout as a table or as
JSON; identical input and options give byte-identical output.  Exit codes:
0 ok, 2 unreadable or malformed input, 3 a validated invariant was broken,
4 total conflict between sources.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .evidence import Frame, MassFunction, TotalConflictError
from .fuzzy import TrapezoidalFuzzyNumber
from .owa import DEFAULT_ALPHA, dispersion, mem_weights, orness
from .pipeline import AssessmentMatrix, DecisionReport, decide, source_bpas
from .zmodel import ReferenceBounds, ZNumber, linguistic_term, rank_fuzzy, ranking_score, score_znumber

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CONFLICT = 4

MODES = ("decide", "bpa", "rank-fuzzy", "rank-z", "weights")


class InputError(Exception):
    """The input file does not match the expected shape."""


@dataclass(frozen=True)
class RunConfig:
    mode: str
    input: Path | None
    alpha: float | None = None
    fmt: str = "table"
    precision: int = 4
    n: int | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfuse",
        description="Z-number decision fusion: score assessments, build BPAs, combine evidence.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        if mode != "weights":
            p.add_argument("--input", "-i", type=Path, required=True, help="input file (JSON, or CSV for assessment grids)")
        p.add_argument("--alpha", type=float, default=None, help="orness level in [0, 1]; overrides any value in the file (default 0.7)")
        p.add_argument("--format", dest="fmt", choices=("table", "json"), default="table")
        p.add_argument("--precision", type=int, default=4, help="decimal places in table output, 1..12")
        if mode == "weights":
            p.add_argument("--n", type=int, required=True, help="number of weights")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        mode=args.mode,
        input=getattr(args, "input", None),
        alpha=args.alpha,
        fmt=args.fmt,
        precision=args.precision,
        n=getattr(args, "n", None),
    )
    return run(cfg)


def run(cfg: RunConfig) -> int:
    """Execute one mode; print the full report only after it succeeded."""
    try:
        text = _dispatch(cfg)
    except InputError as err:
        print(f"zfuse: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as err:
        print(f"zfuse: cannot read input: {err}", file=sys.stderr)
        return EXIT_PARSE
    except TotalConflictError as err:
        print(f"zfuse: {err}", file=sys.stderr)
        return EXIT_CONFLICT
    except ValueError as err:
        print(f"zfuse: {err}", file=sys.stderr)
        return EXIT_INVALID
    print(text)
    return EXIT_OK


def _dispatch(cfg: RunConfig) -> str:
    if not 1 <= cfg.precision <= 12:
        raise ValueError(f"precision must lie in 1..12, got {cfg.precision}")
    if cfg.alpha is not None and not 0.0 <= cfg.alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {cfg.alpha}")
    if cfg.mode == "weights":
        return _run_weights(cfg)
    if cfg.mode in ("decide", "bpa"):
        matrix, file_alpha = _load_matrix(cfg.input)
        alpha = _resolve_alpha(cfg.alpha, file_alpha)
        if cfg.mode == "decide":
            return _render_decide(decide(matrix, alpha), cfg)
        return _render_bpa(matrix, source_bpas(matrix, alpha), alpha, cfg)
    doc = _load_json(cfg.input)
    items, file_alpha = _split_items(doc, cfg.input.name)
    alpha = _resolve_alpha(cfg.alpha, file_alpha)
    if cfg.mode == "rank-fuzzy":
        return _run_rank_fuzzy(items, alpha, cfg)
    return _run_rank_z(items, alpha, cfg)


def _resolve_alpha(cli_alpha: float | None, file_alpha: float | None) -> float:
    alpha = cli_alpha if cli_alpha is not None else file_alpha
    if alpha is None:
        return DEFAULT_ALPHA
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


# ---------------------------------------------------------------- parsing

def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise InputError(f"{path.name}: invalid JSON: {err}") from None


def _load_matrix(path: Path) -> tuple[AssessmentMatrix, float | None]:
    if path.suffix.lower() == ".csv":
        return _load_csv_matrix(path), None
    doc = _load_json(path)
    return _parse_matrix_doc(doc, path.name)


def _number(value, where: str) -> float:
    """A JSON number as a float; where names the field in error messages."""
    # JSON true/false load as bool, a subclass of int
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{where}: number out of float range") from None


def _file_alpha(doc: dict, name: str) -> float | None:
    alpha = doc.get("alpha")
    return None if alpha is None else _number(alpha, f'{name}: "alpha"')


def _parse_shape(value, where: str) -> TrapezoidalFuzzyNumber:
    if isinstance(value, str):
        try:
            return linguistic_term(value).shape
        except ValueError as err:
            raise InputError(f"{where}: {err}") from None
    if isinstance(value, list):
        if len(value) != 5:
            raise InputError(f"{where}: a numeric shape needs exactly [a, b, c, d, w]")
        return TrapezoidalFuzzyNumber(*[_number(v, where) for v in value])
    raise InputError(f"{where}: expected a term name or [a, b, c, d, w], got {value!r}")


def _parse_cell(value, where: str) -> ZNumber:
    if not isinstance(value, dict) or set(value) != {"A", "B"}:
        raise InputError(f'{where}: a cell must be an object with exactly "A" and "B"')
    return ZNumber(
        A=_parse_shape(value["A"], f"{where}.A"),
        B=_parse_shape(value["B"], f"{where}.B"),
    )


def _parse_matrix_doc(doc, name: str) -> tuple[AssessmentMatrix, float | None]:
    if not isinstance(doc, dict):
        raise InputError(f"{name}: expected a top-level object")
    frame_labels = doc.get("frame")
    if not isinstance(frame_labels, list) or not all(isinstance(h, str) for h in frame_labels):
        raise InputError(f'{name}: "frame" must be a list of hypothesis labels')
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
        label = entry["name"]
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


def _load_csv_matrix(path: Path) -> AssessmentMatrix:
    """CSV grid: header names the hypotheses, then two rows (A, B) per source."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise InputError(f"{path.name}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2:
        raise InputError(f"{path.name}: header must name a source column and the hypotheses")
    frame = Frame(tuple(header[1:]))
    data = rows[1:]
    if not data or len(data) % 2 != 0:
        raise InputError(f"{path.name}: expected two rows (A then B) per source")
    labels: list[str] = []
    grid: list[tuple[ZNumber, ...]] = []
    for k in range(0, len(data), 2):
        row_a = [cell.strip() for cell in data[k]]
        row_b = [cell.strip() for cell in data[k + 1]]
        line = k + 2  # 1-based, after the header
        if len(row_a) != len(header) or len(row_b) != len(header):
            raise InputError(f"{path.name}: line {line}: expected {len(header)} columns")
        if row_a[0] != row_b[0]:
            raise InputError(
                f"{path.name}: line {line}: rows must pair up per source, "
                f"got {row_a[0]!r} then {row_b[0]!r}"
            )
        cells = tuple(
            ZNumber(
                A=_parse_shape(a, f"{path.name}: line {line} ({row_a[0]})"),
                B=_parse_shape(b, f"{path.name}: line {line + 1} ({row_a[0]})"),
            )
            for a, b in zip(row_a[1:], row_b[1:])
        )
        labels.append(row_a[0])
        grid.append(cells)
    return AssessmentMatrix(frame=frame, sources=tuple(labels), cells=tuple(grid))


def _split_items(doc, name: str) -> tuple[list, float | None]:
    if isinstance(doc, list):
        return doc, None
    if isinstance(doc, dict) and isinstance(doc.get("items"), list):
        return doc["items"], _file_alpha(doc, name)
    raise InputError(f'{name}: expected a list of items or an object with "items"')


# -------------------------------------------------------------- rendering

def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _align(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        lines.append("  ".join(cells).rstrip())
    return lines


def _shape_text(f: TrapezoidalFuzzyNumber, precision: int) -> str:
    body = ", ".join(_fmt(v, precision) for v in f.vertices)
    return f"({body}; {_fmt(f.w, precision)})"


def _mass_items(m: MassFunction) -> list[dict]:
    return [{"focal": list(labels), "mass": value} for labels, value in m.focal_items()]


def _bpa_rows(frame: Frame, label: str, bpa: MassFunction, precision: int) -> list[str]:
    singles = bpa.singleton_masses()
    return (
        [label]
        + [_fmt(singles[h], precision) for h in frame.hypotheses]
        + [_fmt(bpa.theta_mass(), precision)]
    )


def _config_lines(alpha: float, precision: int) -> list[str]:
    w3 = mem_weights(3, alpha)
    w2 = mem_weights(2, alpha)
    return [
        f"alpha: {alpha:g}",
        "score weights: " + "  ".join(_fmt(w, precision) for w in w3),
        "component weights: " + "  ".join(_fmt(w, precision) for w in w2),
        "",
    ]


def _render_decide(report: DecisionReport, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        payload = {
            "mode": "decide",
            "alpha": report.alpha,
            "frame": list(report.frame.hypotheses),
            "sources": list(report.sources),
            "score_weights": list(report.score_weights),
            "component_weights": list(report.component_weights),
            "bpas": [
                {"source": label, "masses": _mass_items(bpa)}
                for label, bpa in zip(report.sources, report.per_source_bpas)
            ],
            "conflict_trace": list(report.conflict_trace),
            "fused": _mass_items(report.fused),
            "ranking": list(report.ranking),
            "decision": report.decision,
        }
        return json.dumps(payload, indent=2)
    p = cfg.precision
    table = [["source"] + list(report.frame.hypotheses) + ["Theta"]]
    for label, bpa in zip(report.sources, report.per_source_bpas):
        table.append(_bpa_rows(report.frame, label, bpa, p))
    table.append(_bpa_rows(report.frame, "fused", report.fused, p))
    lines = _config_lines(report.alpha, p) + _align(table)
    lines.append("")
    lines.append("conflict trace: " + "  ".join(_fmt(k, p) for k in report.conflict_trace))
    lines.append("ranking: " + " > ".join(report.ranking))
    lines.append("decision: " + report.decision)
    return "\n".join(lines)


def _render_bpa(
    matrix: AssessmentMatrix,
    bpas: tuple[MassFunction, ...],
    alpha: float,
    cfg: RunConfig,
) -> str:
    if cfg.fmt == "json":
        payload = {
            "mode": "bpa",
            "alpha": alpha,
            "frame": list(matrix.frame.hypotheses),
            "sources": list(matrix.sources),
            "bpas": [
                {"source": label, "masses": _mass_items(bpa)}
                for label, bpa in zip(matrix.sources, bpas)
            ],
        }
        return json.dumps(payload, indent=2)
    p = cfg.precision
    table = [["source"] + list(matrix.frame.hypotheses) + ["Theta"]]
    for label, bpa in zip(matrix.sources, bpas):
        table.append(_bpa_rows(matrix.frame, label, bpa, p))
    return "\n".join(_config_lines(alpha, p) + _align(table))


def _run_rank_fuzzy(items: list, alpha: float, cfg: RunConfig) -> str:
    shapes = [_parse_shape(item, f"items[{k}]") for k, item in enumerate(items)]
    weights = mem_weights(3, alpha)
    order = rank_fuzzy(shapes, weights)
    scores = [ranking_score(f, weights) for f in shapes]
    if cfg.fmt == "json":
        payload = {
            "mode": "rank-fuzzy",
            "alpha": alpha,
            "ranking": [
                {
                    "rank": pos + 1,
                    "index": i,
                    "score": scores[i],
                    "shape": [shapes[i].a, shapes[i].b, shapes[i].c, shapes[i].d, shapes[i].w],
                }
                for pos, i in enumerate(order)
            ],
        }
        return json.dumps(payload, indent=2)
    p = cfg.precision
    table = [["rank", "index", "score", "shape"]]
    for pos, i in enumerate(order):
        table.append([str(pos + 1), str(i), _fmt(scores[i], p), _shape_text(shapes[i], p)])
    return "\n".join([f"alpha: {alpha:g}", ""] + _align(table))


def _run_rank_z(items: list, alpha: float, cfg: RunConfig) -> str:
    znumbers = [_parse_cell(item, f"items[{k}]") for k, item in enumerate(items)]
    if not znumbers:
        raise ValueError("nothing to rank")
    weights = mem_weights(2, alpha)
    refs = ReferenceBounds.from_alpha(alpha)
    scored = [score_znumber(z, weights, refs) for z in znumbers]
    order = sorted(range(len(scored)), key=lambda i: -scored[i].similarity)
    if cfg.fmt == "json":
        payload = {
            "mode": "rank-z",
            "alpha": alpha,
            "ranking": [
                {
                    "rank": pos + 1,
                    "index": i,
                    "similarity": scored[i].similarity,
                    "deviation": scored[i].deviation,
                    "hA": scored[i].hA,
                    "hB": scored[i].hB,
                    "clamped": scored[i].clamped,
                }
                for pos, i in enumerate(order)
            ],
        }
        return json.dumps(payload, indent=2)
    p = cfg.precision
    table = [["rank", "index", "similarity", "deviation", "clamped"]]
    for pos, i in enumerate(order):
        s = scored[i]
        table.append(
            [str(pos + 1), str(i), _fmt(s.similarity, p), _fmt(s.deviation, p), "yes" if s.clamped else "no"]
        )
    return "\n".join([f"alpha: {alpha:g}", ""] + _align(table))


def _run_weights(cfg: RunConfig) -> str:
    alpha = cfg.alpha if cfg.alpha is not None else DEFAULT_ALPHA
    vector = mem_weights(cfg.n, alpha)
    if cfg.fmt == "json":
        payload = {
            "mode": "weights",
            "n": vector.n,
            "alpha": alpha,
            "weights": list(vector),
            "orness": orness(vector),
            "dispersion": dispersion(vector),
        }
        return json.dumps(payload, indent=2)
    p = cfg.precision
    lines = [
        f"n: {vector.n}",
        f"alpha: {alpha:g}",
        "weights: " + "  ".join(_fmt(w, p) for w in vector),
        f"orness: {_fmt(orness(vector), p)}",
        f"dispersion: {_fmt(dispersion(vector), p)}",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
