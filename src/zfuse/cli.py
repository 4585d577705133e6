"""Command-line front end.

Modes: decide (full fusion report), bpa (per-source assignments only),
rank-fuzzy, rank-z, and weights.  Each mode builds one report, which goes
to stdout as JSON or as a table read off it; identical input and options
give byte-identical output.  Exit codes:
0 ok, 1 stdout was closed before the report was written, 2 unreadable or
malformed input, 3 a validated invariant was broken, 4 total conflict
between sources: no product mass, or only a subnormal amount, survives
Dempster's rule.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .evidence import Frame, MassFunction, TotalConflictError
from .fuzzy import TrapezoidalFuzzyNumber
from .owa import _MAX_N, DEFAULT_ALPHA, dispersion, mem_weights, orness
from .pipeline import AssessmentMatrix, decide, source_bpas
from .zmodel import ReferenceBounds, ZNumber, best_first, linguistic_term, ranking_score, score_znumber

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CONFLICT = 4


class InputError(Exception):
    """The input file does not match the expected shape."""


def build_parser():
    """A new argparse parser for zfuse's command line.

    argparse is imported here: main reads a well-formed argv without it,
    and a process that only ever does so never loads it (see _read_argv).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="zfuse",
        description="Z-number decision fusion: score assessments, build BPAs, combine evidence.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode)
        if mode != "weights":
            p.add_argument("--input", "-i", required=True, help="input file (JSON, or CSV for assessment grids)")
        p.add_argument("--alpha", type=float, default=None, help="orness level in [0, 1]; overrides any value in the file (default 0.7)")
        p.add_argument("--format", dest="fmt", choices=_FORMATS, default="table")
        p.add_argument("--precision", type=int, default=4, help="decimal places in table output, 1..12")
        if mode == "weights":
            p.add_argument("--n", type=int, required=True, help=f"number of weights, 2..{_MAX_N}")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or build_parser().parse_args(_alpha_joined(argv))
    return run(args)


_FORMATS = ("table", "json")


def _format(value: str) -> str:
    """value, if it is one of --format's choices."""
    if value not in _FORMATS:
        raise ValueError(value)
    return value


# The options build_parser gives every mode, then those of a grid or rank
# mode and of weights: each spelling, to the namespace field it sets and
# argparse's converter for it.
_OPTIONS = {"--alpha": ("alpha", float), "--format": ("fmt", _format), "--precision": ("precision", int)}
_GRID_OPTIONS = {"--input": ("input", str), "-i": ("input", str), **_OPTIONS}
_WEIGHTS_OPTIONS = {**_OPTIONS, "--n": ("n", int)}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """argv as build_parser's parser reads it, if argv is well formed; else None.

    Well formed is a mode, then distinct options of that mode, each spelled
    in full and written `OPT VALUE` or `--OPT=VALUE`, with the required
    option (--input, or --n for weights) present and no value empty or
    starting with '-'.  Values go through argparse's own converters.  The
    rest, --help, every usage error and any form argparse reads in its own
    way (an abbreviation, a repeat, a negative number), is left to argparse.
    """
    mode = argv[0] if argv else None
    if mode == "weights":
        options, required = _WEIGHTS_OPTIONS, "n"
        fields = {"alpha": None, "fmt": "table", "precision": 4, "n": None}
    elif mode in _MODES:
        options, required = _GRID_OPTIONS, "input"
        fields = {"input": None, "alpha": None, "fmt": "table", "precision": 4}
    else:
        return None
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option, equals, value = token.partition("=") if token.startswith("--") else (token, "", "")
        if not equals:
            value = next(tokens, "")
        if option not in options or not value or value[0] == "-":
            return None
        field, convert = options[option]
        if field in given:
            return None
        given.add(field)
        try:
            fields[field] = convert(value)
        except ValueError:  # argparse names the value in its usage error
            return None
    if required not in given:
        return None
    return SimpleNamespace(mode=mode, **fields)


def _alpha_joined(argv: list[str]) -> list[str]:
    """argv with each `--alpha VALUE` written `--alpha=VALUE` when VALUE is a number.

    argparse takes a value that starts with '-' and is not a plain decimal,
    such as -1e-3 or -inf, for an option, and fails before the range check
    could name it.  A token float() rejects, such as --format, is left to
    argparse.  An abbreviation argparse accepts, such as --alph, is joined
    as written, and argparse resolves it.
    """
    joined = list(argv)
    # from the end, so that joining a pair shifts no token still to visit
    for i in range(len(joined) - 1, 0, -1):
        option = joined[i - 1]
        if len(option) >= 3 and "--alpha".startswith(option) and _is_number(joined[i]):
            joined[i - 1 : i + 1] = [f"{option}={joined[i]}"]
    return joined


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def run(args) -> int:
    """Execute one mode; print the full report only after it succeeded."""
    try:
        text = _text(args)
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
    except RecursionError:
        # JSON nested shallow enough to load but too deep to quote in an error
        print(f"zfuse: {os.path.basename(args.input)}: input nested too deep", file=sys.stderr)
        return EXIT_PARSE
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # interpreter exit cannot fail again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED
    return EXIT_OK


def _text(args) -> str:
    """Build the mode's report, then dump it as JSON or read the table off it.

    alpha is range-checked by mem_weights, which every mode reaches, so any
    other fault in the input is reported before an out-of-range alpha.
    """
    if not 1 <= args.precision <= 12:
        raise ValueError(f"precision must lie in 1..12, got {args.precision}")
    if args.mode == "weights":
        data, file_alpha = args.n, None
    elif args.mode in ("decide", "bpa"):
        data, file_alpha = _load_matrix(args.input)
    else:
        data, file_alpha = _split_items(_load_json(args.input), os.path.basename(args.input))
    alpha = args.alpha if args.alpha is not None else file_alpha
    build, table = _MODES[args.mode]
    report = build(data, DEFAULT_ALPHA if alpha is None else alpha)
    if args.fmt == "json":
        return _json_text(report)
    return "\n".join(table(report, f".{args.precision}f"))


# ------------------------------------------------------------- JSON output

def _json_text(report) -> str:
    """json.dumps(report, indent=2), byte for byte, at about twice its speed.

    With an indent the stdlib encodes in pure Python; this writer walks the
    containers itself and quotes every string with the C quoting function
    json.dumps ends up calling.  It writes what a report holds: str keys, and
    values of exactly type str, float, int, bool, None, dict, list or tuple.
    """
    parts: list[str] = []
    _write_json(report, "\n", parts)
    return "".join(parts)


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append value's JSON to parts; newline is "\\n" and the indent of its line."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is float:
        # as json.dumps writes floats: repr, and JavaScript's names for the non-finite
        parts.append(repr(value) if value - value == 0.0 else _NON_FINITE[repr(value)])
    elif kind is int:
        parts.append(repr(value))
    elif value is None or kind is bool:
        parts.append(_CONSTANTS[value])
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            parts.append("{}" if kind is dict else "[]")
            return
        inner = newline + "  "
        separator = inner
        if kind is dict:
            parts.append("{")
            for key, item in value.items():
                parts += (separator, _quote(key), ": ")
                _write_json(item, inner, parts)
                separator = "," + inner
            parts += (newline, "}")
        else:
            parts.append("[")
            for item in value:
                parts.append(separator)
                _write_json(item, inner, parts)
                separator = "," + inner
            parts += (newline, "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


# ---------------------------------------------------------------- parsing

def _not_utf8(name: str, err: UnicodeDecodeError) -> InputError:
    return InputError(f"{name}: not UTF-8 text: {err.reason}")


def _load_json(path: str):
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as err:
            raise _not_utf8(name, err) from None
        # malformed text (JSONDecodeError), an integer over Python's digit limit
        # (a plain ValueError) or nesting too deep for the decoder; after the
        # UnicodeDecodeError clause, as that is a ValueError too
        except (ValueError, RecursionError) as err:
            raise InputError(f"{name}: invalid JSON: {err}") from None


def _place(where: tuple, part: str = "") -> str:
    """The location text a (template, *values) tuple names, with part appended."""
    return where[0].format(*where[1:]) + part


def _label(value: str, where: tuple) -> str:
    """value, unless it is empty or only whitespace; where names it in the
    error, as for _parse_shape."""
    if not value.strip():
        raise InputError(f"{_place(where)} is blank")
    return value


def _load_matrix(path: str) -> tuple[AssessmentMatrix, float | None]:
    # a file named .csv has no extension, and is read as JSON
    if os.path.splitext(path)[1].lower() == ".csv":
        return _load_csv_matrix(path), None
    return _parse_matrix_doc(_load_json(path), os.path.basename(path))


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


def _parse_shape(value, where: tuple, part: str = "") -> TrapezoidalFuzzyNumber:
    """value, a term name or [a, b, c, d, w], as a shape.

    where is a (template, *values) tuple that, with part appended, names the
    value in an error message.  That text is built only for a value that
    fails to read or holds an entry that is not a float, and a label among
    the values is printed as written, braces and all.
    """
    if isinstance(value, str):
        try:
            return linguistic_term(value).shape
        except ValueError as err:
            raise InputError(f"{_place(where, part)}: {err}") from None
    if not isinstance(value, list):
        raise InputError(f"{_place(where, part)}: expected a term name or [a, b, c, d, w], got {value!r}")
    if len(value) != 5:
        raise InputError(f"{_place(where, part)}: a numeric shape needs exactly [a, b, c, d, w]")
    # five floats, as a generated grid holds, go to the constructor as they
    # are; any other entry, an int among them, is read by _number
    a, b, c, d, w = value
    if not (type(a) is float and type(b) is float and type(c) is float and type(d) is float and type(w) is float):
        place = _place(where, part)
        a, b, c, d, w = [_number(v, place) for v in value]
    try:
        return TrapezoidalFuzzyNumber(a, b, c, d, w)
    except ValueError as err:
        raise ValueError(f"{_place(where, part)}: {err}") from None


def _parse_cell(value, where: tuple) -> ZNumber:
    """value, {"A": shape, "B": shape}, as a ZNumber; where as for _parse_shape."""
    if not isinstance(value, dict) or len(value) != 2 or "A" not in value or "B" not in value:
        raise InputError(f'{_place(where)}: a cell must be an object with exactly "A" and "B"')
    return ZNumber(_parse_shape(value["A"], where, ".A"), _parse_shape(value["B"], where, ".B"))


def _grid_part(name: str, build, *args):
    """build(*args), a Frame or an AssessmentMatrix; a ValueError it raises
    is raised again with the file name in front."""
    try:
        return build(*args)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


def _parse_matrix_doc(doc, name: str) -> tuple[AssessmentMatrix, float | None]:
    if not isinstance(doc, dict):
        raise InputError(f"{name}: expected a top-level object")
    frame_labels = doc.get("frame")
    if not isinstance(frame_labels, list) or not all(isinstance(h, str) for h in frame_labels):
        raise InputError(f'{name}: "frame" must be a list of hypothesis labels')
    for j, h in enumerate(frame_labels):
        _label(h, ('{}: "frame"[{}]', name, j))
    sources = doc.get("sources")
    if not isinstance(sources, list) or not sources:
        raise InputError(f'{name}: "sources" must be a non-empty list')
    alpha = _file_alpha(doc, name)

    frame = _grid_part(name, Frame, tuple(frame_labels))
    hypotheses = set(frame_labels)
    labels: list[str] = []
    rows: list[tuple[ZNumber, ...]] = []
    for k, entry in enumerate(sources):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise InputError(f'{name}: sources[{k}] needs a "name"')
        label = _label(entry["name"], ('{}: sources[{}] "name"', name, k))
        cells = entry.get("assessments")
        if not isinstance(cells, dict):
            raise InputError(f'{name}: source {label!r} needs an "assessments" object')
        if not hypotheses.issuperset(cells):
            extra = sorted(set(cells) - hypotheses)
            raise InputError(f"{name}: source {label!r} assesses unknown hypotheses {extra}")
        row = []
        for h in frame_labels:
            if h not in cells:
                raise InputError(f"{name}: source {label!r} is missing an assessment for {h!r}")
            row.append(_parse_cell(cells[h], ("{}/{}", label, h)))
        labels.append(label)
        rows.append(tuple(row))
    return _grid_part(name, AssessmentMatrix, frame, tuple(labels), tuple(rows)), alpha


def _load_csv_matrix(path: str) -> AssessmentMatrix:
    """CSV grid: header names the hypotheses, then two rows (A, B) per source."""
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
        _label(h, ("{}: header column {}", name, j))
    frame = _grid_part(name, Frame, tuple(header[1:]))
    data = rows[1:]
    if not data or len(data) % 2 != 0:
        raise InputError(f"{name}: expected two rows (A then B) per source")
    labels: list[str] = []
    grid: list[tuple[ZNumber, ...]] = []
    for (line_a, row_a), (line_b, row_b) in zip(data[::2], data[1::2]):
        source = _label(row_a[0], ("{}: line {}: the source name", name, line_a))
        for line, row in ((line_a, row_a), (line_b, row_b)):
            if len(row) != len(header):
                raise InputError(f"{name}: line {line}: expected {len(header)} columns")
        if source != row_b[0]:
            raise InputError(
                f"{name}: line {line_b}: rows must pair up per source, "
                f"got {source!r} then {row_b[0]!r}"
            )
        cells = []
        for h, a, b in zip(header[1:], row_a[1:], row_b[1:]):
            shape_a = _parse_shape(a, ("{}: line {} ({}/{})", name, line_a, source, h))
            shape_b = _parse_shape(b, ("{}: line {} ({}/{})", name, line_b, source, h))
            cells.append(ZNumber(shape_a, shape_b))
        labels.append(source)
        grid.append(tuple(cells))
    return _grid_part(name, AssessmentMatrix, frame, tuple(labels), tuple(grid))


def _split_items(doc, name: str) -> tuple[list, float | None]:
    items = doc.get("items") if isinstance(doc, dict) else doc
    if not isinstance(items, list):
        raise InputError(f'{name}: expected a list of items or an object with "items"')
    if not items:
        raise InputError(f"{name}: nothing to rank")
    return items, _file_alpha(doc, name) if isinstance(doc, dict) else None


# ------------------------------------------------------ reports and tables

def _mass_items(m: MassFunction) -> list[dict]:
    # focal stays a tuple of labels, which json prints as a list
    return [{"focal": labels, "mass": value} for labels, value in m.focal_items()]


def _grid_report(mode: str, matrix: AssessmentMatrix, alpha: float, bpas, weights: dict, outcome: dict) -> dict:
    """Per-source BPAs; decide adds its weights before them and its outcome after."""
    return {
        "mode": mode,
        "alpha": alpha,
        "frame": list(matrix.frame.hypotheses),
        "sources": list(matrix.sources),
        **weights,
        "bpas": [{"source": label, "masses": _mass_items(bpa)} for label, bpa in zip(matrix.sources, bpas)],
        **outcome,
    }


def _rank_report(mode: str, alpha: float, scores: list[float], entries: list[dict]) -> dict:
    """entries[i] describes item i; they are listed best score first."""
    ranking = [{"rank": pos + 1, "index": i, **entries[i]} for pos, i in enumerate(best_first(scores))]
    return {"mode": mode, "alpha": alpha, "ranking": ranking}


def _bpa_report(matrix: AssessmentMatrix, alpha: float) -> dict:
    return _grid_report("bpa", matrix, alpha, source_bpas(matrix, alpha), {}, {})


def _decide_report(matrix: AssessmentMatrix, alpha: float) -> dict:
    report = decide(matrix, alpha)
    weights = {"score_weights": list(report.score_weights), "component_weights": list(report.component_weights)}
    outcome = {
        "conflict_trace": list(report.conflict_trace),
        "fused": _mass_items(report.fused),
        "ranking": list(report.ranking),
        "decision": report.decision,
    }
    return _grid_report("decide", matrix, alpha, report.per_source_bpas, weights, outcome)


def _rank_fuzzy_report(items: list, alpha: float) -> dict:
    shapes = [_parse_shape(item, ("items[{}]", k)) for k, item in enumerate(items)]
    weights = mem_weights(3, alpha)
    scores = [ranking_score(f, weights) for f in shapes]
    entries = [{"score": score, "shape": [f.a, f.b, f.c, f.d, f.w]} for f, score in zip(shapes, scores)]
    return _rank_report("rank-fuzzy", alpha, scores, entries)


def _rank_z_report(items: list, alpha: float) -> dict:
    znumbers = [_parse_cell(item, ("items[{}]", k)) for k, item in enumerate(items)]
    refs = ReferenceBounds.from_alpha(alpha)
    scored = [score_znumber(z, refs) for z in znumbers]
    entries = [
        {"similarity": s.similarity, "deviation": s.deviation, "hA": s.hA, "hB": s.hB, "clamped": s.clamped}
        for s in scored
    ]
    return _rank_report("rank-z", alpha, [s.similarity for s in scored], entries)


def _weights_report(n: int, alpha: float) -> dict:
    vector = mem_weights(n, alpha)
    return {
        "mode": "weights",
        "n": len(vector),
        "alpha": alpha,
        "weights": list(vector),
        "orness": orness(vector),
        "dispersion": dispersion(vector),
    }


def _fmt_all(values, spec: str) -> str:
    return "  ".join(format(v, spec) for v in values)


def _align(rows: list[list[str]]) -> list[str]:
    """The first column left-aligned, the others right-aligned."""
    first, *widths = [max(map(len, column)) for column in zip(*rows)]
    return [
        "  ".join([row[0].ljust(first)] + [cell.rjust(w) for cell, w in zip(row[1:], widths)]).rstrip()
        for row in rows
    ]


def _grid_table(report: dict, spec: str) -> list[str]:
    alpha = report["alpha"]
    frame = report["frame"]
    rows = [(entry["source"], entry["masses"]) for entry in report["bpas"]]
    tail = []
    if "fused" in report:
        rows.append(("fused", report["fused"]))
        tail = [
            "",
            "conflict trace: " + _fmt_all(report["conflict_trace"], spec),
            "ranking: " + " > ".join(report["ranking"]),
            "decision: " + report["decision"],
        ]
    # one column per singleton, then the whole frame
    columns = [(h,) for h in frame] + [tuple(frame)]
    table = [["source", *frame, "Theta"]]
    for label, masses in rows:
        mass = {item["focal"]: item["mass"] for item in masses}
        table.append([label] + [format(mass.get(focal, 0.0), spec) for focal in columns])
    head = [
        f"alpha: {alpha:g}",
        "score weights: " + _fmt_all(mem_weights(3, alpha), spec),
        "component weights: " + _fmt_all(mem_weights(2, alpha), spec),
        "",
    ]
    return head + _align(table) + tail


def _cell_text(value, spec: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, spec)
    *vertices, height = value  # a shape [a, b, c, d, w]
    return f"({', '.join(format(v, spec) for v in vertices)}; {format(height, spec)})"


_RANK_COLUMNS = {
    "rank-fuzzy": ("rank", "index", "score", "shape"),
    "rank-z": ("rank", "index", "similarity", "deviation", "clamped"),
}


def _rank_table(report: dict, spec: str) -> list[str]:
    columns = _RANK_COLUMNS[report["mode"]]
    table = [list(columns)]
    table += [[_cell_text(entry[c], spec) for c in columns] for entry in report["ranking"]]
    return [f"alpha: {report['alpha']:g}", ""] + _align(table)


def _weights_table(report: dict, spec: str) -> list[str]:
    return [
        f"n: {report['n']}",
        f"alpha: {report['alpha']:g}",
        "weights: " + _fmt_all(report["weights"], spec),
        "orness: " + format(report["orness"], spec),
        "dispersion: " + format(report["dispersion"], spec),
    ]


# mode: (report builder, table reader)
_MODES = {
    "decide": (_decide_report, _grid_table),
    "bpa": (_bpa_report, _grid_table),
    "rank-fuzzy": (_rank_fuzzy_report, _rank_table),
    "rank-z": (_rank_z_report, _rank_table),
    "weights": (_weights_report, _weights_table),
}


if __name__ == "__main__":
    sys.exit(main())
