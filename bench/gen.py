"""Seeded inputs for each workload, as JSON-able documents.

generate(workload, seed) depends on nothing but its arguments: every draw
comes from one random.Random seeded with a string, which Python hashes the
same way in every process, so one seed always gives byte-identical inputs.
The program never sees the seed, only the documents (as files for the CLI,
as objects for the library).
"""

from __future__ import annotations

import json
import random

from zfuse import LEXICON

# Lexicon cells as (A, B) term pairs.  (Absolutely-high, Absolutely-high)
# is left out: it scores similarity 1 and leaves its row's BPA no mass on
# the whole frame, and two such rows can conflict totally, which makes the
# CLI exit 4.  Without it every BPA keeps some frame mass and every op
# succeeds.  All 9 terms still occur.
TERM_PAIRS = tuple(
    (a.name, b.name) for a in LEXICON for b in LEXICON if not a.name == b.name == "Absolutely-high"
)

# Default sizes.  Tests shrink them; the shares and mixes stay the same.
SHAPES = {
    "cli_small": {"files": 240, "smallest": 3, "largest": 6},
    "many_sources": {"grids": 8, "sources": 200, "hypotheses": 20},
    "wide_frame": {"grids": 4, "sources": 3, "hypotheses": 1500},
    "general_evidence": {"sets": 128, "sources": 12, "hypotheses": 10, "focal": 8},
}

# (mode, format) of the cli_small ops, in equal shares.
CLI_MODES = (("decide", "table"), ("decide", "json"), ("bpa", "json"))

LIBRARY_ALPHA = 0.7


def generate(workload: str, seed: int, shape: dict | None = None):
    rng = random.Random(f"zfuse-bench:{workload}:{seed}")
    shape = SHAPES[workload] if shape is None else shape
    if workload == "cli_small":
        return _cli_files(rng, **shape)
    if workload == "general_evidence":
        return _mass_sets(rng, **shape)
    numeric = workload == "many_sources"
    docs = []
    for _ in range(shape["grids"]):
        doc = _grid(rng, shape["sources"], shape["hypotheses"], 1.0 if numeric else 0.0, None)
        doc["alpha"] = LIBRARY_ALPHA
        docs.append(doc)
    return docs


def input_bytes(docs) -> bytes:
    """The canonical bytes of generated inputs, for determinism checks."""
    return json.dumps(docs, sort_keys=True).encode("utf-8")


def _balanced(rng: random.Random, n: int, values) -> list:
    """n picks with every value equally often (up to rounding), in seeded order.

    Fixing the shares, not drawing them, keeps the work per run the same
    from seed to seed; only the contents and the order change.
    """
    picks = [values[i % len(values)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _numeric(rng: random.Random, digits: int | None) -> list[float]:
    """[a, b, c, d, w]: sorted uniform vertices in [0, 1], w in [0.5, 1]."""
    vertices = sorted(rng.random() for _ in range(4))
    w = rng.uniform(0.5, 1.0)
    if digits is not None:
        vertices = [round(v, digits) for v in vertices]
        w = round(w, digits)
    return vertices + [w]


def _grid(rng: random.Random, sources: int, hypotheses: int, numeric_share: float, digits: int | None) -> dict:
    frame = [f"H{j + 1}" for j in range(hypotheses)]
    rows = []
    for i in range(sources):
        cells = {}
        for h in frame:
            if rng.random() < numeric_share:
                cells[h] = {"A": _numeric(rng, digits), "B": _numeric(rng, digits)}
            else:
                a, b = rng.choice(TERM_PAIRS)
                cells[h] = {"A": a, "B": b}
        rows.append({"name": f"E{i + 1}", "assessments": cells})
    return {"frame": frame, "sources": rows}


def _csv_text(doc: dict) -> str:
    lines = [",".join(["source"] + doc["frame"])]
    for source in doc["sources"]:
        for part in ("A", "B"):
            lines.append(",".join([source["name"]] + [source["assessments"][h][part] for h in doc["frame"]]))
    return "\n".join(lines) + "\n"


def _cli_files(rng: random.Random, files: int, smallest: int, largest: int) -> list[dict]:
    """Small grids as files, each with its fixed CLI mode and format.

    A quarter of the files are CSV, which holds lexicon terms only and no
    alpha.  JSON cells are numeric two times in three, so about half of all
    cells are numeric.  Half the files carry a 3-decimal alpha; as CSV
    cannot, all of those are JSON files.
    """
    sizes = [(s, h) for s in range(smallest, largest + 1) for h in range(smallest, largest + 1)]
    size_of = _balanced(rng, files, sizes)
    mode_of = _balanced(rng, files, CLI_MODES)
    csv_of = _balanced(rng, files, (True, False, False, False))
    json_files = [i for i in range(files) if not csv_of[i]]
    carriers = set(rng.sample(json_files, min(files // 2, len(json_files))))
    out = []
    for i in range(files):
        sources, hypotheses = size_of[i]
        doc = _grid(rng, sources, hypotheses, 0.0 if csv_of[i] else 2 / 3, 3)
        if i in carriers:
            # inside (0, 1): at 0 or 1 one component gets zero weight, and a
            # single ideal component would score similarity 1
            doc["alpha"] = rng.randrange(1, 1000) / 1000
        mode, fmt = mode_of[i]
        if csv_of[i]:
            name, text = f"grid{i:03d}.csv", _csv_text(doc)
        else:
            name, text = f"grid{i:03d}.json", json.dumps(doc, indent=2) + "\n"
        out.append({"file": name, "mode": mode, "format": fmt, "grid": doc, "text": text})
    return out


def _mass_sets(rng: random.Random, sets: int, sources: int, hypotheses: int, focal: int) -> list[list[dict]]:
    """Input sets for combine_all: random focal subsets plus the whole frame.

    Each mass function puts at least 0.05 on the whole frame, so no two of
    them can conflict totally and every op succeeds.
    """
    theta = (1 << hypotheses) - 1
    out = []
    for _ in range(sets):
        group = []
        for _ in range(sources):
            theta_mass = rng.uniform(0.05, 0.3)
            masks = rng.sample(range(1, theta), focal)
            weights = [rng.random() + 0.05 for _ in masks]
            total = sum(weights)
            focal_masses = [[mask, (1.0 - theta_mass) * w / total] for mask, w in zip(masks, weights)]
            group.append({"hypotheses": hypotheses, "theta": theta_mass, "focal": focal_masses})
        out.append(group)
    return out
