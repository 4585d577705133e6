"""Spans around zfuse's layer boundaries, recorded from outside the program.

Tracer.installed() swaps a timing wrapper in for each public function at
the places zfuse calls it (the module globals of the caller), and puts the
originals back on exit.  Nothing under src/ changes.  Spans are kept in
memory and written out by write() when the run ends.

A span's layer is the part of its name before the dot.  Its self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import zfuse.cli as cli
import zfuse.evidence as evidence
import zfuse.pipeline as pipeline
import zfuse.zmodel as zmodel

# Each span is a list [name, op, start, end, parent index, note].
NAME, OP, START, END, PARENT, NOTE = range(6)

# The entry points the benchmark calls, untraced.
ENTRY_POINTS = {"main": cli.main, "decide": pipeline.decide, "combine_all": evidence.combine_all}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        # The benchmark's own checks call zfuse too; they pause the tracer
        # so that their work lands in no span.
        self.paused = False

    def wrap(self, name: str, fn, note=None):
        """fn with a span around each call; note(args, result) adds a count."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, self.op, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer boundary zfuse crosses while the block runs.

        Yields the traced entry points the benchmark itself calls, in the
        layout of ENTRY_POINTS.
        """
        decide = self.wrap("pipeline.decide", pipeline.decide)
        source_bpas = self.wrap("pipeline.source_bpas", pipeline.source_bpas)
        combine_all = self.wrap("evidence.combine_all", pipeline.combine_all, _focal_out)
        owa = self.wrap("owa.mem_weights", pipeline.mem_weights, lambda args, _: args)
        refs = types.SimpleNamespace(
            from_alpha=self.wrap("zmodel.refs", pipeline.ReferenceBounds.from_alpha)
        )
        sites = [
            (cli, "decide", decide),
            (cli, "source_bpas", source_bpas),
            (cli, "mem_weights", owa),
            (pipeline, "source_bpas", source_bpas),
            (pipeline, "mem_weights", owa),
            (pipeline, "ReferenceBounds", refs),
            (pipeline, "similarity", self.wrap("zmodel.similarity", pipeline.similarity)),
            (pipeline, "bpa_from_similarities", self.wrap("evidence.bpa", pipeline.bpa_from_similarities)),
            (pipeline, "combine_all", combine_all),
            (zmodel, "mem_weights", owa),
            (evidence, "dempster_combine", self.wrap("evidence.dempster_combine", evidence.dempster_combine, _step)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in sites]
        for module, attr, wrapper in sites:
            setattr(module, attr, wrapper)
        try:
            yield {"main": self.wrap("cli.main", cli.main), "decide": decide, "combine_all": combine_all}
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def names(self) -> set[str]:
        return {span[NAME] for span in self.spans}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "start": start, "end": end, "parent": parent}))
                fh.write("\n")

    def layer_metrics(self, ops: int, scale: dict[int, float]) -> dict[str, float]:
        """Per-layer figures per traced op, from the spans and their notes.

        scale maps an op id to its host-speed factor; span times are
        multiplied by it, like the op times they are compared with.
        """
        spans = self.spans
        durations = [(span[END] - span[START]) * scale.get(span[OP], 1.0) for span in spans]
        children = [0.0] * len(spans)
        for span, duration in zip(spans, durations):
            if span[PARENT] >= 0:
                children[span[PARENT]] += duration
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for span, duration, child_time in zip(spans, durations, children):
            total[span[NAME]] += duration
            own[span[NAME]] += duration - child_time
            calls[span[NAME]] += 1
        notes = defaultdict(list)
        for span in spans:
            if span[NOTE] is not None:
                notes[span[NAME]].append(span[NOTE])
        steps = notes["evidence.dempster_combine"]
        focal_out = notes["evidence.combine_all"]
        cells = calls["zmodel.similarity"]
        per_op = 1.0 / ops
        ms = 1000.0 * per_op
        return {
            "cli.self_ms": own["cli.main"] * ms,
            "owa.calls": calls["owa.mem_weights"] * per_op,
            "owa.distinct_args": len(set(notes["owa.mem_weights"])),
            "owa.ms": total["owa.mem_weights"] * ms,
            "zmodel.cells": cells * per_op,
            "zmodel.ms": (total["zmodel.similarity"] + total["zmodel.refs"]) * ms,
            "zmodel.us_per_cell": total["zmodel.similarity"] * 1e6 / cells if cells else 0.0,
            "zmodel.refs_calls": calls["zmodel.refs"] * per_op,
            "evidence.bpa_calls": calls["evidence.bpa"] * per_op,
            "evidence.bpa_ms": total["evidence.bpa"] * ms,
            "evidence.fuse_ms": total["evidence.combine_all"] * ms,
            "evidence.fuse_steps": len(steps) * per_op,
            "evidence.fuse_products": sum(products for products, _ in steps) * per_op,
            "evidence.conflict_max": max((k for _, k in steps), default=0.0),
            "evidence.focal_sets_out": sum(focal_out) / len(focal_out) if focal_out else 0.0,
            "pipeline.decide_ms": total["pipeline.decide"] * ms,
            "pipeline.self_ms": (own["pipeline.decide"] + own["pipeline.source_bpas"]) * ms,
        }


def _step(args, outcome) -> tuple[int, float]:
    # focal products are counted from the operands, whichever path combined them
    left, right = args
    return len(left.masses) * len(right.masses), outcome.conflict


def _focal_out(args, outcome) -> int:
    return len(outcome.combined.masses)
