"""In-memory span recording and the benchmark's own arithmetic.

A span is one call into a layer: name, start, end, parent span and run id.
Spans stay in memory while the traced run executes and are written out
once at the end, each with its self time (its duration minus the part of
its interval that its child spans cover).
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

# Percentiles tried for a tail, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Collects spans; nesting follows the order of ``with tracer.span(...)``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, run: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": run,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    ]


def write_spans(path, spans: list[dict]) -> None:
    """One JSON object per line; times in seconds from the first span's start."""
    t0 = spans[0]["start"] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for s, self_s in zip(spans, self_times(spans)):
            row = dict(s, start=s["start"] - t0, end=s["end"] - t0, self=self_s)
            fh.write(json.dumps(row) + "\n")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(pct, value) for the highest ladder percentile with >= 10 samples beyond it.

    Beyond means ranked strictly above the nearest-rank position.  A sample
    too small for even the median to qualify reports the median.
    """
    n = len(values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen, percentile(values, chosen)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def merge_ratio(children_kept: int, parents_expanded: int) -> float:
    """Children kept after dedup per parent expanded (0 when nothing expanded)."""
    return children_kept / parents_expanded if parents_expanded else 0.0


def expansion_counts(generation_sizes: list[int]) -> tuple[int, int]:
    """(parents expanded, children kept) of one greedy run.

    Every generation, the last included, is expanded once; every generation
    after the first is the deduplicated children of the one before it.
    """
    return sum(generation_sizes), sum(generation_sizes[1:])
