"""DIMACS-style edge-list text format.

Header line ``p edge <n> <m>`` followed by exactly m ``e <u> <v>`` lines
with 1-based endpoints; every count and endpoint is at most 13 ASCII
digits, and n is at most ``MAX_VERTICES``.  Lines starting with ``c`` and
blank lines are ignored.  Vertex ids are 0-based in memory and shifted on
read/write.
"""

from __future__ import annotations

import re

from .graph import MAX_VERTICES, Graph


class GraphParseError(ValueError):
    """Malformed graph file; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# a longer field exceeds every valid count (m <= C(n, 2) < n * n), and
# int() refuses a field of more than 4300 digits with a plain ValueError
_MAX_DIGITS = len(str(MAX_VERTICES**2))


def _digits(fields: list[str]) -> bool:
    """Whether every field is at most _MAX_DIGITS ASCII digits.

    int() alone also takes ３, 1_0 and +1.
    """
    return all(len(f) <= _MAX_DIGITS and re.fullmatch("[0-9]+", f) for f in fields)


def read_graph(data: bytes | str) -> Graph:
    """Parse an edge-list file body into a Graph."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    n: int | None = None
    header = declared_m = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError(lineno, "duplicate header line")
            if len(parts) != 4 or parts[1] != "edge" or not _digits(parts[2:]):
                raise GraphParseError(lineno, f"malformed header {line!r}")
            n, declared_m = int(parts[2]), int(parts[3])
            if n > MAX_VERTICES:
                raise GraphParseError(lineno, f"{n} vertices exceed the limit {MAX_VERTICES}")
            header = lineno
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError(lineno, "edge line before header")
            if len(parts) != 3 or not _digits(parts[1:]):
                raise GraphParseError(lineno, f"malformed edge line {line!r}")
            u, v = int(parts[1]), int(parts[2])
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(lineno, f"endpoint out of range in {line!r}")
            if u == v:
                raise GraphParseError(lineno, f"self-loop in {line!r}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(lineno, f"unrecognized line {line!r}")
    if n is None:
        raise GraphParseError(1, "missing 'p edge <n> <m>' header")
    if len(edges) != declared_m:
        raise GraphParseError(
            header, f"header declares {declared_m} edges, file has {len(edges)} 'e' lines"
        )
    return Graph(n, edges)


def write_graph(g: Graph) -> bytes:
    """Serialize a Graph; ``read_graph(write_graph(g)) == g``."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return ("\n".join(lines) + "\n").encode("utf-8")
