"""Per-call A/B timing of ``exact_mis`` between two revisions of the package.

Each side's ``src/greedymis`` is extracted into a temporary directory
under its own package name, ``ab_base`` and ``ab_change``, so both import
side by side in one process (the package imports itself relatively).  A
revision is anything ``git archive`` takes; ``worktree`` copies the
working tree's ``src/greedymis`` instead.  Each side builds its own
graphs, ``random_gnm(n, m, seed=derive_seed(1, n, m, r))`` for r below
``--graphs``, and the tool first checks that alpha is equal on every
graph of every cell (witnesses and node counts may differ).  It then
times ``exact_mis`` over each cell's graphs in ``--rounds`` rounds,
base first in even rounds and change first in odd ones, and prints one
JSON object: per cell, the per-call milliseconds of each round, their
medians, the ratio change / base of the medians, the rounds the change
won and each side's total search nodes.

Run from the repository root, or anywhere inside the checkout::

    python tools/ab.py                          # HEAD against the working tree
    python tools/ab.py --base HEAD~1 --change HEAD --rounds 11
    python tools/ab.py --cells 80:320,25:300    # n:m cells

It exits 1 when an alpha differs.  The default 7 rounds over the ten
default cells take about two minutes on one core.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/greedymis"
SEED = 1
# m = 4n from n = 20 to 100; then K25, two dense cells and a sparse one
CELLS = ((20, 80), (30, 120), (40, 160), (60, 240), (80, 320), (100, 400),
         (25, 300), (40, 390), (60, 90), (80, 800))


def extract(rev: str, dest: Path, name: str) -> None:
    """Put revision ``rev``'s package at ``dest/name``."""
    target = dest / name
    if rev == "worktree":
        shutil.copytree(ROOT / PACKAGE, target,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    proc = subprocess.run(["git", "archive", "--format=tar", rev, PACKAGE],
                          cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tf:
        for member in tf.getmembers():
            if member.isfile():
                path = target / Path(member.name).relative_to(PACKAGE)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tf.extractfile(member).read())


def load(rev: str, dest: Path, name: str):
    extract(rev, dest, name)
    return importlib.import_module(name)


def cell_graphs(pkg, n: int, m: int, count: int) -> list:
    derive_seed = importlib.import_module(pkg.__name__ + ".rng").derive_seed
    return [pkg.random_gnm(n, m, seed=derive_seed(SEED, n, m, r)) for r in range(count)]


def per_call_ms(exact_mis, graphs) -> float:
    start = time.perf_counter()
    for g in graphs:
        exact_mis(g)
    return (time.perf_counter() - start) * 1e3 / len(graphs)


def compare(base, change, cells, count: int, rounds: int) -> dict:
    sides = (base, change)
    graphs = {c: [cell_graphs(p, *c, count) for p in sides] for c in cells}
    report = {}
    for cell, (gb, gc) in graphs.items():
        rb = [base.exact_mis(g) for g in gb]
        rc = [change.exact_mis(g) for g in gc]
        moved = [r for r, (x, y) in enumerate(zip(rb, rc)) if x.alpha != y.alpha]
        if moved:
            raise SystemExit(f"alpha differs at n={cell[0]} m={cell[1]}, graphs {moved}")
        report[cell] = {"nodes": [sum(x.nodes for x in rb), sum(y.nodes for y in rc)],
                        "ms": ([], [])}
    for i in range(rounds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for cell in cells:
            for s in order:
                ms = per_call_ms(sides[s].exact_mis, graphs[cell][s])
                report[cell]["ms"][s].append(round(ms, 4))
    out = {}
    for (n, m), rec in report.items():
        mb, mc = rec["ms"]
        med_b, med_c = statistics.median(mb), statistics.median(mc)
        out[f"n={n} m={m}"] = {
            "base_ms_median": round(med_b, 4),
            "change_ms_median": round(med_c, 4),
            "ratio": round(med_c / med_b, 3),
            "change_wins": sum(c < b for b, c in zip(mb, mc)),
            "base_nodes": rec["nodes"][0],
            "change_nodes": rec["nodes"][1],
            "base_ms": mb,
            "change_ms": mc,
        }
    return out


def parse_cells(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(tuple(map(int, c.split(":"))) for c in text.split(","))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision (default HEAD)")
    ap.add_argument("--change", default="worktree",
                    help="git revision, or worktree (the default)")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--graphs", type=int, default=60, help="graphs per cell")
    ap.add_argument("--cells", type=parse_cells, default=CELLS, help="n:m,n:m,...")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.graphs < 1:
        ap.error("--rounds and --graphs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            base = load(args.base, Path(tmp), "ab_base")
            change = load(args.change, Path(tmp), "ab_change")
            cells = compare(base, change, args.cells, args.graphs, args.rounds)
        finally:
            sys.path.remove(tmp)
    print(json.dumps({
        "tool": "tools/ab.py",
        "base": args.base,
        "change": args.change,
        "seed": SEED,
        "graphs_per_cell": args.graphs,
        "rounds": args.rounds,
        "python": sys.version.split()[0],
        "cells": cells,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
