"""Paired per-call A/B timing of ``exact_mis``, the greedy members and
``random_gnm`` between two revisions of the package.

Each side's ``src/greedymis`` is extracted into a temporary directory
under its own package name, ``ab_base`` and ``ab_change``, so both import
side by side in one process (the package imports itself relatively).  A
revision is anything ``git archive`` takes; ``worktree`` copies the
working tree's ``src/greedymis`` instead.  Each side builds its own
graphs, ``random_gnm(n, m, seed=derive_seed(1, n, m, r))`` for r below
the cell's graph count.  Every cell holds, per side, the calls to time,
one output per call that must be equal on both sides, and any per-side
totals:

* oracle: ``exact_mis`` on ``--graphs`` graphs per ``--cells`` cell.  The
  output is alpha; witnesses may differ, and each side's total search
  nodes are reported.
* generator: ``random_gnm`` itself on the ``--graphs`` seeds at n = 20,
  30, 40 and 80, m = 4n.  The output is the graph's ``adj``.
* members: ``run_greedy`` in target mode, with each side's own
  ``exact_mis`` witness as the target, for a1, b1, a2 and b2 on
  n=20 m=80, a1, a2 and b2 on n=30 m=120 and a1 on n=80 m=320, the
  benchmark's ``accuracy-n80`` member and the one target cell of density
  at most 1/4, where heuristic a runs on degree planes (``--graphs``
  graphs each), and in full mode for a1 and b1 on the 12
  ``density_grid(40)`` cells (a fifth of ``--graphs``, at least one,
  each).  The output is the run's witness, counters, generation sizes
  and ``complete``, so a change that moves an oracle witness fails the
  target cells.

Every cell is timed the same way, in ``--rounds`` rounds: each call's
base and change run back to back, the side that goes first alternating
from call to call and from round to round.  The tool prints one JSON
object with, per cell: the SHA-256 of the outputs, any per-side totals,
each side's median over the rounds of its mean milliseconds per call
(the scale of a call), and the paired verdict.  That verdict takes each
call's ratio change / base within a round, so drift in the host's speed
between rounds cancels: ``paired_ratio_geomean`` is the geometric mean
over the calls of each call's median ratio over the rounds, and
``graphs_slower`` the number of calls whose median ratio is above 1.
HEAD against HEAD at ``--rounds 7 --cells 20:80`` (three runs, 2-core
Xeon, Python 3.11.7) it read 0.982-1.014 on the member cells and
0.991-1.004 on the generator cells.

Take an oracle, generator or member verdict from
``paired_ratio_geomean``.  The tool times no process pool: take a
fan-out verdict only from the benchmark's ``failure-n30`` workload.

Run from the repository root, or anywhere inside the checkout::

    python tools/ab.py                          # HEAD against the working tree
    python tools/ab.py --base HEAD~1 --change HEAD --rounds 11
    python tools/ab.py --cells 80:320,25:300    # n:m oracle cells

It exits 1 when an output differs: an alpha, a graph or a run.
The default 7 rounds take about 110 s (2-core Xeon, Python 3.11.7).
"""

from __future__ import annotations

import argparse
import hashlib
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
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/greedymis"
SEED = 1
# m = 4n from n = 20 to 100; then K25, two dense cells and a sparse one
CELLS = ((20, 80), (30, 120), (40, 160), (60, 240), (80, 320), (100, 400),
         (25, 300), (40, 390), (60, 90), (80, 800))
GNM_N = (20, 30, 40, 80)  # generator cells, m = 4n
# members run to each side's own oracle witness, then full over density_grid
TARGET_CELLS = (("a1,b1,a2,b2", 20, 80), ("a1,a2,b2", 30, 120), ("a1", 80, 320))
FULL_N, FULL_MEMBERS = 40, "a1,b1"


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


def gnm_calls(pkg, n: int, m: int, count: int) -> list:
    """The cell's graphs, as calls to ``random_gnm``."""
    return [partial(pkg.random_gnm, n, m, seed=pkg.derive_seed(SEED, n, m, r))
            for r in range(count)]


def oracle_cells(pkg, cells, count: int) -> dict:
    """Per cell: the calls to time, their alphas, the node total."""
    out = {}
    for n, m in cells:
        graphs = [c() for c in gnm_calls(pkg, n, m, count)]
        res = [pkg.exact_mis(g) for g in graphs]
        out[f"n={n} m={m}"] = ([partial(pkg.exact_mis, g) for g in graphs],
                               [b"%d\n" % r.alpha for r in res],
                               {"nodes": sum(r.nodes for r in res)})
    return out


def gnm_cells(pkg, count: int) -> dict:
    """Per generator cell: the calls to time and each graph's ``adj``."""
    out = {}
    for n in GNM_N:
        calls = gnm_calls(pkg, n, 4 * n, count)
        out[f"random_gnm n={n} m={4 * n}"] = (calls, [b"%r\n" % (c().adj,) for c in calls], {})
    return out


def run_line(res) -> bytes:
    s = res.stats
    return (f"{res.witness}:{s.heuristic_evals}:{s.adjacency_checks}:"
            f"{s.generation_sizes}:{res.complete}\n".encode())


def member_cells(pkg, count: int) -> dict:
    """Per member cell: the calls to time and each run's result."""
    runs = {}
    for names, n, m in TARGET_CELLS:
        graphs = [c() for c in gnm_calls(pkg, n, m, count)]
        targets = [pkg.exact_mis(g).witness for g in graphs]
        for cfg in pkg.parse_algorithms(names):
            runs[f"{cfg.name} target n={n} m={m}"] = [
                partial(pkg.run_greedy, g, cfg, target=w) for g, w in zip(graphs, targets)]
    for m in pkg.density_grid(FULL_N):
        graphs = [c() for c in gnm_calls(pkg, FULL_N, m, max(count // 5, 1))]
        for cfg in pkg.parse_algorithms(FULL_MEMBERS):
            runs[f"{cfg.name} full n={FULL_N} m={m}"] = [
                partial(pkg.run_greedy, g, cfg) for g in graphs]
    return {label: (calls, [run_line(c()) for c in calls], {}) for label, calls in runs.items()}


def paired_ms(calls_b, calls_c, flip: int) -> tuple[list[float], list[float]]:
    """Per call, the milliseconds of its base and its change, timed back
    to back; base goes first on even calls when ``flip`` is 0 and on odd
    ones when it is 1."""
    ms = ([], [])
    for r, pair in enumerate(zip(calls_b, calls_c)):
        for s in ((0, 1) if (r + flip) % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            pair[s]()
            ms[s].append((time.perf_counter() - start) * 1e3)
    return ms


def compare(base, change, cells, count: int, rounds: int) -> dict:
    sides = [oracle_cells(p, cells, count) | gnm_cells(p, count) | member_cells(p, count)
             for p in (base, change)]
    pairs = {label: (cell, sides[1][label]) for label, cell in sides[0].items()}
    for label, ((_, out_b, _), (_, out_c, _)) in pairs.items():
        moved = [r for r, (x, y) in enumerate(zip(out_b, out_c)) if x != y]
        if moved:
            raise SystemExit(f"output differs at {label}, calls {moved}")
    times = {label: ([], []) for label in pairs}  # per side: per round, per call
    for i in range(rounds):
        for label, ((calls_b, _, _), (calls_c, _, _)) in pairs.items():
            for s, ms in enumerate(paired_ms(calls_b, calls_c, flip=i % 2)):
                times[label][s].append(ms)
    out = {}
    for label, ((_, outputs, totals_b), (_, _, totals_c)) in pairs.items():
        rows_b, rows_c = times[label]
        ratios = [statistics.median(c / b for b, c in zip(bs, cs))  # per call, over rounds
                  for bs, cs in zip(zip(*rows_b), zip(*rows_c))]
        out[label] = {
            "digest": hashlib.sha256(b"".join(outputs)).hexdigest(),
            **{f"base_{k}": v for k, v in totals_b.items()},
            **{f"change_{k}": v for k, v in totals_c.items()},
            "base_ms_median": round(statistics.median(map(statistics.fmean, rows_b)), 4),
            "change_ms_median": round(statistics.median(map(statistics.fmean, rows_c)), 4),
            "paired_ratio_geomean": round(statistics.geometric_mean(ratios), 3),
            "graphs_slower": sum(r > 1 for r in ratios),
        }
    return out


def parse_cells(text: str) -> tuple[tuple[int, int], ...]:
    """``n:m,n:m,...``, each with 0 <= m <= n(n-1)/2 as ``random_gnm`` takes."""
    cells = []
    for cell in text.split(","):
        try:
            n, m = map(int, cell.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"cell {cell!r} is not n:m") from None
        if n < 0 or not 0 <= m <= n * (n - 1) // 2:
            raise argparse.ArgumentTypeError(f"cell {cell!r} needs n >= 0, 0 <= m <= n(n-1)/2")
        cells.append((n, m))
    return tuple(cells)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision (default HEAD)")
    ap.add_argument("--change", default="worktree",
                    help="git revision, or worktree (the default)")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--graphs", type=int, default=60,
                    help="graphs per oracle, generator and target cell; a fifth per full cell")
    ap.add_argument("--cells", type=parse_cells, default=CELLS, help="oracle cells n:m,n:m,...")
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
