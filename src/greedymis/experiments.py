"""Seeded experiment harness.

Three experiment protocols over uniform G(n, m) graphs:

* failure: how often a greedy family member returns less than the true
  independence number (paired runs: all algorithms see the same graph),
* accuracy: the full distribution of the gap alpha(G) - A(G),
* workload: instrumentation counters for heuristic a versus heuristic b
  over an edge-count sweep, the raw material for work-ratio trends.

Every run of every cell derives its own seed from the experiment base
seed via :func:`greedymis.graph.derive_seed`, so any cell is independently
reproducible and reruns are byte-identical.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log

from .engine import EngineConfig, Heuristic, run_greedy
from .exact import OracleTimeout, exact_mis
from .graph import MAX_VERTICES, _is_int, derive_seed, random_gnm


def tau_edgeless(n: int, k: int) -> int:
    """Evaluation count (k+1) * sum(C(i,k) * C(i,k+1) for i = k..n), exactly.

    This is the total candidate-evaluation workload of the greedy family
    on an edgeless graph of order n with initial cardinality k.  Exact
    big-integer arithmetic; values overflow 64 bits well below n = 1000.
    n is at most ``MAX_VERTICES``, the largest order of a Graph.
    """
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")
    if n > MAX_VERTICES:
        raise ValueError(f"n={n} exceeds the graph limit {MAX_VERTICES}")
    return (k + 1) * sum(comb(i, k) * comb(i, k + 1) for i in range(k, n + 1))


def log_base(value: int, base: int) -> float | None:
    """log_base(value), or None when value is 0 (printed as undefined)."""
    if value == 0:
        return None
    return log(value) / log(base)


def density_grid(n: int) -> tuple[int, ...]:
    """Evenly spaced edge counts 1/12 .. 12/12 of C(n,2), without repeats.

    Every count is at least 1, so n must be at least 2.
    """
    if n < 2:
        raise ValueError(f"a density grid needs n >= 2, got {n}")
    npairs = n * (n - 1) // 2
    return tuple(sorted({max(1, j * npairs // 12) for j in range(1, 13)}))


def parse_algorithms(text: str) -> tuple[EngineConfig, ...]:
    """Parse a comma-separated algorithm list such as ``a1,b1,a2,b2``."""
    specs = []
    for part in text.split(","):
        name = part.strip().lower()
        if not re.fullmatch(r"[ab][1-9][0-9]*", name):
            raise ValueError(f"bad algorithm name {name!r} (expected e.g. a1, b2)")
        specs.append(EngineConfig(Heuristic(name[0]), int(name[1:])))
    if len({s.name for s in specs}) != len(specs):
        raise ValueError(f"duplicate algorithm in {text!r}")
    return tuple(specs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter grid: cells are n_values crossed with the edge-count rule.

    ``m_rule`` is the string "4n" for the density rule m = 4n, or a
    nonempty tuple of edge counts (a sweep applied to every n).  Each n,
    each edge count, ``runs`` and ``base_seed`` is an int (not a bool).
    """

    n_values: tuple[int, ...]
    m_rule: str | tuple[int, ...]
    algorithms: tuple[EngineConfig, ...]
    runs: int
    base_seed: int

    def __post_init__(self) -> None:
        if not _is_int(self.runs) or self.runs < 1:
            raise ValueError(f"runs must be an int >= 1, got {self.runs!r}")
        if not _is_int(self.base_seed):
            raise ValueError(f"base seed must be an int, got {self.base_seed!r}")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        if not all(isinstance(a, EngineConfig) for a in self.algorithms):
            raise ValueError(f"algorithms must be EngineConfigs, got {self.algorithms!r}")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ValueError(f"algorithm list {names} has a repeated name")
        for n in self.n_values:
            if not _is_int(n) or n < 4:
                raise ValueError(f"n must be an int >= 4, got {n!r}")
        if self.m_rule != "4n" and not (isinstance(self.m_rule, tuple) and self.m_rule):
            raise ValueError(f"m rule must be '4n' or a nonempty tuple, not {self.m_rule!r}")
        seen = set()
        for n, m in self.cells():
            if not _is_int(m):
                raise ValueError(f"edge count must be an int, got {m!r}")
            npairs = n * (n - 1) // 2
            if not 0 <= m <= npairs:
                raise ValueError(f"m={m} out of range for n={n} (max {npairs})")
            if (n, m) in seen:
                raise ValueError(f"cell n={n} m={m} is repeated")
            seen.add((n, m))

    def edge_counts(self, n: int) -> tuple[int, ...]:
        return (4 * n,) if self.m_rule == "4n" else self.m_rule

    def cells(self) -> tuple[tuple[int, int], ...]:
        return tuple((n, m) for n in self.n_values for m in self.edge_counts(n))


@dataclass(frozen=True)
class AccuracyCell:
    """One (n, m) cell of oracle-paired runs: each run's alpha - A(G) gaps."""

    n: int
    m: int
    runs: int  # counted runs; runs past the oracle budget are excluded
    gaps: dict[str, dict[int, int]]  # algorithm -> gap value -> count
    oracle_timeouts: int = 0

    @property
    def failures(self) -> dict[str, int]:
        """Runs per algorithm whose greedy size fell below alpha (nonzero gap)."""
        return {
            name: sum(count for gap, count in hist.items() if gap > 0)
            for name, hist in self.gaps.items()
        }

    def ratio(self, algorithm: str) -> Fraction:
        if self.runs == 0:
            return Fraction(0)
        return Fraction(self.failures[algorithm], self.runs)


@dataclass(frozen=True)
class AccuracyReport:
    algorithms: tuple[str, ...]
    cells: tuple[AccuracyCell, ...]


class FailureReport(AccuracyReport):
    """The same paired cells, rendered as failure counts (nonzero gaps)."""


@dataclass(frozen=True)
class WorkloadCell:
    n: int
    m: int
    heuristic_evals: dict[str, int]  # max observed over the cell's runs
    adjacency_checks: dict[str, int]


@dataclass(frozen=True)
class WorkloadReport:
    algorithms: tuple[str, ...]
    cells: tuple[WorkloadCell, ...]

    def ratio_points(self, n: int) -> tuple[tuple[int, Fraction], ...]:
        """(m, b1/a1 adjacency-check ratio) pairs for one n, sorted by m."""
        if not {"a1", "b1"} <= set(self.algorithms):
            raise ValueError(f"the b1/a1 ratio needs a1 and b1, report has {self.algorithms}")
        pts = []
        for cell in self.cells:
            if cell.n != n:
                continue
            den = cell.adjacency_checks["a1"]
            if den:
                pts.append((cell.m, Fraction(cell.adjacency_checks["b1"], den)))
        return tuple(sorted(pts))

    def max_ratio(self, n: int) -> Fraction:
        """Maximum over the edge sweep of the per-cell b1/a1 work ratio."""
        pts = self.ratio_points(n)
        if not pts:
            raise ValueError(f"no cells with n={n}")
        return max(r for _, r in pts)


def _oracle_worker(args):
    """One paired run: alpha plus each algorithm's size on the same graph."""
    n, m, seed, algorithms, max_nodes = args
    g = random_gnm(n, m, seed)
    try:
        oracle = exact_mis(g, max_nodes)
    except OracleTimeout:
        return None
    # greedy size <= alpha, so a chain reaching alpha settles the run; chains
    # grown from subsets of a maximum independent set usually reach it soonest
    sizes = [run_greedy(g, a, target=oracle.witness).size for a in algorithms]
    return oracle.alpha, sizes


def _counter_worker(args):
    """One paired run: instrumentation counters per algorithm, no oracle."""
    n, m, seed, algorithms = args
    g = random_gnm(n, m, seed)
    out = []
    for a in algorithms:
        res = run_greedy(g, a)
        out.append((res.stats.heuristic_evals, res.stats.adjacency_checks))
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` narrows it), else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_runs(worker, argslist, jobs: int):
    """``[worker(a) for a in argslist]``, on at most ``jobs`` processes.

    The count is capped at the run count and at the CPUs this process may
    use (its affinity mask, else ``os.cpu_count()``).  One process runs the
    list in-process; more run it through ``fanout.pooled_map``, which is
    imported here, at the first pooled call, with its process machinery.
    Results keep run order at any ``jobs``, which must be an int >= 1.
    """
    if not _is_int(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    jobs = min(jobs, len(argslist), _usable_cpus())  # every worker starts up front
    if jobs <= 1:
        return [worker(a) for a in argslist]
    from .fanout import pooled_map

    return pooled_map(worker, argslist, jobs)


def _cell_results(cfg: ExperimentConfig, worker, jobs: int, *extra):
    """Run every run of every cell in one fan-out; yield (n, m, results) per cell."""
    cells = cfg.cells()
    args = [
        (n, m, derive_seed(cfg.base_seed, n, m, r), cfg.algorithms, *extra)
        for n, m in cells
        for r in range(cfg.runs)
    ]
    results = _map_runs(worker, args, jobs)
    for i, (n, m) in enumerate(cells):
        yield n, m, results[i * cfg.runs : (i + 1) * cfg.runs]


def run_failure_experiment(
    cfg: ExperimentConfig, *, jobs: int = 1, oracle_max_nodes: int | None = None
) -> FailureReport:
    """Count runs where a greedy size falls below alpha, per cell and algorithm.

    A failure is a nonzero gap of the paired accuracy histogram, so the
    report holds the accuracy cells and reads their ``failures``.
    """
    acc = run_accuracy_experiment(cfg, jobs=jobs, oracle_max_nodes=oracle_max_nodes)
    return FailureReport(acc.algorithms, acc.cells)


def run_accuracy_experiment(
    cfg: ExperimentConfig, *, jobs: int = 1, oracle_max_nodes: int | None = None
) -> AccuracyReport:
    """Record the full alpha - A(G) gap histogram, per cell and algorithm.

    Runs whose oracle search exceeds ``oracle_max_nodes`` nodes are left out
    of the histogram and counted as ``oracle_timeouts``.
    """
    names = tuple(a.name for a in cfg.algorithms)
    cells = []
    for n, m, results in _cell_results(cfg, _oracle_worker, jobs, oracle_max_nodes):
        paired = [result for result in results if result is not None]
        hists = {
            name: dict(Counter(alpha - sizes[i] for alpha, sizes in paired))
            for i, name in enumerate(names)
        }
        timeouts = len(results) - len(paired)
        cells.append(AccuracyCell(n, m, len(paired), hists, timeouts))
    return AccuracyReport(names, tuple(cells))


def run_workload_experiment(
    cfg: ExperimentConfig, *, jobs: int = 1
) -> WorkloadReport:
    """Measure per-algorithm instrumentation counters over the (n, m) grid.

    Each cell records the maximum over its runs, i.e. the worst observed
    work; with runs = 1 this is simply the counter value.
    """
    names = tuple(a.name for a in cfg.algorithms)
    cells = []
    for n, m, results in _cell_results(cfg, _counter_worker, jobs):
        per_algo = dict(zip(names, zip(*results)))  # name -> (evals, checks) per run
        evals = {name: max(ev for ev, _ in runs) for name, runs in per_algo.items()}
        checks = {name: max(ch for _, ch in runs) for name, runs in per_algo.items()}
        cells.append(WorkloadCell(n, m, evals, checks))
    return WorkloadReport(names, tuple(cells))


def emit_csv(report: FailureReport | AccuracyReport | WorkloadReport) -> bytes:
    """Render a report as CSV (header row, UTF-8, LF line ends)."""
    # FailureReport is an AccuracyReport, so its branch must come first
    if isinstance(report, FailureReport):
        lines = ["n,m,runs,algorithm,failures,ratio"]
        for cell in report.cells:
            for name in report.algorithms:
                f = cell.failures[name]
                ratio = str(float(cell.ratio(name))) if cell.runs else ""
                lines.append(f"{cell.n},{cell.m},{cell.runs},{name},{f},{ratio}")
    elif isinstance(report, AccuracyReport):
        lines = ["n,m,runs,algorithm,gap,count"]
        for cell in report.cells:
            for name in report.algorithms:
                for gap in sorted(cell.gaps[name]):
                    count = cell.gaps[name][gap]
                    lines.append(f"{cell.n},{cell.m},{cell.runs},{name},{gap},{count}")
    elif isinstance(report, WorkloadReport):
        lines = ["n,m,algorithm,heuristic_evals,adjacency_checks"]
        for cell in report.cells:
            for name in report.algorithms:
                lines.append(
                    f"{cell.n},{cell.m},{name},"
                    f"{cell.heuristic_evals[name]},{cell.adjacency_checks[name]}"
                )
    else:
        raise TypeError(f"unsupported report type {type(report).__name__}")
    return ("\n".join(lines) + "\n").encode("utf-8")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(report: WorkloadReport) -> bytes:
    """Self-contained SVG: b1/a1 work ratio versus edge count, one polyline per n.

    Hand-rolled so identical reports yield byte-identical files.
    """
    if not isinstance(report, WorkloadReport):
        raise TypeError(f"unsupported report type {type(report).__name__}")
    width, height = 640, 440
    left, right, top, bottom = 62.0, 18.0, 18.0, 48.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    ns = sorted({cell.n for cell in report.cells})
    series = {n: report.ratio_points(n) for n in ns}
    xs = [m for pts in series.values() for m, _ in pts]
    ys = [float(r) for pts in series.values() for _, r in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (0.0, max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="black"/>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        px, py = sx(fx), sy(fy)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h:.2f}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 18:.2f}" '
            f'text-anchor="middle">{fx:g}</text>'
        )
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{py:.2f}" x2="{left:.2f}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{py + 4:.2f}" text-anchor="end">{fy:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 10:.2f}" '
        'text-anchor="middle">m (edge count)</text>'
    )
    parts.append(
        f'<text x="14" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.2f})">'
        "b1/a1 adjacency checks</text>"
    )
    for i, n in enumerate(ns):
        color = _PALETTE[i % len(_PALETTE)]
        pts = series[n]
        if pts:
            coords = " ".join(f"{sx(m):.2f},{sy(float(r)):.2f}" for m, r in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
            for m, r in pts:
                parts.append(
                    f'<circle cx="{sx(m):.2f}" cy="{sy(float(r)):.2f}" r="2.5" '
                    f'fill="{color}"/>'
                )
        parts.append(
            f'<text x="{left + plot_w - 6:.2f}" y="{top + 16 + 16 * i:.2f}" '
            f'text-anchor="end" fill="{color}">n={n}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
