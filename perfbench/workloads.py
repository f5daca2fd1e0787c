"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop with one caller: a unit is one call of an
experiment runner (or one ``greedymis experiment`` CLI process) on a fixed
number of graph instances, and the next unit starts when the previous one
ends.  A unit's base seed comes from the benchmark seed alone, so the
library only ever receives generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import greedymis as gm

from spans import Tracer, expansion_counts

ROOT = Path(__file__).resolve().parent.parent
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

DEFAULT_SEED = 1
# Never used while writing the benchmark; confirms claims on fresh inputs.
HELD_OUT_SEED = 1505
UNITS_PER_SEED = 64

HEADERS = {
    "failure": "n,m,runs,algorithm,failures,ratio",
    "accuracy": "n,m,runs,algorithm,gap,count",
    "workload": "n,m,algorithm,heuristic_evals,adjacency_checks",
}
RUNNERS = {
    "failure": gm.run_failure_experiment,
    "accuracy": gm.run_accuracy_experiment,
    "workload": gm.run_workload_experiment,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # experiment protocol: failure, accuracy or workload
    n: int
    m_rule: str | tuple[int, ...]
    algos: str
    runs: int  # runs per cell in one unit
    parallel: bool  # jobs = min(2, nproc) instead of 1
    via_cli: bool  # each unit is a fresh `greedymis experiment` process
    trace_units: int  # units replayed by the traced run

    def config(self, base_seed: int) -> gm.ExperimentConfig:
        return gm.ExperimentConfig(
            n_values=(self.n,),
            m_rule=self.m_rule,
            algorithms=gm.parse_algorithms(self.algos),
            runs=self.runs,
            base_seed=base_seed,
        )

    @property
    def instances(self) -> int:
        """Graph instances per unit: cells times runs."""
        return len(self.config(0).cells()) * self.runs

    def jobs(self) -> int:
        return min(2, len(os.sched_getaffinity(0))) if self.parallel else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("failure-n30", "failure", 30, "4n", "a1,a2,b2", 24, True, False, 8),
        Workload("accuracy-n80", "accuracy", 80, "4n", "a1", 4, False, False, 25),
        Workload(
            "sweep-n40", "workload", 40, gm.density_grid(40), "a1,b1", 1, False, True, 20
        ),
    )
}


def unit_seeds(workload: str, seed: int) -> list[int]:
    """The fixed list of unit base seeds for one benchmark seed."""
    return [
        int.from_bytes(hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()[:8], "big")
        >> 1
        for i in range(UNITS_PER_SEED)
    ]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outputs:
    csv: bytes
    svg: bytes | None
    report: object = None  # the runner's report, for in-process units


def run_inprocess(w: Workload, base_seed: int, jobs: int) -> Outputs:
    """One unit through the library's runner and emitters."""
    report = RUNNERS[w.kind](w.config(base_seed), jobs=jobs)
    svg = gm.emit_plot(report) if w.kind == "workload" else None
    return Outputs(gm.emit_csv(report), svg, report)


def run_cli(w: Workload, base_seed: int, tmp: Path) -> Outputs:
    """One unit as a `python -m greedymis experiment` process."""
    cfg = w.config(base_seed)
    stem = tmp / f"{w.name}-{os.getpid()}"
    csv_path, svg_path = stem.with_suffix(".csv"), stem.with_suffix(".svg")
    argv = [
        sys.executable, "-m", "greedymis", "experiment", w.kind,
        "--n", str(w.n),
        "--m", ",".join(str(m) for m in cfg.edge_counts(w.n)),
        "--algos", w.algos,
        "--runs", str(w.runs),
        "--seed", str(base_seed),
        "--jobs", str(w.jobs()),
        "--out", str(csv_path),
        "--plot", str(svg_path),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(
            f"CLI exited {proc.returncode}: {proc.stderr.decode(errors='replace')}"
        )
    return Outputs(csv_path.read_bytes(), svg_path.read_bytes())


def run_unit(w: Workload, base_seed: int, tmp: Path) -> Outputs:
    """The untraced unit that the end-to-end metrics time."""
    if w.via_cli:
        return run_cli(w, base_seed, tmp)
    return run_inprocess(w, base_seed, w.jobs())


def output_problems(
    w: Workload, base_seed: int, out: Outputs, pins: dict | None, unit: int
) -> list[str]:
    """Invariant checks on any seed; digest checks when ``pins`` is given."""
    try:
        problems = _invariant_problems(w, w.config(base_seed), out)
    except (ValueError, IndexError, KeyError) as exc:  # undecodable or malformed rows
        problems = [f"csv does not parse: {exc}"]
    if pins is not None:
        pin = pins["workloads"][w.name]
        slot = unit % UNITS_PER_SEED
        if sha256(out.csv) != pin["csv_sha256"][slot]:
            problems.append(f"csv digest differs from the pin for unit {slot}")
        if "svg_sha256" in pin and sha256(out.svg or b"") != pin["svg_sha256"][slot]:
            problems.append(f"svg digest differs from the pin for unit {slot}")
    return problems


def _invariant_problems(w: Workload, cfg: gm.ExperimentConfig, out: Outputs) -> list[str]:
    problems = []
    lines = out.csv.decode("utf-8").split("\n")
    if lines[0] != HEADERS[w.kind] or lines[-1] != "":
        problems.append("csv header or line ends differ")
    rows = [line.split(",") for line in lines[1:-1]]
    names = [a.name for a in cfg.algorithms]
    if w.kind == "failure":
        if [r[3] for r in rows] != names:
            problems.append("failure csv rows differ from the algorithm list")
        for r in rows:
            runs, fails = int(r[2]), int(r[4])
            if runs != w.runs or not 0 <= fails <= runs:
                problems.append(f"failure count {fails} not within runs {runs}")
    elif w.kind == "accuracy":
        totals = dict.fromkeys(names, 0)
        for r in rows:
            gap, count = int(r[4]), int(r[5])
            if gap < 0 or count < 1:
                problems.append(f"accuracy gap {gap} count {count} out of range")
            totals[r[3]] += count
        if any(t != w.runs for t in totals.values()):
            problems.append(f"accuracy counts {totals} do not sum to {w.runs} runs")
    else:
        expected = [(str(m), a) for _, m in cfg.cells() for a in names]
        if [(r[1], r[2]) for r in rows] != expected:
            problems.append("workload csv cells differ from the sweep grid")
        if any(int(r[3]) < 0 or int(r[4]) < 0 for r in rows):
            problems.append("negative workload counter")
        if not (out.svg or b"").startswith(b"<svg") or not out.svg.endswith(b"</svg>\n"):
            problems.append("svg is not a complete document")
    return problems


def _independent(g: gm.Graph, witness: tuple[int, ...]) -> bool:
    wmask = sum(1 << v for v in witness)
    return all(not g.adjacency_mask(v) & wmask for v in witness)


def _maximal(g: gm.Graph, witness: tuple[int, ...]) -> bool:
    blocked = 0
    for v in witness:
        blocked |= (1 << v) | g.adjacency_mask(v)
    return blocked == g.full_mask


class Counters:
    """Engine counter totals per member, plus the oracle's alpha sum."""

    def __init__(self, members: list[str]) -> None:
        self.per_member = {
            m: {"heuristic_evals": 0, "adjacency_checks": 0, "sets_expanded": 0, "children_kept": 0}
            for m in members
        }
        self.alpha_sum = 0

    def add(self, member: str, stats) -> None:
        c = self.per_member[member]
        expanded, kept = expansion_counts(stats.generation_sizes)
        c["heuristic_evals"] += stats.heuristic_evals
        c["adjacency_checks"] += stats.adjacency_checks
        c["sets_expanded"] += expanded
        c["children_kept"] += kept

    def totals(self) -> dict[str, int]:
        """The drift-check totals pinned at the default seed."""
        keys = ("heuristic_evals", "adjacency_checks", "sets_expanded")
        out = {k: sum(c[k] for c in self.per_member.values()) for k in keys}
        out["alpha_sum"] = self.alpha_sum
        return out


def replay(
    w: Workload, tr: Tracer, base_seed: int, unit: int, report, counters: Counters
) -> list[str]:
    """Re-run one unit layer by layer under ``tr`` and check every instance.

    Calls random_gnm, Graph, exact_mis, initial_generation and run_greedy
    directly, then emit_csv (and emit_plot) on the runner's ``report``.  The
    Graph rebuild, the initial_generation calls and the checks are probes:
    work the untraced unit does not do on its own.
    """
    problems = []
    cfg = w.config(base_seed)
    algos = cfg.algorithms
    seeding_ks = sorted({a.k for a in algos if a.k >= 2})
    uid = str(unit)
    failures = {a.name: 0 for a in algos}
    gaps: dict[str, dict[int, int]] = {a.name: {} for a in algos}
    workload_cells = []
    with tr.span(f"experiments.{RUNNERS[w.kind].__name__}", uid):
        for n, m in cfg.cells():
            evals = {a.name: 0 for a in algos}
            checks = {a.name: 0 for a in algos}
            for r in range(cfg.runs):
                rid = f"{uid}/{n}/{m}/{r}"
                seed = gm.derive_seed(base_seed, n, m, r)
                with tr.span("graph.random_gnm", rid):
                    g = gm.random_gnm(n, m, seed)
                with tr.span("graph.Graph", rid):
                    gm.Graph(n, g.edges)
                alpha = None
                if w.kind != "workload":
                    with tr.span("exact.exact_mis", rid):
                        oracle = gm.exact_mis(g)
                    alpha = oracle.alpha
                    counters.alpha_sum += alpha
                for k in seeding_ks:
                    with tr.span("engine.initial_generation", rid):
                        gm.initial_generation(g, k)
                results = []
                for a in algos:
                    with tr.span(f"engine.{a.name}", rid):
                        res = gm.run_greedy(g, gm.EngineConfig(a.heuristic, a.k))
                    results.append((a.name, res))
                with tr.span("check.instance", rid):
                    if alpha is not None and (
                        len(oracle.witness) != alpha or not _independent(g, oracle.witness)
                    ):
                        problems.append(f"run {rid}: oracle witness is not an independent alpha-set")
                    for name, res in results:
                        counters.add(name, res.stats)
                        if alpha is not None and res.size > alpha:
                            problems.append(f"run {rid}: {name} size {res.size} > alpha {alpha}")
                        if len(res.witness) != res.size or not (
                            _independent(g, res.witness) and _maximal(g, res.witness)
                        ):
                            problems.append(f"run {rid}: {name} witness not independent and maximal")
                        if alpha is not None:
                            failures[name] += res.size < alpha
                            hist = gaps[name]
                            hist[alpha - res.size] = hist.get(alpha - res.size, 0) + 1
                        evals[name] = max(evals[name], res.stats.heuristic_evals)
                        checks[name] = max(checks[name], res.stats.adjacency_checks)
            workload_cells.append((evals, checks))
        with tr.span("experiments.emit_csv", uid):
            gm.emit_csv(report)
        if w.kind == "workload":
            with tr.span("experiments.emit_plot", uid):
                gm.emit_plot(report)
        with tr.span("check.report", uid):
            if w.kind == "failure":
                replayed = [dict(failures)]
                reported = [dict(c.failures) for c in report.cells]
            elif w.kind == "accuracy":
                replayed = [gaps]
                reported = [c.gaps for c in report.cells]
            else:
                replayed = workload_cells
                reported = [(c.heuristic_evals, c.adjacency_checks) for c in report.cells]
            if replayed != reported:
                problems.append(f"unit {uid}: layer-by-layer replay disagrees with the runner")
    return problems
