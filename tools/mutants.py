"""Mutation check: every listed mutant of ``src/greedymis`` must fail its tests.

Each mutant replaces one exact text of one source file.  The text must
occur exactly once, so a refactor that moves or rewrites the site fails
here loudly instead of silently dropping the mutant.  For each mutant the
script copies ``src/`` to a temporary directory, applies the mutant there
and runs the named test modules against the copy with ``pytest -x -q``.
A mutant is killed when they fail; one they pass survives.  A timeout or a
mutant that stops the tests from being collected is an error, not a kill.

Run from anywhere, with pytest and hypothesis installed::

    python tools/mutants.py    # exit 1 unless every mutant is killed

Before the mutants it runs every named module once on the unmutated
copy, so a suite that already fails cannot kill anything by accident.
Mutants that change no output cannot be killed; they are left out, each
with its reason, in the comments of MUTANTS.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # under src/greedymis
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # modules under tests/ that must fail


MUTANTS = (
    # --- engine: selection, terminal sets, cost model -------------------
    Mutant("tie-break", "engine.py",
           "            if key > best_key:\n",
           "            if key >= best_key:\n",
           ("test_engine.py",)),
    Mutant("pool-charge", "engine.py",
           "checks = c * (n - c) + ",
           "checks = c * (n - c - 1) + ",
           ("test_engine.py",)),
    Mutant("a-pool-charge", "engine.py",
           "adjacency_checks += c * (n - c) + ",
           "adjacency_checks += c * (n - c - 1) + ",
           ("test_engine.py",)),
    Mutant("empty-pool-terminal", "engine.py",
           "(smask | best_bit if best_bit else 0), best_pool",
           "smask | best_bit, best_pool",
           ("test_engine.py",)),
    Mutant("child-pool-is-parent-pool", "engine.py",
           "best_pool = u2",
           "best_pool = pool",
           ("test_engine.py",)),
    Mutant("seed-pool-keeps-seed", "engine.py",
           "full & ~(blocked | smask)",
           "full & ~blocked",
           ("test_engine.py",)),
    Mutant("outside-keeps-candidate", "engine.py",
           "~a ^ (1 << v)",
           "~a",
           ("test_engine.py",)),
    Mutant("b-weights", "engine.py",
           "tuple(scale // (d + 1) ",
           "tuple(scale // (d + 2) ",
           ("test_engine.py",)),
    Mutant("seed-filter-skipped", "engine.py",
           "            if blocked >> v & 1:\n",
           "            if False:\n",
           ("test_engine.py",)),
    # the width rule moves no output, but its tests read the table
    Mutant("delta-floor-moved", "engine.py",
           "(w >= 8 and w * p <= 1.1 * sqrt(w) - 1 for w ",
           "(w >= 9 and w * p <= 1.1 * sqrt(w) - 1 for w ",
           ("test_engine.py",)),
    Mutant("delta-corrections-dropped", "engine.py",
           "                    while near:\n",
           "                    while False:\n",
           ("test_engine.py",)),
    Mutant("delta-corrections-unlowered", "engine.py",
           "weights[dp[x] - (adj[x] & gone).bit_count()]",
           "weights[dp[x]]",
           ("test_engine.py",)),
    Mutant("delta-keeps-candidate-weight", "engine.py",
           "                    m2 = gone\n",
           "                    m2 = gone ^ low\n",
           ("test_engine.py",)),
    Mutant("a-tie-highest-id", "engine.py",
           "        low = cand & -cand\n",
           "        low = 1 << (cand.bit_length() - 1)\n",
           ("test_engine.py",)),
    Mutant("a-removed-vertex-not-lowered", "engine.py",
           "        nb = pool & adj[v]\n",
           "        nb = pool & adj[v]\n"
           "        nb &= nb - 1\n",
           ("test_engine.py",)),
    Mutant("a-carry-inverted", "engine.py",
           "                s &= cur\n",
           "                s &= ~cur\n",
           ("test_engine.py",)),
    Mutant("a-planes-kept-for-any-pool", "engine.py",
           "        if pool != last:\n",
           "        if last < 0:\n",
           ("test_engine.py",)),
    # dropped: the density rule that picks the plane path for heuristic a
    # moves no output, only the time a run takes.
    Mutant("target-stop-late", "engine.py",
           "            if c >= stop:\n",
           "            if c > stop:\n",
           ("test_engine.py",)),
    # --- exact oracle ---------------------------------------------------
    Mutant("incumbent-empty", "exact.py",
           "best_mask = g.full_mask & 1 ",
           "best_mask = 0 ",
           ("test_exact.py",)),
    Mutant("cover-prune-removed", "exact.py",
           "            if not rest:\n",
           "            if False:\n",
           ("test_exact.py",)),
    Mutant("cover-one-clique-too-many", "exact.py",
           "while rest and spare > 0:",
           "while rest and spare >= 0:",
           ("test_exact.py",)),
    # the one chain that lowers what a take or the exclude child recorded
    Mutant("step-carry-inverted", "exact.py",
           "                s &= c\n"
           "                i += 1\n"
           "            pending = ",
           "                s &= ~c\n"
           "                i += 1\n"
           "            pending = ",
           ("test_exact.py",)),
    Mutant("take-drop-not-recorded", "exact.py",
           "                    s = adj[nu.bit_length() - 1] & avail\n",
           "                    pass\n",
           ("test_exact.py",)),
    Mutant("exclude-drop-not-recorded", "exact.py",
           "            s = nv\n",
           "            s = 0\n",
           ("test_exact.py",)),
    Mutant("include-carry-inverted", "exact.py",
           "            s = adj[u] & avail\n"
           "            i = 0\n"
           "            while s:\n"
           "                c = planes[i]\n"
           "                planes[i] = c ^ s\n"
           "                s &= c\n",
           "            s = adj[u] & avail\n"
           "            i = 0\n"
           "            while s:\n"
           "                c = planes[i]\n"
           "                planes[i] = c ^ s\n"
           "                s &= ~c\n",
           ("test_exact.py",)),
    Mutant("pending-from-wrong-plane", "exact.py",
           "pending = avail & planes[-1]",
           "pending = avail & planes[-2]",
           ("test_exact.py",)),
    Mutant("include-planes-share-parent", "exact.py",
           "chosen | low, planes[:], nv))",
           "chosen | low, planes, nv))",
           ("test_exact.py",)),
    # the include child searched now and the exclude child stacked, as
    # before the exclude-first order; alpha stays right, witnesses move
    Mutant("include-first-order", "exact.py",
           "            stack.append((avail ^ nv, chosen | low, planes[:], nv))\n"
           "            # exclude child, searched now: N(v) loses a degree\n"
           "            s = nv\n",
           "            excluded = planes[:]\n"
           "            s = nv\n"
           "            i = 0\n"
           "            while s:\n"
           "                c = excluded[i]\n"
           "                excluded[i] = c ^ s\n"
           "                s &= c\n"
           "                i += 1\n"
           "            stack.append((avail, chosen, excluded, 0))\n"
           "            stack.append((avail ^ nv, chosen | low, planes, nv))\n"
           "            break\n",
           ("test_exact.py",)),
    Mutant("branch-tie-highest-id", "exact.py",
           "            low = cand & -cand\n"
           "            avail ^= low\n",
           "            low = 1 << (cand.bit_length() - 1)\n"
           "            avail ^= low\n",
           ("test_exact.py",)),
    Mutant("include-misses-one-neighbor", "exact.py",
           "planes[:], nv))",
           "planes[:], nv & (nv - 1)))",
           ("test_exact.py",)),
    # an unlimited search also fails here (None does not compare with >),
    # but the budget tests alone kill the boundary shift
    Mutant("node-budget-late", "exact.py",
           "            if nodes == max_nodes:\n",
           "            if nodes > max_nodes:\n",
           ("test_exact.py",)),
    Mutant("node-count-from-zero", "exact.py",
           "    nodes = 1  #",
           "    nodes = 0  #",
           ("test_exact.py",)),
    Mutant("leaf-tie-replaces-best", "exact.py",
           "            if chosen.bit_count() > best_mask.bit_count():\n",
           "            if chosen.bit_count() >= best_mask.bit_count():\n",
           ("test_exact.py",)),
    Mutant("witness-in-relabelled-ids", "exact.py",
           "    if order is not None:\n",
           "    if False:\n",
           ("test_exact.py",)),
    Mutant("smallest-last-tie-highest-id", "exact.py",
           "        low = cand & -cand\n"
           "        left ^= low\n",
           "        low = 1 << (cand.bit_length() - 1)\n"
           "        left ^= low\n",
           ("test_exact.py",)),
    # --- degree planes -------------------------------------------------
    Mutant("planes-top-not-degree-one", "graph.py",
           "    top = (1 << (w - 1)) + 1\n",
           "    top = 1 << (w - 1)\n",
           ("test_graph.py", "test_exact.py")),
    Mutant("planes-one-too-few", "graph.py",
           "w = max(size - 3, 1).bit_length() + 1",
           "w = max(size - 3, 1).bit_length()",
           ("test_graph.py", "test_exact.py")),
    # --- seeded randomness ----------------------------------------------
    Mutant("gnm-rejection-off-by-one", "graph.py",
           "            if t <= j:\n",
           "            if t < j:\n",
           ("test_graph.py",)),
    Mutant("below-accepts-bound", "rng.py",
           "            if r < bound:\n",
           "            if r <= bound:\n",
           ("test_graph.py", "test_experiments.py")),
    Mutant("derive-seed-order", "rng.py",
           "    for v in values:\n",
           "    for v in reversed(values):\n",
           ("test_graph.py", "test_experiments.py")),
    # --- experiment harness ---------------------------------------------
    Mutant("cell-results-slice", "experiments.py",
           "results[i * cfg.runs : (i + 1) * cfg.runs]",
           "results[i : i + cfg.runs]",
           ("test_experiments.py",)),
    Mutant("worker-target-all-vertices", "experiments.py",
           "run_greedy(g, a, target=oracle.witness)",
           "run_greedy(g, a, target=tuple(range(g.n)))",
           ("test_experiments.py",)),
    Mutant("failure-report-rendered-as-accuracy", "experiments.py",
           "    if isinstance(report, FailureReport):\n",
           "    if type(report) is AccuracyReport:\n",
           ("test_experiments.py",)),
    Mutant("jobs-cap-removed", "experiments.py",
           "jobs = min(jobs, len(argslist), ",
           "jobs = min(jobs, ",
           ("test_experiments.py",)),
    Mutant("cpu-cap-removed", "experiments.py",
           "len(argslist), _usable_cpus())",
           "len(argslist))",
           ("test_experiments.py", "test_cli.py")),
    Mutant("affinity-ignored", "experiments.py",
           "        return len(os.sched_getaffinity(0))\n",
           "        return os.cpu_count() or 1\n",
           ("test_experiments.py",)),
    Mutant("pool-imported-with-the-module", "experiments.py",
           "from .rng import derive_seed\n",
           "from .fanout import pooled_map\nfrom .rng import derive_seed\n",
           ("test_experiments.py",)),
    Mutant("pool-reused-at-any-width", "fanout.py",
           "        if _pool is not None and len(_pool.procs) != jobs - 1:\n",
           "        if False:\n",
           ("test_experiments.py",)),
    Mutant("broken-pool-kept", "fanout.py",
           "                self.procs[k].join()\n"
           "                self.conns[k].close()\n"
           "                self._start(k)\n",
           "                raise\n",
           ("test_experiments.py",)),
    Mutant("counter-not-reset", "fanout.py",
           "        pool.counter.value = 0\n",
           "",
           ("test_experiments.py",)),
    # a raising run in the caller raises at once, before the worker's reply
    # is read, so the worker is stopped mid-run and started anew
    Mutant("drain-no-wait", "fanout.py",
           "            finally:  # after a raising run too, so that no drain outlives the call\n"
           "                theirs = pool.replies()\n"
           "                settled = True\n",
           "            except BaseException:\n"
           "                raise\n"
           "            theirs = pool.replies()\n"
           "            settled = True\n",
           ("test_experiments.py",)),
    # a raising run leaves the counter where it was: every other drain
    # runs on to the end
    Mutant("raise-keeps-claims", "fanout.py",
           "    except BaseException:\n"
           "        counter.value = end\n",
           "    except BaseException:\n",
           ("test_experiments.py",)),
    # an interrupted call keeps its workers: an unread reply and a drain
    # still running reach the next call
    Mutant("interrupt-keeps-workers", "fanout.py",
           "            if not settled:",
           "            if False:",
           ("test_experiments.py",)),
    # a result that does not pickle kills its worker: the caller reads
    # BrokenProcessPool instead of the pickling error
    Mutant("unpicklable-reply-kills-worker", "fanout.py",
           "        except Exception as exc:  # a result that does not pickle: nothing was sent\n"
           "            conn.send(exc)\n",
           "",
           ("test_experiments.py",)),
    Mutant("pool-kept-across-fork", "fanout.py",
           "    os.register_at_fork(after_in_child=_forget_pool)\n",
           "    pass\n",
           ("test_experiments.py",)),
    # a forked worker keeps its copy of the caller's end and outlives a
    # killed caller
    Mutant("worker-keeps-caller-end", "fanout.py",
           "    caller_end.close()",
           "    pass",
           ("test_experiments.py",)),
    # the forked child's exit terminates the parent's daemon workers
    Mutant("fork-child-stops-parent-workers", "fanout.py",
           "        process._children.difference_update(_pool.procs)\n",
           "        pass\n",
           ("test_experiments.py",)),
    # dropped: removing `_pool_lock` makes threads race only on some
    # schedules, so no test can kill it every time.
    Mutant("repeated-algorithm-accepted", "experiments.py",
           "        if len(set(names)) != len(names):\n",
           "        if False:\n",
           ("test_experiments.py",)),
    Mutant("ratio-guard-removed", "experiments.py",
           '        if not {"a1", "b1"} <= set(self.algorithms):\n',
           "        if False:\n",
           ("test_experiments.py",)),
    # --- command line --------------------------------------------------
    Mutant("same-path-check-removed", "cli.py",
           "    if args.out and args.plot and Path(args.out).resolve() == Path(args.plot).resolve():\n",
           "    if False:\n",
           ("test_cli.py",)),
    Mutant("count-digits-any-script", "cli.py",
           're.fullmatch("[0-9]+", text)',
           "text.isdecimal()",
           ("test_cli.py",)),
    # --- DIMACS ---------------------------------------------------------
    Mutant("dimacs-read-zero-based", "dimacs.py",
           "edges.append((u - 1, v - 1))",
           "edges.append((u, v))",
           ("test_dimacs.py",)),
    Mutant("dimacs-digits-any-script", "dimacs.py",
           're.fullmatch("[0-9]+", f)',
           "f.isdecimal()",
           ("test_dimacs.py",)),
    Mutant("dimacs-write-zero-based", "dimacs.py",
           'f"e {u + 1} {v + 1}"',
           'f"e {u} {v}"',
           ("test_dimacs.py",)),
)


def run_tests(src: Path, modules) -> int | None:
    """Exit code of pytest on ``modules`` against ``src``; None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += [str(ROOT / "tests" / m) for m in modules]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def mutated(src: Path, m: Mutant) -> str:
    """The text of ``m.path`` under ``src`` with the mutant applied."""
    text = (src / "greedymis" / m.path).read_text()
    count = text.count(m.old)
    if count != 1:
        sys.exit(f"{m.name}: old text occurs {count} times in {m.path}, not once")
    return text.replace(m.old, m.new)


def main() -> int:
    for m in MUTANTS:  # every site must exist before anything runs
        mutated(ROOT / "src", m)

    modules = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        code = run_tests(copy_src(tmp), modules)
    if code != 0:
        sys.exit(f"unmutated tests do not pass (pytest exit {code}): {modules}")

    survivors = []
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            (src / "greedymis" / m.path).write_text(mutated(src, m))
            code = run_tests(src, m.tests)
        # pytest exits 1 when tests ran and some failed
        verdict = {1: "killed", 0: "SURVIVED", None: "TIMED OUT"}.get(
            code, f"ERROR (pytest exit {code})"
        )
        print(f"{verdict:<10} {m.name}", flush=True)
        if code != 1:
            survivors.append(m.name)
    killed = len(MUTANTS) - len(survivors)
    print(f"{killed}/{len(MUTANTS)} mutants killed; survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
