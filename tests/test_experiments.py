"""Experiment harness: formula, seeding, runners, CSV/plot emission."""

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from math import comb, log
from pathlib import Path

import pytest

from greedymis import (
    EngineConfig,
    ExperimentConfig,
    FailureReport,
    Heuristic,
    WorkloadReport,
    density_grid,
    emit_csv,
    emit_plot,
    exact_mis,
    log_base,
    parse_algorithms,
    random_gnm,
    run_accuracy_experiment,
    run_failure_experiment,
    run_greedy,
    run_workload_experiment,
    tau_edgeless,
)
from greedymis import experiments
from greedymis.experiments import AccuracyCell, WorkloadCell
from greedymis.rng import derive_seed


class TestTauEdgeless:
    def test_anchor_values(self):
        assert tau_edgeless(10, 1) == 2640
        assert tau_edgeless(10, 2) == 33462
        assert tau_edgeless(10, 9) == 100
        assert tau_edgeless(10, 10) == 0

    def test_matches_direct_summation(self):
        for n in (1, 2, 7, 25, 60):
            for k in (1, 2, 3, 9, 12):
                direct = sum(
                    (k + 1) * comb(i, k) * comb(i, k + 1) for i in range(1, n + 1)
                )
                assert tau_edgeless(n, k) == direct, (n, k)

    def test_log_form(self):
        assert abs(log_base(tau_edgeless(10, 1), 10) - 3.42) < 0.005
        assert log_base(tau_edgeless(10, 10), 10) is None

    def test_big_n_exact_integers(self):
        # far beyond 64-bit range; spot values of the log-n form
        assert abs(log_base(tau_edgeless(10_000, 1), 10_000) - 3.85) <= 0.005
        assert abs(log_base(tau_edgeless(10_000, 10), 10_000) - 18.38) <= 0.005

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tau_edgeless(0, 1)
        with pytest.raises(ValueError):
            tau_edgeless(5, 0)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, 20, 80, 3) == derive_seed(1, 20, 80, 3)

    def test_every_coordinate_matters(self):
        base = derive_seed(1, 20, 80, 3)
        assert derive_seed(2, 20, 80, 3) != base
        assert derive_seed(1, 21, 80, 3) != base
        assert derive_seed(1, 20, 81, 3) != base
        assert derive_seed(1, 20, 80, 4) != base


class TestConfig:
    def test_parse_algorithms(self):
        specs = parse_algorithms("a1,b2")
        assert specs == (EngineConfig(Heuristic.A, 1), EngineConfig(Heuristic.B, 2))
        assert specs[0].name == "a1"

    @pytest.mark.parametrize(
        "bad", ["c1", "a", "1a", "a0x", "a1,a1", "a0", "a01", "b007", "a\uff11", "a\u00b2"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError, match="bad algorithm name|duplicate algorithm"):
            parse_algorithms(bad)

    def test_cells_from_rules(self):
        algos = parse_algorithms("a1")
        cfg = ExperimentConfig((10, 12), "4n", algos, 1, 0)
        assert cfg.cells() == ((10, 40), (12, 48))
        cfg = ExperimentConfig((10,), (30,), algos, 1, 0)
        assert cfg.cells() == ((10, 30),)
        cfg = ExperimentConfig((10,), (5, 10), algos, 1, 0)
        assert cfg.cells() == ((10, 5), (10, 10))

    def test_validation(self):
        algos = parse_algorithms("a1")
        with pytest.raises(ValueError):
            ExperimentConfig((10,), (40,), algos, 0, 0)  # runs < 1
        with pytest.raises(ValueError):
            ExperimentConfig((3,), (2,), algos, 1, 0)  # n < 4
        with pytest.raises(ValueError):
            ExperimentConfig((10,), (46,), algos, 1, 0)  # m > C(10,2)
        with pytest.raises(ValueError):
            ExperimentConfig((10,), "5n", algos, 1, 0)  # unknown rule
        with pytest.raises(ValueError):
            ExperimentConfig((10,), (40,), (), 1, 0)  # no algorithms
        with pytest.raises(ValueError):
            ExperimentConfig((10, 10), (20,), algos, 1, 0)  # repeated cell
        with pytest.raises(ValueError):
            ExperimentConfig((10,), (20, 30, 20), algos, 1, 0)  # repeated cell
        for rule in (40, (), [40]):  # m_rule is "4n" or a nonempty tuple
            with pytest.raises(ValueError, match="m rule"):
                ExperimentConfig((10,), rule, algos, 1, 0)

    def test_repeated_algorithm_rejected(self):
        # each member would run twice and write every CSV row twice
        a1 = EngineConfig(Heuristic.A, 1)
        with pytest.raises(ValueError, match="repeated name"):
            ExperimentConfig((10,), "4n", (a1, a1), 3, 1)
        with pytest.raises(ValueError, match="repeated name"):
            ExperimentConfig((10,), "4n", (a1, EngineConfig(Heuristic.B, 1), a1), 3, 1)

    def test_density_grid(self):
        grid = density_grid(30)
        assert grid[-1] == comb(30, 2)
        assert len(grid) == 12
        assert list(grid) == sorted(grid)


class TestFailureExperiment:
    CFG = ExperimentConfig((10,), "4n", parse_algorithms("a1,b1"), 40, 5)

    def test_report_shape_and_exact_ratio(self):
        report = run_failure_experiment(self.CFG)
        assert report.algorithms == ("a1", "b1")
        (cell,) = report.cells
        assert (cell.n, cell.m, cell.runs) == (10, 40, 40)
        for name in report.algorithms:
            assert 0 <= cell.failures[name] <= 40
            assert cell.ratio(name) == Fraction(cell.failures[name], 40)

    def test_rerun_is_byte_identical(self):
        a = emit_csv(run_failure_experiment(self.CFG))
        b = emit_csv(run_failure_experiment(self.CFG))
        assert a == b

    def test_jobs_do_not_change_output(self):
        a = emit_csv(run_failure_experiment(self.CFG, jobs=1))
        b = emit_csv(run_failure_experiment(self.CFG, jobs=2))
        assert a == b

    def test_paired_with_accuracy_runs(self):
        # same config => same derived seeds => identical graphs, so the
        # failure counts must equal the nonzero-gap counts
        fail = run_failure_experiment(self.CFG)
        acc = run_accuracy_experiment(self.CFG)
        for name in fail.algorithms:
            gaps = acc.cells[0].gaps[name]
            assert fail.cells[0].failures[name] == sum(
                c for g, c in gaps.items() if g > 0
            )

    def test_oracle_timeout_excludes_runs(self):
        cfg = ExperimentConfig((90,), "4n", parse_algorithms("a1"), 2, 3)
        report = run_failure_experiment(cfg, oracle_max_nodes=100)
        (cell,) = report.cells
        assert cell.oracle_timeouts == 2
        assert cell.runs == 0
        assert cell.ratio("a1") == 0
        lines = emit_csv(report).decode().splitlines()
        assert lines[1] == "90,360,0,a1,0,"

    def test_node_budget_is_deterministic_across_jobs_and_threads(self):
        # a budget of 1300 lies between the two runs' node counts, so it
        # excludes exactly one, whatever the machine, pool or thread
        nodes = [exact_mis(random_gnm(90, 360, derive_seed(3, 90, 360, r))).nodes
                 for r in range(2)]
        assert nodes == [1411, 1146]
        cfg = ExperimentConfig((90,), "4n", parse_algorithms("a1"), 2, 3)
        report = run_failure_experiment(cfg, oracle_max_nodes=1300)
        (cell,) = report.cells
        assert 0 < cell.oracle_timeouts < cfg.runs
        serial = emit_csv(report)
        pooled = run_failure_experiment(cfg, jobs=2, oracle_max_nodes=1300)
        assert emit_csv(pooled) == serial
        out = []

        def off_main_thread():
            out.append(emit_csv(run_failure_experiment(cfg, oracle_max_nodes=1300)))

        thread = threading.Thread(target=off_main_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert out == [serial]


class TestAccuracyExperiment:
    def test_gaps_nonnegative_and_counts_add_up(self):
        cfg = ExperimentConfig((12,), "4n", parse_algorithms("a1,b1"), 30, 2)
        report = run_accuracy_experiment(cfg)
        (cell,) = report.cells
        for name in report.algorithms:
            hist = cell.gaps[name]
            assert all(gap >= 0 for gap in hist)
            assert sum(hist.values()) == cell.runs

    def test_edgeless_density_like_cell_all_zero_gaps(self):
        # m = 0 cell: everything is independent, greedy always exact
        cfg = ExperimentConfig((10,), (0,), parse_algorithms("a1"), 5, 0)
        report = run_accuracy_experiment(cfg)
        assert report.cells[0].gaps["a1"] == {0: 5}


class TestWitnessFirstSeeding:
    def test_b2_work_falls_below_a_quarter(self):
        # counters, not clocks: stopping at alpha with the oracle's witness
        # seeded first costs 2249 evals; the lexicographic order cost 21201
        b2 = EngineConfig(Heuristic.B, 2)
        total = 0
        for r in range(40):
            g = random_gnm(30, 120, derive_seed(1, 30, 120, r))
            total += run_greedy(g, b2, target=exact_mis(g).witness).stats.heuristic_evals
        assert total == 2249

    def test_oracle_worker_seeds_from_the_oracle_witness(self, monkeypatch):
        calls = []

        def recording_run_greedy(g, cfg, **kwargs):
            calls.append(kwargs)
            return run_greedy(g, cfg, **kwargs)

        monkeypatch.setattr(experiments, "run_greedy", recording_run_greedy)
        algorithms = parse_algorithms("a1,b2")
        seed = derive_seed(1, 30, 120, 0)
        alpha, sizes = experiments._oracle_worker((30, 120, seed, algorithms, None))
        oracle = exact_mis(random_gnm(30, 120, seed))
        assert alpha == oracle.alpha
        assert calls == [{"target": oracle.witness}] * len(algorithms)
        assert len(sizes) == len(algorithms)


class TestWorkloadExperiment:
    CFG = ExperimentConfig((10,), (9, 22, 45), parse_algorithms("a1,b1"), 2, 8)

    def test_counters_and_ratios(self):
        report = run_workload_experiment(self.CFG)
        assert len(report.cells) == 3
        for cell in report.cells:
            for name in report.algorithms:
                assert cell.heuristic_evals[name] >= 0
                assert cell.adjacency_checks[name] > 0
        points = report.ratio_points(10)
        assert [m for m, _ in points] == [9, 22, 45]
        assert report.max_ratio(10) == max(r for _, r in points)

    def test_rerun_identical(self):
        assert emit_csv(run_workload_experiment(self.CFG)) == emit_csv(
            run_workload_experiment(self.CFG)
        )

    def test_unknown_n_rejected(self):
        report = run_workload_experiment(self.CFG)
        with pytest.raises(ValueError):
            report.max_ratio(11)

    @pytest.mark.parametrize("algos", ["a1", "b1", "a2,b1", "a1,b2"])
    def test_ratio_needs_a1_and_b1(self, algos):
        cfg = ExperimentConfig((10,), (9,), parse_algorithms(algos), 1, 8)
        report = run_workload_experiment(cfg)
        with pytest.raises(ValueError, match="needs a1 and b1"):
            report.ratio_points(10)
        with pytest.raises(ValueError, match="needs a1 and b1"):
            emit_plot(report)


def _exit_worker(_):
    os._exit(1)  # a worker process that dies mid-task breaks the pool


def _python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's greedymis."""
    src = str(Path(experiments.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


class TestMapRuns:
    @pytest.fixture
    def shutdowns(self):
        return []

    @pytest.fixture
    def pools(self, monkeypatch, shutdowns):
        """Record each pool's max_workers; map in-process, start no worker."""
        made = []

        class InProcessPool:
            def __init__(self, max_workers):
                made.append(max_workers)
                self.max_workers = max_workers

            def shutdown(self, wait=True):
                shutdowns.append((self.max_workers, wait))

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
        # the kept pool would bypass the fake; the real one is restored afterwards
        monkeypatch.setattr(experiments, "_pool", None)
        return made

    def test_workers_capped_at_run_count(self, pools):
        assert experiments._map_runs(abs, [-1, -2], 64) == [1, 2]
        assert experiments._map_runs(abs, [-3], 64) == [3]  # serial
        assert experiments._map_runs(abs, [], 64) == []
        assert pools == [2]

    def test_runner_with_few_runs_and_many_jobs(self, pools):
        cfg = ExperimentConfig((10,), (9,), parse_algorithms("a1"), 2, 1)
        serial = emit_csv(run_workload_experiment(cfg))
        assert emit_csv(run_workload_experiment(cfg, jobs=64)) == serial
        assert pools == [2]

    def test_experiments_at_one_width_share_one_pool(self, pools, shutdowns):
        cfg = ExperimentConfig((10,), (9, 22), parse_algorithms("a1"), 3, 1)
        serial = emit_csv(run_workload_experiment(cfg))
        assert emit_csv(run_workload_experiment(cfg, jobs=2)) == serial
        assert emit_csv(run_workload_experiment(cfg, jobs=2)) == serial
        assert pools == [2]
        assert shutdowns == []

    def test_width_change_replaces_the_pool(self, pools, shutdowns):
        assert experiments._map_runs(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert experiments._map_runs(abs, [-1, -2, -3], 3) == [1, 2, 3]
        assert experiments._map_runs(abs, [-4], 3) == [4]  # serial: no pool touched
        assert pools == [2, 3]
        assert shutdowns == [(2, True)]

    def test_broken_pool_is_replaced(self):
        with pytest.raises(BrokenProcessPool):
            experiments._map_runs(_exit_worker, [1, 2, 3, 4], 2)
        assert experiments._map_runs(abs, [-1, -2, -3], 2) == [1, 2, 3]

    def test_threads_at_mixed_widths_match_serial(self):
        cfg = ExperimentConfig((12,), "4n", parse_algorithms("a1,b1"), 8, 5)
        serial = emit_csv(run_failure_experiment(cfg))
        out, errors = [], []

        def run(jobs):
            try:
                out.append(emit_csv(run_failure_experiment(cfg, jobs=jobs)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(j,)) for j in (2, 3, 2, 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert out == [serial] * 4

    def test_idle_worker_death_starts_a_new_pool(self):
        assert experiments._map_runs(abs, [-1, -2], 2) == [1, 2]
        victim = multiprocessing.active_children()[0].pid
        os.kill(victim, signal.SIGKILL)
        # the pool marks itself broken, then reaps its workers
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        assert experiments._map_runs(abs, [-3, -4], 2) == [3, 4]

    def test_forked_child_starts_its_own_pool(self):
        script = (
            "import os, signal, sys\n"
            "import greedymis as gm\n"
            "from greedymis import experiments\n"
            "cfg = gm.ExperimentConfig((10,), '4n', gm.parse_algorithms('a1'), 4, 1)\n"
            "first = gm.emit_csv(gm.run_failure_experiment(cfg, jobs=2))\n"
            "experiments._pool_lock.acquire()  # as if another thread were mid-call\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(20)  # ends a child whose call never returns\n"
            "    sys.exit(gm.emit_csv(gm.run_failure_experiment(cfg, jobs=2)) != first)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        proc = _python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n", proc.stderr

    def test_workers_are_reaped_at_exit(self):
        script = (
            "import multiprocessing\n"
            "import greedymis as gm\n"
            "cfg = gm.ExperimentConfig((10,), '4n', gm.parse_algorithms('a1'), 4, 1)\n"
            "gm.run_failure_experiment(cfg, jobs=2)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        proc = _python(script)
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestEmission:
    def test_failure_csv_schema(self):
        cell = AccuracyCell(20, 80, 100, {"a1": {0: 97, 1: 2, 2: 1}, "b1": {0: 100}})
        report = FailureReport(("a1", "b1"), (cell,))
        lines = emit_csv(report).decode().splitlines()
        assert lines[0] == "n,m,runs,algorithm,failures,ratio"
        assert lines[1] == "20,80,100,a1,3,0.03"
        assert lines[2] == "20,80,100,b1,0,0.0"

    def test_empty_reports_header_only(self):
        assert emit_csv(FailureReport((), ())) == b"n,m,runs,algorithm,failures,ratio\n"
        assert emit_csv(WorkloadReport((), ())) == (
            b"n,m,algorithm,heuristic_evals,adjacency_checks\n"
        )

    def test_workload_csv_rows(self):
        report = run_workload_experiment(
            ExperimentConfig((10,), (9, 22), parse_algorithms("a1,b1"), 1, 8)
        )
        lines = emit_csv(report).decode().splitlines()
        assert lines[0] == "n,m,algorithm,heuristic_evals,adjacency_checks"
        assert len(lines) == 1 + 2 * 2  # cells x algorithms

    def test_plot_is_deterministic_svg(self):
        report = run_workload_experiment(
            ExperimentConfig((8, 10), (7, 14, 21), parse_algorithms("a1,b1"), 1, 8)
        )
        svg = emit_plot(report)
        assert svg.startswith(b"<svg ")
        assert svg.rstrip().endswith(b"</svg>")
        assert svg.count(b"<polyline") == 2  # one per n
        assert emit_plot(report) == svg

    def test_plot_accepts_empty_report(self):
        svg = emit_plot(WorkloadReport(("a1", "b1"), ()))
        assert svg.startswith(b"<svg ")

    def test_unsupported_report_type(self):
        with pytest.raises(TypeError):
            emit_csv(object())


# SHA-256 of each runner's CSV (and the workload SVG) on small multi-cell
# grids.  The digests were recorded from an earlier implementation of the
# runners, so a refactor that drifts a single byte fails here rather than
# only against a rerun of itself.
GOLDEN = {
    "failure": (
        run_failure_experiment,
        ExperimentConfig((24, 32), "4n", parse_algorithms("a1,a2"), 30, 3),
        "9f0bc12aafa9473682f1a6926b55d09426d499429d1243eb14abb9d7eda362e8",
        None,
    ),
    "accuracy": (
        run_accuracy_experiment,
        ExperimentConfig((32, 40), "4n", parse_algorithms("a1"), 30, 1),
        "d6c53b74d194e3b289886a3fc73cd5ee856ccfb230b0199112f8084424db94cd",
        None,
    ),
    "workload": (
        run_workload_experiment,
        ExperimentConfig((8, 10), (7, 14, 21), parse_algorithms("a1,b1,b2"), 3, 8),
        "87801ef95c0f489a468f3142fd266c741f3c628480c1a3daab5269ba25f5ea03",
        "08628e676365654740df1b32e0b0e9fc19038fc0de47500772fa7bac6c4a384f",
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_digests(kind, jobs):
    run, cfg, csv_digest, svg_digest = GOLDEN[kind]
    report = run(cfg, jobs=jobs)
    assert hashlib.sha256(emit_csv(report)).hexdigest() == csv_digest
    if svg_digest is not None:
        assert hashlib.sha256(emit_plot(report)).hexdigest() == svg_digest
