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
    derive_seed,
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
from greedymis.graph import MAX_VERTICES
from reference import BUDGET_CELL, BUDGET_NODES, NODE_BUDGET


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
        with pytest.raises(ValueError, match="graph limit"):
            tau_edgeless(MAX_VERTICES + 1, 1)


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
        with pytest.raises(ValueError, match="n_values must be nonempty"):
            ExperimentConfig((), "4n", algos, 1, 0)
        with pytest.raises(ValueError, match=r"must be EngineConfigs, got \('a1',\)"):
            ExperimentConfig((5,), (3,), ("a1",), 1, 0)  # a name, not a config
        for rule in (40, (), [40]):  # m_rule is "4n" or a nonempty tuple
            with pytest.raises(ValueError, match="m rule"):
                ExperimentConfig((10,), rule, algos, 1, 0)

    @pytest.mark.parametrize(
        "field, value",
        [("m_rule", (True,)), ("m_rule", (5.5,)), ("n_values", (10.0,)), ("n_values", (True,)),
         ("runs", 1.5), ("runs", True), ("base_seed", 0.5), ("base_seed", False)],
    )
    def test_numbers_that_are_not_ints_rejected(self, field, value):
        # else (True,) ran as m = 1 and wrote the CSV row 10,True,...; the
        # floats failed mid-run with a TypeError
        kwargs = dict(n_values=(10,), m_rule=(5,), algorithms=parse_algorithms("a1"), runs=2,
                      base_seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match="must be an int"):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("k", [True, 1.0, 2.5])
    def test_engine_config_k_must_be_an_int(self, k):
        # else EngineConfig(Heuristic.A, True) was named 'aTrue'
        with pytest.raises(ValueError, match="must be an int"):
            EngineConfig(Heuristic.A, k)

    @pytest.mark.parametrize("heuristic", ["a", "A", None])
    def test_engine_config_heuristic_must_be_a_heuristic(self, heuristic):
        # unchecked, EngineConfig("a", 1) would fail only later, at .name
        with pytest.raises(ValueError, match="must be a Heuristic"):
            EngineConfig(heuristic, 1)

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
        assert density_grid(2) == (1,)

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_density_grid_needs_two_vertices(self, n):
        # no graph of order below 2 has an edge to count
        with pytest.raises(ValueError, match="n >= 2"):
            density_grid(n)


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
        # a budget below both runs' node counts times out both
        n, m, seed = BUDGET_CELL
        assert 100 < min(BUDGET_NODES)
        cfg = ExperimentConfig((n,), (m,), parse_algorithms("a1"), 2, seed)
        report = run_failure_experiment(cfg, oracle_max_nodes=100)
        (cell,) = report.cells
        assert cell.oracle_timeouts == 2
        assert cell.runs == 0
        assert cell.ratio("a1") == 0
        lines = emit_csv(report).decode().splitlines()
        assert lines[1] == "90,360,0,a1,0,"

    def test_node_budget_is_deterministic_across_jobs_and_threads(self):
        # the budget lies between the two runs' node counts, so it
        # excludes exactly one, whatever the machine, pool or thread
        n, m, seed = BUDGET_CELL
        nodes = [exact_mis(random_gnm(n, m, derive_seed(seed, n, m, r))).nodes
                 for r in range(2)]
        assert nodes == BUDGET_NODES
        cfg = ExperimentConfig((n,), (m,), parse_algorithms("a1"), 2, seed)
        report = run_failure_experiment(cfg, oracle_max_nodes=NODE_BUDGET)
        (cell,) = report.cells
        assert 0 < cell.oracle_timeouts < cfg.runs
        serial = emit_csv(report)
        pooled = run_failure_experiment(cfg, jobs=2, oracle_max_nodes=NODE_BUDGET)
        assert emit_csv(pooled) == serial
        out = []

        def off_main_thread():
            out.append(emit_csv(run_failure_experiment(cfg, oracle_max_nodes=NODE_BUDGET)))

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

    def test_budget_that_is_not_an_int_rejected(self):
        # run 0 takes BUDGET_NODES[0] nodes, so a budget of 2.5 that ran
        # unbudgeted dropped no run
        n, m, seed = BUDGET_CELL
        cfg = ExperimentConfig((n,), (m,), parse_algorithms("a1"), 2, seed)
        with pytest.raises(ValueError, match="max_nodes must be >= 1 and an int, got 2.5"):
            run_accuracy_experiment(cfg, oracle_max_nodes=2.5)


class TestWitnessFirstSeeding:
    def test_b2_work_falls_below_a_quarter(self):
        # counters, not clocks: stopping at alpha with the oracle's witness
        # seeded first costs 2548 evals; the lexicographic order cost 21201
        b2 = EngineConfig(Heuristic.B, 2)
        total = 0
        for r in range(40):
            g = random_gnm(30, 120, derive_seed(1, 30, 120, r))
            total += run_greedy(g, b2, target=exact_mis(g).witness).stats.heuristic_evals
        assert total == 2548

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


def _exit_in_worker(x):
    if multiprocessing.parent_process() is not None:
        os._exit(1)  # a worker process that dies mid-call breaks the pool
    time.sleep(0.05)  # the caller drains too: leave runs for the worker
    return x


def _logged_worker(args):
    path, r = args
    with open(path, "a") as f:  # one short append per run, atomic across processes
        f.write(f"{r}\n")
    return r


def _raise_on_first(r):
    if r == 0:
        raise ValueError("run 0")
    time.sleep(0.2)
    return r


def _logged_raise_on_first(args):
    path, r = args
    with open(path, "a") as f:
        if r == 0:
            f.write("raise\n")
            raise ValueError("run 0")
    time.sleep(0.05)
    with open(path, "a") as f:
        f.write(f"{r}\n")
    return r


def _slow_in_worker(x):
    time.sleep(1.0 if multiprocessing.parent_process() is not None else 0.05)
    return x


def _lock_in_worker(x):
    if multiprocessing.parent_process() is not None:
        return threading.Lock()  # a result that does not pickle
    time.sleep(0.05)  # the caller drains too: leave runs for the worker
    return x


def _slow_abs(x):
    time.sleep(0.01)
    return abs(x)


def _python(script: str, *options: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter, started with the interpreter
    ``options``, that imports this checkout's greedymis."""
    src = str(Path(experiments.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *options, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestMapRuns:
    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        """Four usable CPUs, so that the widths below pass the CPU cap on any runner."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

    def test_workers_capped_at_run_count(self, pools):
        assert experiments._map_runs(abs, [-1, -2], 64) == [1, 2]
        assert experiments._map_runs(abs, [-3], 64) == [3]  # serial
        assert experiments._map_runs(abs, [], 64) == []
        assert pools == [1]  # the caller is the second process

    def test_workers_capped_at_cpu_count(self, pools, monkeypatch):
        cfg = ExperimentConfig((10,), "4n", parse_algorithms("a1"), 8, 1)
        serial = emit_csv(run_failure_experiment(cfg))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert emit_csv(run_failure_experiment(cfg, jobs=5000)) == serial
        # as under `taskset -c 3`: one usable CPU of the host's four, so serial
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert emit_csv(run_failure_experiment(cfg, jobs=5000)) == serial
        # no affinity mask on the platform: the host's count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert emit_csv(run_failure_experiment(cfg, jobs=5000)) == serial
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: run serially
        assert emit_csv(run_failure_experiment(cfg, jobs=5000)) == serial
        assert pools == [1, 2]

    @pytest.mark.parametrize("bad", [0, -3, True, 2.0])
    def test_jobs_must_be_an_int_of_at_least_one(self, bad):
        calls = []
        with pytest.raises(ValueError, match="jobs must be an int >= 1"):
            experiments._map_runs(calls.append, [1, 2], bad)
        assert calls == []  # refused before any run
        cfg = ExperimentConfig((10,), "4n", parse_algorithms("a1"), 2, 1)
        for run in (run_failure_experiment, run_workload_experiment):
            with pytest.raises(ValueError, match="jobs must be an int >= 1"):
                run(cfg, jobs=bad)

    def test_runner_with_few_runs_and_many_jobs(self, pools):
        cfg = ExperimentConfig((10,), (9,), parse_algorithms("a1"), 2, 1)
        serial = emit_csv(run_workload_experiment(cfg))
        assert emit_csv(run_workload_experiment(cfg, jobs=64)) == serial
        assert pools == [1]

    def test_experiments_at_one_width_share_one_pool(self, pools, shutdowns):
        cfg = ExperimentConfig((10,), (9, 22), parse_algorithms("a1"), 3, 1)
        serial = emit_csv(run_workload_experiment(cfg))
        assert emit_csv(run_workload_experiment(cfg, jobs=2)) == serial
        assert emit_csv(run_workload_experiment(cfg, jobs=2)) == serial
        assert pools == [1]
        assert shutdowns == []

    def test_width_change_replaces_the_pool(self, pools, shutdowns):
        assert experiments._map_runs(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert experiments._map_runs(abs, [-1, -2, -3], 3) == [1, 2, 3]
        assert experiments._map_runs(abs, [-4], 3) == [4]  # serial: no pool touched
        assert pools == [1, 2]
        assert shutdowns == [1]

    @pytest.mark.parametrize("runs", [2, 3, 60])  # fewer, as many and more than jobs
    def test_each_run_executed_once_in_run_order(self, runs, tmp_path):
        log = tmp_path / "runs.log"
        args = [(str(log), r) for r in range(runs)]
        assert experiments._map_runs(_logged_worker, args, 3) == list(range(runs))
        assert sorted(map(int, log.read_text().split())) == list(range(runs))

    def test_raising_call_leaves_no_run_to_the_next(self):
        # the caller, first to claim, raises on run 0 while the worker sleeps
        # in run 1; the call must read the worker's reply before it raises,
        # else the worker's drain would wake to claim runs of the next call
        # and its reply would reach that call
        assert experiments._map_runs(abs, [-1, -2], 2) == [1, 2]
        workers = [p.pid for p in multiprocessing.active_children()]
        with pytest.raises(ValueError, match="run 0"):
            experiments._map_runs(_raise_on_first, list(range(40)), 2)
        assert [p.pid for p in multiprocessing.active_children()] == workers  # kept
        args = list(range(-1, -41, -1))
        assert experiments._map_runs(_slow_abs, args, 2) == [abs(a) for a in args]

    def test_raising_run_stops_the_callers_drain(self, tmp_path):
        log = tmp_path / "runs.log"
        args = [(str(log), r) for r in range(40)]
        with pytest.raises(ValueError, match="run 0"):
            experiments._map_runs(_logged_raise_on_first, args, 2)
        lines = log.read_text().split()
        # at most the run in progress elsewhere and one claimed before the counter moved
        assert len(lines) - 1 - lines.index("raise") <= 2, lines
        args = [(str(tmp_path / "next.log"), r) for r in range(40)]
        assert experiments._map_runs(_logged_worker, args, 2) == list(range(40))

    def test_interrupt_mid_exchange_leaves_no_reply_to_the_next(self):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        handler = signal.signal(signal.SIGALRM, interrupt)
        try:
            # fires while the caller, its runs done, waits for the worker's reply
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                experiments._map_runs(_slow_in_worker, list(range(4)), 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert experiments._map_runs(abs, [-1, -2, -3], 2) == [1, 2, 3]

    def test_broken_pool_is_replaced(self):
        with pytest.raises(BrokenProcessPool):
            experiments._map_runs(_exit_in_worker, list(range(8)), 2)
        assert experiments._map_runs(abs, [-1, -2, -3], 2) == [1, 2, 3]

    def test_result_that_does_not_pickle_reaches_the_caller(self):
        with pytest.raises(TypeError, match="pickle"):
            experiments._map_runs(_lock_in_worker, list(range(8)), 2)
        workers = [p.pid for p in multiprocessing.active_children()]
        assert experiments._map_runs(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert [p.pid for p in multiprocessing.active_children()] == workers  # none died

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
        os.waitid(os.P_PID, victim, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        assert experiments._map_runs(abs, [-3, -4], 2) == [3, 4]
        with pytest.raises(ProcessLookupError):  # the call reaped it
            os.kill(victim, 0)

    def test_forked_child_starts_its_own_pool(self):
        script = (
            "import multiprocessing, os, signal, sys, time\n"
            "import greedymis as gm\n"
            "from greedymis import fanout\n"
            "cfg = gm.ExperimentConfig((10,), '4n', gm.parse_algorithms('a1'), 4, 1)\n"
            "first = gm.emit_csv(gm.run_failure_experiment(cfg, jobs=2))\n"
            "workers = [p.pid for p in multiprocessing.active_children()]\n"
            "fanout._pool_lock.acquire()  # as if another thread were mid-call\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(20)  # ends a child whose call never returns\n"
            "    sys.exit(gm.emit_csv(gm.run_failure_experiment(cfg, jobs=2)) != first)\n"
            "code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n"
            "time.sleep(0.2)  # a worker the child's exit terminated is gone by now\n"
            "print(code, [p.pid for p in multiprocessing.active_children()] == workers)\n"
        )
        proc = _python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 True\n", proc.stderr
        assert proc.stderr == ""

    def test_serial_runs_never_load_the_pool(self):
        script = (
            "import sys\n"
            "import greedymis\n"
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
            "from greedymis.cli import main\n"
            "main(['experiment', 'failure', '--n', '10', '--m', '4n', '--algos', 'a1',\n"
            "      '--runs', '4', '--jobs', '1'])\n"
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
        )
        proc = _python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "False False"
        assert proc.stdout.splitlines()[-1] == "False False"

    def test_raising_calls_leave_nothing_to_the_collector(self):
        # a raising call's traceback holds the pickled job in a cycle; a job
        # kept as the view over its BytesIO made the collector print an
        # ignored BufferError under -X dev
        script = (
            "import gc\n"
            "import greedymis as gm\n"
            "cfg = gm.ExperimentConfig((10,), '4n', gm.parse_algorithms('a1,b12'), 8, 1)\n"
            "for _ in range(3):\n"
            "    try:\n"
            "        gm.run_failure_experiment(cfg, jobs=2)\n"
            "    except gm.NoSeedSetsError:\n"
            "        pass\n"
            "    gc.collect()\n"
        )
        proc = _python(script, "-X", "dev")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

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
        assert len(pids) == 1  # one worker beside the caller
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_exit_when_the_caller_is_killed(self, tmp_path):
        pid_file = tmp_path / "pids"
        script = (
            "import multiprocessing, os, signal, sys\n"
            "import greedymis as gm\n"
            "cfg = gm.ExperimentConfig((10,), '4n', gm.parse_algorithms('a1'), 4, 1)\n"
            "gm.run_failure_experiment(cfg, jobs=2)\n"
            "with open(sys.argv[1], 'w') as f:\n"
            "    print(*[p.pid for p in multiprocessing.active_children()], file=f)\n"
            "os.kill(os.getpid(), signal.SIGKILL)  # no exit handler runs\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parent.parent))
        # no pipe to the script: a worker that outlived it would hold the pipe open
        proc = subprocess.run([sys.executable, "-c", script, str(pid_file)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        assert proc.returncode == -signal.SIGKILL
        pids = [int(p) for p in pid_file.read_text().split()]
        assert len(pids) == 1
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = list(filter(_running, pids))
        for pid in left:
            os.kill(pid, signal.SIGKILL)  # leave no worker behind
        assert left == []

    @pytest.mark.parametrize("method", [
        # Linux's default start method from Python 3.14 on
        pytest.param("forkserver", marks=pytest.mark.skipif(
            "forkserver" not in multiprocessing.get_all_start_methods(),
            reason="no forkserver start method on this platform")),
        "spawn",  # the default on macOS and Windows
    ])
    def test_non_fork_pool_matches_serial(self, method):
        script = (
            "import multiprocessing, os\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "import greedymis as gm\n"
            "from greedymis import fanout\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # a pool on any host\n"
            "cfg = gm.ExperimentConfig((20, 30), '4n', gm.parse_algorithms('a1,b2'), 100, 1)\n"
            "serial = gm.emit_csv(gm.run_failure_experiment(cfg))\n"
            "pooled = gm.emit_csv(gm.run_failure_experiment(cfg, jobs=2))\n"
            "print(len(fanout._pool.procs), pooled == serial,\n"
            "      multiprocessing.get_start_method())\n"
        )
        proc = _python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"1 True {method}\n", proc.stderr


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

    def test_plot_degenerate_axes(self):
        one_cell = run_workload_experiment(
            ExperimentConfig((10,), (9,), parse_algorithms("a1,b1"), 1, 8)
        )  # x_hi == x_lo
        zero = {"a1": 5, "b1": 0}
        all_zero = WorkloadReport(("a1", "b1"), (
            WorkloadCell(10, 9, zero, zero), WorkloadCell(10, 18, zero, zero)
        ))  # y_hi == y_lo
        for report in (one_cell, all_zero):
            svg = emit_plot(report)
            assert svg.startswith(b"<svg ") and svg.endswith(b"</svg>\n")
            assert svg.count(b"<svg") == svg.count(b"</svg>") == 1
            assert emit_plot(report) == svg

    def test_unsupported_report_type(self):
        accuracy = run_accuracy_experiment(
            ExperimentConfig((10,), (9,), parse_algorithms("a1"), 1, 0)
        )
        for emit, report in ((emit_csv, object()), (emit_plot, object()), (emit_plot, accuracy)):
            with pytest.raises(TypeError, match="unsupported report type"):
                emit(report)


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
