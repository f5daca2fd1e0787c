"""Command-line interface: subcommands, exit codes, deterministic outputs."""

import inspect
import itertools
import os
import re
import shlex
from pathlib import Path

import pytest

from greedymis import Graph, cli, derive_seed, exact_mis, random_gnm, write_graph
from greedymis.cli import main
from greedymis.dimacs import MAX_VERTICES
from greedymis.engine import MAX_SEEDS
from reference import BUDGET_CELL, BUDGET_NODES, NODE_BUDGET

K5 = Graph(5, list(itertools.combinations(range(5), 2)))


def _single_error_line(capsys) -> str:
    """Assert the command printed nothing but one ``error:`` line; return it."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.col"
    path.write_bytes(write_graph(K5))
    return str(path)


class TestSolve:
    def test_complete_graph(self, k5_file, capsys):
        assert main(["solve", "--graph", k5_file, "--heuristic", "a", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("size=1 ")
        assert "witness=0" in out

    def test_k_above_alpha_is_infeasible(self, k5_file, tmp_path, capsys):
        assert main(["solve", "--graph", k5_file, "--heuristic", "a", "--k", "2"]) == 3
        capsys.readouterr()
        empty = tmp_path / "empty.col"
        empty.write_bytes(write_graph(Graph(0)))
        for heuristic in ("a", "b"):
            assert main(["solve", "--graph", str(empty), "--heuristic", heuristic]) == 3
            assert _single_error_line(capsys) == (
                "error: no independent set of cardinality 1 exists\n"
            )

    def test_seed_limit_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "big.col"
        path.write_bytes(write_graph(Graph(1000)))
        assert main(["solve", "--graph", str(path), "--heuristic", "a", "--k", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.col")
        assert main(["solve", "--graph", missing, "--heuristic", "a"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 3 1\ne 1 9\n")
        assert main(["solve", "--graph", str(bad), "--heuristic", "b"]) == 2
        assert "line 2" in capsys.readouterr().err
        bad.write_text("p edge 3 5\ne 1 2\n")  # truncated: fewer e lines than m
        for argv in (["solve", "--heuristic", "a"], ["oracle"]):
            assert main([*argv, "--graph", str(bad)]) == 2
            assert _single_error_line(capsys).startswith("error: line 1: header declares 5")


class TestOracle:
    def test_alpha(self, k5_file, capsys):
        assert main(["oracle", "--graph", k5_file]) == 0
        assert capsys.readouterr().out.startswith("alpha=1 ")

    def test_search_counters_go_to_stderr(self, k5_file, capsys):
        # stdout keeps the bytes it had before the counters were reported
        assert main(["oracle", "--graph", k5_file]) == 0
        assert capsys.readouterr() == ("alpha=1 witness=0\n", "nodes=1 bound_prunes=1\n")

    def test_relabelled_search_reports_the_library_result(self, tmp_path, capsys):
        g = random_gnm(60, 240, seed=derive_seed(1, 60, 240, 0))
        path = tmp_path / "g.col"
        path.write_bytes(write_graph(g))
        res = exact_mis(g)
        assert main(["oracle", "--graph", str(path)]) == 0
        assert capsys.readouterr() == (
            f"alpha={res.alpha} witness={','.join(map(str, res.witness))}\n",
            f"nodes={res.nodes} bound_prunes={res.bound_prunes}\n",
        )

    def test_timeout_exit_code(self, tmp_path, capsys):
        path = tmp_path / "big.col"
        path.write_bytes(write_graph(random_gnm(90, 360, seed=5)))
        assert main(["oracle", "--graph", str(path), "--max-nodes", "100"]) == 3
        assert "timed out" in capsys.readouterr().err


class TestGenerate:
    def test_writes_deterministic_file(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.col", tmp_path / "b.col"
        args = ["generate", "--n", "20", "--m", "80", "--seed", "1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "p edge 20 80"

    def test_stdout_when_no_out(self, capsys):
        assert main(["generate", "--n", "3", "--m", "0", "--seed", "9"]) == 0
        assert capsys.readouterr().out == "p edge 3 0\n"

    def test_m_too_large(self, capsys):
        assert main(["generate", "--n", "5", "--m", "11", "--seed", "0"]) == 2

    def test_over_the_vertex_bound_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "g.col"
        n = str(MAX_VERTICES + 1)
        assert main(["generate", "--n", n, "--m", "0", "--out", str(out)]) == 2
        assert "exceed the limit" in _single_error_line(capsys)
        assert not out.exists()

    def test_huge_vertex_count_is_input_error(self, capsys):
        # more vertices than a list can hold: refused before any allocation
        assert main(["generate", "--n", "9" * 20, "--m", "0"]) == 2
        assert "exceed the limit" in _single_error_line(capsys)

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.col"
        assert main(["generate", "--n", "5", "--m", "3", "--out", str(out)]) == 2
        assert "No such file or directory" in _single_error_line(capsys)


class TestFormula:
    def test_anchor(self, capsys):
        assert main(["formula", "--n", "10", "--k", "1"]) == 0
        assert capsys.readouterr().out == "tau=2640 log=3.42\n"

    def test_undefined_log(self, capsys):
        assert main(["formula", "--n", "10", "--k", "10"]) == 0
        assert capsys.readouterr().out == "tau=0 log=undefined\n"

    def test_n_above_the_graph_limit_is_input_error(self, capsys):
        assert main(["formula", "--n", "1000000000", "--k", "1"]) == 2
        assert "exceeds the graph limit" in _single_error_line(capsys)


class TestExperiment:
    def test_failure_csv(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        args = [
            "experiment", "failure", "--n", "10", "--m", "40", "--runs", "25",
            "--seed", "1", "--algos", "a1,b1,a2,b2", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m,runs,algorithm,failures,ratio"
        assert len(lines) == 5
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_huge_vertex_count_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        args = [
            "experiment", "accuracy", "--n", "9" * 20, "--m", "0",
            "--algos", "a1", "--runs", "1", "--out", str(out),
        ]
        assert main(args) == 2
        assert "exceed the limit" in _single_error_line(capsys)
        assert not out.exists()

    def test_jobs_capped_at_cpu_count(self, monkeypatch, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = [
            "experiment", "failure", "--n", "10", "--m", "4n", "--algos", "a1",
            "--runs", "8", "--jobs", "64",
        ]
        assert main(args) == 0
        assert pools == [1]  # the caller is the second process

    def test_jobs_flag_identical_output(self, tmp_path):
        outs = []
        for jobs, name in ((1, "j1.csv"), (2, "j2.csv")):
            out = tmp_path / name
            main([
                "experiment", "accuracy", "--n", "10", "--m", "4n",
                "--runs", "20", "--seed", "2", "--algos", "a1,b1",
                "--jobs", str(jobs), "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_workload_with_plot(self, tmp_path, capsys):
        out, plot = tmp_path / "w.csv", tmp_path / "w.svg"
        args = [
            "experiment", "workload", "--n", "10", "--m", "9,22,45",
            "--runs", "1", "--seed", "8", "--algos", "a1,b1",
            "--out", str(out), "--plot", str(plot),
        ]
        assert main(args) == 0
        assert out.read_text().splitlines()[0] == "n,m,algorithm,heuristic_evals,adjacency_checks"
        assert plot.read_bytes().startswith(b"<svg ")

    def test_plot_requires_workload(self, tmp_path, capsys):
        args = [
            "experiment", "failure", "--n", "10", "--m", "40", "--runs", "2",
            "--seed", "1", "--algos", "a1", "--plot", str(tmp_path / "x.svg"),
        ]
        assert main(args) == 1

    def test_plot_requires_a1_and_b1(self, tmp_path, capsys):
        out, plot = tmp_path / "w.csv", tmp_path / "w.svg"
        args = [
            "experiment", "workload", "--n", "10", "--m", "9,22", "--runs", "1",
            "--seed", "8", "--algos", "a1,b2", "--out", str(out), "--plot", str(plot),
        ]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists() and not plot.exists()

    def test_missing_m_is_usage_error(self, capsys):
        args = ["experiment", "failure", "--n", "10", "--runs", "2",
                "--seed", "1", "--algos", "a1"]
        assert main(args) == 1

    def test_bad_algos_is_usage_error(self, capsys):
        args = ["experiment", "failure", "--n", "10", "--m", "40", "--runs", "2",
                "--seed", "1", "--algos", "z9"]
        assert main(args) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--runs", "0"],
            ["--jobs", "0"],
            ["--jobs", "-2"],
            ["--max-nodes", "0"],
            ["--max-nodes", "-1"],
            ["--max-nodes", "1.5"],
            ["--runs", "３"],
            ["--runs", "٢"],
        ],
    )
    def test_count_flags_must_be_positive(self, flags, capsys):
        args = ["experiment", "failure", "--n", "10", "--m", "40", "--seed", "1",
                "--algos", "a1", *flags]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags", [["--n", "３０"], ["--n", "3_0"], ["--seed", "３"]]
    )
    def test_integer_flags_take_ascii_digits(self, flags, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_failure_experiment", lambda *a, **k: pytest.fail("ran"))
        args = ["experiment", "failure", "--n", "30", "--m", "4n", "--algos", "a1", *flags]
        assert main(args) == 1
        assert repr(flags[1]) in _single_error_line(capsys)

    def test_infeasible_m_is_input_error(self, capsys):
        args = ["experiment", "failure", "--n", "10", "--m", "99", "--runs", "2",
                "--seed", "1", "--algos", "a1"]
        assert main(args) == 2

    def test_repeated_cell_is_input_error(self, capsys):
        args = ["experiment", "failure", "--n", "10,10", "--m", "20", "--runs", "2",
                "--algos", "a1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated" in captured.err

    def test_m_4n_is_the_explicit_count(self, tmp_path, capsys):
        outs = []
        for m in ("4n", "40"):
            out = tmp_path / f"{m}.csv"
            args = ["experiment", "failure", "--n", "10", "--m", m, "--runs", "5",
                    "--seed", "1", "--algos", "a1", "--out", str(out)]
            assert main(args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["failure", "--n", "10", "--m", "4n", "--algos", "a9"],
             "no independent set of cardinality 9 exists"),
            (["workload", "--n", "1500", "--m", "0", "--algos", "a2"],
             "C(1500,2) = 1124250 candidate seed sets exceed the limit 1000000"),
        ],
    )
    def test_seeding_errors_cross_the_process_pool(self, argv, message, capsys):
        for jobs in ("1", "2"):
            assert main(["experiment", *argv, "--runs", "2", "--jobs", jobs]) == 3
            assert _single_error_line(capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_unwritable_output_fails_before_any_run(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_workload_experiment", lambda *a, **k: pytest.fail("ran"))
        existing_dir = tmp_path / "taken"
        existing_dir.mkdir()
        for path in (tmp_path / "missing" / "w.out", existing_dir):
            args = ["experiment", "workload", "--n", "10", "--m", "9,22", "--algos", "a1,b1",
                    flag, str(path)]
            assert main(args) == 2
            assert str(path) in _single_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert list(existing_dir.iterdir()) == []

    def test_out_and_plot_must_differ(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_workload_experiment", lambda *a, **k: pytest.fail("ran"))
        (tmp_path / "sub").mkdir()
        args = ["experiment", "workload", "--n", "10", "--m", "9,22", "--algos", "a1,b1",
                "--seed", "1", "--out", str(tmp_path / "same.out"),
                "--plot", str(tmp_path / "sub" / ".." / "same.out")]
        assert main(args) == 1
        assert _single_error_line(capsys) == "error: --out and --plot must name different files\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    def test_interrupt_is_one_line_and_exit_130(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_accuracy_experiment", interrupted)
        args = ["experiment", "accuracy", "--n", "80", "--m", "4n", "--algos", "a1",
                "--runs", "3000", "--jobs", "2"]
        try:
            code = main(args)
        except KeyboardInterrupt:  # would otherwise end the whole test session
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        assert _single_error_line(capsys) == "error: interrupted\n"

    @pytest.mark.parametrize(
        "kind, line",
        [
            ("failure", "n=90 m=360 failures: a1=0/1 oracle-timeouts=1\n"),
            ("accuracy", "n=90 m=360 a1: gap0=1 oracle-timeouts=1\n"),
        ],
    )
    def test_oracle_timeouts_are_reported(self, kind, line, capsys):
        # the budget lies between the two runs' search nodes: it excludes the second
        n, m, seed = BUDGET_CELL
        nodes = [exact_mis(random_gnm(n, m, derive_seed(seed, n, m, r))).nodes
                 for r in range(2)]
        assert nodes == BUDGET_NODES
        args = ["experiment", kind, "--n", str(n), "--m", str(m), "--algos", "a1",
                "--runs", "2", "--seed", str(seed), "--max-nodes", str(NODE_BUDGET)]
        assert main(args) == 0
        assert capsys.readouterr().out == line

    def test_max_nodes_is_rejected_for_workload(self, capsys):
        args = ["experiment", "workload", "--n", "10", "--m", "9", "--algos", "a1",
                "--max-nodes", "5"]
        assert main(args) == 1
        assert _single_error_line(capsys) == (
            "error: --max-nodes applies to failure/accuracy experiments only\n"
        )

    def test_m_rule_flag_is_gone(self, capsys):
        args = ["experiment", "workload", "--n", "10", "--m-rule", "4n", "--m", "5",
                "--algos", "a1"]
        assert main(args) == 1
        assert "unrecognized arguments: --m-rule" in capsys.readouterr().err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--heuristic", "a", "--k", "0"],
            ["solve", "--heuristic", "a", "--k", "-1"],
            ["formula", "--n", "0", "--k", "1"],
            ["formula", "--n", "10", "--k", "0"],
        ],
    )
    def test_count_flags_must_be_positive(self, argv, k5_file, capsys):
        if argv[0] == "solve":
            argv = [*argv, "--graph", k5_file]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["formula", "--n", "10", "--k", "1", "--wat"]) == 1

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["--help"], "usage: greedymis [-h]"),
            (["experiment", "--help"], "usage: greedymis experiment [-h]"),
        ],
    )
    def test_help_exits_zero(self, argv, usage, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(usage)
        assert captured.err == ""

    def test_help_names_every_exit_code(self, capsys):
        codes = {0} | {int(c) for c in re.findall(r"return (\d+)$", inspect.getsource(main), re.M)}
        assert codes == {0, 1, 2, 3, 130}
        assert main(["--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for code in codes:
            assert re.search(rf"(Exit codes:|;) {code} [a-z]", text), code
        assert MAX_SEEDS == 10**6 and "more than 10^6 candidate seeds" in text

    def test_non_integer_n(self, capsys):
        assert main(["experiment", "failure", "--n", "ten", "--m", "40",
                     "--runs", "1", "--seed", "0", "--algos", "a1"]) == 1


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under ``## heading`` in README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_commands() -> list[str]:
    """The `greedymis` lines of the sh block under "## Command line" in README.md."""
    lines = _readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("greedymis ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert any(line.startswith("greedymis formula ") and "# tau=" in line for line in commands)
    for line in commands:
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if comment:
            assert out == comment.strip() + "\n", line


def test_readme_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    block = _readme_block("Library quickstart", "python")
    exec(block, {})
    first = capsys.readouterr().out.splitlines()[0]
    printed = next(line for line in block.splitlines() if line.startswith("print(res.size"))
    assert first == printed.partition("#")[2].strip()
    header = (tmp_path / "failures.csv").read_text().splitlines()[0]
    assert header == "n,m,runs,algorithm,failures,ratio"
