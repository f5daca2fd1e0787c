"""Command-line interface.

Subcommands: solve, oracle, generate, formula, experiment.  Exit codes:
0 success; 1 usage error; 2 input/parse error or an unreadable or
unwritable file; 3 infeasible request (no seed sets, more than 10^6
candidate seeds, or the oracle search passed --max-nodes); 130
interrupted (Ctrl-C).  All randomness is seed-pinned and the oracle
budget counts search nodes, not seconds, so an identical argv produces
byte-identical output files on any machine.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .dimacs import read_graph, write_graph
from .engine import EngineConfig, Heuristic, NoSeedSetsError, SeedLimitError, run_greedy
from .exact import OracleTimeout, exact_mis
from .experiments import (
    ExperimentConfig,
    emit_csv,
    emit_plot,
    log_base,
    parse_algorithms,
    run_accuracy_experiment,
    run_failure_experiment,
    run_workload_experiment,
    tau_edgeless,
)
from .graph import random_gnm


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _int(text: str) -> int:
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int(part) for part in text.split(","))
    except argparse.ArgumentTypeError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _edge_counts(text: str) -> str | tuple[int, ...]:
    return "4n" if text == "4n" else _int_list(text)


def _positive_int(text: str) -> int:
    if not re.fullmatch("[0-9]+", text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="greedymis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="run one greedy family member on a graph file")
    p_solve.add_argument("--graph", required=True, help="edge-list graph file")
    p_solve.add_argument("--heuristic", choices=("a", "b"), required=True)
    p_solve.add_argument("--k", type=_positive_int, default=1, help="initial set cardinality")

    p_oracle = sub.add_parser("oracle", help="exact independence number of a graph file")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--max-nodes", type=_positive_int, help="search-node budget")

    p_gen = sub.add_parser("generate", help="write a seeded uniform G(n,m) graph")
    p_gen.add_argument("--n", type=_int, required=True)
    p_gen.add_argument("--m", type=_int, required=True)
    p_gen.add_argument("--seed", type=_int, default=0)
    p_gen.add_argument("--out", help="output path (stdout if omitted)")

    p_formula = sub.add_parser(
        "formula", help="edgeless-graph evaluation count and its log-n form"
    )
    p_formula.add_argument("--n", type=_positive_int, required=True)
    p_formula.add_argument("--k", type=_positive_int, required=True)

    p_exp = sub.add_parser("experiment", help="run a seeded experiment grid")
    p_exp.add_argument(
        "kind", choices=("failure", "accuracy", "workload"), help="experiment protocol"
    )
    p_exp.add_argument("--n", type=_int_list, required=True, help="n values, comma-separated")
    p_exp.add_argument(
        "--m",
        type=_edge_counts,
        required=True,
        help="m values, comma-separated, or 4n for m = 4n per n",
    )
    p_exp.add_argument("--algos", required=True, help="e.g. a1,b1,a2,b2")
    p_exp.add_argument("--runs", type=_positive_int, default=1)
    p_exp.add_argument("--seed", type=_int, default=0)
    p_exp.add_argument("--out", help="CSV output path")
    p_exp.add_argument("--plot", help="SVG output path (workload only)")
    p_exp.add_argument("--jobs", type=_positive_int, default=1)
    p_exp.add_argument(
        "--max-nodes", type=_positive_int, help="oracle search-node budget per run"
    )
    return parser


def _cmd_solve(args) -> int:
    g = read_graph(Path(args.graph).read_bytes())
    result = run_greedy(g, EngineConfig(Heuristic(args.heuristic), args.k))
    witness = ",".join(map(str, result.witness))
    print(
        f"size={result.size} witness={witness} rounds={result.stats.rounds} "
        f"heuristic_evals={result.stats.heuristic_evals} "
        f"adjacency_checks={result.stats.adjacency_checks}"
    )
    return 0


def _cmd_oracle(args) -> int:
    g = read_graph(Path(args.graph).read_bytes())
    result = exact_mis(g, args.max_nodes)
    witness = ",".join(map(str, result.witness))
    print(f"alpha={result.alpha} witness={witness}")
    print(f"nodes={result.nodes} bound_prunes={result.bound_prunes}", file=sys.stderr)
    return 0


def _cmd_generate(args) -> int:
    g = random_gnm(args.n, args.m, args.seed)
    data = write_graph(g)
    if args.out:
        Path(args.out).write_bytes(data)
        print(f"graph n={g.n} m={g.m} seed={args.seed} -> {args.out}")
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def _cmd_formula(args) -> int:
    tau = tau_edgeless(args.n, args.k)
    lg = log_base(tau, args.n)
    log_text = "undefined" if lg is None else f"{lg:.2f}"
    print(f"tau={tau} log={log_text}")
    return 0


def _cmd_experiment(args) -> int:
    if args.plot and args.kind != "workload":
        raise UsageError("--plot is supported for workload experiments only")
    if args.kind == "workload" and args.max_nodes is not None:
        raise UsageError("--max-nodes applies to failure/accuracy experiments only")
    try:
        algorithms = parse_algorithms(args.algos)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.plot and not {"a1", "b1"} <= {a.name for a in algorithms}:
        raise UsageError("--plot draws the b1/a1 ratio, so --algos must include a1 and b1")
    if args.out and args.plot and Path(args.out).resolve() == Path(args.plot).resolve():
        raise UsageError("--out and --plot must name different files")
    for path in filter(None, (args.out, args.plot)):
        if Path(path).is_dir():
            raise OSError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise OSError(f"cannot write {path}: no directory {Path(path).parent}")
    cfg = ExperimentConfig(
        n_values=args.n,
        m_rule=args.m,
        algorithms=algorithms,
        runs=args.runs,
        base_seed=args.seed,
    )
    if args.kind == "workload":
        report = run_workload_experiment(cfg, jobs=args.jobs)
        for cell in report.cells:
            counts = " ".join(
                f"{name}={cell.adjacency_checks[name]}" for name in report.algorithms
            )
            print(f"n={cell.n} m={cell.m} adjacency_checks: {counts}")
    else:
        run = run_failure_experiment if args.kind == "failure" else run_accuracy_experiment
        report = run(cfg, jobs=args.jobs, oracle_max_nodes=args.max_nodes)
        for cell in report.cells:
            timeouts = ""
            if cell.oracle_timeouts:
                timeouts = f" oracle-timeouts={cell.oracle_timeouts}"
            if args.kind == "failure":
                summary = " ".join(
                    f"{name}={cell.failures[name]}/{cell.runs}" for name in report.algorithms
                )
                print(f"n={cell.n} m={cell.m} failures: {summary}{timeouts}")
            else:
                for name in report.algorithms:
                    hist = " ".join(f"gap{g}={c}" for g, c in sorted(cell.gaps[name].items()))
                    print(f"n={cell.n} m={cell.m} {name}: {hist}{timeouts}")
    if args.out:
        Path(args.out).write_bytes(emit_csv(report))
        print(f"csv -> {args.out}")
    if args.plot:
        Path(args.plot).write_bytes(emit_plot(report))
        print(f"plot -> {args.plot}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "generate": _cmd_generate,
    "formula": _cmd_formula,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad input, unreadable or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoSeedSetsError, SeedLimitError, OracleTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except KeyboardInterrupt:  # Ctrl-C: one line and the shell's code for SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130


def entry_point() -> None:
    sys.exit(main())
