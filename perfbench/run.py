"""Layered benchmark for greedymis.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it times one workload's
untraced closed loop for S seconds and prints the end-to-end metrics, with
wall times scaled to a reference machine speed (see README.md); with
--trace 1 it replays a fixed number of the same seeded units layer by
layer and prints the per-layer metrics.  Either way it checks every output
(invariants on any seed, pinned digests and counter totals at the default
seed), writes a result file with the machine facts (and, traced, a span
file) under .bench_out/, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer, median, merge_ratio, self_times, tail, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import workloads as wl
except ModuleNotFoundError as exc:  # no greedymis sources in this tree
    wl = None
    MISSING = exc
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
# The host's speed can swing by a quarter within seconds.  A fixed integer
# loop that shares no code with greedymis is timed between units; each
# wall time is scaled to the speed at which that loop takes REF_NOMINAL_S.
REF_ITERS = 100_000
REF_NOMINAL_S = 0.025

END_TO_END_UNITS = {"runs_per_s": "runs/s", "setup_s": "s", "peak_rss_mib": "MiB"}
MEMBERS = ("a1", "b1", "a2", "b2")
MEMBER_UNITS = {
    "ms_p50": "ms",
    "share": "ratio",
    "ns_per_eval": "ns",
    "heuristic_evals": "count",
    "adjacency_checks": "count",
    "sets_expanded": "count",
    "merge_ratio": "ratio",
}
PROBE_SPANS = ("graph.Graph", "engine.initial_generation")


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "graph.random_gnm.ms_p50": "ms",
        "graph.random_gnm.share": "ratio",
        "graph.Graph.ms_p50": "ms",
        "graph.Graph.share": "ratio",
        "rng.sample.ms_p50": "ms",
        "rng.sample.share": "ratio",
        "exact.exact_mis.ms_p50": "ms",
        "exact.exact_mis.ms_tail": "ms",
        "exact.exact_mis.tail_pct": "pct",
        "exact.exact_mis.samples": "count",
        "exact.exact_mis.share": "ratio",
        "exact.alpha_sum": "count",
        "engine.initial_generation.ms_p50": "ms",
    }
    for m in MEMBERS:
        for key, unit in MEMBER_UNITS.items():
            units[f"engine.{m}.{key}"] = unit
    units.update(
        {
            "experiments.fanout.efficiency": "ratio",
            "experiments.harness_self.share": "ratio",
            "experiments.emit_csv.ms": "ms",
            "experiments.emit_plot.ms": "ms",
            "cli.overhead_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu,
    }


class Tally:
    """Graph instances attempted and failed; a unit with any problem fails all its instances."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, instances: int, problems: list[str]) -> None:
        self.attempted += instances
        if problems:
            self.failed += instances
            self.problems.extend(problems)

    def fail_all(self, problem: str) -> None:
        self.failed = self.attempted
        self.problems.append(problem)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def reference_seconds() -> float:
    """Time the fixed reference loop: the machine's momentary speed."""
    t0 = perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0
    for i in range(REF_ITERS):
        x = (x * 0xBF58476D1CE4E5B9 + i) & 0xFFFFFFFFFFFFFFFF
        acc += (x >> 7).bit_count()
    return perf_counter() - t0


def at_reference_speed(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` scaled to the speed at which the reference loop takes REF_NOMINAL_S."""
    return wall * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


class Clock:
    """Scales consecutive wall times, each bracketed by reference loops."""

    def __init__(self) -> None:
        self._ref = reference_seconds()

    def scale(self, wall: float) -> float:
        ref = reference_seconds()
        scaled = at_reference_speed(wall, self._ref, ref)
        self._ref = ref
        return scaled


def setup_seconds(workload: str, seed: int) -> float:
    """Launch a fresh interpreter and time it until greedymis is imported and the config built."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def peak_rss_mib(via_cli: bool) -> float:
    """Peak RSS of the workload process: the CLI children, or this process and its pool workers."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if via_cli:
        return children / 1024.0
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children) / 1024.0


def run_untraced(w, seed: int, seconds: float, pins: dict | None, tmp: Path):
    clock = Clock()
    setup_raw, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        setup_raw.append(setup_seconds(w.name, seed))
        setup_ref.append(clock.scale(setup_raw[-1]))
    seeds = wl.unit_seeds(w.name, seed)
    tally = Tally()
    walls, walls_ref = [], []
    i = 0
    deadline = None
    while deadline is None or perf_counter() < deadline:
        base = seeds[i % len(seeds)]
        t0 = perf_counter()
        try:
            out = wl.run_unit(w, base, tmp)
        except Exception:
            traceback.print_exc()
            out = None
        wall = perf_counter() - t0
        scaled = clock.scale(wall)
        if deadline is None:  # the first unit warms up and is not timed
            deadline = perf_counter() + seconds
        else:
            walls.append(wall)
            walls_ref.append(scaled)
        problems = (
            [f"unit {i} raised"]
            if out is None
            else wl.output_problems(w, base, out, pins, i)
        )
        tally.add(w.instances, problems)
        i += 1
    metrics = {
        "runs_per_s": w.instances / median(walls_ref),
        "setup_s": median(setup_ref),
        "peak_rss_mib": peak_rss_mib(w.via_cli),
    }
    detail = {
        "raw_runs_per_s": w.instances / median(walls),
        "raw_setup_s": median(setup_raw),
        "units_timed": len(walls),
        "instances_per_unit": w.instances,
        "unit_wall_s": walls,
        "unit_wall_at_reference_s": walls_ref,
        "setup_s_samples": setup_raw,
    }
    return metrics, {k: END_TO_END_UNITS[k] for k in metrics}, tally, detail


def run_traced(w, seed: int, pins: dict | None, tmp: Path):
    tr = Tracer()
    counters = wl.Counters([a.name for a in w.config(0).algorithms])
    tally = Tally()
    clock = Clock()
    # per unit, at the reference speed: jobs=1 runner, replay, jobs=N runner, CLI
    plain, replayed, fanned, cli = [], [], [], []

    def timed(into, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        into.append(clock.scale(perf_counter() - t0))
        return result

    for i, base in enumerate(wl.unit_seeds(w.name, seed)[: w.trace_units]):
        problems = []
        try:
            out = timed(plain, wl.run_inprocess, w, base, 1)
            problems += wl.output_problems(w, base, out, pins, i)
            problems += timed(replayed, wl.replay, w, tr, base, i, out.report, counters)
            if w.parallel:
                par = timed(fanned, wl.run_inprocess, w, base, w.jobs())
                if par.csv != out.csv:
                    problems.append(f"unit {i}: csv differs between jobs=1 and jobs={w.jobs()}")
            if w.via_cli:
                via = timed(cli, wl.run_cli, w, base, tmp)
                if (via.csv, via.svg) != (out.csv, out.svg):
                    problems.append(f"unit {i}: CLI outputs differ from the in-process run")
        except Exception:
            traceback.print_exc()
            problems.append(f"unit {i} raised")
        tally.add(w.instances, problems)
    totals = counters.totals()
    if pins is not None and totals != pins["workloads"][w.name]["trace_counters"]:
        tally.fail_all(f"counter totals {totals} differ from the pin")

    spans = tr.spans
    selfs = self_times(spans)
    durs: dict[str, list[float]] = {}
    by_run: dict[tuple[str, str], float] = {}
    for s in spans:
        d = s["end"] - s["start"]
        durs.setdefault(s["name"], []).append(d)
        by_run[(s["name"], s["run"])] = d
    traced_wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    probe_time = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in PROBE_SPANS or s["name"].startswith("check.")
    )
    work = traced_wall - probe_time

    def ms_p50(name):
        return 1e3 * median(durs.get(name, []))

    def share(name):
        return sum(durs.get(name, [])) / work

    sample = [
        d - by_run[("graph.Graph", run)]
        for (name, run), d in by_run.items()
        if name == "graph.random_gnm"
    ]
    oracle = durs.get("exact.exact_mis", [])
    tail_pct, tail_s = tail(oracle) if oracle else (0.0, 0.0)
    m = {
        "graph.random_gnm.ms_p50": ms_p50("graph.random_gnm"),
        "graph.random_gnm.share": share("graph.random_gnm"),
        "graph.Graph.ms_p50": ms_p50("graph.Graph"),
        "graph.Graph.share": share("graph.Graph"),
        "rng.sample.ms_p50": 1e3 * median(sample),
        "rng.sample.share": sum(sample) / work,
        "exact.exact_mis.ms_p50": ms_p50("exact.exact_mis"),
        "exact.exact_mis.ms_tail": 1e3 * tail_s,
        "exact.exact_mis.tail_pct": tail_pct,
        "exact.exact_mis.samples": len(oracle),
        "exact.exact_mis.share": share("exact.exact_mis"),
        "exact.alpha_sum": counters.alpha_sum,
        "engine.initial_generation.ms_p50": ms_p50("engine.initial_generation"),
    }
    for member in MEMBERS:
        c = counters.per_member.get(member)
        name = f"engine.{member}"
        busy = sum(durs.get(name, []))
        evals = c["heuristic_evals"] if c else 0
        m[f"{name}.ms_p50"] = ms_p50(name)
        m[f"{name}.share"] = share(name)
        m[f"{name}.ns_per_eval"] = 1e9 * busy / evals if evals else 0.0
        m[f"{name}.heuristic_evals"] = evals
        m[f"{name}.adjacency_checks"] = c["adjacency_checks"] if c else 0
        m[f"{name}.sets_expanded"] = c["sets_expanded"] if c else 0
        m[f"{name}.merge_ratio"] = (
            merge_ratio(c["children_kept"], c["sets_expanded"]) if c else 0.0
        )
    roots_self = sum(t for s, t in zip(spans, selfs) if s["parent"] is None)
    m["experiments.fanout.efficiency"] = (
        sum(plain) / (w.jobs() * sum(fanned)) if fanned else 1.0
    )
    m["experiments.harness_self.share"] = roots_self / work
    m["experiments.emit_csv.ms"] = ms_p50("experiments.emit_csv")
    m["experiments.emit_plot.ms"] = ms_p50("experiments.emit_plot")
    m["cli.overhead_s"] = median([c - p for c, p in zip(cli, plain)]) if cli else 0.0
    m["trace.overhead_ratio"] = sum(replayed) / sum(plain) - 1.0

    span_path = OUT_DIR / f"spans-{w.name}-seed{seed}.jsonl"
    write_spans(span_path, spans)
    detail = {
        "units": w.trace_units,
        "instances_per_unit": w.instances,
        "counter_totals": totals,
        "counters_per_member": counters.per_member,
        "untraced_wall_at_reference_s": sum(plain),
        "traced_wall_at_reference_s": sum(replayed),
        "span_file": str(span_path.relative_to(ROOT)),
    }
    return m, layer_units(), tally, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if wl is None:
        print(f"error: {MISSING}; run from a tree that has src/greedymis", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    pins = wl.load_pins() if args.seed == wl.DEFAULT_SEED else None
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, units, tally, detail = run_traced(w, args.seed, pins, tmp)
    else:
        metrics, units, tally, detail = run_untraced(w, args.seed, args.seconds, pins, tmp)

    facts = machine_facts()
    result = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed_ratio,
        "problems": tally.problems,
        "detail": detail,
    }
    result_path = OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for k, v in metrics.items():
        print(f"{w.name} {k} = {v} {units[k]}")
    for k, v in detail.items():
        if k.startswith("raw_"):
            print(f"{w.name} {k} = {v} (wall clock, not corrected)")
    print(f"{w.name} failed_ratio = {tally.failed_ratio} ratio")
    print(f"result -> {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
