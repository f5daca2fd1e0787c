#!/usr/bin/env python3
"""Workload comparison of the two heuristics over an edge-count sweep.

Heuristic b pays for induced-degree computations on every candidate
pool, so its adjacency-check counter w_b runs ahead of heuristic a's
w_a.  The sweep below measures both over 12 edge densities per n,
prints the per-density ratio, and writes the CSV plus a self-contained
SVG chart (one polyline per n).

The maximum ratio over the sweep grows with n: the extra work scales
with the candidate-pool sizes, which scale with the graph order.
"""

from pathlib import Path

import greedymis as gm

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

N_VALUES = (30, 45, 60)
RUNS = 3  # per cell; each cell records its maximum observed work

reports = {}
for n in N_VALUES:
    cfg = gm.ExperimentConfig(
        n_values=(n,),
        m_rule=gm.density_grid(n),
        algorithms=gm.parse_algorithms("a1,b1"),
        runs=RUNS,
        base_seed=1,
    )
    reports[n] = gm.run_workload_experiment(cfg, jobs=2)

print(f"{'n':>4} {'m':>6} {'w_a (a1 checks)':>16} {'w_b (b1 checks)':>16} {'w_b/w_a':>8}")
print("-" * 56)
for n, report in reports.items():
    for cell in report.cells:
        wa = cell.adjacency_checks["a1"]
        wb = cell.adjacency_checks["b1"]
        print(f"{cell.n:>4} {cell.m:>6} {wa:>16} {wb:>16} {wb / wa:>8.2f}")

print("\nmax ratio over the sweep, and R = max_ratio / n:")
for n, report in reports.items():
    mr = report.max_ratio(n)
    print(f"  n={n}: max w_b/w_a = {float(mr):.3f}   R = {float(mr / n):.4f}")

# merge the per-n sweeps into one report for a single chart
merged = gm.WorkloadReport(("a1", "b1"), tuple(c for r in reports.values() for c in r.cells))
csv_path = OUT / "workload_sweep.csv"
svg_path = OUT / "workload_ratio.svg"
csv_path.write_bytes(gm.emit_csv(merged))
svg_path.write_bytes(gm.emit_plot(merged))
print(f"\nwrote {csv_path}")
print(f"wrote {svg_path}")
