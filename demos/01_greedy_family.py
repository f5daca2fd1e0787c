#!/usr/bin/env python3
"""Tour of the greedy family on small graphs.

Runs the four standard family members (a1, b1, a2, b2) on a few fixed
graphs plus one seeded random graph, and compares each answer with the
exact oracle.
"""

import itertools

import greedymis as gm

GRAPHS = {
    "edgeless n=7": gm.Graph(7),
    "complete K5": gm.Graph(5, list(itertools.combinations(range(5), 2))),
    "cycle C5": gm.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "path P6": gm.Graph(6, [(i, i + 1) for i in range(5)]),
    "random G(24, 96)": gm.random_gnm(24, 96, seed=7),
}

MEMBERS = gm.parse_algorithms("a1,b1,a2,b2")

print(f"{'graph':>18} {'alpha':>5}", end="")
for spec in MEMBERS:
    print(f" {spec.name:>4}", end="")
print("  witness of a1")
print("-" * 70)

for label, g in GRAPHS.items():
    alpha = gm.exact_mis(g).alpha
    sizes = []
    witness = None
    for spec in MEMBERS:
        try:
            res = gm.run_greedy(g, spec)
            sizes.append(str(res.size))
            if spec.name == "a1":
                witness = res.witness
        except gm.NoSeedSetsError:
            # e.g. k=2 on a complete graph: no independent pair exists
            sizes.append("-")
    print(f"{label:>18} {alpha:>5}", end="")
    for s in sizes:
        print(f" {s:>4}", end="")
    print(f"  {witness}")

print()
print("Every size is at most alpha; a dash means no independent seed set")
print("of that cardinality exists (k exceeds the independence number).")

# The witness is always independent and maximal: no vertex can join it.
g = GRAPHS["random G(24, 96)"]
res = gm.run_greedy(g, gm.EngineConfig(gm.Heuristic.B, 1))
print(f"\nb1 on G(24, 96): size={res.size}, witness={res.witness}")
print(f"  grows one vertex per round: generation sizes {res.stats.generation_sizes}")
print(f"  remaining candidates for the witness: {gm.non_neighbors(g, res.witness)}")
