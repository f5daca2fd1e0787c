"""Record the SHA-256 of independent alphas on seeded n = 60 graphs.

``brute_force_mis`` stops at n = 24, and the golden digests of
``tests/test_exact.py`` were recorded from earlier versions of
``exact_mis`` itself, so above n = 24 they pin regressions but cannot
show that an alpha is right.  This script computes alpha with
``tests/reference.py::clique_alpha`` (Bron-Kerbosch with Tomita pivoting
on the complement graph, which shares no code with ``greedymis.exact``)
for every graph of ``reference.ALPHA_CELLS`` and prints the SHA-256 of
the list.  ``tests/reference.py::REFERENCE_ALPHA_DIGEST`` pins that
value, and ``tests/test_exact.py`` checks ``exact_mis``'s alphas against
it, so a change to the oracle that moves any of them fails there.  Never
record the digest from ``exact_mis``.

Run from anywhere (about 30 s on one core of a 2-core Xeon)::

    python tools/alpha_digest.py           # print the digest
    python tools/alpha_digest.py --check   # exit 1 unless it is the pinned one
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from reference import ALPHA_CELLS, REFERENCE_ALPHA_DIGEST, alpha_digest, clique_alpha  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless the digest is REFERENCE_ALPHA_DIGEST")
    args = ap.parse_args()
    graphs = sum(runs for _, _, runs in ALPHA_CELLS)
    print(f"clique_alpha on {graphs} graphs, cells (n, m, runs) {ALPHA_CELLS}")
    got = alpha_digest(clique_alpha)
    if not args.check:
        print(got)
        return 0
    print(f"recorded: {REFERENCE_ALPHA_DIGEST}")
    print(f"computed: {got}")
    return 0 if got == REFERENCE_ALPHA_DIGEST else 1


if __name__ == "__main__":
    sys.exit(main())
