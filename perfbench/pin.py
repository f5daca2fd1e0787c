"""Regenerate perfbench/pins.json from the code at hand.

    python3 perfbench/pin.py

Pins, at the default seed, the SHA-256 of every unit's CSV (and SVG) and
the engine counter totals of the traced units.  Re-pin only in a change
that means to alter seeded outputs, and say so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    pins = {"seed": wl.DEFAULT_SEED, "workloads": {}}
    for w in wl.WORKLOADS.values():
        seeds = wl.unit_seeds(w.name, wl.DEFAULT_SEED)
        outs = [wl.run_inprocess(w, base, w.jobs()) for base in seeds]
        entry = {"csv_sha256": [wl.sha256(o.csv) for o in outs]}
        if w.kind == "workload":
            entry["svg_sha256"] = [wl.sha256(o.svg) for o in outs]
        counters = wl.Counters([a.name for a in w.config(0).algorithms])
        for i, base in enumerate(seeds[: w.trace_units]):
            problems = wl.replay(w, Tracer(), base, i, outs[i].report, counters)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
        entry["trace_counters"] = counters.totals()
        pins["workloads"][w.name] = entry
        print(f"{w.name}: {entry['trace_counters']}")
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
