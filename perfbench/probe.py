"""Set-up probe: import greedymis, build one workload's config, say "ready".

run.py starts this in a fresh interpreter and times launch-to-ready as the
workload's set-up time.  Usage: python3 perfbench/probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports greedymis)

w = workloads.WORKLOADS[sys.argv[1]]
if w.via_cli:
    import greedymis.cli  # noqa: F401
w.config(workloads.unit_seeds(w.name, int(sys.argv[2]))[0])
print("ready", flush=True)
