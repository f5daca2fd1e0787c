"""Smoke test of tools/ab.py: HEAD against HEAD for one tiny round."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from greedymis import density_grid

ROOT = Path(__file__).resolve().parent.parent


def _has_committed_package():
    if shutil.which("git") is None:
        return False
    proc = subprocess.run(["git", "rev-parse", "--verify", "-q", "HEAD:src/greedymis"],
                          cwd=ROOT, capture_output=True)
    return proc.returncode == 0


@pytest.mark.skipif(not _has_committed_package(), reason="needs a git checkout")
def test_head_against_head():
    cmd = [sys.executable, str(ROOT / "tools" / "ab.py"), "--base", "HEAD",
           "--change", "HEAD", "--rounds", "1", "--graphs", "2",
           "--cells", "20:80,25:300"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["base"], out["change"], out["rounds"]) == ("HEAD", "HEAD", 1)
    gnm = [f"random_gnm n={n} m={4 * n}" for n in (20, 30, 40, 80)]
    members = [f"{a} target n=20 m=80" for a in ("a1", "b1", "a2", "b2")]
    members += [f"{a} target n=30 m=120" for a in ("a1", "a2", "b2")]
    members += [f"{a} full n=40 m={m}" for m in density_grid(40) for a in ("a1", "b1")]
    fanout = ["fanout failure n=30 24 runs x1 units", "fanout accuracy n=60,80 x1 runs"]
    assert list(out["cells"]) == ["n=20 m=80", "n=25 m=300", *gnm, *members, *fanout]
    for label, cell in out["cells"].items():
        calls = 1 if label in fanout or " full " in label else 2  # --graphs 2
        assert len(cell["digest"]) == 64
        assert cell["paired_ratio_geomean"] > 0
        assert 0 <= cell["graphs_slower"] <= calls
        if label.startswith("n="):  # oracle cells report each side's search nodes
            assert cell["base_nodes"] == cell["change_nodes"] > 0
        else:
            assert "base_nodes" not in cell
        assert len(cell["base_ms"]) == len(cell["change_ms"]) == 1
        assert cell["change_wins"] in (0, 1)
