"""tools/ab.py: HEAD against HEAD for one tiny round, its refusal of a
differing output, and its check of ``--cells``."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import greedymis
from greedymis import density_grid

ROOT = Path(__file__).resolve().parent.parent


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


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
    members += ["a1 target n=80 m=320"]
    members += [f"{a} full n=40 m={m}" for m in density_grid(40) for a in ("a1", "b1")]
    assert list(out["cells"]) == ["n=20 m=80", "n=25 m=300", *gnm, *members]
    keys = {"digest", "base_ms_median", "change_ms_median", "paired_ratio_geomean",
            "graphs_slower"}
    for label, cell in out["cells"].items():
        calls = 1 if " full " in label else 2  # --graphs 2
        if label.startswith("n="):  # oracle cells report each side's search nodes
            assert set(cell) == keys | {"base_nodes", "change_nodes"}
            assert cell["base_nodes"] == cell["change_nodes"] > 0
        else:
            assert set(cell) == keys
        assert len(cell["digest"]) == 64
        assert cell["base_ms_median"] > 0 and cell["change_ms_median"] > 0
        assert cell["paired_ratio_geomean"] > 0
        assert 0 <= cell["graphs_slower"] <= calls


def test_differing_output_is_refused():
    ab = _load_ab()

    def moved_gnm(n, m, seed):  # another graph at n = 30 only
        return greedymis.random_gnm(n, m, seed=seed + (n == 30))

    change = SimpleNamespace(**{**vars(greedymis), "random_gnm": moved_gnm})
    with pytest.raises(SystemExit) as exc:
        ab.compare(greedymis, change, ((20, 80),), count=1, rounds=1)
    assert str(exc.value) == "output differs at random_gnm n=30 m=120, calls [0]"


BAD_CELLS = {
    "20": "cell '20' is not n:m",
    "20:80:5": "cell '20:80:5' is not n:m",
    "10:100": "cell '10:100' needs n >= 0, 0 <= m <= n(n-1)/2",
}


@pytest.mark.parametrize("cells", BAD_CELLS)
def test_bad_cells_are_a_usage_error(cells, capsys):
    ab = _load_ab()
    ab.extract = lambda *args: pytest.fail("a revision was extracted")
    with pytest.raises(SystemExit) as exc:
        ab.main(["--cells", cells])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.count("usage: ") == 1
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert err.endswith(f"error: argument --cells: {BAD_CELLS[cells]}\n")
