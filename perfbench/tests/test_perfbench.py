"""Tests of the benchmark's own arithmetic and checks.

    python -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import greedymis as gm  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    covered,
    expansion_counts,
    merge_ratio,
    self_times,
    tail,
)


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail(list(range(1, 101))) == (90.0, 90)  # exactly 10 beyond p90
    assert tail(list(range(1, 100)))[0] == 75.0  # 99 samples: only 9 beyond p90
    assert tail(list(range(1000)))[0] == 99.0  # p99.9 would leave 1 beyond
    assert tail([5.0, 1.0, 3.0]) == (50.0, 3.0)  # too few: the median


def _span(i, start, end, parent):
    return {"id": i, "name": f"s{i}", "start": start, "end": end, "parent": parent, "run": "0"}


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 4.0, 0),
        _span(2, 3.0, 6.0, 0),  # overlaps span 1: covered time counts once
        _span(3, 2.0, 3.0, 1),  # grandchild: charged to span 1 only
        _span(4, 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    assert covered([], 0.0, 1.0) == 0.0


def test_tracer_links_nested_spans_to_their_parent():
    tr = Tracer()
    with tr.span("outer", "r"):
        with tr.span("inner", "r"):
            pass
        with tr.span("inner", "r"):
            pass
    assert [s["parent"] for s in tr.spans] == [None, 0, 0]
    outer_self = self_times(tr.spans)[0]
    inner = sum(s["end"] - s["start"] for s in tr.spans[1:])
    assert abs(outer_self - (tr.spans[0]["end"] - tr.spans[0]["start"] - inner)) < 1e-9


def test_merge_ratio_matches_expand_generation():
    assert expansion_counts([10, 8, 5]) == (23, 13)
    assert merge_ratio(13, 23) == 13 / 23
    assert merge_ratio(0, 0) == 0.0
    g = gm.random_gnm(14, 30, seed=3)
    for h, k in ((gm.Heuristic.A, 1), (gm.Heuristic.B, 2)):
        res = gm.run_greedy(g, gm.EngineConfig(h, k))
        gen = gm.initial_generation(g, k)
        parents = kept = 0
        while gen.sets:
            parents += len(gen.sets)
            gen = gm.expand_generation(g, gen, h, gm.RunStats())
            kept += len(gen.sets)
        assert expansion_counts(res.stats.generation_sizes) == (parents, kept)


def test_forced_digest_mismatch_counts_as_failed():
    w = wl.WORKLOADS["sweep-n40"]
    base = wl.unit_seeds(w.name, wl.DEFAULT_SEED)[0]
    out = wl.run_inprocess(w, base, 1)
    pins = wl.load_pins()
    assert wl.output_problems(w, base, out, pins, 0) == []
    bad = copy.deepcopy(pins)
    bad["workloads"][w.name]["svg_sha256"][0] = "0" * 64
    tally = run.Tally()
    tally.add(w.instances, wl.output_problems(w, base, out, bad, 0))
    tally.add(w.instances, wl.output_problems(w, base, out, pins, 0))
    assert tally.failed_ratio == 0.5
    assert tally.problems == ["svg digest differs from the pin for unit 0"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


def test_invariants_flag_impossible_counts_on_any_seed():
    fail = wl.WORKLOADS["failure-n30"]
    acc = wl.WORKLOADS["accuracy-n80"]
    bad_failure = (
        b"n,m,runs,algorithm,failures,ratio\n"
        b"30,120,24,a1,25,25/24\n30,120,24,a2,0,0\n30,120,24,b2,0,0\n"
    )
    bad_accuracy = b"n,m,runs,algorithm,gap,count\n80,320,4,a1,-1,4\n"
    assert wl.output_problems(fail, 7, wl.Outputs(bad_failure, None), None, 0) == [
        "failure count 25 not within runs 24"
    ]
    assert wl.output_problems(acc, 7, wl.Outputs(bad_accuracy, None), None, 0) == [
        "accuracy gap -1 count 4 out of range"
    ]
    assert wl.output_problems(acc, 7, wl.Outputs(b"\xff", None), None, 0)[0].startswith(
        "csv does not parse"
    )


def test_wall_is_scaled_to_the_reference_speed():
    nominal = run.REF_NOMINAL_S
    assert run.at_reference_speed(1.0, nominal, nominal) == 1.0
    # the machine ran at half speed around this unit: the wall counts half
    assert run.at_reference_speed(1.0, 2 * nominal, 2 * nominal) == 0.5
    assert run.at_reference_speed(3.0, nominal, 2 * nominal) == 2.0
