"""The summary of tools/paired_bench.py, fed synthetic result lines; no
benchmark runs here."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "paired_bench.py")
spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

END_TO_END = [
    {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]


def _run(side, pair, op_s, ops_per_s, exit_code=0, correct=True, failed=0):
    return {"side": side, "pair": pair, "seed": pair + 1, "exit": exit_code,
            "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"op_s.p50": {"value": op_s, "unit": "s"},
                        "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}


def test_pairs_alternate_which_side_runs_first():
    assert [paired_bench.run_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_gives_medians_spread_ratio_and_wins_in_each_direction():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 1.0, 3.0, 4.0]
    runs = [_run("parent", i, v, 1.0 / v) for i, v in enumerate(parent)]
    runs += [_run("change", i, v, 1.0 / v) for i, v in enumerate(change)]
    rows = {r["metric"]: r for r in paired_bench.summarize(runs, END_TO_END)}
    # a metric no run reports gets no row
    assert sorted(rows) == ["op_s.p50", "ops_per_s"]
    op = rows["op_s.p50"]
    assert (op["parent_median"], op["change_median"]) == (3.0, 2.5)
    # inclusive quartiles of 1..5 are 2 and 4
    assert op["parent_iqr"] == 2.0
    assert op["ratio"] == pytest.approx(2.5 / 3.0)
    # lower is better: pair 1 (2.5 against 2.0) is the one loss
    assert (op["wins"], op["pairs"]) == (4, 5)
    # higher is better on the reciprocal, so the same pairs win
    assert (rows["ops_per_s"]["wins"], rows["ops_per_s"]["pairs"]) == (4, 5)


def test_runs_that_failed_are_flagged_and_a_lone_run_has_no_pair():
    runs = [_run("parent", 0, 1.0, 1.0), _run("change", 0, 1.0, 1.0, failed=2),
            _run("parent", 1, 1.0, 1.0, correct=False),
            {"side": "change", "pair": 1, "seed": 2, "exit": 1, "stderr": ["boom"]}]
    (row, _) = paired_bench.summarize(runs, END_TO_END)
    assert (row["wins"], row["pairs"], row["parent_iqr"]) == (0, 1, 0.0)
    text = paired_bench.format_summary(paired_bench.summarize(runs, END_TO_END), runs)
    flags = [line for line in text.splitlines() if line.startswith("FLAGGED")]
    assert flags == ["FLAGGED change pair 0 seed 1: 2 failed ops",
                     "FLAGGED parent pair 1 seed 2: not correct",
                     "FLAGGED change pair 1 seed 2: exit 1"]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _verdicts(parent, change):
    """Each metric's verdict on pairs of op times, ``ops_per_s`` being
    their reciprocals."""
    runs = [_run("parent", i, v, 1.0 / v) for i, v in enumerate(parent)]
    runs += [_run("change", i, v, 1.0 / v) for i, v in enumerate(change)]
    return {r["metric"]: r["verdict"] for r in paired_bench.summarize(runs, END_TO_END)}


@pytest.mark.parametrize("change,want", [
    # 10/10 wins, medians 0.2 apart against a parent quartile distance of 0.03
    ([0.8 * v for v in PARENT], "gain"),
    # 8/10 wins is short of nine tenths
    ([0.8 * v for v in PARENT[:8]] + [1.1, 1.1], "no change"),
    # 40 % slower, 29 % fewer ops a second, against a bound of 25 %
    ([1.4 * v for v in PARENT], "worse"),
    # 20 % slower, 17 % fewer ops a second, is inside the bound
    ([1.2 * v for v in PARENT], "no change"),
    # the same values: half the pairs tie, and ties win nothing
    (PARENT, "no change"),
])
def test_each_verdict_in_each_direction(change, want):
    assert _verdicts(PARENT, change) == {"op_s.p50": want, "ops_per_s": want}


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_beats():
    wide = [1.0, 2.0] * 5
    # quartile distance 1.0 against a bound of 0.25 * 1.5: medians 1.5 -> 1.45
    assert _verdicts(wide, [1.1, 1.8] * 5)["op_s.p50"] == "unresolved"
    # every change run beats every parent run, yet by no more than the
    # spread, so no gain either
    assert _verdicts(wide, [0.9] * 10)["op_s.p50"] == "no change"


def test_summary_prints_the_verdict():
    runs = [_run(side, i, v, 1.0 / v) for i, v in enumerate(PARENT) for side in ("parent", "change")]
    lines = paired_bench.format_summary(paired_bench.summarize(runs, END_TO_END), runs).splitlines()
    assert lines[0].endswith("verdict")
    assert all(line.endswith("  no change") for line in lines[1:])
