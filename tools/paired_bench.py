"""Run one benchmark workload on two source trees in alternating pairs,
and compare their end-to-end metrics.

    python tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--out runs.jsonl]

Each run is ``DIR/perfbench/run.py --workload W --seed S --seconds T
--trace 0``, started in DIR, where T is ``run_seconds`` from
``DIR/BENCHMARK.json``.  Pair i uses seed i + 1 on both sides; the
parent runs first on even i and the change first on odd i, so a drift
of the machine's speed over the runs falls on both sides alike.

Every run's result line (the last line that ``run.py`` prints) is
appended to ``--out``, one JSON object a line, tagged with its ``side``,
``pair`` and ``seed`` and the run's exit code.  At the end, for every
end-to-end metric of the change tree's ``BENCHMARK.json``, the summary
gives both medians, the quartile distance of the parent's runs, the
change/parent ratio of the medians, in how many pairs the change did
better, in the metric's direction, and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's quartile
  distance;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound``, read as a fraction of the parent's median;
- ``unresolved``: the parent's quartile distance is wider than that
  bound, and not every run of the change beats every run of the parent;
- ``no change`` otherwise.

A run that exited nonzero, was not ``correct``, or had ``failed`` ops is
flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_order(pair):
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(tree, workload, seed):
    """One ``run.py`` run in ``tree``: its exit code and result line,
    or the tail of its stderr when it printed no result line."""
    with open(os.path.join(tree, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"stderr": proc.stderr.strip().splitlines()[-5:]}
    return {"exit": proc.returncode, **result}


def flagged(run):
    """Why a run is not clean, or None."""
    if run["exit"] != 0:
        return f"exit {run['exit']}"
    if run.get("correct") is not True:
        return "not correct"
    if run.get("failed", 0) > 0:
        return f"{run['failed']} failed ops"
    return None


def _quartile_distance(values):
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent, change, wins, pairs, lower, bound):
    """The verdict on one metric, as the module docstring defines it,
    from each side's values, the pairs the change won out of ``pairs``,
    the metric's direction and its ``bound``."""
    def beats(a, b):
        return a < b if lower else a > b
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread, allowed = _quartile_distance(parent), bound * abs(p_med)
    if pairs and 10 * wins >= 9 * pairs and beats(c_med, p_med) and abs(c_med - p_med) > spread:
        return "gain"
    if beats(p_med, c_med) and abs(c_med - p_med) > allowed:
        return "worse"
    if spread > allowed and not all(beats(c, p) for c in change for p in parent):
        return "unresolved"
    return "no change"


def summarize(runs, end_to_end):
    """One row per end-to-end metric of ``end_to_end`` (BENCHMARK.json's
    list): its name, the parent's and the change's median, the parent's
    quartile distance, the change/parent ratio of the medians, the pairs
    the change won, the pairs that have the metric on both sides, and the
    verdict.  ``runs`` are tagged result lines as this tool writes them."""
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        by_pair = {}
        for run in runs:
            value = run.get("metrics", {}).get(name, {}).get("value")
            if value is not None:
                by_pair.setdefault(run["pair"], {})[run["side"]] = value
        parent = [v["parent"] for v in by_pair.values() if "parent" in v]
        change = [v["change"] for v in by_pair.values() if "change" in v]
        if not (parent and change):
            continue
        both = [v for v in by_pair.values() if len(v) == 2]
        wins = sum((v["change"] < v["parent"]) if lower else (v["change"] > v["parent"])
                   for v in both)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rows.append({
            "metric": name, "parent_median": p_med, "change_median": c_med,
            "parent_iqr": _quartile_distance(parent),
            "ratio": c_med / p_med if p_med else float("nan"),
            "wins": wins, "pairs": len(both),
            "verdict": verdict(parent, change, wins, len(both), lower, metric["bound"]),
        })
    return rows


def format_summary(rows, runs):
    out = [f"{'metric':<14} {'parent p50':>12} {'change p50':>12} {'parent IQR':>12} "
           f"{'ratio':>7} {'wins':>7}  verdict"]
    for r in rows:
        out.append(f"{r['metric']:<14} {r['parent_median']:>12.6g} {r['change_median']:>12.6g} "
                   f"{r['parent_iqr']:>12.3g} {r['ratio']:>7.4f} {r['wins']:>3}/{r['pairs']:<3}  "
                   f"{r['verdict']}")
    for run in runs:
        why = flagged(run)
        if why:
            out.append(f"FLAGGED {run['side']} pair {run['pair']} seed {run['seed']}: {why}")
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", default="runs.jsonl")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": os.path.abspath(args.parent_dir), "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    runs = []
    for pair in range(args.pairs):
        seed = pair + 1
        for side in run_order(pair):
            run = {"side": side, "pair": pair, "seed": seed,
                   **run_once(trees[side], args.workload, seed)}
            runs.append(run)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(run, sort_keys=True) + "\n")
            value = run.get("metrics", {}).get("op_s.p50", {}).get("value")
            print(f"pair {pair} {side}: exit {run['exit']}, op_s.p50 {value}", flush=True)
    print(format_summary(summarize(runs, end_to_end), runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
