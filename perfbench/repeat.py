#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median
and quartile spread.

    python3 perfbench/repeat.py --seeds 1-10 --trace 0 --out perfbench/.work/runs.jsonl

Each run is one ``run.py`` process with ``run_seconds`` from
BENCHMARK.json, over every workload BENCHMARK.json lists.  Seeds are
the outer loop and workloads the inner one, so a slow phase of the host
lasting minutes spreads over all workloads instead of landing on the
seeds of one.  Every result line is appended to ``--out`` as
{"workload", "seed", "trace", "wall_s", "env", "result"}.  The spread of
a metric is the distance between the first and third quartile of its
values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure compared against each end-to-end metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": round(wall, 2),
            "env": env, "result": json.loads(lines[-1])}


def spread_table(rows, bounds):
    """Lines of median, quartile spread and bound per (workload, metric)."""
    out = []
    workloads = sorted({r["workload"] for r in rows})
    for workload in workloads:
        mine = [r for r in rows if r["workload"] == workload]
        failed = [r["result"]["failed"] for r in mine]
        correct = all(r["result"]["correct"] for r in mine)
        out.append(f"{workload}: {len(mine)} runs, failed {failed}, all correct {correct}")
        for name in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / abs(med):7.2%}"
            else:
                spread = "      -"
            bound = bounds.get(name)
            out.append(f"  {name:30s} median {med:12.6g}  spread {spread}"
                       + (f"  bound {bound:.0%}" if bound is not None else ""))
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append result lines to this JSON-lines file")
    args = parser.parse_args(argv)

    rows = []
    for seed in parse_seeds(args.seeds):
        for workload in [w["name"] for w in bench["workloads"]]:
            row = run_once(workload, seed, args.trace, bench["run_seconds"])
            rows.append(row)
            print(f"{workload} seed {seed}: {row['wall_s']} s", flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("\n".join(spread_table(rows, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
