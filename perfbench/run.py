#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``riskdual`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload var_sweep --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop with one client: each op
is an in-process ``riskdual.cli.main([...])`` call, ``bound`` on a
generated model file or ``bootstrap`` on a generated sample CSV, and the
next op starts when the previous one returns.  Ops run in whole cycles
over the workload's inputs until ``--seconds`` of op time have passed.
Every op's report is checked against its reference (references.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles for ``--seconds``, then runs a traced
reference check, and prints the per-layer metrics and the tracing
overhead; the spans go to ``perfbench/.work/``.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS threads change pivot paths and pay a start-up cost on the first
# solve, so pin them before numpy is imported, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

# fresh interpreters started to measure set-up time
SETUP_REPEATS = 11
# a bound may differ from its reference by this much, relative to max(1, |ref|)
BOUND_REL_TOL = 1e-7
# bootstrap intervals may differ by summation order only
BOOTSTRAP_TOL = 1e-12
# a run stops mid-cycle after this much op time, so it ends within the
# 180 s a run may take even when one cycle has grown far slower
LOOP_CAP_S = 120.0
# op id of the traced reference check, kept out of the per-op figures
REFCHECK = "refcheck"

SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from riskdual.cli import ModelConfig
from riskdual.data_io import load_samples_csv
for path in sys.argv[2:]:
    if path.endswith(".csv"):
        load_samples_csv(path)
    else:
        ModelConfig.load(path)
"""


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import riskdual from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "riskdual", "cli.py")):
        _fail(f"no riskdual sources under {SRC}")
    sys.path.insert(0, SRC)
    import riskdual.cli

    if not os.path.abspath(riskdual.cli.__file__).startswith(SRC + os.sep):
        _fail(f"riskdual was imported from {riskdual.cli.__file__}, not {SRC}")
    return riskdual.cli


def _openblas(package):
    """(version string, thread count) of the OpenBLAS bundled with a wheel."""
    import ctypes

    mod = __import__(package)
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                                  f"{package}.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return None, None


def environment():
    import numpy
    import scipy

    np_cfg, np_threads = _openblas("numpy")
    sp_cfg, sp_threads = _openblas("scipy")
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "riskdual", "*.py"))):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": np_cfg,
        "numpy_blas_threads": np_threads,
        "scipy_openblas": sp_cfg,
        "scipy_blas_threads": sp_threads,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines,
    }


def measure_setup(inputs):
    """Median seconds for a fresh interpreter to import riskdual.cli and
    parse every input file of the workload."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, *inputs],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up interpreter failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def invoke(cli, argv):
    """One op: the CLI's exit code, or None when it raised."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, err.getvalue().strip()


def check(op, rc):
    """'ok', 'failed' (error exit or exception) or 'wrong' (success exit
    with an answer off its reference), with a reason."""
    if rc != 0:
        return "failed", f"exit {rc}"
    try:
        with open(op.out, "r", encoding="utf-8") as fh:
            det = json.load(fh)["deterministic"]
    except (OSError, ValueError, KeyError) as exc:
        return "wrong", f"unreadable report: {exc}"
    if op.command == "bound":
        bound, ref = det.get("bound"), op.reference
        if det.get("status") != "optimal" or not isinstance(bound, float):
            return "wrong", f"status {det.get('status')}, bound {bound}"
        if abs(bound - ref) > BOUND_REL_TOL * max(1.0, abs(ref)):
            return "wrong", f"bound {bound!r}, reference {ref!r}"
        return "ok", ""
    got = [(iv["lower"], iv["upper"]) for iv in det.get("intervals", [])]
    if len(got) != len(op.reference):
        return "wrong", f"{len(got)} intervals, reference has {len(op.reference)}"
    for (lo, hi), (rlo, rhi) in zip(got, op.reference):
        if (abs(lo - rlo) > BOOTSTRAP_TOL * max(1.0, abs(rlo))
                or abs(hi - rhi) > BOOTSTRAP_TOL * max(1.0, abs(rhi))):
            return "wrong", f"interval ({lo!r}, {hi!r}), reference ({rlo!r}, {rhi!r})"
    return "ok", ""


def run_loop(cli, ops, seconds, call=None, cap=LOOP_CAP_S):
    """Run whole cycles over ``ops`` until ``seconds`` of op time have
    passed, or stop mid-cycle at ``cap``.  Returns one (op, seconds,
    verdict, reason) per op run."""
    records = []
    busy = 0.0
    cycle = 0
    while True:
        for i, op in enumerate(ops):
            with contextlib.suppress(FileNotFoundError):
                os.remove(op.out)
            op_id = f"{cycle}:{i}:{op.key}"
            t0 = time.perf_counter()
            if call is None:
                rc, err = invoke(cli, op.argv)
            else:
                rc, err = call(op_id, invoke, cli, op.argv)
            dt = time.perf_counter() - t0
            busy += dt
            verdict, reason = check(op, rc)
            if verdict == "failed" and err:
                reason += ": " + err.splitlines()[-1]
            records.append((op, dt, verdict, reason))
            if busy >= cap:
                return records
        cycle += 1
        if busy >= seconds:
            return records


def per_key_lines(records, label):
    """Median time of each input's ops, one line per input."""
    per_key = {}
    for op, dt, _verdict, _reason in records:
        per_key.setdefault(op.key, []).append(dt)
    return [f"{label} {key}: median {statistics.median(times):.4f} s over {len(times)}"
            for key, times in sorted(per_key.items())]


def summarize(records):
    attempted = len(records)
    passed = sum(1 for r in records if r[2] == "ok")
    wrong = sum(1 for r in records if r[2] == "wrong")
    busy = sum(r[1] for r in records)
    return attempted, passed, wrong, busy


def end_to_end(cli, ops, seconds, setup_s):
    records = run_loop(cli, ops, seconds)
    attempted, passed, wrong, busy = summarize(records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_s.p50": (statistics.median(r[1] for r in records), "s"),
        "ops_per_s": (passed / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_frac": (passed / attempted, "ratio"),
    }
    return records, metrics


def reference_check(workload, refs):
    """Run the oracle on the workload's smallest catalogue model and
    compare it with the stored reference: equal on hinge_affine, where
    the oracle is exact, and not above it on unbounded_rows, where it
    is a lower bound.  Returns (agrees, report line)."""
    from references import oracle_bound
    from workloads import build_model, smallest_spec

    if workload not in ("hinge_affine", "unbounded_rows"):
        return True, "reference check: the oracle has no route on this workload"
    key, spec = smallest_spec(workload)
    stored = refs[key]["bound"]
    exact = workload == "hinge_affine"
    value = oracle_bound(build_model(spec), require_exact=exact)
    slack = BOUND_REL_TOL * max(1.0, abs(stored))
    agrees = abs(value - stored) <= slack if exact else value <= stored + slack
    relation = "equal to" if exact else "at most"
    return agrees, (f"reference check {key}: oracle {value!r} must be {relation} "
                    f"stored {stored!r}: {'ok' if agrees else 'MISMATCH'}")


def per_layer(cli, ops, seconds, workload, seed, refs):
    import tracing

    # untraced and traced cycles alternate, so a drift in host speed
    # during the run weighs on both sides of the overhead figure alike
    tracer = tracing.Tracer()
    plain, traced = [], []
    while True:
        plain += run_loop(cli, ops, 0.0, cap=LOOP_CAP_S / 2)
        patched = tracer.install()
        try:
            traced += run_loop(cli, ops, 0.0, call=tracer.run_op, cap=LOOP_CAP_S / 2)
        finally:
            tracer.uninstall()
        if sum(r[1] for r in plain + traced) >= seconds:
            break
    tracer.install()
    try:
        tracer.op = REFCHECK
        ref_ok, ref_line = reference_check(workload, refs)
    finally:
        tracer.op = None
        tracer.uninstall()
    os.makedirs(WORK, exist_ok=True)
    span_file = os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")
    tracer.write(span_file)

    n = len(traced)
    selfs = tracer.self_times()
    by_name = Counter()
    for (op, name), seconds_self in selfs.items():
        if op != REFCHECK:
            by_name[name] += seconds_self
    counts = Counter()
    for op, counter in tracer.counts.items():
        if op != REFCHECK:
            counts.update(counter)
    metrics = {}
    for metric, name in tracing.TIME_METRICS.items():
        metrics[metric] = (by_name[name] / n, "s")
    for metric in tracing.COUNT_METRICS:
        metrics[metric] = (counts[metric] / n, "count")
    generated = counts["lp_engine.columns_generated"]
    metrics["lp_engine.column_yield"] = (
        counts["lp_engine.columns_used"] / generated if generated else 0.0, "ratio")
    for metric, name in tracing.ORACLE_METRICS.items():
        metrics[metric] = (selfs.get((REFCHECK, name), 0.0), "s")
    traced_times = [duration for _op, duration in tracer.op_durations()]
    traced_p50 = statistics.median(traced_times)
    plain_p50 = statistics.median(r[1] for r in plain)
    metrics["trace.op_s.p50"] = (traced_p50, "s")
    metrics["trace.op_s.mean"] = (sum(traced_times) / n, "s")
    metrics["trace.untraced_op_s.p50"] = (plain_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")

    layer_sum = sum(metrics[m][0] for m in tracing.TIME_METRICS)
    lines = [
        ref_line,
        f"layer self times sum to {layer_sum:.6f} s per op; traced op mean "
        f"{metrics['trace.op_s.mean'][0]:.6f} s",
        f"spans written to {os.path.relpath(span_file, ROOT)}",
        "patched: " + json.dumps(patched, sort_keys=True),
    ]
    lines += per_key_lines(traced, "traced op")
    return plain + traced, metrics, lines, ref_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description="riskdual end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    cli = _import_program()
    sys.path.insert(0, HERE)
    import references
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    refs = references.load_references()
    ops = workloads.generate(args.workload, args.seed, workdir, refs)

    # no untimed warm-up op: a CLI user pays first-call costs every time
    if args.trace:
        records, metrics, lines, ref_ok = per_layer(
            cli, ops, args.seconds, args.workload, args.seed, refs)
    else:
        setup_s = measure_setup(sorted({path for op in ops for path in op.inputs}))
        records, metrics = end_to_end(cli, ops, args.seconds, setup_s)
        lines, ref_ok = per_key_lines(records, "op"), True
    attempted, passed, wrong, busy = summarize(records)
    failed = attempted - passed

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per cycle, "
          f"{attempted} attempted, {failed} failed ({failed / attempted:.4f} failed_frac), "
          f"{wrong} wrong, {busy:.2f} s of op time")
    seen = set()
    for op, _dt, verdict, reason in records:
        if verdict != "ok" and op.key not in seen:
            seen.add(op.key)
            print(f"{verdict} op {op.key}: {reason}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print("env " + json.dumps(environment(), sort_keys=True))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": wrong == 0 and ref_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
