"""Write the ``bound`` report of every benchmark catalogue variant into
one JSON file, so that two code states can be compared with ``cmp``.

    PYTHONPATH=src python tools/catalogue_reports.py OUT.json [--blas-threads N]

For each variant of every bound workload in ``perfbench/workloads.py``
the file holds, under the variant's key, the exit code of an in-process
``riskdual bound`` run, what it printed to stderr, and its report's
``deterministic`` section (null when it wrote none).  Keys are sorted
and BLAS runs on N threads, 1 by default, so the file is the same on
every run of one code state and thread count: two runs, at 1 and at 2
threads, and one ``cmp`` show whether any report depends on the thread
count.  The thread count is set before numpy is first imported, so run
the tool as a script.  The riskdual package is whichever one
``PYTHONPATH`` finds: point it at another checkout's ``src`` to dump
that code state.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bound_report(cli, key, model, workdir):
    """Exit code, stderr and deterministic section of ``bound`` on one
    model dict, whose files in ``workdir`` are named after ``key``."""
    path, out = (os.path.join(workdir, f"{key}{ext}") for ext in (".json", ".report.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["bound", path, "--out", out])
    det = None
    if os.path.exists(out):
        with open(out, "r", encoding="utf-8") as fh:
            det = json.load(fh)["deterministic"]
    return {"exit": rc, "stderr": err.getvalue(), "deterministic": det}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.blas_threads < 1:
        parser.error("--blas-threads must be at least 1")
    # BLAS reads its thread count when numpy loads, which riskdual and
    # the workloads import
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    from riskdual import cli

    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import workloads

    reports = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.CATALOGUE:
            for key, spec in workloads.catalogue_specs(workload):
                reports[key] = bound_report(cli, key, workloads.build_model(spec), workdir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
