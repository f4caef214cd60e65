"""Write the ``bound`` report of every benchmark catalogue variant into
one JSON file, so that two code states can be compared with ``cmp``.

    PYTHONPATH=src python tools/catalogue_reports.py OUT.json

For each variant of every bound workload in ``perfbench/workloads.py``
the file holds, under the variant's key, the exit code of an in-process
``riskdual bound`` run, what it printed to stderr, and its report's
``deterministic`` section (null when it wrote none).  Keys are sorted
and BLAS runs on one thread, so the file is the same on every run of
one code state.  The riskdual package is whichever one ``PYTHONPATH``
finds: point it at another checkout's ``src`` to dump that code state.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import sys
import tempfile

from riskdual import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402


def bound_report(key, model, workdir):
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
    if len(argv) != 1:
        sys.exit("usage: catalogue_reports.py OUT.json")
    reports = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.CATALOGUE:
            for key, spec in workloads.catalogue_specs(workload):
                reports[key] = bound_report(key, workloads.build_model(spec), workdir)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
