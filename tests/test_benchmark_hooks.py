"""The benchmark's tracer rebinds riskdual functions and methods by name
(perfbench/tracing.py), so renaming or deleting one breaks
``perfbench/run.py --trace 1`` without failing any test that runs the
program.  These tests install the tracer on the current code and run
the benchmark runner on every bound workload."""

import importlib
import json
import os
import subprocess
import sys

import pytest

# every module the tracer patches, loaded before the bindings are read
from riskdual import cli, data_io, dual_builder, geometry, lp_engine, oracle, test_functions  # noqa: F401

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# names one module imports from another, which the tracer must rebind in
# the importing module too, as (importer, name, defining module); the
# same list as perfbench's test_install_rebinds_names_imported_by_other_modules
CROSS_MODULE = [
    (cli, "build_box_partition", geometry),
    (cli, "assemble_dual_lp", dual_builder),
    (cli, "solve_dcg", lp_engine),
    (cli, "solve_dense_simplex", lp_engine),
    (dual_builder, "restrict_to_cell", test_functions),
    (dual_builder, "cell_vertices", geometry),
    (oracle, "cell_vertices", geometry),
    (oracle, "solve_dense_simplex", lp_engine),
]


def _bindings():
    """Every attribute of every riskdual module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "riskdual" or name.startswith("riskdual.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, attr, a), id(v)) for a, v in vars(value).items())
    return out


def test_tracer_installs_and_uninstalls_on_the_current_code(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    before = _bindings()
    try:
        # raises when a name it rebinds is gone from riskdual
        patched = tracer.install()
    finally:
        tracer.uninstall()
    assert "riskdual.cli.build_box_partition" in patched["build_box_partition"]
    assert _bindings() == before


def test_tracer_rebinds_names_imported_by_other_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    originals = {(user, name): getattr(home, name) for user, name, home in CROSS_MODULE}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (user, name), original in originals.items():
            bound = getattr(user, name)
            assert bound is not original, f"{user.__name__}.{name}"
            assert bound.__wrapped__ is original, f"{user.__name__}.{name}"
    finally:
        tracer.uninstall()
    for (user, name), original in originals.items():
        assert getattr(user, name) is original


@pytest.mark.parametrize("workload", ["unbounded_rows", "hinge_affine", "var_sweep"])
def test_benchmark_runner_passes_its_reference_check(workload):
    # --trace 1 installs the tracer and ends with a traced reference
    # check, which runs the primal oracle against references.json
    args = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0.2", "--trace", "1"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, proc.stdout


def test_bound_meets_its_reference_on_every_catalogue_variant(monkeypatch, tmp_path):
    # every variant of every bound workload, not only those a seed draws
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    with open(os.path.join(PERFBENCH, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    variants = [v for w in workloads.CATALOGUE for v in workloads.catalogue_specs(w)]
    assert sorted(key for key, _ in variants) == sorted(refs)
    off = []
    for key, spec in variants:
        path, out = tmp_path / f"{key}.json", tmp_path / f"{key}.report.json"
        path.write_text(json.dumps(workloads.build_model(spec)))
        assert cli.main(["bound", str(path), "--out", str(out)]) == 0, key
        det = json.loads(out.read_text())["deterministic"]
        ref = refs[key]["bound"]
        if not (det["certified"] and abs(det["bound"] - ref) <= 1e-7 * max(1.0, abs(ref))):
            off.append((key, det["certified"], det["bound"], ref))
    assert off == []


def test_tracer_times_pricing_and_counts_rounds(monkeypatch, tmp_path):
    # solve_dcg calls the generator's reduced_costs attribute, which the
    # tracer rebinds to a pricing span; the traced rounds are the
    # report's
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(workloads.build_model(("a", 3, 6, 0.70))))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = tracer.run_op("op", cli.main, ["bound", str(path), "--out", str(out)])
    finally:
        tracer.uninstall()
    assert rc == 0
    det = json.loads(out.read_text())["deterministic"]
    assert det["engine"] == "dcg" and det["rounds"] > 1
    # one reduced_costs call per round, one column_at call per round but
    # the last, whose empty answer certified the bound
    pricing = [span for span in tracer.spans if span[0] == "lp_engine.pricing"]
    assert len(pricing) == 2 * det["rounds"] - 1
    assert tracer.counts["op"]["lp_engine.rounds"] == det["rounds"]
