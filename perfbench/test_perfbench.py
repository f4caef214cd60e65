"""Tests of the benchmark itself: stored references, the tracer, and
input generation.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from riskdual import cli, dual_builder, geometry, lp_engine, oracle, test_functions  # noqa: E402

BOUND_WORKLOADS = ("var_sweep", "hinge_affine", "unbounded_rows")


@pytest.mark.parametrize("workload", BOUND_WORKLOADS)
def test_stored_reference_of_smallest_model_recomputes(workload, tmp_path):
    stored = references.load_references()
    key, spec = workloads.smallest_spec(workload)
    fresh = references.reference_entry(key, spec)
    assert fresh["route"] == stored[key]["route"]
    assert fresh["bound"] == pytest.approx(stored[key]["bound"], rel=1e-9, abs=1e-9)
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(workloads.build_model(spec)))
    rc = cli.main(["bound", str(path), "--out", str(out)])
    op = workloads.Op(key, "bound", [], str(out), reference=fresh["bound"])
    assert run.check(op, rc) == ("ok", "")
    # the check is what makes an op wrong: a reference off by more
    # than the tolerance must fail it
    op.reference = fresh["bound"] + 10 * run.BOUND_REL_TOL * max(1.0, abs(fresh["bound"]))
    assert run.check(op, rc)[0] == "wrong"
    assert run.check(op, 5)[0] == "failed"


def test_every_catalogue_variant_has_a_reference():
    stored = references.load_references()
    for workload in BOUND_WORKLOADS:
        for key, _spec in workloads.catalogue_specs(workload):
            assert key in stored, key
            assert stored[key]["bound"] < 1.0 or workload == "var_sweep", key


def test_hinge_tail_reference_is_analytic():
    stored = references.load_references()
    for key, spec in workloads.catalogue_specs("unbounded_rows"):
        if spec[0] == "hinge_tail":
            assert stored[key]["bound"] == references.hinge_tail_bound(workloads.build_model(spec))


def test_bootstrap_reference_matches_program(tmp_path):
    import numpy as np

    model = workloads.build_model(workloads.BOOTSTRAP_MODEL)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    csv_path = tmp_path / "samples.csv"
    workloads.write_samples_csv(str(csv_path), workloads.sample_data(np.random.default_rng(7), rows=400))
    out = tmp_path / "report.json"
    rc = cli.main(["bootstrap", str(model_path), "--samples", str(csv_path), "--replicates", "200",
                   "--seed", "11", "--out", str(out)])
    assert rc == 0
    op = workloads.Op("b", "bootstrap", [], str(out), reference=references.bootstrap_reference(
        model, np.loadtxt(csv_path, delimiter=",", skiprows=1), seed=11, replicates=200, level=0.95))
    assert run.check(op, rc) == ("ok", "")
    lo, hi = op.reference[7]
    op.reference[7] = (lo, hi + 1e-6)
    assert run.check(op, rc)[0] == "wrong"


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def _traced_bound(tracer, tmp_path, spec):
    path = tmp_path / "model.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps(workloads.build_model(spec)))
    rc, _err = tracer.run_op("op", run.invoke, cli, ["bound", str(path), "--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())["deterministic"]


@pytest.mark.parametrize("spec,engine", [
    (("b", 3, 8, 0.80), "dcg"),
    (("a", 3, 6, 0.70), "dcg"),
    (("c", 2, 8, 0.80), "dense_rows"),
])
def test_traced_counts_equal_report(tracer, tmp_path, spec, engine):
    det = _traced_bound(tracer, tmp_path, spec)
    assert det["engine"] == engine
    counts = tracer.counts["op"]
    assert counts["lp_engine.pivots"] == det["iterations"]
    assert counts["lp_engine.columns_generated"] == det.get("columns_generated", 0)
    assert counts["geometry.cells"] == det["cells"]
    assert (counts["test_functions.restrict_calls"] > 0) == (spec[0] != "a")


def test_self_times_add_up_to_the_op(tracer, tmp_path):
    _traced_bound(tracer, tmp_path, ("b", 3, 8, 0.80))
    (op_id, duration), = tracer.op_durations()
    total = sum(s for (op, _name), s in tracer.self_times().items() if op == op_id)
    assert total == pytest.approx(duration, rel=1e-9)
    names = {name for (_op, name) in tracer.self_times()}
    assert names <= set(tracing.TIME_METRICS.values()) | set(tracing.ORACLE_METRICS.values())


def test_install_rebinds_names_imported_by_other_modules():
    originals = {
        (cli, "build_box_partition"): geometry.build_box_partition,
        (cli, "assemble_dual_lp"): dual_builder.assemble_dual_lp,
        (cli, "solve_dcg"): lp_engine.solve_dcg,
        (cli, "solve_dense_simplex"): lp_engine.solve_dense_simplex,
        (dual_builder, "restrict_to_cell"): test_functions.restrict_to_cell,
        (dual_builder, "cell_vertices"): geometry.cell_vertices,
        (oracle, "cell_vertices"): geometry.cell_vertices,
        (oracle, "solve_dense_simplex"): lp_engine.solve_dense_simplex,
    }
    t = tracing.Tracer()
    t.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
            assert getattr(module, name).__wrapped__ is original
    finally:
        t.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original


def test_inputs_come_from_the_seed(tmp_path):
    refs = references.load_references()

    def files(seed, sub):
        ops = workloads.generate("unbounded_rows", seed, str(tmp_path / sub), refs)
        return [(op.key, open(op.inputs[0]).read()) for op in ops]

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "var_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "unbounded_rows", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] >= 1  # the hinge-tail op
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
