"""Command line flows: configs in, reports and exit codes out."""

import contextlib
import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import riskdual
from riskdual import (
    FactorizationError,
    LPSolution,
    LPStatus,
    ReductionMode,
    SolverError,
    assemble_dual_lp,
    build_box_partition,
    cli,
    dual_builder,
    lp_engine,
    solve_bound,
    solve_primal_discretization,
)
from riskdual.cli import (
    EXIT_BUDGET,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_UNBOUNDED,
    ModelConfig,
    main,
)
from riskdual.data_io import MIN_REPLICATES
from riskdual.errors import PartitionIncompatibleError
from riskdual.test_functions import check_model, restrict_to_cell

from conftest import lp_limit


def two_point_config(moment=14.0 / 9.0, **overrides):
    cfg = {
        "schema": 1,
        "name": "two_point",
        "breakpoints": [[0.0, 1.0]],
        "risk": {"kind": "var_indicator", "tau": 1.0},
        "test_functions": [
            {
                "id": "mean_one_plus_x",
                "kind": "slab_affine",
                "axis": 0,
                "slab": [0.0, 1.0],
                "sense": "equality",
                "bound": moment,
                "v": [1.0],
                "c": 1.0,
            }
        ],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args, tmp_path, out="report.json"):
    out_path = tmp_path / out
    code = main(args + ["--out", str(out_path)])
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report


def test_bound_on_the_two_point_model(tmp_path):
    cfg = write_config(tmp_path, two_point_config())
    code, report = run(["bound", cfg], tmp_path)
    assert code == EXIT_OK
    det = report["deterministic"]
    assert det["bound"] == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert det["status"] == "optimal"
    assert det["corner_added"] is True
    assert det["cells"] == 1
    assert len(det["config_sha256"]) == 64
    assert det["mode"] == "lambda_eliminated"
    assert det["engine"] == "dcg"
    assert det["certified"] is True
    assert 0.0 <= det["feas_residual"] <= 1e-9
    mult = det["multipliers"]
    assert {r["id"] for r in mult["records"]} == {"mean_one_plus_x"}
    # wall_s runs from the built partition to the report, so it holds the
    # assembly and the solve but not the partition's build
    timing = report["timing"]
    # seed_s, the seed and the listing of point entries, is part of solve_s
    assert sorted(timing) == ["assemble_s", "partition_s", "seed_s", "solve_s", "wall_s"]
    assert all(v >= 0.0 for v in timing.values())
    assert timing["assemble_s"] + timing["solve_s"] <= timing["wall_s"]
    assert timing["seed_s"] <= timing["solve_s"]
    # the row dual has no seed
    code, report = run(["bound", cfg, "--mode", "vertex"], tmp_path, out="rows.json")
    assert code == EXIT_OK
    assert sorted(report["timing"]) == ["assemble_s", "partition_s", "solve_s", "wall_s"]


def test_bound_report_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, two_point_config())
    _, first = run(["bound", cfg], tmp_path, out="a.json")
    _, second = run(["bound", cfg], tmp_path, out="b.json")
    da = json.dumps(first["deterministic"], sort_keys=True)
    db = json.dumps(second["deterministic"], sort_keys=True)
    assert da == db


def test_debug_log_has_one_line_per_round_and_leaves_the_report(tmp_path, caplog,
                                                                monkeypatch):
    # 4 axes of 6 slabs, VaR at 0.7 * 4: 1,296 boxes a side
    cfg = write_config(tmp_path, _frequency_grid_config(
        4, 6, {"kind": "var_indicator", "tau": 0.7 * 4}))
    _, quiet = run(["bound", cfg], tmp_path, out="quiet.json")
    monkeypatch.setenv("RISKDUAL_LOG", "debug")
    with caplog.at_level(logging.DEBUG, logger="riskdual"):
        _, loud = run(["bound", cfg], tmp_path, out="loud.json")
    assert loud["deterministic"] == quiet["deterministic"]
    lines = [r.getMessage() for r in caplog.records if r.name == "riskdual.lp_engine"]
    assert len(lines) >= 2
    for n, line in enumerate(lines, start=1):
        m = re.fullmatch(
            r"dcg round (\d+): phase ([12]), objective (\S+), pivots (\d+), flips (\d+), "
            r"refactors (\d+), picks (\d+), min rc (\S+), pricing (\d+\.\d{6}) s", line
        )
        assert m and int(m[1]) == n
        assert (m[8] == "None") == (m[7] == "0")
    # the round lines add up to the report's counters
    det = loud["deterministic"]
    assert len(lines) == det["rounds"]
    assert sum(int(re.search(r"refactors (\d+)", line)[1]) for line in lines) == det["refactors"]
    assert sum(int(re.search(r"pivots (\d+)", line)[1]) for line in lines) == det["iterations"]
    assert sum(int(re.search(r"flips (\d+)", line)[1]) for line in lines) == det["flips"]
    # the pricer logs what it scored, once per round
    scored = [
        re.fullmatch(r"pricing scored (\d+) boxes and (\d+) point entries", r.getMessage())
        for r in caplog.records if r.name == "riskdual.dual_builder"
    ]
    assert len(scored) == len(lines) and all(scored)
    assert 0 < max(int(m[1]) for m in scored) <= 2 * 1_296
    # the last round certifies with an empty pricing call
    assert ", picks 0, min rc None, " in lines[-1]
    assert lines[-1].startswith(f"dcg round {len(lines)}: phase 2, ")


def test_bound_mode_override_and_formats(tmp_path):
    cfg = write_config(tmp_path, two_point_config())
    code, report = run(["bound", cfg, "--mode", "explicit"], tmp_path)
    assert code == EXIT_OK
    assert report["deterministic"]["mode"] == "explicit"
    assert report["deterministic"]["engine"] == "dense_rows"
    assert report["deterministic"]["certified"] is True
    assert 0.0 <= report["deterministic"]["feas_residual"] <= 1e-9

    out = tmp_path / "report.csv"
    assert main(["bound", cfg, "--format", "csv", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    bound_rows = [l for l in lines if l.startswith("deterministic.bound,")]
    assert len(bound_rows) == 1

    out = tmp_path / "report.txt"
    assert main(["bound", cfg, "--format", "text", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith("riskdual bound")


def test_a_zero_bound_prints_alike_in_every_mode(tmp_path):
    # tau past the grid leaves only the corner, and the record is slack:
    # every mode reaches the bound 0 with zero multipliers, and none
    # may print it as -0.0
    cfg = two_point_config(breakpoints=[[0.0, 0.5, 1.0]], risk={"kind": "var_indicator", "tau": 2.0})
    cfg["test_functions"] = [
        {"id": "low", "kind": "slab_indicator", "axis": 0, "slab": [0.0, 0.5],
         "sense": "inequality_upper", "bound": 0.7}]
    path = write_config(tmp_path, cfg)
    printed = []
    for mode in ReductionMode:
        code, report = run(["bound", path, "--mode", mode.value], tmp_path)
        assert code == EXIT_OK
        det = report["deterministic"]
        printed.append(json.dumps([det["bound"], det["multipliers"]]))
    assert printed == ['[0.0, {"records": [{"id": "low", "sense": "inequality_upper", '
                       '"value": 0.0}], "z0": 0.0}]'] * 3


def _flat_report(obj, prefix=""):
    """The report as {dotted key: value}, lists kept whole."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for k, v in obj.items():
        out.update(_flat_report(v, f"{prefix}.{k}" if prefix else k))
    return out


def test_csv_rows_are_key_and_value(tmp_path):
    samples, _data = _write_samples(tmp_path)
    cfg = write_config(tmp_path, two_point_config())
    for args in (["bound", cfg],
                 ["bootstrap", cfg, "--samples", samples, "--replicates", "100"]):
        assert main(args + ["--out", str(tmp_path / "r.json")]) == EXIT_OK
        want = _flat_report(json.loads((tmp_path / "r.json").read_text()))
        out = tmp_path / "r.csv"
        assert main(args + ["--format", "csv", "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        got = {k: json.loads(v) for k, v in rows[1:]}
        assert got.keys() == want.keys()
        # a list value such as the multiplier records or the intervals
        # holds commas; it must come back whole
        assert any(isinstance(v, list) for v in got.values())
        for key, value in got.items():
            if not key.startswith("timing."):
                assert value == want[key], key


def test_column_generation_past_the_old_eager_limit(tmp_path):
    # two-sided slab frequencies plus a mean equality per axis, hinge
    # risk: every cell needs vertex columns, about 8.6k of them at d=3,
    # m=10, which once sent pricing through a per-record loop each round
    d, m, tau = 3, 10, 1.8
    grid = [g / m for g in range(m + 1)]
    fns = []
    for a in range(d):
        for g in range(m):
            slab = [grid[g], grid[g + 1]]
            fns.append({"id": f"hi_{a}_{g}", "kind": "slab_indicator", "axis": a,
                        "slab": slab, "sense": "inequality_upper", "bound": 1.35 / m})
            fns.append({"id": f"lo_{a}_{g}", "kind": "slab_indicator", "axis": a,
                        "slab": slab, "sense": "inequality_lower", "bound": 0.65 / m})
        fns.append({"id": f"mean_{a}", "kind": "slab_affine", "axis": a, "slab": [0.0, 1.0],
                    "sense": "equality", "bound": 0.5,
                    "v": [float(i == a) for i in range(d)], "c": 0.0})
    raw = {"schema": 1, "breakpoints": [grid] * d,
           "risk": {"kind": "cvar_hinge", "tau": tau}, "test_functions": fns}
    code, report = run(["bound", write_config(tmp_path, raw)], tmp_path)
    det = report["deterministic"]
    assert code == EXIT_OK
    assert det["engine"] == "dcg"
    assert det["certified"] is True

    model = ModelConfig(raw)
    dual = assemble_dual_lp(build_box_partition(model.breakpoints, tau), model.testfns, model.riskfn)
    assert dual.scan_entries().count > 8192
    primal = solve_primal_discretization(dual)
    assert primal.status is LPStatus.OPTIMAL
    assert det["bound"] == pytest.approx(primal.value, abs=1e-7)
    assert det["bound"] == pytest.approx(0.3695, abs=1e-4)


def test_bound_infeasible_constraints_exit_two(tmp_path):
    # mass 0.9 on each half cannot sum to one
    cfg = two_point_config()
    cfg["breakpoints"] = [[0.0, 0.5, 1.0]]
    cfg["risk"]["tau"] = 0.75
    cfg["test_functions"] = [
        {
            "id": "a", "kind": "slab_indicator", "axis": 0,
            "slab": [0.0, 0.5], "sense": "equality", "bound": 0.9,
        },
        {
            "id": "b", "kind": "slab_indicator", "axis": 0,
            "slab": [0.5, 1.0], "sense": "equality", "bound": 0.9,
        },
    ]
    path = write_config(tmp_path, cfg)
    code, report = run(["bound", path], tmp_path)
    assert code == EXIT_INFEASIBLE
    assert report["deterministic"]["status"] == "infeasible"
    assert report["deterministic"]["bound"] is None


def test_bound_crossed_two_sided_bounds_exit_two(tmp_path, capsys):
    # lo 0.5 > hi 0.3 on one slab: the two records stay two master rows,
    # and phase one finds that no measure fits
    cfg = two_point_config()
    cfg["breakpoints"] = [[0.0, 0.5, 1.0]]
    cfg["risk"]["tau"] = 0.75
    cfg["test_functions"] = [
        {"id": name, "kind": "slab_indicator", "axis": 0, "slab": [0.0, 0.5],
         "sense": sense, "bound": bound}
        for name, sense, bound in (("hi", "inequality_upper", 0.3),
                                   ("lo", "inequality_lower", 0.5))
    ]
    path = write_config(tmp_path, cfg)
    code, report = run(["bound", path], tmp_path)
    assert code == EXIT_INFEASIBLE and capsys.readouterr().err == ""
    det = report["deterministic"]
    assert (det["status"], det["bound"], det["certified"]) == ("infeasible", None, False)
    assert "multipliers" not in det
    cfg = ModelConfig.load(path)
    partition = build_box_partition(cfg.breakpoints, tau=cfg.riskfn.tau)
    assert assemble_dual_lp(partition, cfg.testfns, cfg.riskfn).row_lower.tolist() == [-1, -1]


def test_bound_unbounded_shortfall_exit_three(tmp_path):
    cfg = two_point_config()
    cfg["breakpoints"] = [[0.0, 1.0, "Infinity"]]
    cfg["risk"] = {"kind": "cvar_hinge", "tau": 1.0}
    cfg["test_functions"] = [
        {
            "id": "low", "kind": "slab_indicator", "axis": 0,
            "slab": [0.0, 1.0], "sense": "inequality_upper", "bound": 0.9,
        }
    ]
    path = tmp_path / "unbounded.json"
    # bare Infinity is valid JSON for the stdlib parser
    path.write_text(json.dumps(cfg).replace('"Infinity"', "Infinity"))
    code, report = run(["bound", str(path)], tmp_path)
    assert code == EXIT_UNBOUNDED
    assert report["deterministic"]["status"] == "unbounded"
    assert report["deterministic"]["bound"] is None


@pytest.mark.parametrize("mean", [0.5, 0.4])
def test_bound_hinge_tail_takes_column_generation(tmp_path, mean):
    # E[X 1{X >= 1}] <= mean with hinge risk at 1: the worst case is
    # mean - P(X >= 1), approached by a vanishing mass far out, and the
    # certificate is y = 1 on the tail moment.  The tail cell [1, inf) is
    # not collapsible; its vertex 1 and its ray e_0 are master columns,
    # and the ray column carries the vanishing mass.
    cfg = {
        "schema": 1,
        "breakpoints": [[0.0, 1.0, "Infinity"]],
        "risk": {"kind": "cvar_hinge", "tau": 1.0},
        "test_functions": [
            {"id": "tail_m_0", "kind": "slab_affine", "axis": 0, "slab": [1.0, "Infinity"],
             "sense": "inequality_upper", "bound": mean, "v": [1.0], "c": 0.0}
        ],
    }
    path = tmp_path / "hinge_tail.json"
    path.write_text(json.dumps(cfg).replace('"Infinity"', "Infinity"))
    code, report = run(["bound", str(path)], tmp_path)
    assert code == EXIT_OK
    det = report["deterministic"]
    assert det["status"] == "optimal"
    assert det["engine"] == "dcg"
    assert det["certified"] is True
    assert det["bound"] == pytest.approx(mean, abs=1e-12)
    (rec,) = det["multipliers"]["records"]
    assert rec["id"] == "tail_m_0"
    assert rec["value"] == pytest.approx(1.0, abs=1e-12)


def _frequency_grid_config(d, m, risk):
    """Two-sided frequency bounds on every slab of an m-slab grid on
    [0, 1]^d."""
    grid = [g / m for g in range(m + 1)]
    fns = []
    for a in range(d):
        for g in range(m):
            slab = [grid[g], grid[g + 1]]
            fns.append({"id": f"hi_{a}_{g}", "kind": "slab_indicator", "axis": a,
                        "slab": slab, "sense": "inequality_upper", "bound": 1.35 / m})
            fns.append({"id": f"lo_{a}_{g}", "kind": "slab_indicator", "axis": a,
                        "slab": slab, "sense": "inequality_lower", "bound": 0.65 / m})
    return {"schema": 1, "breakpoints": [grid] * d, "risk": risk, "test_functions": fns}


def _hinge_grid_config(d=2, m=4, tau=1.2):
    """Slab frequencies and one mean equality per axis with hinge risk:
    column generation needs several rounds on it."""
    cfg = _frequency_grid_config(d, m, {"kind": "cvar_hinge", "tau": tau})
    for a in range(d):
        cfg["test_functions"].append(
            {"id": f"mean_{a}", "kind": "slab_affine", "axis": a, "slab": [0.0, 1.0],
             "sense": "equality", "bound": 0.5,
             "v": [float(i == a) for i in range(d)], "c": 0.0})
    return cfg


def _with_limit(limit, value, solver, *args):
    """``solver(*args)`` with the lp_engine constant ``limit`` set to
    ``value``."""
    with lp_limit(limit, value):
        return solver(*args)


def _stopped_dcg(round_limit, status):
    def solve(seed_lp, gen):
        sol = _with_limit("ROUND_LIMIT", round_limit, lp_engine.solve_dcg, seed_lp, gen)
        assert sol.status is status and not sol.certified
        return sol

    return solve


def _fixed_status(status):
    def solve(*_args, **_kwargs):
        return LPSolution(status, None, None, None, 0)

    return solve


def _singular(*_args, **_kwargs):
    raise FactorizationError("singular simplex basis", condition=1e18)


@pytest.mark.parametrize("name,mode,solver,why", [
    ("solve_dcg", "lambda_eliminated",
     lambda *args: _with_limit("ITER_LIMIT", 3, lp_engine.solve_dcg, *args),
     "iteration_limit"),
    ("solve_dense_simplex", "explicit",
     lambda *args: _with_limit("ITER_LIMIT", 3, lp_engine.solve_dense_simplex, *args),
     "iteration_limit"),
    ("solve_dcg", "lambda_eliminated", _stopped_dcg(3, LPStatus.OPTIMAL), "clean pricing sweep"),
    ("solve_dcg", "lambda_eliminated", _stopped_dcg(1, LPStatus.INFEASIBLE), "clean pricing sweep"),
    ("solve_dcg", "lambda_eliminated", _fixed_status(LPStatus.UNBOUNDED), "unbounded"),
    ("solve_dense_simplex", "explicit", _singular, "singular"),
])
def test_solver_failure_exit_six(tmp_path, monkeypatch, capsys, name, mode, solver, why):
    raw = _hinge_grid_config()
    model = ModelConfig(raw)
    partition = build_box_partition(model.breakpoints, model.riskfn.tau)
    monkeypatch.setattr(dual_builder, name, solver)
    with pytest.raises(SolverError, match=why):
        solve_bound(partition, model.testfns, model.riskfn, ReductionMode(mode))
    capsys.readouterr()
    code, report = run(["bound", write_config(tmp_path, raw), "--mode", mode], tmp_path)
    assert code == EXIT_SOLVER
    assert report is None
    assert "solver failure" in capsys.readouterr().err


def test_var_rows_infeasible_is_a_solver_failure(tmp_path, monkeypatch):
    # z0 = 1 always certifies the VaR risk, so an infeasible row dual
    # means the solver failed, not the model
    monkeypatch.setattr(dual_builder, "solve_dense_simplex", _fixed_status(LPStatus.INFEASIBLE))
    cfg = write_config(tmp_path, two_point_config())
    assert main(["bound", cfg, "--mode", "explicit"]) == EXIT_SOLVER


def test_bound_budget_exit_four(tmp_path):
    cfg = two_point_config()
    cfg["breakpoints"] = [[0.0, 0.25, 0.5, 0.75, 1.0]]
    cfg["risk"]["tau"] = 0.6
    cfg["test_functions"] = []
    path = write_config(tmp_path, cfg)
    assert main(["bound", path, "--budget-cells", "3"]) == EXIT_BUDGET


@pytest.mark.parametrize("command,budget", [("bound", "-1"), ("bound", "0"), ("bench", "0")])
def test_cell_budget_below_one_exits_five(tmp_path, capsys, command, budget):
    # a budget no partition can meet is a bad argument, not an exceeded budget
    if command == "bound":
        args = ["bound", write_config(tmp_path, two_point_config())]
    else:
        args = ["bench", "--sizes", "2:4", "--repeats", "1"]
    assert main(args + ["--budget-cells", budget]) == EXIT_INPUT
    assert f"cell budget must be at least 1, got {budget}" in capsys.readouterr().err


def test_input_errors_exit_five(tmp_path, capsys):
    assert main(["bound", str(tmp_path / "missing.json")]) == EXIT_INPUT

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bound", str(bad)]) == EXIT_INPUT

    assert main(["bound", write_config(tmp_path, two_point_config(schema=2))]) == EXIT_INPUT
    for key, value in (("surprise", 1), ("mode", "explicit")):
        cfg = two_point_config(**{key: value})
        assert main(["bound", write_config(tmp_path, cfg)]) == EXIT_INPUT
        assert f"unknown model keys: ['{key}']" in capsys.readouterr().err
    # slab endpoints must land on breakpoints
    cfg = two_point_config()
    cfg["test_functions"][0]["slab"] = [0.0, 0.7]
    assert main(["bound", write_config(tmp_path, cfg)]) == EXIT_INPUT

    # malformed numbers: the field the message must name, and the edit
    malformed = [
        ("breakpoints[0]", lambda c: c.update(breakpoints=[[0.0, "x"]])),
        ("risk.tau", lambda c: c["risk"].update(tau="high")),
        ("risk.tau", lambda c: c["risk"].update(tau=None)),
        ("test_functions[0].v", lambda c: c["test_functions"][0].update(v=["a"])),
        ("test_functions[0].c", lambda c: c["test_functions"][0].update(c="one")),
        ("test_functions[0].slab", lambda c: c["test_functions"][0].update(slab=[0.0])),
        # JSON booleans are not numbers, though Python reads them as 1 and 0
        ("breakpoints[0]", lambda c: c.update(breakpoints=[[0.0, True]])),
        ("risk.tau", lambda c: c["risk"].update(tau=True)),
        ("test_functions[0].slab", lambda c: c["test_functions"][0].update(slab=[0.0, True])),
        ("test_functions[0].bound", lambda c: c["test_functions"][0].update(bound=False)),
        ("test_functions[0].v", lambda c: c["test_functions"][0].update(v=[True])),
        ("test_functions[0].c", lambda c: c["test_functions"][0].update(c=False)),
        # an integer too large for a float
        ("breakpoints[0]", lambda c: c.update(breakpoints=[[0.0, 10**400]])),
        ("risk.tau", lambda c: c["risk"].update(tau=10**400)),
        # JSON strings are not numbers, though float() reads them
        ("breakpoints[0]", lambda c: c.update(breakpoints=[["0", "1"]])),
        ("risk.tau", lambda c: c["risk"].update(tau="0.5")),
        ("test_functions[0].slab", lambda c: c["test_functions"][0].update(slab=["0", "1"])),
        ("test_functions[0].bound", lambda c: c["test_functions"][0].update(bound="1.5")),
        ("test_functions[0].v", lambda c: c["test_functions"][0].update(v=["1"])),
        ("test_functions[0].c", lambda c: c["test_functions"][0].update(c="1")),
    ]
    for field, edit in malformed:
        cfg = two_point_config()
        edit(cfg)
        capsys.readouterr()
        assert main(["bound", write_config(tmp_path, cfg)]) == EXIT_INPUT, field
        assert field in capsys.readouterr().err, field

    # a slack that is not finite would put NaN or Infinity in the report
    samples, _ = _write_samples(tmp_path)
    for slack in ("nan", "inf", "-inf"):
        args = ["verify", write_config(tmp_path, two_point_config()), "--samples", samples]
        assert main(args + [f"--slack={slack}"]) == EXIT_INPUT, slack
        assert "--slack must be finite" in capsys.readouterr().err, slack

    # the replicate generators take no negative seed
    args = ["bootstrap", write_config(tmp_path, two_point_config()), "--samples", samples]
    assert main(args + ["--seed", "-1"]) == EXIT_INPUT
    assert "bootstrap seed must be nonnegative, got -1" in capsys.readouterr().err


def _two_axis_config():
    """A mean equality on axis 0 and a frequency bound on axis 1."""
    cfg = two_point_config()
    cfg["breakpoints"] = [[0.0, 0.5, 1.0], [0.0, 1.0]]
    cfg["test_functions"][0]["v"] = [1.0, 0.0]
    cfg["test_functions"].append(
        {"id": "upper", "kind": "slab_indicator", "axis": 1, "slab": [0.0, 1.0],
         "sense": "inequality_upper", "bound": 1.0})
    return cfg


@pytest.mark.parametrize("fn, key, value, field", [
    (1, "bound", float("nan"), "bound"),
    (1, "bound", float("inf"), "bound"),
    (0, "bound", float("inf"), "bound"),
    (0, "c", float("nan"), "c must be finite"),
    (0, "v", [float("inf"), 0.0], "v and c"),
    (1, "axis", -1, "axis"),
    (1, "axis", -3, "axis"),
    (1, "axis", 0.7, "axis"),
    (1, "axis", True, "axis"),
], ids=["nan_bound", "inf_upper_bound", "inf_equality_bound", "nan_c", "inf_in_v",
        "axis_minus_1", "axis_minus_3", "fractional_axis", "boolean_axis"])
def test_invalid_constraint_data_exits_five(tmp_path, capsys, fn, key, value, field):
    cfg = _two_axis_config()
    cfg["test_functions"][fn][key] = value
    path = write_config(tmp_path, cfg)  # json writes NaN and Infinity bare
    samples = tmp_path / "samples.csv"
    samples.write_text("x,y\n0.2,0.3\n0.7,0.9\n")
    for args in (["bound", path], ["verify", path, "--samples", str(samples)]):
        assert main(args) == EXIT_INPUT
        assert field in capsys.readouterr().err


def _set(*path_and_value):
    """An edit of a config: set the entry at ``path`` to ``value``."""
    *path, key, value = path_and_value

    def edit(cfg):
        at = cfg
        for step in path:
            at = at[step]
        at[key] = value

    return edit


@pytest.mark.parametrize("command", ["bound", "verify", "bootstrap"])
@pytest.mark.parametrize("edit, message", [
    (_set("test_functions", 1, "axis", 2), "'upper' axis 2 outside dimension 2"),
    (_set("test_functions", 0, "v", [1.0]), "mean_one_plus_x: v has dimension 1, cell has 2"),
    (_set("breakpoints", 0, [1.0, 0.5, 0.0]), "axis 0: breakpoints must be strictly increasing"),
    (_set("breakpoints", 1, [math.inf, math.inf]), "axis 1: breakpoints must be strictly increasing"),
    (_set("breakpoints", 1, [-math.inf, -math.inf]),
     "axis 1: breakpoints must be strictly increasing"),
    (_set("test_functions", 1, "id", "mean_one_plus_x"),
     "duplicate test function id 'mean_one_plus_x'"),
    (_set("test_functions", 0, "slab", [0.0, 0.7]),
     "slab endpoint 0.7 of 'mean_one_plus_x' is not a breakpoint of axis 0"),
    (_set("test_functions", 1, "slab", [1.0, 1.0 + 5e-10]),
     "slab (1.0, 1.0000000005) of 'upper' holds no slab of axis 1"),
    (_set("risk", "tau", float("inf")), "risk threshold must be finite"),
], ids=["axis_past_the_last", "short_v", "decreasing_breakpoints", "infinite_axis",
        "minus_infinite_axis", "duplicate_id",
        "off_grid_slab_end", "sliver_past_the_top", "infinite_tau"])
def test_model_that_does_not_fit_its_axes_exits_five(tmp_path, capsys, command, edit, message):
    # every command reads the model the same way, so every one rejects it
    cfg = _two_axis_config()
    edit(cfg)
    args = [command, write_config(tmp_path, cfg)]
    if command != "bound":
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n0.2,0.3\n0.7,0.9\n")
        args += ["--samples", str(samples)]
    assert main(args) == EXIT_INPUT
    assert message in capsys.readouterr().err


def _overflow_config(scale):
    """One axis [0, 1], VaR at 0.5 and an upper bound on the mean of
    ``scale`` * (1 + x): at scale 1e308 the record's value at x = 1
    overflows a float."""
    cfg = two_point_config(risk={"kind": "var_indicator", "tau": 0.5})
    cfg["test_functions"][0].update(sense="inequality_upper", bound=1e308, v=[scale], c=scale)
    return cfg


OVERFLOW_MODELS = {
    "affine_record": (_overflow_config(1e308), "test function mean_one_plus_x: <v, x> + c overflows"),
    "grid_sum": (two_point_config(breakpoints=[[0.0, 1e308], [0.0, 1e308]],
                                  risk={"kind": "cvar_hinge", "tau": 1e308}, test_functions=[]),
                 "breakpoints and risk threshold overflow a float"),
}


@pytest.mark.parametrize("args", [["bound"], ["bound", "--mode", "explicit"],
                                  ["bound", "--mode", "vertex"], ["verify"], ["bootstrap"]],
                         ids=["dcg", "explicit", "vertex", "verify", "bootstrap"])
@pytest.mark.parametrize("model", sorted(OVERFLOW_MODELS))
def test_a_model_whose_sums_overflow_exits_five(tmp_path, capsys, model, args):
    # a sum that overflows gave a wrong status, a traceback or bare
    # Infinity/NaN in a report before the model check caught it
    cfg, message = OVERFLOW_MODELS[model]
    samples = tmp_path / "samples.csv"
    samples.write_text("x,y\n0.2,0.3\n0.7,0.9\n" if model == "grid_sum" else "x\n0.2\n0.7\n")
    argv = [args[0], write_config(tmp_path, cfg)] + args[1:]
    if args[0] != "bound":
        argv += ["--samples", str(samples)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_a_model_just_inside_the_float_range_is_accepted(tmp_path):
    path = write_config(tmp_path, _overflow_config(1e307))
    code, report = run(["bound", path], tmp_path)
    assert code == EXIT_OK
    assert report["deterministic"]["bound"] == 1.0
    samples = tmp_path / "samples.csv"
    samples.write_text("x\n0.2\n0.7\n")
    code, report = run(["verify", path, "--samples", str(samples)], tmp_path, out="verify.json")
    assert code == EXIT_OK
    assert report["deterministic"]["checks"][0]["empirical"] == pytest.approx(1.45e307)
    code, report = run(["bootstrap", path, "--samples", str(samples)], tmp_path, out="boot.json")
    assert code == EXIT_OK
    (interval,) = report["deterministic"]["intervals"]
    # the replicate means of samples 0.2 and 0.7 lie between the two values
    assert 1.2e307 <= interval["lower"] <= interval["upper"] <= 1.7e307


# slab end offsets around the 1e-12 and 1e-9 tolerances of the rule
END_OFFSETS = [0.0] + [s * o for o in (0.5e-12, 2e-12, 1e-10, 5e-10, 2e-9) for s in (1, -1)]


def _counts_as(end, b):
    """Index of the breakpoint that a slab end counts as, or None: k
    when |end - b_k| <= 1e-12, or when b_k is an end of the axis and the
    end lies past it by at most 1e-9; an infinite end only as itself."""
    last = len(b) - 1
    for k, bk in enumerate(b):
        if math.isinf(end) or math.isinf(bk):
            if end == bk:
                return k
        elif abs(end - bk) <= 1e-12:
            return k
        elif k in (0, last) and 0 < (bk - end if k == 0 else end - bk) <= 1e-9:
            return k
    return None


@st.composite
def slab_end_models(draw):
    """One or two axes of well-spaced breakpoints, open or closed at
    either end, with indicator slabs whose ends sit on or near a
    breakpoint, or at an infinity."""
    d = draw(st.integers(1, 2))
    bps = []
    for _ in range(d):
        ticks = sorted(draw(st.lists(st.integers(-4, 8), min_size=2, max_size=4, unique=True)))
        b = [t / 2 for t in ticks]
        if draw(st.booleans()):
            b[0] = -math.inf
        if draw(st.booleans()):
            b[-1] = math.inf
        bps.append(b)
    fns = []
    for j in range(draw(st.integers(1, 2))):
        axis = draw(st.integers(0, d - 1))
        b = bps[axis]
        ends = []
        k = draw(st.integers(0, len(b) - 1))
        for _ in range(2):
            if draw(st.integers(0, 9)) == 0:
                ends.append(draw(st.sampled_from([-math.inf, math.inf])))
                continue
            # both ends near one breakpoint now and then: a sliver slab
            k = k if draw(st.integers(0, 3)) == 0 else draw(st.integers(0, len(b) - 1))
            ends.append(b[k] + draw(st.one_of(st.just(0.0), st.sampled_from(END_OFFSETS))))
        lo, hi = sorted(ends)
        assume(lo < hi)
        fns.append({"id": f"f{j}", "kind": "slab_indicator", "axis": axis, "slab": [lo, hi],
                    "sense": "inequality_upper", "bound": 1.0})
    finite = [x for b in bps for x in b if math.isfinite(x)]
    tau = draw(st.sampled_from(finite or [0.0]))
    return {"schema": 1, "breakpoints": bps, "risk": {"kind": "var_indicator", "tau": tau},
            "test_functions": fns}


@settings(max_examples=200, deadline=None)
@given(slab_end_models())
def test_slab_end_rule_is_one_verdict_for_every_command(model):
    # the stated rule: both ends count as breakpoints, with a range between
    spans = []
    for f in model["test_functions"]:
        b = model["breakpoints"][f["axis"]]
        k0, k1 = (_counts_as(e, b) for e in f["slab"])
        spans.append(None if k0 is None or k1 is None or k0 >= k1 else (k0, k1))
    valid = None not in spans
    d = len(model["breakpoints"])
    verdicts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(model, fh)
        samples = os.path.join(tmp, "samples.csv")
        with open(samples, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"x{a}" for a in range(d)) + "\n" + ",".join(["0.25"] * d) + "\n")
        for args in (["bound", path], ["verify", path, "--samples", samples],
                     ["bootstrap", path, "--samples", samples, "--replicates", str(MIN_REPLICATES)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args)
            verdicts.append((code == EXIT_INPUT, err.getvalue()))
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert verdicts[0][0] == (not valid)
    if not valid:
        with pytest.raises(PartitionIncompatibleError):
            ModelConfig(model)
        return
    cfg = ModelConfig(model)
    assert check_model(cfg.breakpoints, cfg.testfns, cfg.riskfn) == spans
    # each table column is what the per-cell route gives on every cell
    partition = build_box_partition(cfg.breakpoints, cfg.riskfn.tau)
    dual = assemble_dual_lp(partition, cfg.testfns, cfg.riskfn)
    grid = partition.ref_arrays()[0]
    # (per master row, a two-sided pair's row taking its upper record)
    for row, r in enumerate(dual.row_records):
        fn, sign, _rhs, _iseq = dual.records[r]
        rows_a, mat = dual._tables[fn.axis]
        column = mat[:, rows_a.tolist().index(row)]
        for i, cell in enumerate(map(partition.cell_at, range(partition.cell_count))):
            assert column[grid[i, fn.axis]] == sign * restrict_to_cell(fn, cell)[1]


def _write_samples(tmp_path, k=500, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, (k, 1))
    path = tmp_path / "samples.csv"
    path.write_text("x\n" + "\n".join(f"{v:.9f}" for v in data[:, 0]) + "\n")
    return str(path), data


def test_verify_reports_margins(tmp_path):
    samples, data = _write_samples(tmp_path)
    emp = float(np.mean(1.0 + data))
    cfg = two_point_config(moment=emp)
    code, report = run(["verify", write_config(tmp_path, cfg), "--samples", samples], tmp_path)
    assert code == EXIT_OK
    det = report["deterministic"]
    assert det["all_ok"] is True
    (check,) = det["checks"]
    assert check["id"] == "mean_one_plus_x"
    assert check["empirical"] == pytest.approx(emp)
    assert check["ok"] is True

    cfg = two_point_config(moment=emp + 0.2)
    code, report = run(
        ["verify", write_config(tmp_path, cfg), "--samples", samples], tmp_path
    )
    assert code == EXIT_OK
    assert report["deterministic"]["all_ok"] is False


def test_verify_rejects_dimension_mismatch(tmp_path):
    samples, _ = _write_samples(tmp_path)
    cfg = two_point_config()
    cfg["breakpoints"] = [[0.0, 1.0], [0.0, 1.0]]
    assert (
        main(["verify", write_config(tmp_path, cfg), "--samples", samples])
        == EXIT_INPUT
    )


def test_bootstrap_command(tmp_path):
    samples, data = _write_samples(tmp_path, k=800)
    cfg = two_point_config()
    code, report = run(
        ["bootstrap", write_config(tmp_path, cfg), "--samples", samples,
         "--replicates", "200"],
        tmp_path,
    )
    assert code == EXIT_OK
    det = report["deterministic"]
    (interval,) = det["intervals"]
    emp = float(np.mean(1.0 + data))
    assert interval["lower"] <= emp <= interval["upper"]
    assert interval["id"] == "mean_one_plus_x"
    assert det["replicates"] == 200
    assert det["n_samples"] == 800
    # load_s reads the model and the samples, wall_s runs from there
    assert sorted(report["timing"]) == ["load_s", "wall_s"]
    assert all(v >= 0.0 for v in report["timing"].values())
    # deterministic given the seed
    _, again = run(
        ["bootstrap", write_config(tmp_path, cfg), "--samples", samples,
         "--replicates", "200"],
        tmp_path,
        out="second.json",
    )
    assert json.dumps(det, sort_keys=True) == json.dumps(
        again["deterministic"], sort_keys=True
    )
    assert (
        main(["bootstrap", write_config(tmp_path, cfg), "--samples", samples,
              "--replicates", "5"])
        == EXIT_INPUT
    )


def test_bootstrap_on_a_model_without_test_functions(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("x\n0.2\n0.7\n")
    cfg = two_point_config(risk={"kind": "var_indicator", "tau": 2.0}, test_functions=[])
    code, report = run(["bootstrap", write_config(tmp_path, cfg), "--samples", str(samples)],
                       tmp_path)
    assert code == EXIT_OK
    assert report["deterministic"]["intervals"] == []


@pytest.mark.parametrize("command", ["verify", "bootstrap"])
def test_unreadable_samples_exit_five(tmp_path, capsys, command):
    cfg = write_config(tmp_path, two_point_config())
    for samples in (tmp_path / "missing.csv", tmp_path):
        assert main([command, cfg, "--samples", str(samples)]) == EXIT_INPUT
        assert str(samples) in capsys.readouterr().err


def test_non_utf8_files_exit_five(tmp_path, capsys):
    model = tmp_path / "latin1.json"
    model.write_bytes(json.dumps(two_point_config(name="café"), ensure_ascii=False)
                      .encode("latin-1"))
    assert main(["bound", str(model)]) == EXIT_INPUT
    assert str(model) in capsys.readouterr().err
    samples = tmp_path / "latin1.csv"
    samples.write_bytes("xé\n0.5\n".encode("latin-1"))
    cfg = write_config(tmp_path, two_point_config())
    for command in ("verify", "bootstrap"):
        assert main([command, cfg, "--samples", str(samples)]) == EXIT_INPUT
        assert str(samples) in capsys.readouterr().err


def test_unwritable_report_exits_five(tmp_path, capsys):
    cfg = write_config(tmp_path, two_point_config())
    for out in (tmp_path / "no_such_dir" / "report.json", tmp_path):
        assert main(["bound", cfg, "--out", str(out)]) == EXIT_INPUT
        assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["verify", "m.json", "--samples", "s.csv", "--seed", "1"],
    ["bench", "--seed", "1"],
    ["verify", "m.json", "--samples", "s.csv", "--budget-cells", "9"],
    ["bootstrap", "m.json", "--samples", "s.csv", "--budget-cells", "9"],
    ["bootstrap", "m.json", "--samples", "s.csv", "--threads", "2"],
    ["bound", "m.json", "--seed", "1"],
])
def test_flags_a_command_does_not_read_are_rejected(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _deterministic_at_blas_threads(tmp_path, args, threads):
    """The ``deterministic`` section of ``riskdual <args>`` run in a
    subprocess with every BLAS library pinned to ``threads`` threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(riskdual.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / f"report_{threads}.json"
    subprocess.run([sys.executable, "-m", "riskdual", *args, "--out", str(out)],
                   env=env, check=True)
    return json.dumps(json.loads(out.read_text())["deterministic"], sort_keys=True)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_bound_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 5 axes of 12 slabs, VaR at 0.55 * 5: one ranged row per slab keeps
    # the master at 61 rows, below the size where threaded LAPACK splits
    # a solve of the basis, so both thread counts take the same pivots
    d = 5
    cfg = write_config(tmp_path, _frequency_grid_config(
        d, 12, {"kind": "var_indicator", "tau": 0.55 * d}))
    reports = [_deterministic_at_blas_threads(tmp_path, ["bound", cfg], t) for t in ("1", "2")]
    assert reports[0] == reports[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
@pytest.mark.xfail(
    strict=True,
    reason="the basis inverse lives across rounds, but its refactors on the pivot"
    " cadence and the pivot checks are np.linalg.solve calls, whose threaded LAPACK"
    " sums in an order that depends on the BLAS thread count once the master has"
    " about 100 rows; pivot paths, and with them iterations, multipliers and the"
    " last bits of the bound, then differ (ROADMAP item 6)",
)
def test_a_larger_bound_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 4 axes of 25 slabs, VaR at 0.7 * 4: 101 master rows
    d = 4
    cfg = write_config(tmp_path, _frequency_grid_config(
        d, 25, {"kind": "var_indicator", "tau": 0.7 * d}))
    reports = [_deterministic_at_blas_threads(tmp_path, ["bound", cfg], t) for t in ("1", "2")]
    assert reports[0] == reports[1]


def test_column_generation_picks_are_pinned(tmp_path):
    # 5 axes of 8 slabs (36,064 cells), VaR at 0.7 * 5: a change to how
    # pricing scores or picks columns moves the round count, the column
    # count or the last bits of the bound
    cfg = write_config(tmp_path, _frequency_grid_config(
        5, 8, {"kind": "var_indicator", "tau": 0.7 * 5}))
    det = json.loads(_deterministic_at_blas_threads(tmp_path, ["bound", cfg], "1"))
    assert (det["engine"], det["certified"]) == ("dcg", True)
    assert (det["iterations"], det["columns_generated"]) == (279, 136)
    assert float(det["bound"]).hex() == "0x1.ba1af286bca08p-1"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_bootstrap_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 51 test functions on 20k rows, the size where BLAS splits a product
    # across threads: the indicator columns' replicate sums go through
    # BLAS and are exact integers, the affine ones through einsum
    rng = np.random.default_rng(5)
    data = 0.4 * rng.beta(2.0, 3.0, (20_000, 1)) + 0.6 * rng.beta(2.0, 2.0, (20_000, 3))
    samples = tmp_path / "samples.csv"
    samples.write_text("x0,x1,x2\n" + "".join(",".join(map(repr, row)) + "\n"
                                              for row in data.tolist()))
    cfg = write_config(tmp_path, _hinge_grid_config(d=3, m=8, tau=1.8))
    args = ["bootstrap", cfg, "--samples", str(samples), "--replicates", "200"]
    reports = [_deterministic_at_blas_threads(tmp_path, args, t) for t in ("1", "2")]
    assert reports[0] == reports[1]


def test_bench_rejects_zero_repeats(capsys):
    assert main(["bench", "--sizes", "2:4", "--repeats", "0"]) == EXIT_INPUT
    assert "--repeats" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["2:-3", "0:4", "3:0"])
def test_bench_rejects_sizes_below_one(capsys, sizes):
    assert main(["bench", "--sizes", sizes, "--repeats", "1"]) == EXIT_INPUT
    assert f"bad bench size '{sizes}'" in capsys.readouterr().err


def test_bench_checks_the_cell_budget_before_building_a_model(monkeypatch, capsys):
    # 2:20 has 400 cells: no size may build its test functions first
    built, make = [], cli.TestFunction
    monkeypatch.setattr(cli, "TestFunction", lambda *a, **k: built.append(a) or make(*a, **k))
    args = ["bench", "--sizes", "2:4,2:20", "--budget-cells", "100", "--repeats", "1"]
    assert main(args) == EXIT_BUDGET
    assert "grid would have more than 100 cells" in capsys.readouterr().err
    assert built == []


def test_bench_checks_the_sliced_cell_budget_before_building_a_model(monkeypatch, capsys):
    # 2:4 has 16 grid cells and 23 slots at tau = 0.62 * 2
    built, make = [], cli.TestFunction
    monkeypatch.setattr(cli, "TestFunction", lambda *a, **k: built.append(a) or make(*a, **k))
    args = ["bench", "--sizes", "2:4", "--budget-cells", "20", "--repeats", "1"]
    assert main(args) == EXIT_BUDGET
    assert "sliced grid would have more than 20 cells" in capsys.readouterr().err
    assert built == []


def test_bench_checks_the_cell_budget_before_building_the_breakpoints(capsys):
    # 20 million slabs on one axis: their breakpoints alone take 160 MB
    tracemalloc.start()
    try:
        rc = main(["bench", "--sizes", "1:20000000", "--budget-cells", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_BUDGET
    assert "grid would have more than 10 cells; raise the cell budget" in capsys.readouterr().err
    assert peak < 2**20


def test_bench_single_shot_failure_exit_six(capsys):
    # the single-shot solve stops at the iteration limit: a solver
    # failure, not a crash on its missing objective
    with lp_limit("ITER_LIMIT", 3):
        assert main(["bench", "--sizes", "2:4", "--repeats", "1"]) == EXIT_SOLVER
    assert "solver failure: single-shot solve ended with iteration_limit" in capsys.readouterr().err


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "--sizes", "2:4", "--repeats", "1", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    (entry,) = report["deterministic"]["results"]
    assert entry["d"] == 2 and entry["m"] == 4
    assert entry["single_shot"] == "ok"
    assert entry["agree"] is True
    per_size = report["timing"]["per_size"]
    assert len(per_size) == 1


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy alone would cost a
    # few hundred milliseconds of every command's start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(riskdual.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "import sys, riskdual, riskdual.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
