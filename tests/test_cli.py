"""Command line flows: configs in, reports and exit codes out."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import riskdual
from riskdual import (
    FactorizationError,
    LPSolution,
    LPStatus,
    SolverError,
    assemble_dual_lp,
    build_box_partition,
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
    assert "wall_s" in report["timing"]


def test_bound_report_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, two_point_config())
    _, first = run(["bound", cfg], tmp_path, out="a.json")
    _, second = run(["bound", cfg], tmp_path, out="b.json")
    da = json.dumps(first["deterministic"], sort_keys=True)
    db = json.dumps(second["deterministic"], sort_keys=True)
    assert da == db


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


def _hinge_grid_config(d=2, m=4, tau=1.2, mode="lambda_eliminated"):
    """Slab frequencies and one mean equality per axis with hinge risk:
    column generation needs several rounds on it."""
    cfg = _frequency_grid_config(d, m, {"kind": "cvar_hinge", "tau": tau})
    for a in range(d):
        cfg["test_functions"].append(
            {"id": f"mean_{a}", "kind": "slab_affine", "axis": a, "slab": [0.0, 1.0],
             "sense": "equality", "bound": 0.5,
             "v": [float(i == a) for i in range(d)], "c": 0.0})
    cfg["mode"] = mode
    return cfg


def _stopped_dcg(round_limit, status):
    def solve(seed_lp, gen, **kwargs):
        sol = lp_engine.solve_dcg(seed_lp, gen, round_limit=round_limit)
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
     lambda seed_lp, gen, **kw: lp_engine.solve_dcg(seed_lp, gen, iteration_limit=3),
     "iteration_limit"),
    ("solve_dense_simplex", "explicit",
     lambda lp, **kw: lp_engine.solve_dense_simplex(lp, iteration_limit=3),
     "iteration_limit"),
    ("solve_dcg", "lambda_eliminated", _stopped_dcg(3, LPStatus.OPTIMAL), "clean pricing sweep"),
    ("solve_dcg", "lambda_eliminated", _stopped_dcg(1, LPStatus.INFEASIBLE), "clean pricing sweep"),
    ("solve_dcg", "lambda_eliminated", _fixed_status(LPStatus.UNBOUNDED), "unbounded"),
    ("solve_dense_simplex", "explicit", _singular, "singular"),
])
def test_solver_failure_exit_six(tmp_path, monkeypatch, capsys, name, mode, solver, why):
    raw = _hinge_grid_config(mode=mode)
    model = ModelConfig(raw)
    partition = build_box_partition(model.breakpoints, model.riskfn.tau)
    monkeypatch.setattr(dual_builder, name, solver)
    with pytest.raises(SolverError, match=why):
        solve_bound(partition, model.testfns, model.riskfn, model.mode)
    capsys.readouterr()
    code, report = run(["bound", write_config(tmp_path, raw)], tmp_path)
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
    assert (
        main(["bound", write_config(tmp_path, two_point_config(surprise=1))])
        == EXIT_INPUT
    )
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
    ]
    for field, edit in malformed:
        cfg = two_point_config()
        edit(cfg)
        capsys.readouterr()
        assert main(["bound", write_config(tmp_path, cfg)]) == EXIT_INPUT, field
        assert field in capsys.readouterr().err, field


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
@pytest.mark.xfail(
    strict=True,
    reason="the simplex refactors its basis with np.linalg.solve, whose threaded"
    " LAPACK sums in an order that depends on the BLAS thread count; pricing"
    " near-ties then pick other columns (ROADMAP item 2)",
)
def test_bound_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 5 axes of 12 slabs, VaR at 0.55 * 5
    d = 5
    cfg = write_config(tmp_path, _frequency_grid_config(
        d, 12, {"kind": "var_indicator", "tau": 0.55 * d}))
    reports = [_deterministic_at_blas_threads(tmp_path, ["bound", cfg], t) for t in ("1", "2")]
    assert reports[0] == reports[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_bootstrap_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 51 test functions on 20k rows, the size where a BLAS matrix-vector
    # product for the replicate means sums in a thread-dependent order
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
