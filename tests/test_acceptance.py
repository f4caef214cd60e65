"""Release gate: one test per shipping criterion, one printed verdict each.

Every test prints a single ``criterion N: PASS/FAIL`` line so a full run
reads as a checklist even under captured output.  The tolerances and time
budgets below are pinned; loosening one is a contract change and needs a
decision, not a tweak.
"""

import json
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import random_instance, two_point_model
from riskdual import (
    Cell,
    LinearProgram,
    LPStatus,
    ReductionMode,
    SampleSet,
    Sense,
    TestFunction,
    TestFunctionKind,
    assemble_dual_lp,
    bootstrap_integral_bounds,
    build_box_partition,
    build_candidate_grid,
    duality_gap,
    maximize_linear_over_cell,
    solve_dcg,
    solve_dense_simplex,
    solve_primal_discretization,
)
from riskdual.cli import EXIT_OK, _bench_model, main

TOL_ANALYTIC = 1e-9        # two-point models solve in closed form
REL_WEAK = 1e-7            # primal may not exceed dual by more than this
REL_GAP = 1e-6             # discretized strong duality
TOL_MODES = 1e-8           # reduction routes must agree this tightly
TOL_MULTIPLIER = 1e-9      # precomputed C vs the multiplier LP solved cold
REL_DCG = 1e-7             # column generation vs single shot
COVERAGE_WINDOW = (0.90, 1.00)

TIME_ANALYTIC_S = 1.0
TIME_WEAK_S = 30.0
TIME_BENCH_S = 600.0
TIME_COVERAGE_S = 120.0

N_DUALITY_INSTANCES = 100
N_MODE_INSTANCES = 50
N_MULTIPLIER_CELLS = 50
N_COVERAGE_TRIALS = 200


def _report(capsys, num, ok, label, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _two_point_solution(moment):
    inst = two_point_model(moment)
    dual = inst.dual()
    res = solve_primal_discretization(dual, build_candidate_grid(dual))
    atoms = {round(float(p[0])): float(w) for p, w in res.support}
    return res, atoms


# -- 1: analytic two-point models --


def test_criterion_1_two_point_analytics(capsys):
    t0 = time.perf_counter()
    cases = [
        # E[1 + x] = 1 + 5/9 forces mass 5/9 onto x = 1
        (14.0 / 9.0, (4.0 / 9.0, 5.0 / 9.0), 5.0 / 9.0),
        # E[1 + x] = 1 + 3/4 forces mass 3/4 onto x = 1
        (7.0 / 4.0, (1.0 / 4.0, 3.0 / 4.0), 3.0 / 4.0),
    ]
    ok = True
    for moment, atoms, value in cases:
        res, sup = _two_point_solution(moment)
        ok &= res.status is LPStatus.OPTIMAL
        ok &= abs(res.value - value) <= TOL_ANALYTIC
        ok &= abs(sup[0] - atoms[0]) <= TOL_ANALYTIC
        ok &= abs(sup[1] - atoms[1]) <= TOL_ANALYTIC
    elapsed = time.perf_counter() - t0
    ok &= elapsed < TIME_ANALYTIC_S
    _report(
        capsys, 1, ok, "two-point analytic models",
        f"values 5/9 and 3/4 with matching atoms, {elapsed:.2f}s"
        " (second model's commonly quoted atom pair is impossible,"
        " see the companion xfail)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="a measure on {0, 1} with E[1 + x] = 7/4 must put weight 3/4 at"
    " x = 1; the quoted triple of atoms (3/4, 1/4) with value 1/4 instead"
    " solves E[1 + x] = 5/4, so no correct solver can reproduce it",
)
def test_criterion_1_quoted_second_variant():
    res, sup = _two_point_solution(7.0 / 4.0)
    assert abs(res.value - 1.0 / 4.0) <= TOL_ANALYTIC
    assert abs(sup[0] - 3.0 / 4.0) <= TOL_ANALYTIC
    assert abs(sup[1] - 1.0 / 4.0) <= TOL_ANALYTIC


# -- 2 and 3: duality on randomized instances --


@lru_cache(maxsize=1)
def _duality_runs():
    """Dual bound and primal oracle on the shared instance batch."""
    t0 = time.perf_counter()
    rows = []
    for i in range(N_DUALITY_INSTANCES):
        inst = random_instance(3000 + i)
        sol = inst.bound()
        dual = inst.dual()
        grid = build_candidate_grid(dual)
        primal = solve_primal_discretization(dual, grid)
        rows.append((sol, primal, grid.exact))
    return rows, time.perf_counter() - t0


def test_criterion_2_weak_duality(capsys):
    rows, elapsed = _duality_runs()
    solved = all(
        sol.status is LPStatus.OPTIMAL and primal.status is LPStatus.OPTIMAL
        for sol, primal, _ in rows
    )
    violations = sum(
        primal.value > sol.objective + REL_WEAK * max(1.0, abs(sol.objective))
        for sol, primal, _ in rows
        if sol.status is LPStatus.OPTIMAL and primal.status is LPStatus.OPTIMAL
    )
    ok = solved and violations == 0 and elapsed < TIME_WEAK_S
    _report(
        capsys, 2, ok, "weak duality",
        f"{len(rows)} instances, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3_discretized_strong_duality(capsys):
    rows, _ = _duality_runs()
    worst = 0.0
    exact = True
    for sol, primal, grid_exact in rows:
        _, rel = duality_gap(primal.value, sol.objective)
        worst = max(worst, abs(rel))
        exact &= grid_exact
    ok = exact and worst <= REL_GAP
    _report(
        capsys, 3, ok, "discretized strong duality",
        f"{len(rows)} instances, worst |relative gap| {worst:.2e}",
    )


# -- 4: the reduction routes agree --


def test_criterion_4_reduction_mode_agreement(capsys):
    worst = 0.0
    solved = True
    for i in range(N_MODE_INSTANCES):
        inst = random_instance(5000 + i, affine=True, equality=(i % 2 == 0))
        vals = []
        for mode in ReductionMode:
            sol = inst.bound(mode)
            solved &= sol.status is LPStatus.OPTIMAL
            vals.append(sol.objective)
        if solved:
            worst = max(worst, max(vals) - min(vals))
    ok = solved and worst <= TOL_MODES
    _report(
        capsys, 4, ok, "reduction mode agreement",
        f"{N_MODE_INSTANCES} affine instances, worst spread {worst:.2e}",
    )


# -- 5: precomputed multipliers vs the multiplier LP solved cold --


def test_criterion_5_multiplier_precompute(capsys):
    worst = 0.0
    solved = True
    for seed in range(N_MULTIPLIER_CELLS):
        rng = np.random.default_rng(900 + seed)
        d = int(rng.integers(1, 5))
        lows = rng.uniform(-3, 3, d)
        highs = lows + rng.uniform(0.2, 3.0, d)
        slice_sign = int(rng.choice([0, 1, -1]))
        tau = None
        if slice_sign:
            tau = float(lows.sum() + rng.uniform(0.1, 0.9) * (highs - lows).sum())
        cell = Cell(lows, highs, slice_sign=slice_sign, tau=tau)
        g = rng.normal(0.0, 1.0, d)
        C = -maximize_linear_over_cell(cell, g)[0]
        F, ell = cell.halfspaces
        sol = solve_dense_simplex(
            LinearProgram("max", ell, F.T, ["="] * d, -g, name="lambda_direct")
        )
        solved &= sol.status is LPStatus.OPTIMAL
        if solved:
            worst = max(worst, abs(C - sol.objective))
    ok = solved and worst <= TOL_MULTIPLIER
    _report(
        capsys, 5, ok, "multiplier precompute",
        f"{N_MULTIPLIER_CELLS} cells up to d=4, worst |C difference| {worst:.2e}",
    )


# -- 6: column generation lands on the dense optimum --


def test_criterion_6_column_generation(capsys):
    worst = 0.0
    certified = True
    pairs = 0

    def compare(partition_maker, fns, risk):
        nonlocal worst, certified, pairs
        dual = assemble_dual_lp(partition_maker(), fns, risk)
        dense = solve_dense_simplex(dual.master_lp())
        seed_lp, gen = assemble_dual_lp(partition_maker(), fns, risk).master_seed()
        dcg = solve_dcg(seed_lp, gen)
        rel = abs(dense.objective - dcg.objective) / max(1.0, abs(dense.objective))
        worst = max(worst, rel)
        certified &= dcg.certified and dense.status is LPStatus.OPTIMAL
        pairs += 1

    for d, m in [(1, 16), (1, 64), (2, 8), (2, 32), (2, 64)]:
        bp, fns, risk = _bench_model(d, m)
        compare(lambda: build_box_partition(bp, tau=risk.tau), fns, risk)
    for i in range(20):
        inst = random_instance(7000 + i)
        compare(lambda: inst.partition, inst.testfns, inst.risk)
    ok = certified and worst <= REL_DCG
    _report(
        capsys, 6, ok, "column generation vs single shot",
        f"{pairs} model pairs up to 4096 boxes, worst relative gap {worst:.2e},"
        f" all certified: {certified}",
    )


# -- 7: scaling behaviour of the two engines --


def test_criterion_7_benchmark_scaling(tmp_path, capsys):
    t0 = time.perf_counter()
    small = tmp_path / "bench_small.json"
    code = main(
        ["bench", "--sizes", "3:16,4:8", "--repeats", "5",
         "--out", str(small), "--format", "json"]
    )
    report = json.loads(small.read_text())
    rows = {(r["d"], r["m"]): r for r in report["deterministic"]["results"]}
    med = {(r["d"], r["m"]): r for r in report["timing"]["per_size"]}
    ok = code == EXIT_OK
    for key in ((3, 16), (4, 8)):
        ok &= rows[key]["single_shot"] == "ok"
        ok &= rows[key]["agree"] is True
        ok &= med[key]["dcg_median_s"] <= med[key]["single_shot_median_s"]

    large = tmp_path / "bench_large.json"
    code = main(
        ["bench", "--sizes", "4:16", "--repeats", "5",
         "--out", str(large), "--format", "json"]
    )
    (big,) = json.loads(large.read_text())["deterministic"]["results"]
    ok &= code == EXIT_OK
    ok &= big["single_shot"] == "budget_rejected"
    ok &= big["cells"] >= 65536
    ok &= big["bound"] is not None and np.isfinite(big["bound"])
    elapsed = time.perf_counter() - t0
    ok &= elapsed < TIME_BENCH_S
    _report(
        capsys, 7, ok, "benchmark scaling",
        f"medians of 5: column generation at or below single shot on both"
        f" shared sizes, {big['cells']} cells solved past the dense budget,"
        f" {elapsed:.0f}s",
    )


# -- 8: bootstrap interval coverage --


def test_criterion_8_bootstrap_coverage(capsys):
    t0 = time.perf_counter()
    fn = TestFunction(
        "slab", TestFunctionKind.SLAB_INDICATOR, 0, (0.25, 0.6), Sense.UPPER, 1.0
    )
    truth_uniform = 0.6 - 0.25
    truth_triangular = 0.6 ** 2 - 0.25 ** 2
    hits = 0
    for trial in range(N_COVERAGE_TRIALS):
        rng = np.random.default_rng(trial)
        if trial % 2 == 0:
            data, truth = rng.uniform(0.0, 1.0, (1000, 1)), truth_uniform
        else:
            data, truth = rng.triangular(0.0, 1.0, 1.0, (1000, 1)), truth_triangular
        (interval,) = bootstrap_integral_bounds(
            [fn], SampleSet(data, ("x",)), level=0.95, replicates=400, seed=trial
        )
        hits += interval.lower <= truth <= interval.upper
    coverage = hits / N_COVERAGE_TRIALS
    elapsed = time.perf_counter() - t0
    lo, hi = COVERAGE_WINDOW
    ok = lo <= coverage <= hi and elapsed < TIME_COVERAGE_S
    _report(
        capsys, 8, ok, "bootstrap coverage",
        f"{coverage:.3f} over {N_COVERAGE_TRIALS} uniform and triangular"
        f" trials, {elapsed:.0f}s",
    )


# -- 9: reports are reproducible byte for byte --


def _grid_config():
    bp = [0.0, 0.25, 0.5, 0.75, 1.0]
    fns = []
    for axis in range(2):
        for s in range(4):
            fns.append(
                {
                    "id": f"up_{axis}_{s}",
                    "kind": "slab_indicator",
                    "axis": axis,
                    "slab": [bp[s], bp[s + 1]],
                    "sense": "inequality_upper",
                    "bound": 0.4,
                }
            )
            fns.append(
                {
                    "id": f"lo_{axis}_{s}",
                    "kind": "slab_indicator",
                    "axis": axis,
                    "slab": [bp[s], bp[s + 1]],
                    "sense": "inequality_lower",
                    "bound": 0.1,
                }
            )
    return {
        "schema": 1,
        "name": "grid_2x4",
        "breakpoints": [bp, bp],
        "risk": {"kind": "var_indicator", "tau": 1.24},
        "test_functions": fns,
    }


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(_grid_config()))
    ok = True
    engines = []
    for mode_args in ([], ["--mode", "explicit"]):
        blobs = []
        for run in range(2):
            out = tmp_path / f"run_{len(engines)}_{run}.json"
            code = main(
                ["bound", str(cfg_path),
                 "--out", str(out), "--format", "json"] + mode_args
            )
            ok &= code == EXIT_OK
            report = json.loads(out.read_text())
            blobs.append(
                json.dumps(report["deterministic"], sort_keys=True).encode()
            )
            engine = report["deterministic"]["engine"]
        ok &= blobs[0] == blobs[1]
        engines.append(engine)
    # the repeat covered both engines, not the same one twice
    ok &= engines == ["dcg", "dense_rows"]
    _report(
        capsys, 9, ok, "deterministic reports",
        f"two byte-identical runs per engine {engines}",
    )
