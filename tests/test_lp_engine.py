"""Two-phase simplex and delayed column generation against a reference
solver and against hand-checkable programs."""

import numpy as np
import pytest
import scipy.sparse as sp

from riskdual import (
    CapacityError,
    ColumnGenerator,
    InputError,
    LPStatus,
    LinearProgram,
    ReductionMode,
    RiskKind,
    solve_dcg,
    solve_dense_simplex,
)
from riskdual.lp_engine import _pricing_batch

from conftest import random_instance, random_lp, scipy_reference


def test_tiny_known_programs():
    lp = LinearProgram("max", [1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0])
    sol = solve_dense_simplex(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)

    lp = LinearProgram("min", [1.0], [[1.0]], ["<="], [-1.0])
    assert solve_dense_simplex(lp).status is LPStatus.INFEASIBLE

    lp = LinearProgram("max", [1.0], [[1.0]], [">="], [0.0])
    assert solve_dense_simplex(lp).status is LPStatus.UNBOUNDED

    # free variable pinned by an equality
    lp = LinearProgram("min", [1.0], [[1.0]], ["="], [-2.5], var_free=[True])
    sol = solve_dense_simplex(lp)
    assert sol.objective == pytest.approx(-2.5)
    assert sol.x == pytest.approx([-2.5])


@pytest.mark.parametrize("seed", range(80))
def test_matches_reference_solver(seed):
    lp = random_lp(seed)
    sol = solve_dense_simplex(lp)
    ref_status, ref_value = scipy_reference(lp)
    assert sol.status.value == ref_status
    if ref_status != "optimal":
        return
    assert sol.objective == pytest.approx(ref_value, abs=1e-7, rel=1e-7)
    assert sol.feas_residual <= 1e-7
    # strong duality and dual feasibility in the LP's own sense
    assert sol.duals @ lp.rhs == pytest.approx(sol.objective, abs=1e-6)
    rc = lp.c - sol.duals @ lp.dense_matrix()
    if lp.sense == "min":
        assert np.all(rc >= -1e-6)
    else:
        assert np.all(rc <= 1e-6)
    if np.any(lp.var_free):
        # free columns must price to zero
        assert np.max(np.abs(rc[lp.var_free])) <= 1e-6


def test_beale_cycling_example_terminates():
    # classic degenerate program that cycles under naive pivoting
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    lp = LinearProgram("min", c, A, ["<="] * 3, [0.0, 0.0, 1.0])
    sol = solve_dense_simplex(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05)


def test_sparse_and_dense_matrices_agree():
    lp_dense = random_lp(7, m=5, n=8)
    lp_sparse = LinearProgram(
        lp_dense.sense,
        lp_dense.c,
        sp.csc_matrix(lp_dense.dense_matrix()),
        lp_dense.row_senses,
        lp_dense.rhs,
        var_free=lp_dense.var_free,
    )
    a = solve_dense_simplex(lp_dense)
    b = solve_dense_simplex(lp_sparse)
    assert a.status is b.status
    if a.status is LPStatus.OPTIMAL:
        assert a.objective == pytest.approx(b.objective, abs=1e-10)


def test_warm_start_skips_the_work():
    lp = LinearProgram(
        "max",
        [3.0, 1.0, 2.0],
        [[1.0, 1.0, 3.0], [2.0, 2.0, 5.0], [4.0, 1.0, 2.0]],
        ["<="] * 3,
        [30.0, 24.0, 36.0],
    )
    cold = solve_dense_simplex(lp)
    assert cold.status is LPStatus.OPTIMAL and cold.iterations > 0
    warm = solve_dense_simplex(lp, warm_basis=cold.basis_tokens)
    assert warm.objective == pytest.approx(cold.objective)
    assert warm.iterations == 0


def test_warm_start_survives_column_append():
    lp = LinearProgram(
        "max", [1.0, 2.0], [[1.0, 1.0], [1.0, 3.0]], ["<="] * 2, [4.0, 6.0]
    )
    first = solve_dense_simplex(lp)
    # append a column; old tokens still name the same variables
    bigger = LinearProgram(
        "max",
        [1.0, 2.0, 5.0],
        [[1.0, 1.0, 1.0], [1.0, 3.0, 4.0]],
        ["<="] * 2,
        [4.0, 6.0],
    )
    warm = solve_dense_simplex(bigger, warm_basis=first.basis_tokens)
    cold = solve_dense_simplex(bigger)
    assert warm.status is LPStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective)
    ref_status, ref_value = scipy_reference(bigger)
    assert ref_status == "optimal"
    assert warm.objective == pytest.approx(ref_value)


def test_infeasible_exit_reports_pricing_duals():
    # one column covers the first row only; the second row cannot be met
    lp = LinearProgram("max", [1.0], [[1.0], [0.0]], ["=", "="], [1.0, 1.0])
    sol = solve_dense_simplex(lp)
    assert sol.status is LPStatus.INFEASIBLE
    assert sol.objective is None
    assert sol.basis_tokens is not None
    # a column that feeds the uncovered row prices positive
    assert sol.duals @ np.array([0.0, 1.0]) > 0
    assert sol.duals @ np.array([1.0, 0.0]) <= 1e-9


@pytest.mark.parametrize("seed,kind,mode", [
    (0, RiskKind.VAR_INDICATOR, ReductionMode.VERTEX),  # was a singular basis
    (85, RiskKind.VAR_INDICATOR, ReductionMode.EXPLICIT),  # was a singular basis
    (62, RiskKind.VAR_INDICATOR, ReductionMode.VERTEX),  # was unbounded
    (85, RiskKind.VAR_INDICATOR, ReductionMode.VERTEX),  # was infeasible
    (52, RiskKind.CVAR_HINGE, ReductionMode.VERTEX),  # was infeasible
    (127, RiskKind.CVAR_HINGE, ReductionMode.VERTEX),  # was infeasible
])
def test_tiny_rounding_pivots_are_not_taken(seed, kind, mode):
    # row duals of d=3 models with affine equalities: the updated basis
    # inverse once offered pivots near 1e-10 whose true value is zero,
    # which made the basis singular or ended phase one early
    lp = random_instance(seed, d=3, m=3, affine=True, equality=True, risk_kind=kind).dual(mode).materialize()
    ref_status, ref_value = scipy_reference(lp)
    assert ref_status == "optimal"
    sol = solve_dense_simplex(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(ref_value, rel=1e-7, abs=1e-7)


def test_iteration_limit_is_reported():
    lp = random_lp(3, m=6, n=8)
    sol = solve_dense_simplex(lp, iteration_limit=1)
    if sol.status is LPStatus.ITERATION_LIMIT:
        assert sol.objective is None
    else:
        # the draw may be solvable within one pivot; that is fine too
        assert sol.iterations <= 1


def test_size_budget_is_enforced():
    lp = random_lp(11, m=4, n=6)
    with pytest.raises(CapacityError):
        solve_dense_simplex(lp, budget=5)


def test_linear_program_validation():
    with pytest.raises(InputError):
        LinearProgram("best", [1.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(InputError):
        LinearProgram("min", [1.0, 2.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(InputError):
        LinearProgram("min", [1.0], [[1.0]], ["<<"], [1.0])
    with pytest.raises(InputError):
        LinearProgram("min", [1.0], [[1.0]], ["<="], [1.0], var_free=[True, False])


def _scored(count, column_at):
    """Generator whose scorer prices every position through column_at,
    the plain definition the array scorers must reproduce."""

    def reduced_costs(duals, use_objective):
        out = np.empty(count)
        for pos in range(count):
            rows, vals, obj = column_at(pos)
            score = float(duals[rows] @ vals)
            out[pos] = score - obj if use_objective else -score
        return out

    return ColumnGenerator(count, column_at, reduced_costs)


def _toy_master(r_values):
    """Single normalization row; column j has objective r_values[j]."""

    def column_at(pos):
        return np.array([0]), np.array([1.0]), float(r_values[pos])

    return _scored(len(r_values), column_at)


def test_pricing_batch_order_and_certificate():
    gen = _toy_master([0.0, 3.0, 1.0, 5.0, 2.0])
    duals = np.array([0.0])
    (best,) = _pricing_batch(gen, duals, 1)
    assert best.position == 3
    assert best.reduced_cost == pytest.approx(-5.0)
    # the batch runs steepest first; position 0 prices at zero
    assert [pc.position for pc in _pricing_batch(gen, duals, 8)] == [3, 1, 4, 2]
    gen.generated.update({1, 3})
    assert [pc.position for pc in _pricing_batch(gen, duals, 8)] == [4, 2]
    gen.generated.update({0, 2, 4})
    assert _pricing_batch(gen, duals, 8) == []


def test_pricing_batch_breaks_ties_by_position():
    gen = _toy_master([2.0, 4.0, 2.0, 4.0])
    picks = _pricing_batch(gen, np.array([0.0]), 3)
    assert [pc.position for pc in picks] == [1, 3, 0]


def test_pricing_batch_respects_tolerance():
    gen = _toy_master([5.0, 5.0 + 1e-12])
    duals = np.array([5.0])
    assert _pricing_batch(gen, duals, 8) == []


def _random_master(seed, n_rows=4, n_cols=40):
    """Feasible bounded master: a simplex row plus slack inequality
    rows calibrated around a random interior point."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, (n_rows, n_cols))
    A[0] = 1.0
    u0 = rng.dirichlet(np.ones(n_cols))
    rhs = A @ u0
    rhs[0] = 1.0
    rhs[1:] += 0.05
    senses = ["="] + ["<="] * (n_rows - 1)
    c = rng.uniform(0.0, 2.0, n_cols)
    return LinearProgram("max", c, A, senses, rhs, name=f"master{seed}")


@pytest.mark.parametrize("seed", range(12))
def test_dcg_reaches_the_dense_optimum(seed):
    lp = _random_master(seed)
    dense = solve_dense_simplex(lp)
    assert dense.status is LPStatus.OPTIMAL

    full = lp.dense_matrix()

    def column_at(pos):
        return np.arange(lp.n_rows), full[:, pos].copy(), float(lp.c[pos])

    gen = _scored(lp.n_cols, column_at)
    seed_cols = [0, 1]
    gen.generated.update(seed_cols)
    seed_lp = LinearProgram(
        "max", lp.c[seed_cols], full[:, seed_cols], lp.row_senses, lp.rhs
    )
    sol = solve_dcg(seed_lp, gen, batch=4)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.certified
    assert sol.objective == pytest.approx(dense.objective, abs=1e-9)
    # positions recorded for every appended column, None for seeds
    appended = [p for p in sol.column_positions if p is not None]
    assert len(appended) == sol.columns_generated
    assert set(appended) <= set(range(lp.n_cols))


def test_dcg_recovers_from_infeasible_seed():
    # seed columns cannot satisfy the equality rows; phase one duals
    # must pull in covering columns
    A = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, 1.0, 1.0],
        ]
    )
    c = np.array([0.1, 0.2, 0.3, 1.0])
    rhs = np.array([1.0, 0.5, 0.75])
    senses = ["=", "=", "="]
    lp = LinearProgram("max", c, A, senses, rhs)
    dense = solve_dense_simplex(lp)
    assert dense.status is LPStatus.OPTIMAL

    def column_at(pos):
        return np.arange(3), A[:, pos].copy(), float(c[pos])

    gen = _scored(4, column_at)
    gen.generated.add(1)  # covers only the normalization row
    seed_lp = LinearProgram("max", c[[1]], A[:, [1]], senses, rhs)
    sol = solve_dcg(seed_lp, gen, batch=1)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(dense.objective, abs=1e-9)
