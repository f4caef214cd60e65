"""Two-phase simplex and delayed column generation against a reference
solver and against hand-checkable programs."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from riskdual import (
    CapacityError,
    FactorizationError,
    InputError,
    LPStatus,
    LinearProgram,
    ReductionMode,
    RiskFunctional,
    RiskKind,
    Sense,
    TestFunction,
    TestFunctionKind,
    assemble_dual_lp,
    build_box_partition,
    solve_bound,
    solve_dcg,
    solve_dense_simplex,
    solve_primal_discretization,
)
from riskdual import lp_engine
from riskdual.lp_engine import RC_TOL, steepest_candidates

from conftest import random_instance, random_lp, scipy_reference, solve_rows, sweep_generator


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


# 128, 2834 and 5222 are feasible and unbounded, which HiGHS reports as
# infeasible; the reference tells them apart by a zero-objective re-solve
@pytest.mark.parametrize("seed", [*range(80), 128, 2834, 5222])
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
    cold_basis = lp.standard_form().basis.copy()
    # a second solve resumes from the basis and inverse the first kept
    warm = solve_dense_simplex(lp)
    assert warm.objective == pytest.approx(cold.objective)
    assert warm.iterations == 0
    assert (cold.refactors, warm.refactors) == (1, 0)
    assert np.array_equal(lp.standard_form().basis, cold_basis)


def test_warm_start_survives_column_append():
    lp = LinearProgram(
        "max", [1.0, 2.0], [[1.0, 1.0], [1.0, 3.0]], ["<="] * 2, [4.0, 6.0]
    )
    solve_dense_simplex(lp)
    standard = lp.standard_form()
    basic_cols = standard.A[:, standard.basis]
    lp.append_columns([[1.0], [4.0]], [5.0])
    basis = standard.basis.copy()
    # the inverse kept with the moved positions still inverts their columns
    assert np.allclose(standard.Binv @ standard.A[:, basis], np.eye(2), rtol=0.0, atol=1e-12)
    warm = solve_dense_simplex(lp)
    bigger = LinearProgram(
        "max",
        [1.0, 2.0, 5.0],
        [[1.0, 1.0, 1.0], [1.0, 3.0, 4.0]],
        ["<="] * 2,
        [4.0, 6.0],
    )
    cold = solve_dense_simplex(bigger)
    # the column went into the same standard form, where a fresh build
    # of the bigger LP puts it
    assert lp.standard_form() is standard
    assert np.array_equal(standard.A, bigger.standard_form().A)
    # the moved positions name the same basic columns, and the solve
    # starts from that old optimum, not from the slack basis a cold
    # start takes
    assert np.array_equal(standard.A[:, basis], basic_cols)
    assert (warm.iterations, cold.iterations) == (2, 1)
    # and it starts with no refactor, where the cold start factorizes
    assert (warm.refactors, cold.refactors) == (0, 1)
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
    # a column that feeds the uncovered row prices positive
    assert sol.duals @ np.array([0.0, 1.0]) > 0
    assert sol.duals @ np.array([1.0, 0.0]) <= 1e-9
    # phase one resumes from the returned basis once such a column is in
    lp.append_columns([[0.0], [1.0]], [2.0])
    resumed = solve_dense_simplex(lp)
    cold = solve_dense_simplex(
        LinearProgram("max", [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], ["=", "="], [1.0, 1.0])
    )
    assert resumed.status is LPStatus.OPTIMAL
    assert resumed.objective == pytest.approx(3.0)
    assert resumed.iterations < cold.iterations


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
    inst = random_instance(seed, d=3, m=3, affine=True, equality=True, risk_kind=kind)
    lp = inst.dual().materialize(mode)
    ref_status, ref_value = scipy_reference(lp)
    assert ref_status == "optimal"
    sol = solve_dense_simplex(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(ref_value, rel=1e-7, abs=1e-7)


def test_iteration_limit_is_reported(monkeypatch):
    lp = random_lp(3, m=6, n=8)
    monkeypatch.setattr(lp_engine, "ITER_LIMIT", 1)
    sol = solve_dense_simplex(lp)
    if sol.status is LPStatus.ITERATION_LIMIT:
        assert sol.objective is None
    else:
        # the draw may be solvable within one pivot; that is fine too
        assert sol.iterations <= 1


def test_size_budget_is_enforced(monkeypatch):
    lp = random_lp(11, m=4, n=6)
    monkeypatch.setattr(lp_engine, "DENSE_BUDGET", 5)
    with pytest.raises(CapacityError):
        solve_dense_simplex(lp)


def test_linear_program_validation():
    with pytest.raises(InputError):
        LinearProgram("best", [1.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(InputError):
        LinearProgram("min", [1.0, 2.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(InputError):
        LinearProgram("min", [1.0], [[1.0]], ["<<"], [1.0])
    with pytest.raises(InputError):
        LinearProgram("min", [1.0], [[1.0]], ["<="], [1.0], var_free=[True, False])
    # a finite range only on a '<=' row, never negative
    for senses, rng in ((["="], [1.0]), ([">="], [1.0]), (["<="], [-1.0]), (["<="], [np.nan]),
                        (["<="], [1.0, 2.0])):
        with pytest.raises(InputError):
            LinearProgram("min", [1.0], [[1.0]], senses, [1.0], row_range=rng)


def _scored(count, column_at):
    """Generator whose pricer scores every position through column_at,
    the plain definition the array pricers must reproduce."""

    def scores(duals, use_objective):
        cols, objs = column_at(np.arange(count))
        score = duals @ cols
        return score - objs if use_objective else -score

    return sweep_generator(count, column_at, scores)


def _picks(values, q, seen=()):
    """Positions of the picks among positions 0, 1, ... priced at
    ``values``, outside ``seen``."""
    values = np.asarray(values, dtype=float)
    seen = np.array(sorted(seen), dtype=np.intp)
    return steepest_candidates(np.arange(values.size), values, q, seen)[0].tolist()


def test_pricing_batch_order_and_certificate():
    rc = -np.array([0.0, 3.0, 1.0, 5.0, 2.0])
    pos, vals = steepest_candidates(np.arange(5), rc, 1, np.zeros(0, dtype=np.intp))
    assert pos.tolist() == [3] and vals.tolist() == [-5.0]
    # the batch runs steepest first; position 0 prices at zero
    pos, vals = steepest_candidates(np.arange(5), rc, 8, np.zeros(0, dtype=np.intp))
    assert pos.tolist() == [3, 1, 4, 2] and vals.tolist() == [-5.0, -3.0, -2.0, -1.0]
    assert _picks(rc, 8, {1, 3}) == [4, 2]
    assert _picks(rc, 8, {0, 1, 2, 3, 4}) == []


def test_pricing_batch_breaks_ties_by_position():
    assert _picks([-2.0, -4.0, -2.0, -4.0], 3) == [1, 3, 0]
    # positions need not come in order
    pos, vals = steepest_candidates(np.array([9, 4, 7, 2]), np.array([-1.0, -3.0, -1.0, -3.0]), 3,
                                    np.zeros(0, dtype=np.intp))
    assert pos.tolist() == [2, 4, 7] and vals.tolist() == [-3.0, -3.0, -1.0]


def test_pricing_batch_respects_tolerance():
    assert _picks([5.0 - 5.0, 5.0 - (5.0 + 1e-12)], 8) == []


# few distinct values, so ties often straddle the q-th smallest; three
# sit within RC_TOL of zero, one exactly on the tolerance
PRICED_VALUES = (-3.0, -2.0, -1.0, -0.5, -1.5 * RC_TOL, -RC_TOL, -0.5 * RC_TOL, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PRICED_VALUES), min_size=1, max_size=60), st.data())
def test_pricing_batch_matches_a_full_sort(values, data):
    rc = np.array(values)
    generated = data.draw(st.sets(st.integers(0, rc.size - 1)))
    q = data.draw(st.integers(1, rc.size + 3))
    # the plain rule: sort every unseen candidate by (rc, position)
    mask = rc < -RC_TOL
    mask[list(generated)] = False
    cand = np.nonzero(mask)[0]
    order = np.lexsort((cand, rc[cand]))[:q]
    seen = np.array(sorted(generated), dtype=np.intp)
    # in any input order, the picks come out in the sorted order
    perm = np.random.default_rng(len(values)).permutation(rc.size)
    pos, vals = steepest_candidates(perm, rc[perm], q, seen)
    assert pos.tolist() == cand[order].tolist()
    assert np.array_equal(vals, rc[cand][order])


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


def _seeded_master(lp, seed_cols):
    """Seed LP on ``seed_cols`` of ``lp`` and a generator of the rest."""
    full = lp.dense_matrix()

    def column_at(positions):
        return full[:, positions], lp.c[positions]

    gen = _scored(lp.n_cols, column_at)
    gen.generated.update(seed_cols)
    seed_lp = LinearProgram(
        lp.sense, lp.c[seed_cols], full[:, seed_cols], lp.row_senses, lp.rhs
    )
    return seed_lp, gen


@pytest.mark.parametrize("seed", range(12))
def test_dcg_reaches_the_dense_optimum(seed, monkeypatch):
    lp = _random_master(seed)
    dense = solve_dense_simplex(lp)
    assert dense.status is LPStatus.OPTIMAL

    seed_lp, gen = _seeded_master(lp, [0, 1])
    monkeypatch.setattr(lp_engine, "DCG_BATCH", 4)
    sol = solve_dcg(seed_lp, gen)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.certified
    assert sol.objective == pytest.approx(dense.objective, abs=1e-9)
    # positions recorded for every appended column, None for seeds
    appended = [p for p in sol.column_positions if p is not None]
    assert len(appended) == sol.columns_generated
    assert set(appended) <= set(range(lp.n_cols))


def test_dcg_recovers_from_infeasible_seed(monkeypatch):
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

    def column_at(positions):
        return A[:, positions], c[positions]

    gen = _scored(4, column_at)
    gen.generated.add(1)  # covers only the normalization row
    seed_lp = LinearProgram("max", c[[1]], A[:, [1]], senses, rhs)
    monkeypatch.setattr(lp_engine, "DCG_BATCH", 1)
    sol = solve_dcg(seed_lp, gen)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(dense.objective, abs=1e-9)


def test_dcg_appends_exactly_the_picks_of_each_round(monkeypatch):
    # one pricing call per round, asked for DCG_BATCH picks outside the
    # generated positions; the master's new columns are the picks in the
    # order returned, here the reverse of steepest first
    seed_lp, gen = _seeded_master(_random_master(4), [0, 1])
    pricer = gen.reduced_costs
    calls = []

    def reversed_picks(duals, use_objective, q, seen):
        assert q == 3 and seen.tolist() == sorted(gen.generated)
        pos, vals = pricer(duals, use_objective, q, seen)
        calls.append(pos[::-1].tolist())
        return pos[::-1], vals[::-1]

    gen.reduced_costs = reversed_picks
    monkeypatch.setattr(lp_engine, "DCG_BATCH", 3)
    sol = solve_dcg(seed_lp, gen)
    assert sol.status is LPStatus.OPTIMAL and sol.certified
    assert len(calls) == sol.rounds > 2 and calls[-1] == []
    assert max(len(picks) for picks in calls) == 3
    assert sol.column_positions == [None, None] + [p for picks in calls for p in picks]


def test_dcg_builds_its_standard_form_once(monkeypatch):
    # one restricted master lives through the run: rounds append to its
    # standard form instead of building a new one
    built, rounds = [], []

    class Counted(lp_engine._Canonical):
        def __init__(self, lp):
            built.append(lp)
            super().__init__(lp)

    solve = lp_engine.solve_dense_simplex

    def counted_solve(lp, **kwargs):
        rounds.append(lp)
        return solve(lp, **kwargs)

    monkeypatch.setattr(lp_engine, "_Canonical", Counted)
    monkeypatch.setattr(lp_engine, "solve_dense_simplex", counted_solve)
    monkeypatch.setattr(lp_engine, "DCG_BATCH", 1)
    seed_lp, gen = _seeded_master(_random_master(5), [0, 1])
    sol = solve_dcg(seed_lp, gen)
    assert sol.status is LPStatus.OPTIMAL and sol.certified
    assert len(rounds) > 3
    assert len(built) == 1
    # every round solved the same master, which the seed LP is not
    assert all(lp is rounds[0] for lp in rounds) and rounds[0] is not seed_lp
    assert seed_lp.n_cols == 2


def test_dcg_logs_one_debug_line_per_round(caplog, monkeypatch):
    solves = []
    solve = lp_engine.solve_dense_simplex

    def counted_solve(lp, **kwargs):
        sol = solve(lp, **kwargs)
        # solve_dcg sums the pivots into the last solution it returns
        solves.append((sol.status, sol.objective, sol.iterations, sol.flips, sol.refactors))
        return sol

    monkeypatch.setattr(lp_engine, "solve_dense_simplex", counted_solve)
    monkeypatch.setattr(lp_engine, "DCG_BATCH", 2)
    seed_lp, gen = _seeded_master(_random_master(3), [0, 1])
    with caplog.at_level(logging.DEBUG, logger="riskdual.lp_engine"):
        sol = solve_dcg(seed_lp, gen)
    assert sol.certified
    lines = [r.getMessage() for r in caplog.records if r.name == "riskdual.lp_engine"]
    assert len(lines) == len(solves) > 2
    for n, (line, (status, objective, pivots, flips, refactors)) in enumerate(
        zip(lines, solves), start=1
    ):
        phase = 2 if status is LPStatus.OPTIMAL else 1
        assert line.startswith(
            f"dcg round {n}: phase {phase}, objective {objective}, pivots {pivots}, "
            f"flips {flips}, refactors {refactors}, picks "
        )
        assert re.search(r", min rc \S+, pricing \d+\.\d{6} s$", line)
    assert all(", picks 2, min rc -" in line for line in lines[:-1])
    assert ", picks 0, min rc None, " in lines[-1]


def _kept_inverse_error(lp):
    """max-row-sum norm of Binv @ B - I for the basis and inverse the
    LP's standard form keeps, or None when it keeps none."""
    canon = lp.standard_form()
    if canon.basis is None:
        assert canon.Binv is None
        return None
    gap = canon.Binv @ canon.A[:, canon.basis] - np.eye(canon.m)
    return float(np.linalg.norm(gap, np.inf))


def _frequency_grid_model(d, m, tau_scale):
    """Partition, test functions and risk of two-sided slab frequency
    bounds on an m-slab grid on [0, 1]^d, VaR risk at tau_scale * d."""
    grid = np.linspace(0.0, 1.0, m + 1)
    fns = []
    for a in range(d):
        for g in range(m):
            slab = (float(grid[g]), float(grid[g + 1]))
            fns.append(TestFunction(f"hi_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a, slab,
                                    Sense.UPPER, 1.35 / m))
            fns.append(TestFunction(f"lo_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a, slab,
                                    Sense.LOWER, 0.65 / m))
    tau = tau_scale * d
    partition = build_box_partition([grid] * d, tau)
    return partition, fns, RiskFunctional(RiskKind.VAR_INDICATOR, tau)


def test_dcg_factorizes_on_the_pivot_cadence_not_per_round(monkeypatch):
    # the basis inverse lives across rounds: the one cold start
    # factorizes, then only every REFACTOR_EVERY pivots and a checked
    # pivot (its direct solve, and a rebuild when the two disagree) do
    calls = []
    refactor = lp_engine._refactor

    def counted(A, basis, rhs=None):
        calls.append(rhs is None)
        return refactor(A, basis, rhs)

    monkeypatch.setattr(lp_engine, "_refactor", counted)
    model = _frequency_grid_model(5, 8, 0.7)
    seed_lp, gen = assemble_dual_lp(*model).master_seed()
    sol = solve_dcg(seed_lp, gen)
    assert sol.status is LPStatus.OPTIMAL and sol.certified
    checks = calls.count(False)
    assert len(calls) == sol.refactors
    assert sol.iterations > 2 * lp_engine.REFACTOR_EVERY
    assert sol.refactors < sol.rounds
    assert sol.refactors <= 1 + sol.iterations // lp_engine.REFACTOR_EVERY + checks
    # the bound result carries both counts
    calls.clear()
    result = solve_bound(*model)
    assert (result.rounds, result.refactors) == (sol.rounds, sol.refactors)
    assert len(calls) == result.refactors


def _highs_row_duals(lp):
    """HiGHS's row duals of an LP with '=' and '<=' rows, in the LP's
    own sense: the objective's rate of change in each right-hand side."""
    A = lp.dense_matrix()
    eq = np.array([s == "=" for s in lp.row_senses])
    sign = 1.0 if lp.sense == "min" else -1.0
    res = linprog(sign * lp.c, A_ub=A[~eq], b_ub=lp.rhs[~eq], A_eq=A[eq], b_eq=lp.rhs[eq],
                  method="highs")
    assert res.status == 0, res.message
    duals = np.empty(lp.n_rows)
    duals[eq] = res.eqlin.marginals
    duals[~eq] = res.ineqlin.marginals
    return sign * duals


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(10, 80), st.integers(1, 6),
       st.sampled_from([5, 20, 100]))
def test_dcg_carries_an_exact_inverse_across_rounds(seed, n_rows, n_cols, batch, cadence):
    lp = _random_master(seed, n_rows, n_cols)
    seed_lp, gen = _seeded_master(lp, [0, 1])
    solve = lp_engine.solve_dense_simplex
    errors, masters = [], []

    def checked(master):
        sol = solve(master)
        errors.append(_kept_inverse_error(master))
        masters.append(master)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_engine, "solve_dense_simplex", checked)
        mp.setattr(lp_engine, "DCG_BATCH", batch)
        mp.setattr(lp_engine, "REFACTOR_EVERY", cadence)
        sol = solve_dcg(seed_lp, gen)
    assert sol.status is LPStatus.OPTIMAL and sol.certified
    assert len(errors) == sol.rounds
    assert max(errors) <= 1e-9
    # the final master, solved cold and by HiGHS, has the same optimum
    master = masters[-1]
    cold = solve_dense_simplex(
        LinearProgram(master.sense, master.c, master.A, master.row_senses, master.rhs)
    )
    assert cold.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(cold.objective, rel=0.0, abs=1e-9)
    assert np.max(np.abs(sol.duals - cold.duals)) <= 1e-9
    ref_status, ref_value = scipy_reference(master)
    assert ref_status == "optimal"
    assert sol.objective == pytest.approx(ref_value, rel=0.0, abs=1e-9)
    assert np.max(np.abs(sol.duals - _highs_row_duals(master))) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 6))
def test_a_stopped_solve_keeps_its_inverse_in_step(seed, limit):
    # every exit, a phase-one or phase-two iteration limit, infeasible or
    # unbounded, keeps a basis with its own inverse, and the next solve
    # of the same LP resumes from it to the answer a cold solve gives
    lp = random_lp(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_engine, "ITER_LIMIT", limit)
        stopped = solve_dense_simplex(lp)
    assert stopped.iterations <= limit
    assert _kept_inverse_error(lp) <= 1e-9
    kept = lp.standard_form().basis.copy()
    resumed = solve_dense_simplex(lp)
    assert _kept_inverse_error(lp) <= 1e-9
    if stopped.status is not LPStatus.ITERATION_LIMIT:
        # a finished solve kept the basis it answered from
        assert (resumed.status, resumed.iterations) == (stopped.status, 0)
        assert np.array_equal(lp.standard_form().basis, kept)
    # the resumed solve ends as a cold solve and HiGHS do
    cold = solve_dense_simplex(random_lp(seed))
    ref_status, ref_value = scipy_reference(lp)
    assert resumed.status is cold.status and resumed.status.value == ref_status
    if cold.status is LPStatus.OPTIMAL:
        assert resumed.objective == pytest.approx(cold.objective, abs=1e-9, rel=1e-9)
        assert resumed.objective == pytest.approx(ref_value, abs=1e-7, rel=1e-7)


def test_a_failed_solve_drops_the_kept_inverse(monkeypatch):
    # a refactor that raises after a pivot has moved the basis leaves the
    # standard form with no basis, so the next solve starts cold
    lp = _random_master(7, n_rows=4, n_cols=6)
    first = solve_dense_simplex(lp)
    assert first.status is LPStatus.OPTIMAL
    refactor = lp_engine._refactor
    seen = []

    def failing(A, basis, rhs=None):
        seen.append(basis.copy())
        raise FactorizationError("singular simplex basis: test")

    lp.append_columns(np.full((4, 1), 0.01), [50.0])
    kept = lp.standard_form().basis.copy()
    monkeypatch.setattr(lp_engine, "_refactor", failing)
    monkeypatch.setattr(lp_engine, "REFACTOR_EVERY", 1)
    with pytest.raises(FactorizationError):
        solve_dense_simplex(lp)
    assert len(seen) == 1 and not np.array_equal(seen[0], kept)
    assert _kept_inverse_error(lp) is None
    monkeypatch.setattr(lp_engine, "_refactor", refactor)
    again = solve_dense_simplex(lp)
    assert again.status is LPStatus.OPTIMAL and again.refactors >= 1
    assert again.objective == pytest.approx(scipy_reference(lp)[1], abs=1e-9)


# -- ranged rows: one row, its slack bounded by the range --


def _ranged(sense, c, A, rhs, ranges, senses=None):
    """An LP of '<=' rows (or ``senses``) with the given ranges."""
    senses = ["<="] * len(rhs) if senses is None else senses
    return LinearProgram(sense, c, A, senses, rhs, row_range=ranges)


def _agrees_with_two_rows(lp, sol):
    """``sol`` against HiGHS on the LP with each ranged row written as
    its two inequalities: status, objective, both ends of every row, and
    the duals' certificate, each ranged row's free dual taken at the end
    its sign says binds."""
    status, value = scipy_reference(lp)
    assert sol.status.value == status
    if status != "optimal":
        return
    assert sol.objective == pytest.approx(value, rel=1e-9, abs=1e-9)
    assert sol.feas_residual <= 1e-9
    ax = lp.A @ sol.x
    ranged = np.isfinite(lp.row_range)
    assert np.all(ax[ranged] >= lp.rhs[ranged] - lp.row_range[ranged] - 1e-9)
    # a max problem's '<=' dual is >= 0 where the upper end binds; the
    # lower end is the same row with the opposite sign of dual
    y = sol.duals if lp.sense == "min" else -sol.duals
    lower = ranged & (y > 0.0)
    rhs = np.where(lower, lp.rhs - lp.row_range, lp.rhs)
    assert sol.duals @ rhs == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)


def test_ranged_row_optimum_at_the_lower_end():
    # -2 <= x1 - x2 <= 1 and x1 + x2 <= 4, max x2 - x1: the first row's
    # slack starts basic and leaves at its bound, complemented
    lp = _ranged("max", [-1.0, 1.0], [[1.0, -1.0], [1.0, 1.0]], [1.0, 4.0], [3.0, np.inf])
    sol = solve_dense_simplex(lp)
    assert sol.objective == pytest.approx(2.0)
    assert sol.flips == 0 and sol.iterations >= 1
    assert sol.duals[0] < 0.0
    assert lp.standard_form().complemented.tolist() == [True, False]
    _agrees_with_two_rows(lp, sol)


def test_ranged_row_cold_start_complements_a_slack_above_its_range():
    # 2 <= x <= 5: the slack cannot start basic at 5 > 3, so it starts
    # complemented and the row's artificial holds the lower end
    lp = _ranged("min", [1.0], [[1.0]], [5.0], [3.0])
    canon = lp.standard_form()
    basis = canon.cold_basis()
    assert canon.complemented.tolist() == [True]
    assert canon.b.tolist() == [2.0] and basis.tolist() == [canon.n_real]
    sol = solve_dense_simplex(lp)
    assert sol.objective == pytest.approx(2.0)
    _agrees_with_two_rows(lp, sol)
    # with x <= 1 besides, phase one ends infeasible
    lp = _ranged("min", [1.0], [[1.0], [1.0]], [5.0, 1.0], [3.0, np.inf])
    sol = solve_dense_simplex(lp)
    assert sol.status is LPStatus.INFEASIBLE
    _agrees_with_two_rows(lp, sol)


def test_ranged_row_slack_flips_to_its_other_bound():
    # 4 <= x <= 5, max x: phase one brings x to 4, then the complemented
    # slack enters, and no basic column stops it before its own bound
    lp = _ranged("max", [1.0], [[1.0]], [5.0], [1.0])
    sol = solve_dense_simplex(lp)
    assert sol.objective == pytest.approx(5.0)
    assert sol.flips == 1 and sol.iterations == 1
    assert lp.standard_form().complemented.tolist() == [False]
    _agrees_with_two_rows(lp, sol)


def test_warm_start_after_append_keeps_a_complemented_slack():
    # 2 <= x <= 5, min x ends with the slack complemented; min x - y
    # with y appended resumes there and flips the slack to x + y = 5
    lp = _ranged("min", [1.0], [[1.0]], [5.0], [3.0])
    first = solve_dense_simplex(lp)
    assert first.objective == pytest.approx(2.0)
    assert lp.standard_form().complemented.tolist() == [True]
    kept = lp.standard_form().basis.copy()
    lp.append_columns([[1.0]], [-1.0])
    assert lp.standard_form().basis.tolist() == kept.tolist()
    sol = solve_dense_simplex(lp)
    assert sol.refactors == 0, "the kept basis was reused"
    assert sol.objective == pytest.approx(-5.0)
    assert sol.flips == 1
    assert _kept_inverse_error(lp) <= 1e-12
    _agrees_with_two_rows(lp, sol)
    cold = solve_dense_simplex(_ranged("min", [1.0, -1.0], [[1.0, 1.0]], [5.0], [3.0]))
    assert cold.objective == pytest.approx(sol.objective)


def test_a_kept_basis_outside_a_bound_is_not_reused():
    # no solve ends with a basic slack past its bound, so the form is
    # edited to hold one: 0 <= x <= 5 leaves slack 0 basic at 5, and a
    # range cut to 1 puts that past it; the next solve starts cold
    lp = _ranged("max", [-1.0], [[1.0], [1.0]], [5.0, 9.0], [5.0, np.inf])
    assert solve_dense_simplex(lp).objective == pytest.approx(0.0)
    canon = lp.standard_form()
    assert canon.n_struct in canon.basis
    canon.upper[canon.n_struct] = 1.0
    sol = solve_dense_simplex(lp)
    assert sol.refactors >= 1 and sol.objective == pytest.approx(-4.0)


def test_a_tiny_negative_pivot_is_checked(monkeypatch):
    # 0 <= -1e-8 x <= 1 pins x at 0; its slack is basic at its bound, so
    # x enters on the row's tiny negative entry, which is checked by a
    # direct solve before the slack leaves complemented
    checks = []
    refactor = lp_engine._refactor

    def counted(A, basis, rhs=None):
        checks.append(rhs is not None)
        return refactor(A, basis, rhs)

    monkeypatch.setattr(lp_engine, "_refactor", counted)
    lp = _ranged("max", [1.0], [[-1e-8], [1.0]], [1.0, 2.0], [1.0, np.inf])
    sol = solve_dense_simplex(lp)
    assert checks.count(True) == 1
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert lp.standard_form().complemented.tolist() == [True, False]
    _agrees_with_two_rows(lp, sol)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_ranged_rows_match_the_two_row_reference(seed, data):
    # random LPs with a range, often tight and sometimes zero, on most
    # rows, which become '<=' rows
    base = random_lp(seed)
    ranges = data.draw(st.lists(st.one_of(st.just(np.inf), st.sampled_from([0.0, 0.25, 1.0, 3.0])),
                                min_size=base.n_rows, max_size=base.n_rows))
    ranges = np.array(ranges)
    senses = [s if r == np.inf else "<=" for s, r in zip(base.row_senses, ranges)]
    lp = LinearProgram(base.sense, base.c, base.A, senses, base.rhs, var_free=base.var_free,
                       row_range=ranges)
    sol = solve_dense_simplex(lp)
    _agrees_with_two_rows(lp, sol)
    # a resolve from the kept basis changes nothing
    again = solve_dense_simplex(lp)
    assert again.status is sol.status and again.iterations == again.flips == 0


# -- one ratio test for every form: +inf where a column has no bound --


def _loop_ratios(d, xB, ubB):
    """The steps one entry at a time: a basic value falls to zero where
    d > PIVOT_TOL and rises to its bound where d < -PIVOT_TOL."""
    ratios = []
    for di, xi, ui in zip(d.tolist(), xB.tolist(), ubB.tolist()):
        if di > lp_engine.PIVOT_TOL:
            ratios.append(xi / di)
        elif di < -lp_engine.PIVOT_TOL:
            ratios.append((xi - ui) / di)
        else:
            ratios.append(math.inf)
    return ratios


def _near(ratios):
    """The positions whose step is within DEGEN_TOL of the smallest."""
    theta = max(min(ratios, default=math.inf), 0.0)
    return [i for i, ratio in enumerate(ratios) if ratio <= theta + lp_engine.DEGEN_TOL]


def _loop_leaving_row(d, xB, basis, ubB):
    """The ratio test in plain Python: the smallest step leaves, within
    DEGEN_TOL the smallest basic position."""
    ratios = _loop_ratios(d, xB, ubB)
    if min(ratios, default=math.inf) == math.inf:
        return None, math.inf
    r = min(_near(ratios), key=lambda i: basis[i])
    return r, max(ratios[r], 0.0)


def _ratio_test_case(rng):
    """Entries mixing exact zeros, |d| <= PIVOT_TOL and both signs, basic
    values with zeros, bounds mixing +inf and finite values at or above
    the basic value, and at times steps tied within DEGEN_TOL or no
    candidate at all."""
    m = int(rng.integers(1, 9))
    tol = lp_engine.PIVOT_TOL
    d = rng.choice([-2.0, -0.5, 0.25, 1.0, 3.0], m) * rng.uniform(0.5, 1.5, m)
    tiny = rng.random(m) < 0.25
    d[tiny] = rng.choice([0.0, -0.0, tol, -tol, 0.5 * tol, -0.5 * tol], int(tiny.sum()))
    xB = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 4.0, m))
    ubB = np.where(rng.random(m) < 0.5, np.inf, xB + rng.choice([0.0, 0.5, 2.0], m))
    if rng.random() < 0.3:
        # steps equal to one value up to a few DEGEN_TOL
        step = float(rng.choice([0.0, 1.0]))
        jitter = rng.uniform(-2.0, 2.0, m) * lp_engine.DEGEN_TOL
        up = d < 0.0
        xB = np.where(up, 0.0, np.maximum(step * d + jitter, 0.0))
        ubB = np.where(up, -(step * d + jitter), ubB)
    if rng.random() < 0.1:
        # nothing can pivot: tiny entries, or falling ones with no bound
        d = np.where(rng.random(m) < 0.5, rng.uniform(-tol, tol, m), -np.abs(d))
        ubB = np.full(m, np.inf)
    basis = rng.permutation(3 * m)[:m]
    return d, xB, basis, ubB


def test_the_ratio_test_matches_a_loop_bit_for_bit():
    rng = np.random.default_rng(2024)
    none = ties = 0
    for _ in range(3000):
        d, xB, basis, ubB = _ratio_test_case(rng)
        want = _loop_leaving_row(d, xB, basis, ubB)
        got = lp_engine._leaving_row(d, xB, basis, ubB.copy())
        assert repr(got) == repr(want), (d, xB, basis, ubB)
        none += want[0] is None
        ties += want[0] is not None and len(_near(_loop_ratios(d, xB, ubB))) > 1
    # the draws reach both the empty test and tied steps
    assert none > 100 and ties > 100


# the row-dual modes and the oracle build LPs with no ranges, so every
# bound is +inf: pivots and objectives as with a one-sided ratio test
ROUTE_PINS = {
    (0, False): [(94, "0.23876332635581127"), (29, "0.23876332635581127"),
                 (44, "0.23876332635581127"), (24, "0.23876332635581135")],
    (3, False): [(24, "0.3557183198671798"), (8, "0.3557183198671798"),
                 (10, "0.3557183198671798"), (12, "0.35571831986717967")],
    (5, False): [(90, "0.24554275804378345"), (31, "0.24554275804378345"),
                 (46, "0.24554275804378345"), (23, "0.24554275804378342")],
    (0, True): [(93, "0.21755235456724936"), (65, "0.2175523545672494"),
                (74, "0.21755235456724933"), (23, "0.2175523545672494")],
    (1, True): [(94, "0.3624032738994013"), (65, "0.36240327389940136"),
                (58, "0.3624032738994014"), (28, "0.3624032738994014")],
    (3, True): [(101, "0.98"), (72, "0.9799999999999999"), (67, "0.9799999999999999"),
                (17, "0.98")],
}


@pytest.mark.parametrize("seed,affine", sorted(ROUTE_PINS))
def test_row_routes_and_oracle_keep_their_pivots(seed, affine):
    inst = random_instance(seed, d=2, m=4, affine=True) if affine else random_instance(seed)
    dual = inst.dual()
    sols = [solve_rows(dual, mode) for mode in
            (ReductionMode.EXPLICIT, ReductionMode.LAMBDA_ELIMINATED, ReductionMode.VERTEX)]
    sols.append(solve_primal_discretization(dual).solution)
    assert all(sol.status is LPStatus.OPTIMAL and sol.flips == 0 for sol in sols)
    assert [(sol.iterations, repr(sol.objective)) for sol in sols] == ROUTE_PINS[seed, affine]
