"""Per-cell reductions, the assembled dual, and the transposed master.

The three reduction routes (explicit multipliers, precomputed
multipliers, vertex rows) describe the same feasible set on their
common domain, so every route must land on the same optimum.  That
equivalence, checked on randomized instances, is the main guard
against sign mistakes in any one route.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdual import (
    CapacityError,
    Cell,
    InputError,
    LPSolution,
    LPStatus,
    LinearProgram,
    PartitionIncompatibleError,
    ReductionMode,
    RiskFunctional,
    RiskKind,
    Sense,
    SolverError,
    TestFunction,
    TestFunctionKind,
    assemble_dual_lp,
    build_box_partition,
    empirical_integral,
    evaluate,
    maximize_linear_over_cell,
    restrict_to_cell,
    solve_bound,
    solve_dcg,
    solve_dense_simplex,
)
from riskdual import dual_builder, lp_engine
from riskdual.dual_builder import CONST_TOL, _point_rows, _signed_restrictions
from riskdual.geometry import VERTEX_TOL, slot_rays, slot_vertices

from conftest import (
    count_decodes,
    jittered_breakpoints,
    lp_limit,
    master_rows,
    price,
    random_instance,
    reference_cell_vertices,
    reference_collapsed,
    reference_generator,
    reference_reduced_costs,
    scipy_reference,
    solve_rows,
    two_point_model,
)

ALL_MODES = (
    ReductionMode.EXPLICIT,
    ReductionMode.LAMBDA_ELIMINATED,
    ReductionMode.VERTEX,
)


def _solve(dual, mode=ReductionMode.LAMBDA_ELIMINATED):
    sol = solve_rows(dual, mode)
    assert sol.status is LPStatus.OPTIMAL
    return sol.objective


# -- the two-atom example --
#
# On {0, 1} with E[1 + x] pinned to b, the only measure puts mass
# 2 - b at 0 and b - 1 at 1, so the tail probability at 1 is b - 1.


@pytest.mark.parametrize("mode", ALL_MODES)
def test_two_point_example(mode):
    inst = two_point_model(14.0 / 9.0)
    assert _solve(inst.dual(), mode) == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_two_point_example_column_generation():
    inst = two_point_model(14.0 / 9.0)
    dual = inst.dual()
    assert dual.corner_cell is not None  # threshold sits on the top corner
    seed, gen = dual.master_seed()
    sol = solve_dcg(seed, gen)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.certified
    assert sol.objective == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_two_point_variant_moment():
    # E[1 + x] = 7/4 forces mass 3/4 at 1
    inst = two_point_model(7.0 / 4.0)
    assert _solve(inst.dual()) == pytest.approx(3.0 / 4.0, abs=1e-12)


def test_two_point_infeasible_moment():
    # E[1 + x] of a probability measure on [0, 1] lives in [1, 2]
    inst = two_point_model(2.5)
    lp = inst.dual().materialize()
    sol = solve_dense_simplex(lp)
    # rows force the dual objective down without bound
    assert sol.status is LPStatus.UNBOUNDED


# -- per-cell reductions --


def test_precompute_lambda_on_a_box():
    cell = Cell([1.0, 1.0], [2.0, 2.0])
    val, _x, lam = maximize_linear_over_cell(cell, np.array([1.0, 1.0]))
    C = -val
    # support of <g, x> on the box is 4, reached at the top corner
    assert C == pytest.approx(-4.0, abs=1e-12)
    F, ell = cell.halfspaces
    assert np.all(lam >= 0)
    assert np.allclose(F.T @ lam, [-1.0, -1.0], atol=1e-12)
    assert lam @ ell == pytest.approx(C, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_precompute_lambda_matches_direct_lp(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    lows = rng.uniform(-3, 3, d)
    highs = lows + rng.uniform(0.2, 3.0, d)
    slice_sign = int(rng.choice([0, 1, -1]))
    tau = None
    if slice_sign:
        tau = float(lows.sum() + rng.uniform(0.1, 0.9) * (highs - lows).sum())
    cell = Cell(lows, highs, slice_sign=slice_sign, tau=tau)
    g = rng.normal(0, 1, d)
    val, _x, lam = maximize_linear_over_cell(cell, g)
    C = -val

    # the same multiplier program, handed to the simplex directly
    F, ell = cell.halfspaces
    lp = LinearProgram("max", ell, F.T, ["="] * d, -g, name="lambda_direct")
    sol = solve_dense_simplex(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert C == pytest.approx(sol.objective, abs=1e-9)
    assert lam.shape == ell.shape


def test_precompute_lambda_unbounded_gradient():
    ray = Cell([0.0], [np.inf])
    assert maximize_linear_over_cell(ray, np.array([1.0])) == (np.inf, None, None)
    # the matching multiplier program has no feasible lam either
    F, ell = ray.halfspaces
    lp = LinearProgram("max", ell, F.T, ["="], [-1.0])
    assert solve_dense_simplex(lp).status is LPStatus.INFEASIBLE


def _simple_setup():
    part = build_box_partition([np.array([0.0, 0.5, 1.0])], 0.75)
    fns = [
        TestFunction(
            "mass_low", TestFunctionKind.SLAB_INDICATOR, 0, (0.0, 0.5),
            Sense.UPPER, 0.6,
        ),
        TestFunction(
            "mean", TestFunctionKind.SLAB_AFFINE, 0, (0.0, 1.0),
            Sense.EQUALITY, 0.45, v=np.array([1.0]), c=0.0,
        ),
    ]
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 0.75)
    return part, fns, risk


def test_explicit_block_shape():
    part, fns, risk = _simple_setup()
    dual = assemble_dual_lp(part, fns, risk)
    cell = part.cell_at(0)
    base, lam, senses, rhs = dual.cell_rows(cell, ReductionMode.EXPLICIT)
    # one equality per coordinate plus the constant row
    assert senses == ["="] * cell.dimension + [">="]
    assert base.shape == (cell.dimension + 1, len(dual.records) + 1)
    assert lam.shape == (cell.dimension + 1, len(cell.halfspaces[1]))
    assert base[-1, -1] == 1.0
    assert sorted(lam[-1]) == sorted(cell.halfspaces[1])
    g, e = restrict_to_cell(risk, cell)
    assert rhs[-1] == e
    assert rhs[0] == g[0]


def test_vertex_block_matches_vertices():
    part, fns, risk = _simple_setup()
    dual = assemble_dual_lp(part, fns, risk)
    cell = part.cell_at(0)
    base, lam, senses, rhs = dual.cell_rows(cell, ReductionMode.VERTEX)
    verts = reference_cell_vertices(cell)
    assert lam is None
    assert senses == [">="] * len(verts)
    assert np.all(base[:, -1] == 1.0)
    g, e = restrict_to_cell(risk, cell)
    assert rhs.tolist() == [g @ q + e for q in verts]


def test_collapsed_row_support_equals_cell_maximum():
    inst = random_instance(5, d=2, m=2)
    dual = inst.dual()
    checked = 0
    for cell in dual.iter_cells():
        if cell.degenerate or not dual.collapses(cell):
            continue
        base, lam, senses, rhs = dual.cell_rows(cell, ReductionMode.LAMBDA_ELIMINATED)
        g, e = restrict_to_cell(inst.risk, cell)
        val, _, _ = maximize_linear_over_cell(cell, g)
        assert lam is None and senses == [">="] and base.shape == (1, len(dual.records) + 1)
        assert rhs[0] == pytest.approx(val + e, abs=1e-9)
        checked += 1
    assert checked


def test_row_dual_layout_and_deduplication():
    # three cells: [0.5, 1] above tau, then [0, 0.5] and [0.5, 1] below it
    part = build_box_partition([np.array([0.0, 0.5, 1.0])], 0.75)
    fns = [TestFunction("mass", TestFunctionKind.SLAB_INDICATOR, 0, (0.0, 1.0), Sense.UPPER, 1.0)]
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 0.75)
    cells = list(assemble_dual_lp(part, fns, risk).iter_cells())
    assert [len(cell.halfspaces[1]) for cell in cells] == [3, 2, 3]

    lp = assemble_dual_lp(part, fns, risk).materialize(ReductionMode.EXPLICIT)
    A = lp.dense_matrix()
    # columns y, z0, then each cell's multipliers, block by block in scan order
    assert A.shape == (6, 10)
    assert list(lp.row_senses) == ["=", ">="] * 3
    assert lp.c.tolist() == [1.0, 1.0] + [0.0] * 8
    assert lp.var_free.tolist() == [False, True] + [False] * 8
    # each block's rows touch its own multipliers only; the constant
    # rows carry y = z0 = 1 and the cell's halfspace bounds
    assert A.tolist() == [
        [0.0, 0.0, -1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.5, -1.0, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, -1.0, -0.75],
    ]
    assert lp.rhs.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    # one row per cell, but the two cells below tau give the same row
    for mode in (ReductionMode.LAMBDA_ELIMINATED, ReductionMode.VERTEX):
        lp = assemble_dual_lp(part, fns, risk).materialize(mode)
        assert lp.dense_matrix().tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert list(lp.row_senses) == [">=", ">="]
        assert lp.rhs.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("seed", range(10))
def test_reduction_modes_agree(seed):
    inst = random_instance(seed, affine=True, equality=True)
    values = [_solve(inst.dual(), mode) for mode in ALL_MODES]
    assert values[0] == pytest.approx(values[1], abs=1e-8)
    assert values[0] == pytest.approx(values[2], abs=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_relaxing_bounds_never_shrinks_the_value(seed):
    # a looser integral bound admits every measure the tight one did,
    # so the worst case can only move up
    inst = random_instance(seed)
    base = _solve(inst.dual())
    relaxed = []
    for fn in inst.testfns:
        bound = fn.bound
        if fn.sense is Sense.UPPER:
            bound += 0.1
        elif fn.sense is Sense.LOWER:
            bound = max(0.0, bound - 0.1)
        relaxed.append(
            TestFunction(fn.id, fn.kind, fn.axis, fn.slab, fn.sense, bound,
                         v=fn.v, c=fn.c)
        )
    looser = _solve(assemble_dual_lp(inst.partition, relaxed, inst.risk))
    assert looser >= base - 1e-9


@pytest.mark.parametrize("seed", range(10, 18))
def test_master_agrees_with_dual_rows(seed):
    inst = random_instance(seed, affine=(seed % 2 == 0))
    dual = inst.dual()
    row_value = _solve(dual)
    with lp_limit("DENSE_BUDGET", 20_000):
        master = solve_dense_simplex(dual.master_lp())
    assert master.status is LPStatus.OPTIMAL
    assert master.objective == pytest.approx(row_value, abs=1e-8)


@pytest.mark.parametrize("seed", range(18, 26))
def test_column_generation_agrees_with_single_shot(seed):
    inst = random_instance(seed)
    dual = inst.dual()
    with lp_limit("DENSE_BUDGET", 20_000):
        single = solve_dense_simplex(dual.master_lp())
    seed_lp, gen = dual.master_seed()
    dcg = solve_dcg(seed_lp, gen)
    assert dcg.status is LPStatus.OPTIMAL
    assert dcg.certified
    assert dcg.objective == pytest.approx(single.objective, abs=1e-9)


def test_generated_columns_match_the_materialized_master():
    inst = random_instance(42, d=2, m=4)
    dual = inst.dual()
    with lp_limit("DENSE_BUDGET", 20_000):
        lp = dual.master_lp()
    gen = dual.master_generator()
    dense = lp.dense_matrix()
    positions = dual.master_positions()
    assert positions.size == gen.count == lp.n_cols
    for j, pos in enumerate(positions):
        cols, objs = gen.column_at(np.array([pos]))
        assert np.allclose(cols[:, 0], dense[:, j], atol=1e-12)
        assert objs[0] == pytest.approx(float(lp.c[j]), abs=1e-12)


def test_vectorized_pricing_matches_per_column_scores():
    inst = random_instance(43, d=2, m=4)
    dual = inst.dual()
    gen = dual.master_generator()
    rng = np.random.default_rng(0)
    n_rows = len(inst.dual().master_row_data()[1])
    duals = rng.normal(0, 1, n_rows)
    for use_obj in (True, False):
        fast = reference_reduced_costs(dual, duals, use_obj)
        # the pricer's candidates carry the sweep's values
        pos, vals = gen.reduced_costs(duals, use_obj, gen.count, np.zeros(0, dtype=np.intp))
        assert pos.size and np.array_equal(vals, fast[pos])
        assert sorted(pos.tolist()) == np.flatnonzero(fast < -lp_engine.RC_TOL).tolist()
        positions = dual.master_positions()
        slow = np.empty(positions.size)
        for j, pos in enumerate(positions):
            cols, objs = gen.column_at(np.array([pos]))
            score = float(duals @ cols[:, 0])
            slow[j] = score - objs[0] if use_obj else -score
        assert np.allclose(fast[positions], slow, atol=1e-10)
        # a key that holds no collapsed cell is no column
        assert np.all(np.delete(fast, positions) == np.inf)


def _unbounded_tails_dual(d=2, m=4):
    """Family (c): two-sided frequency bounds on every slab of [0, 1]
    and a probability and first-moment bound on the tail slab [1, inf)
    of each of d axes, VaR at 0.85 * d."""
    grid = np.linspace(0.0, 1.0, m + 1)
    fns = _frequency_records([grid] * d, range(d))
    fns += [f for a in range(d) for f in _tail_records(a, d, 0.2, 0.3)]
    risk = RiskFunctional(VAR, 0.85 * d)
    return assemble_dual_lp(build_box_partition([np.append(grid, np.inf)] * d, risk.tau), fns,
                            risk)


def _first_point_entry_per_slab(dual):
    """For each table axis and slab, the first point entry past the
    corner whose cell lies in that slab, found entry by entry."""
    entries = dual.scan_entries()
    first = {}
    for i in range(0 if dual.corner_cell is None else 1, entries.count):
        for a in dual._tables:
            first.setdefault((a, int(entries.slabs[i, a])), i)
    return set(first.values())


def test_master_seed_is_the_first_batch_plus_one_point_entry_per_slab():
    # family (a) at d=4, m=6, VaR at 0.7 * 4: every cell collapses, so
    # the seed is the first 8 keys
    dual = _frequency_grid_dual(d=4, m=6)
    assert dual.scan_entries().count == 0
    _seed, gen = dual.master_seed()
    assert gen.generated == set(dual.master_positions()[:8].tolist())
    # family (c): the first 8 point entries, then one per slab
    dual = _unbounded_tails_dual()
    _seed, gen = dual.master_seed()
    batch = set(dual.master_positions()[:8].tolist())
    assert batch == set(range(8))
    assert gen.generated == batch | _first_point_entry_per_slab(dual)


def test_master_seed_covers_every_record_row():
    # a seeded point entry covers the rows of the records that hold its
    # slabs; on family (c) every slab of every axis holds a point entry
    # (the cells in another axis's tail slab), so every record row starts
    # covered and phase one need not reach a row from scratch
    dual = _unbounded_tails_dual()
    seed_lp, _gen = dual.master_seed()
    touched = np.any(seed_lp.dense_matrix() != 0.0, axis=1)
    assert np.all(touched[: len(dual.records)])
    # with no point entries, the rows covered are the first batch's
    dual = _frequency_grid_dual(d=4, m=6)
    seed_lp, _gen = dual.master_seed()
    touched = np.any(seed_lp.dense_matrix() != 0.0, axis=1)
    batch = dual.master_generator().column_at(dual.master_positions()[:8])[0]
    assert np.array_equal(touched, np.any(batch != 0.0, axis=1))
    assert not np.all(touched[: len(dual.records)])


def test_corner_cell_covers_threshold_at_the_top():
    # sum can reach tau only at the single top corner
    part = build_box_partition([np.array([0.0, 1.0])] * 2, 2.0)
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 2.0)
    dual = assemble_dual_lp(part, [], risk)
    assert dual.corner_cell is not None
    assert not part.has_above_cells()
    assert _solve(dual) == pytest.approx(1.0)  # point mass at the corner


def test_corner_is_the_top_vertex_of_the_last_cell():
    # the top cell [0.5, 1]^2 is whole and last; the corner (1, 1) is its
    # top vertex and the only point where the sum reaches tau
    part = build_box_partition([np.array([0.0, 0.5, 1.0])] * 2, 2.0)
    dual = assemble_dual_lp(part, _halves(0.5), RiskFunctional(RiskKind.VAR_INDICATOR, 2.0))
    entries = dual.scan_entries()
    corner = dual.corner_cell
    assert corner is not None
    assert entries.cell.tolist() == [part.cell_count - 1]
    assert tuple(part.cell_at(part.cell_count - 1).highs) == (1.0, 1.0)
    assert not entries.ray[0]
    assert np.array_equal(entries.points[0], corner.lows)
    assert entries.objective[0] == 1.0
    # every cell collapses below tau, the top cell too: the keys of the
    # two slabs of axis 0 carry no charge, as the sum stays below tau
    _M, objs = dual._columns(dual.master_positions()[1:])
    assert objs.tolist() == [0.0, 0.0]


def test_slab_past_the_top_end_is_rejected():
    # both ends of [1, 1 + 5e-10] snap to the top breakpoint: the slab
    # holds no cell, only points of the face x_0 = 1 such as the corner
    part = build_box_partition([np.array([0.0, 0.5, 1.0])] * 2, 2.0)
    fn = TestFunction("top", TestFunctionKind.SLAB_INDICATOR, 0, (1.0, 1.0 + 5e-10),
                      Sense.UPPER, 0.1)
    with pytest.raises(PartitionIncompatibleError, match="holds no slab"):
        assemble_dual_lp(part, [fn], RiskFunctional(RiskKind.VAR_INDICATOR, 2.0))


def test_no_corner_when_threshold_is_unreachable():
    part = build_box_partition([np.array([0.0, 1.0])] * 2, 2.5)
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 2.5)
    dual = assemble_dual_lp(part, [], risk)
    assert dual.corner_cell is None
    assert _solve(dual) == pytest.approx(0.0)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_corner_reaches_tau_only_as_evaluate_has_it(mode):
    # no point of [0, 1] reaches tau = 1 + 5e-10 under evaluate's
    # 1e-12 rule, so no mass is charged; tau = 1 is reached at x = 1
    for tau, corner, bound in ((1.0 + 5e-10, False, 0.0), (1.0, True, 1.0)):
        risk = RiskFunctional(RiskKind.VAR_INDICATOR, tau)
        assert evaluate(risk, np.array([1.0])) == bound
        res = solve_bound(build_box_partition([np.array([0.0, 1.0])], tau), [], risk, mode)
        assert (res.dual.corner_cell is not None) == corner
        assert (res.status, res.bound, res.certified) == ("optimal", bound, True)


def _collapsed(dual):
    """Whether each slot collapses, in slot order."""
    return [dual.collapses(dual.partition.cell_at(i)) for i in range(dual.partition.cell_count)]


def test_shortfall_with_unbounded_domain_is_flagged():
    # cells: [0, 0.5] and [0.5, 1] (the halves of [0, 1]), then [1, inf)
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 0.5)
    risk = RiskFunctional(RiskKind.CVAR_HINGE, 0.5)
    dual = assemble_dual_lp(part, [], risk)
    # the hinge has no maximum on the tail cell, so it does not collapse:
    # its vertex 1 and its ray e_0 are master columns; the ray's objective
    # is the hinge's slope along it
    assert _collapsed(dual) == [True, True, False]
    entries = dual.scan_entries()
    assert entries.cell.tolist() == [2, 2]
    assert entries.ray.tolist() == [False, True]
    assert entries.points.tolist() == [[1.0], [1.0]]
    assert entries.objective.tolist() == [0.5, 1.0]
    # no axis carries a record, so there is one box: cell 1 is the key
    # above tau, cell 0 the key below, at positions 2 and 3
    assert dual.master_positions().tolist() == [0, 1, 2, 3]
    assert dual._columns(np.array([2, 3]))[1].tolist() == [0.5, 0.0]
    res = solve_bound(part, [], risk)
    assert (res.status, res.engine) == ("unbounded", "dcg")
    # under VaR every cell collapses
    var_dual = assemble_dual_lp(part, [], RiskFunctional(RiskKind.VAR_INDICATOR, 0.5))
    assert all(_collapsed(var_dual))
    # a moment record on the tail keeps its cell out of the collapse too
    tail = TestFunction("tail_m", TestFunctionKind.SLAB_AFFINE, 0, (1.0, np.inf),
                        Sense.UPPER, 0.5, v=np.array([1.0]), c=0.0)
    dual = assemble_dual_lp(part, [tail], RiskFunctional(RiskKind.VAR_INDICATOR, 0.5))
    assert _collapsed(dual) == [True, True, False]


@pytest.mark.xfail(
    strict=True,
    reason="P(X >= 1) <= 0 leaves no Slater point: the dual must dominate"
    " the hinge on [1, inf) and is +inf, while the primal supremum is 0.5,"
    " approached by a point mass just below 1; 'unbounded' is the dual's value",
)
def test_pinned_unbounded_tail_has_a_duality_gap():
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 0.5)
    tail = TestFunction("tail", TestFunctionKind.SLAB_INDICATOR, 0, (1.0, np.inf),
                        Sense.UPPER, 0.0)
    res = solve_bound(part, [tail], RiskFunctional(RiskKind.CVAR_HINGE, 0.5))
    assert res.status == "optimal"
    assert res.bound == pytest.approx(0.5, abs=1e-12)


def _stubbed_solve(status, n, *, certified=True, dcg=True):
    """A solve that returns ``status`` with the counters a real solve of
    that engine carries: rounds and generated columns from column
    generation, one round and none from the dense solver."""
    optimal = status is LPStatus.OPTIMAL
    values = np.arange(n + 1.0) if optimal else None
    sol = LPSolution(status, 0.25 if optimal else None, values, values, 7,
                     columns_generated=5 if dcg else 0, certified=certified,
                     feas_residual=1e-13 if optimal else None, refactors=2,
                     rounds=3 if dcg else 1)
    return lambda *_args: sol


def _ray_model(kind):
    # an open top slab with a tail record: cells past tau carry rays
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 0.5)
    tail = TestFunction("tail", TestFunctionKind.SLAB_INDICATOR, 0, (1.0, np.inf),
                        Sense.UPPER, 0.1)
    return part, [tail], RiskFunctional(kind, 0.5)


def _bounded_model(kind):
    part = build_box_partition([np.array([0.0, 0.5, 1.0])], 0.75)
    mass = TestFunction("mass", TestFunctionKind.SLAB_INDICATOR, 0, (0.0, 0.5), Sense.UPPER, 0.6)
    return part, [mass], RiskFunctional(kind, 0.75)


DCG, ROWS = ReductionMode.LAMBDA_ELIMINATED, ReductionMode.EXPLICIT


@pytest.mark.parametrize("mode,model,status,certified,probe,want", [
    # column generation: (status, certified, feas_residual, rounds, columns_generated)
    (DCG, _bounded_model(RiskKind.VAR_INDICATOR), LPStatus.OPTIMAL, True, None, ("optimal", True, 1e-13, 3, 5)),
    (DCG, _bounded_model(RiskKind.VAR_INDICATOR), LPStatus.INFEASIBLE, True, None,
     ("infeasible", False, None, 3, 5)),
    (DCG, _ray_model(RiskKind.CVAR_HINGE), LPStatus.UNBOUNDED, False, None, ("unbounded", False, None, 3, 5)),
    (DCG, _bounded_model(RiskKind.CVAR_HINGE), LPStatus.UNBOUNDED, False, None,
     "master solve ended with unbounded"),
    (DCG, _bounded_model(RiskKind.VAR_INDICATOR), LPStatus.OPTIMAL, False, None,
     "column generation stopped before a clean pricing sweep"),
    (DCG, _bounded_model(RiskKind.VAR_INDICATOR), LPStatus.ITERATION_LIMIT, False, None,
     "master solve ended with iteration_limit"),
    # the row dual
    (ROWS, _bounded_model(RiskKind.VAR_INDICATOR), LPStatus.OPTIMAL, False, None,
     ("optimal", True, 1e-13, 1, None)),
    (ROWS, _bounded_model(RiskKind.VAR_INDICATOR), LPStatus.ITERATION_LIMIT, False, None,
     "dual solve ended with iteration_limit"),
    (ROWS, _bounded_model(RiskKind.VAR_INDICATOR), LPStatus.UNBOUNDED, False, None,
     ("infeasible", False, None, 1, None)),
    (ROWS, _bounded_model(RiskKind.VAR_INDICATOR), LPStatus.INFEASIBLE, False, None,
     "dual solve ended with infeasible"),
    (ROWS, _ray_model(RiskKind.CVAR_HINGE), LPStatus.INFEASIBLE, False, LPStatus.OPTIMAL,
     ("unbounded", False, None, 1, None)),
    (ROWS, _ray_model(RiskKind.CVAR_HINGE), LPStatus.INFEASIBLE, False, LPStatus.UNBOUNDED,
     ("infeasible", False, None, 1, None)),
])
def test_solve_bound_maps_each_solver_status(monkeypatch, mode, model, status, certified,
                                             probe, want):
    n = len(model[1])
    dcg = mode is DCG
    # the hinge row dual's feasibility probe is the VaR row dual of the
    # same mode: the second dense solve, which reports ``probe``
    solves = iter([_stubbed_solve(status, n, certified=certified, dcg=False),
                   _stubbed_solve(probe, n, dcg=False)])
    monkeypatch.setattr(dual_builder, "solve_dense_simplex", lambda lp: next(solves)(lp))
    monkeypatch.setattr(dual_builder, "solve_dcg", _stubbed_solve(status, n, certified=certified))
    if isinstance(want, str):
        with pytest.raises(SolverError, match=want):
            solve_bound(*model, mode)
        return
    res = solve_bound(*model, mode)
    assert (res.status, res.certified, res.feas_residual, res.rounds,
            res.columns_generated) == want
    assert (res.engine, res.iterations, res.refactors) == ("dcg" if dcg else "dense_rows", 7, 2)
    if res.status == "optimal":
        assert res.bound == 0.25
        assert [list(res.multipliers[0]), list(res.multipliers[1]), res.multipliers[2]] == [
            [0.0], [], 1.0]
    else:
        assert res.bound is None and res.multipliers is None


def _no_dcg(*_args):
    raise AssertionError("a row mode ran column generation")


@pytest.mark.parametrize("fns,want", [
    # no record holds the tail: the hinge rises along its ray at no cost
    ([], "unbounded"),
    # P(X >= 1) >= 0.5 and <= 0.2: no measure fits
    ([TestFunction("tail_lo", TestFunctionKind.SLAB_INDICATOR, 0, (1.0, np.inf), Sense.LOWER, 0.5),
      TestFunction("tail_hi", TestFunctionKind.SLAB_INDICATOR, 0, (1.0, np.inf), Sense.UPPER, 0.2)],
     "infeasible"),
])
def test_row_mode_decides_feasibility_on_its_own_rows(monkeypatch, fns, want):
    monkeypatch.setattr(dual_builder, "solve_dcg", _no_dcg)
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 0.5)
    res = solve_bound(part, fns, RiskFunctional(RiskKind.CVAR_HINGE, 0.5), ReductionMode.EXPLICIT)
    assert (res.status, res.engine) == (want, "dense_rows")


@pytest.mark.xfail(
    strict=True,
    reason="the dense simplex's tolerances are absolute: with coefficients of size 1e13 the row"
    " dual reads UNBOUNDED, so both row modes report 'infeasible' where column generation gives"
    " 1.0 (the FOUND line in CHANGES.md on row modes and large numbers)",
)
def test_row_modes_solve_a_model_with_large_numbers():
    # s (1 + x) <= 3 s on [0, 1] holds for every measure there
    s = 1e13
    part = build_box_partition([np.array([0.0, 1.0])], 0.5)
    fn = TestFunction("big", TestFunctionKind.SLAB_AFFINE, 0, (0.0, 1.0), Sense.UPPER, 3.0 * s,
                      v=np.array([s]), c=s)
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 0.5)
    got = [solve_bound(part, [fn], risk, mode) for mode in (ReductionMode.EXPLICIT, ReductionMode.VERTEX)]
    assert [(res.status, res.bound) for res in got] == [("optimal", 1.0)] * 2


def test_assemble_validation():
    part, fns, risk = _simple_setup()
    with pytest.raises(InputError):
        assemble_dual_lp(part, fns, risk).materialize("explicit")
    with pytest.raises(InputError):
        solve_bound(part, fns, risk, "explicit")
    with pytest.raises(InputError):
        assemble_dual_lp(part, fns, RiskFunctional(RiskKind.VAR_INDICATOR, np.inf))
    with pytest.raises(InputError):
        # partition sliced elsewhere
        other = build_box_partition([np.array([0.0, 0.5, 1.0])], 0.25)
        assemble_dual_lp(other, fns, risk)
    with pytest.raises(InputError):
        bad_axis = [
            TestFunction(
                "f", TestFunctionKind.SLAB_INDICATOR, 3, (0.0, 0.5), Sense.UPPER, 1.0
            )
        ]
        assemble_dual_lp(part, bad_axis, risk)
    with pytest.raises(PartitionIncompatibleError):
        off_grid = [
            TestFunction(
                "f", TestFunctionKind.SLAB_INDICATOR, 0, (0.0, 0.4), Sense.UPPER, 1.0
            )
        ]
        assemble_dual_lp(part, off_grid, risk)
    with pytest.raises(PartitionIncompatibleError):
        # 1e-10 off an interior breakpoint: beyond EVAL_TOL, only an end
        # past the axis counts as a breakpoint (within GRID_TOL)
        near_grid = [
            TestFunction(
                "f", TestFunctionKind.SLAB_INDICATOR, 0, (0.0, 0.5 + 1e-10), Sense.UPPER, 1.0
            )
        ]
        assemble_dual_lp(part, near_grid, risk)


def test_vertex_mode_rejects_unbounded_cells():
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 0.5)
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 0.5)
    dual = assemble_dual_lp(part, [], risk)
    with pytest.raises(Exception):
        dual.materialize(ReductionMode.VERTEX)


def test_materialize_budget(monkeypatch):
    inst = random_instance(3, d=2, m=4)
    monkeypatch.setattr(lp_engine, "DENSE_BUDGET", 4)
    with pytest.raises(CapacityError):
        inst.dual().materialize()
    with pytest.raises(CapacityError):
        inst.dual().master_lp()


def test_row_routes_decode_each_slot_once(monkeypatch):
    # 40 x 40 slabs on [0, 1]^2, two head blocks, and a mean record on
    # one slab of axis 0: the cells it holds get the explicit block and
    # the rest collapse, a test on the slabs each cell was built with
    grid = np.linspace(0.0, 1.0, 41)
    partition = build_box_partition([grid] * 2, 1.1)
    mean = TestFunction("mean", TestFunctionKind.SLAB_AFFINE, 0, (grid[10], grid[11]),
                        Sense.UPPER, 0.1, v=np.array([1.0, 0.0]), c=0.0)
    dual = assemble_dual_lp(partition, [mean], RiskFunctional(RiskKind.CVAR_HINGE, 1.1))
    calls, blocks = count_decodes(monkeypatch, partition)
    assert blocks == 2
    with lp_limit("DENSE_BUDGET", 20_000):
        lp = dual.materialize()
    # explicit blocks add multiplier columns past y and z0
    assert lp.n_cols > 2
    # one pass over the cells above tau, one over those below
    assert len(calls) <= 2 * blocks


def test_scan_order_prefers_cells_past_the_threshold():
    inst = random_instance(21, d=2, m=4, risk_kind=RiskKind.VAR_INDICATOR)
    dual = inst.dual()
    _grid, _flag, side, _mins, _maxs = inst.partition.ref_arrays()
    order = np.array([cell.id for cell in dual.iter_cells()])
    assert sorted(order.tolist()) == list(range(inst.partition.cell_count))
    first_below = np.argmax(side[order] < 0)
    # all cells past the threshold come before the first below cell
    assert 0 < first_below and np.all(side[order[:first_below]] > 0)
    assert np.all(side[order[first_below:]] < 0)
    # and so do their keys, the columns past the point entries
    keys = dual.master_positions() - dual.scan_entries().count
    above = keys < dual._n_boxes
    assert above[0] and not above[-1] and np.all(np.diff(above.astype(int)) <= 0)


# -- the array column source against the per-cell restriction route --


@st.composite
def axis_breakpoints(draw, max_ticks=4):
    # quarter-grid values make corner sums land exactly on tau; a sliver
    # slab of width near VERTEX_TOL puts corners within VERTEX_TOL of tau
    # and of each other
    ticks = draw(st.lists(st.integers(-4, 8), min_size=2, max_size=max_ticks, unique=True))
    bp = sorted(t / 4 for t in ticks)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(bp) - 1))
        width = draw(st.sampled_from([0.5 * VERTEX_TOL, VERTEX_TOL, 1.5 * VERTEX_TOL, 3 * VERTEX_TOL]))
        bp.insert(at + 1, bp[at] + width)
    return np.array(bp)


@st.composite
def breakpoint_grids(draw, max_d=4):
    d = draw(st.integers(1, max_d))
    return [draw(axis_breakpoints(max_ticks=4 if d <= 2 else 3)) for _ in range(d)]


def open_ends(draw, bps):
    """Give each axis an infinite first breakpoint, last breakpoint,
    both or neither."""
    out = []
    for b in bps:
        ends = draw(st.sampled_from(["none", "low", "high", "both"]))
        if ends in ("low", "both"):
            b = np.insert(b, 0, -np.inf)
        if ends in ("high", "both"):
            b = np.append(b, np.inf)
        out.append(b)
    return out


@st.composite
def sliced_partitions(draw):
    bps = draw(breakpoint_grids())
    lo = sum(b[0] for b in bps)
    hi = sum(b[-1] for b in bps)
    if draw(st.booleans()):
        tau = lo + draw(st.integers(0, 8)) / 8 * (hi - lo)
    else:
        tau = draw(st.floats(lo, hi))
    return build_box_partition(bps, tau)


@settings(max_examples=60, deadline=None)
@given(sliced_partitions(), st.randoms(use_true_random=False))
def test_vertex_table_matches_cell_vertices(partition, rnd):
    idx = list(range(partition.cell_count))
    rnd.shuffle(idx)
    grid, flag, _side = partition.slots(idx)
    start, points = slot_vertices(partition, grid, flag, idx)
    for j, i in enumerate(idx):
        ref = np.array(reference_cell_vertices(partition.cell_at(i)))
        got = points[start[j] : start[j + 1]]
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


def brute_force_vertices_and_rays(cell):
    """Vertices and extreme rays of a cell from its halfspaces alone:
    every n tight halfspaces with a unique solution that meets the rest,
    every n - 1 with a one-dimensional solution set whose direction
    meets the recession cone.  Rays are scaled to a largest entry of 1."""
    F, ell = cell.halfspaces
    n = cell.dimension
    verts, rays = [], []
    for rows in itertools.combinations(range(len(F)), n):
        A = F[list(rows)]
        if abs(np.linalg.det(A)) < 0.5:  # integer normals: 0 or at least 1
            continue
        x = np.linalg.solve(A, ell[list(rows)])
        # a little looser than the table's own corner test, so rounding
        # at its edge cannot drop a candidate here that the table keeps
        if np.all(F @ x >= ell - 1.5 * VERTEX_TOL):
            verts.append(x)
    for rows in itertools.combinations(range(len(F)), n - 1):
        A = F[list(rows)].reshape(-1, n)
        null = scipy.linalg.null_space(A)
        if null.shape[1] != 1:
            continue
        for r in (null[:, 0], -null[:, 0]):
            r = r / np.max(np.abs(r))
            if np.all(F @ r >= -1e-12) and not any(np.allclose(r, o) for o in rays):
                rays.append(r)
    return verts, rays


@st.composite
def open_partitions(draw):
    """Sliced partitions (d <= 3) whose axes may start at -inf, end at
    +inf or both, with sliver slabs, and sometimes one or two axes that
    are the single slab (-inf, inf)."""
    bps = draw(breakpoint_grids(max_d=3))
    lo = sum(b[0] for b in bps)
    hi = sum(b[-1] for b in bps)
    tau = lo + draw(st.integers(0, 8)) / 8 * (hi - lo)
    bps = open_ends(draw, bps)
    lines = min(draw(st.sampled_from([0, 0, 0, 0, 1, 2])), len(bps))
    for a in draw(st.permutations(range(len(bps))))[:lines]:
        bps[a] = np.array([-np.inf, np.inf])
    return build_box_partition(bps, tau)


def line_section(cell):
    """The cell cut at x_b = 0 on every whole-line axis b but the first:
    a cell with no line whose vertices are the cell's."""
    lines = np.nonzero(np.isinf(cell.lows) & np.isinf(cell.highs))[0]
    lows, highs = cell.lows.copy(), cell.highs.copy()
    lows[lines[1:]] = highs[lines[1:]] = 0.0
    return Cell(lows, highs, slice_sign=cell.slice_sign, tau=cell.tau, degenerate=True), lines


@settings(max_examples=100, deadline=None)
@given(open_partitions())
def test_vertex_and_ray_table_matches_brute_force(partition):
    idx = np.arange(partition.cell_count)
    grid, flag, _side = partition.slots(idx)
    vstart, points = slot_vertices(partition, grid, flag, idx)
    rstart, rays = slot_rays(partition, grid, flag)
    for i in idx:
        cell = partition.cell_at(int(i))
        section, lines = line_section(cell)
        verts, ref_rays = brute_force_vertices_and_rays(section)
        got = points[vstart[i] : vstart[i + 1]]
        if cell.bounded:
            assert np.array_equal(got, np.array(reference_cell_vertices(cell)))
        # each table vertex is a vertex; each vertex lies within a few
        # VERTEX_TOL of one in the table
        assert len(got) and np.all(np.isfinite(got))
        assert all(min(np.max(np.abs(q - v)) for v in verts) <= 1e-12 for q in got)
        assert all(min(np.max(np.abs(q - v)) for q in got) <= 3 * VERTEX_TOL for v in verts)
        assert [tuple(q) for q in got] == sorted(tuple(q) for q in got)
        table = rays[rstart[i] : rstart[i + 1]]

        def listed(r):
            return any(np.allclose(r, o, rtol=0, atol=1e-12) for o in table)

        # every extreme ray of the section, and both directions of every
        # lineality generator e_a - e_b, are in the table
        assert all(listed(r) for r in ref_rays)
        eye = np.eye(cell.dimension)
        assert all(listed(eye[a] - eye[b]) for a in lines for b in lines if a != b)
        if lines.size:
            # every table ray is a recession direction of the cell
            F = cell.halfspaces[0]
            assert np.all(F @ table.T >= -1e-12)
        else:
            # a cell with no line: the table holds its extreme rays only
            assert len(table) == len(ref_rays)


@st.composite
def column_models(draw):
    """Small models mixing indicator and affine records of every sense
    on slabs that may cover only part of an axis, under either risk,
    with the threshold sometimes at the top corner, axes sometimes open
    at either end and sometimes one axis the single slab (-inf, inf)."""
    bps = draw(breakpoint_grids())
    d = len(bps)
    lo = sum(b[0] for b in bps)
    hi = sum(b[-1] for b in bps)
    kind = draw(st.sampled_from(list(RiskKind)))
    if kind is RiskKind.VAR_INDICATOR and draw(st.booleans()):
        tau = hi  # only the top corner reaches tau: the dual gets a corner cell
    else:
        tau = lo + draw(st.integers(1, 7)) / 8 * (hi - lo)
    if draw(st.booleans()):
        bps = open_ends(draw, bps)
        if draw(st.integers(0, 3)) == 0:
            bps[draw(st.integers(0, d - 1))] = np.array([-np.inf, np.inf])
    fns = []
    n_ind = draw(st.integers(0, 3))
    n_aff = draw(st.integers(1, 3))
    for j in range(n_ind + n_aff):
        axis = draw(st.integers(0, d - 1))
        i0, i1 = sorted(draw(st.lists(
            st.integers(0, len(bps[axis]) - 1), min_size=2, max_size=2, unique=True)))
        slab = (float(bps[axis][i0]), float(bps[axis][i1]))
        sense = draw(st.sampled_from(list(Sense)))
        if j < n_ind:
            fns.append(TestFunction(f"ind{j}", TestFunctionKind.SLAB_INDICATOR, axis,
                                    slab, sense, 0.5))
            continue
        v = np.array(draw(st.lists(st.floats(-2, 2), min_size=d, max_size=d)))
        scale = draw(st.sampled_from([1.0, 1e-13, 0.0]))  # 1e-13: below CONST_TOL
        c = draw(st.floats(-2, 2))
        fns.append(TestFunction(f"aff{j}", TestFunctionKind.SLAB_AFFINE, axis,
                                slab, sense, 0.5, v=scale * v, c=c))
    partition = build_box_partition(bps, tau)
    return assemble_dual_lp(partition, fns, RiskFunctional(kind, tau))


def _cell_key(dual, i):
    """Cell i's key: the flat slab index over the axes with records, in
    table order, past the boxes when the cell lies below tau."""
    grid, _flag, side, _mins, _maxs = dual.partition.ref_arrays()
    counts = dual.partition.slab_counts
    key = 0
    for a in dual._tables:
        key = key * counts[a] + int(grid[i, a])
    return key + int(np.prod([counts[a] for a in dual._tables])) * int(side[i] < 0)


def _restricted_entries(dual):
    """Master columns rebuilt cell by cell through restrict_to_cell.
    Returns the point entries, as (cell, point or ray, is a ray,
    column, objective) in position order, and every collapsed cell, as
    (cell, key, column, objective).  An unbounded cell reads its
    vertices and rays off the entry table, which
    test_vertex_and_ray_table_matches_brute_force checks."""
    entries = dual.scan_entries()
    points, collapsed = [], []
    corner = dual.corner_cell
    if corner is not None:
        # the corner has the slabs of the top cell, the last slot
        last = dual.partition.cell_at(dual.partition.cell_count - 1)
        assert corner.slabs.tolist() == last.slabs.tolist()
        (vals,), (obj,) = _point_rows(dual.records, dual.riskfn, corner, [corner.lows])
        # the corner is a point of the top cell, the last slot
        points.append((dual.partition.cell_count - 1, corner.lows, False, vals, obj))
    for cell in dual.iter_cells():
        i = cell.id
        if i == dual.partition.cell_count:
            continue  # the corner
        V, cvec = _signed_restrictions(dual.records, cell)
        g, e = restrict_to_cell(dual.riskfn, cell)
        # a cell collapses when every record is constant on it and the
        # risk has a finite maximum there
        top, _x, _lam = maximize_linear_over_cell(cell, g)
        constant = np.max(np.abs(V), initial=0.0) <= CONST_TOL
        assert dual.collapses(cell) == (constant and np.isfinite(top))
        if dual.collapses(cell):
            collapsed.append((i, _cell_key(dual, i), np.append(cvec, 1.0), float(e + top)))
            continue
        if cell.bounded:
            verts, rays = reference_cell_vertices(cell), []
        else:
            own = entries.cell == i
            verts, rays = entries.points[own & ~entries.ray], entries.points[own & entries.ray]
        vals, objs = _point_rows(dual.records, dual.riskfn, cell, verts)
        for q, row, obj in zip(verts, vals, objs):
            points.append((i, q, False, row, obj))
        for r in rays:
            points.append((i, r, True, np.append(V @ r, 0.0), float(g @ r)))
    return points, collapsed


@settings(max_examples=80, deadline=None)
@given(column_models())
def test_column_source_matches_the_restriction_route(dual):
    points, collapsed = _restricted_entries(dual)
    entries = dual.scan_entries()
    gen = dual.master_generator()
    with lp_limit("DENSE_BUDGET", 100_000):
        master = dual.master_lp()
    M = master.dense_matrix()
    # the point entries, then one column per key that holds a collapsed cell
    keys = sorted({key for _cell, key, _vals, _obj in collapsed})
    positions = dual.master_positions()
    assert positions.tolist() == list(range(len(points))) + [len(points) + k for k in keys]
    assert entries.count == len(points) and gen.count == master.n_cols == positions.size
    assert entries.cell.tolist() == [cell for cell, _q, _ray, _vals, _obj in points]
    assert entries.ray.tolist() == [ray for _cell, _q, ray, _vals, _obj in points]
    duals = np.random.default_rng(0).normal(0.0, 1.0, master_rows(dual).size)
    rc = reference_reduced_costs(dual, duals, use_objective=True)

    paired = dual.row_lower >= 0

    def check(pos, vals, obj):
        # a pair's lower record takes the negated values of its upper
        # record, so the pair's one master row holds both
        assert np.array_equal(vals[dual.row_lower[paired]], -vals[dual.row_records[paired]])
        vals = vals[master_rows(dual)]
        j = int(np.searchsorted(positions, pos))
        cols, col_objs = gen.column_at(np.array([pos]))
        np.testing.assert_allclose(cols[:, 0], vals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(M[:, j], vals, rtol=0, atol=1e-12)
        if obj is not None:
            assert col_objs[0] == pytest.approx(obj, rel=0, abs=1e-12)
            assert master.c[j] == pytest.approx(obj, rel=0, abs=1e-12)
            assert rc[pos] == pytest.approx(duals @ vals - obj, rel=0, abs=1e-10)
        return col_objs[0]

    for pos, (_cell, q, _ray, vals, obj) in enumerate(points):
        np.testing.assert_allclose(entries.points[pos], q, rtol=0, atol=1e-12)
        check(pos, vals, obj)
    # a collapsed cell has its key's column and at most its objective;
    # one cell per key has it
    best = {}
    for _cell, key, vals, obj in collapsed:
        assert obj <= check(len(points) + key, vals, None) + 1e-12
        if key not in best or obj > best[key][0]:
            best[key] = (obj, vals)
    for key, (obj, vals) in best.items():
        check(len(points) + key, vals, obj)


def _per_cell_gather_scores(dual, duals, use_objective):
    """The scorer written as one running sum per cell: z0 plus each
    axis's weighted slab table gathered at every cell's slab index,
    then per column: a collapsed cell gives its key's value, a point
    entry adds <G, q>, and a ray entry scores <G, r> alone.  +inf where
    no column is."""
    entries = dual.scan_entries()
    grid, _flag, side, _mins, _maxs = dual.partition.ref_arrays()
    counts = dual.partition.slab_counts
    acc = np.full(grid.shape[0], duals[-1])
    key = np.zeros(grid.shape[0], dtype=np.intp)
    for a, (rows_a, mat) in dual._tables.items():
        acc += (mat @ (duals[rows_a] * dual._rec_c[rows_a]))[grid[:, a]]
        key = key * counts[a] + grid[:, a]
    key[side <= 0] += dual._n_boxes
    score = np.full(entries.count + 2 * dual._n_boxes, np.inf)
    collapsed = reference_collapsed(dual)
    score[entries.count + key[collapsed]] = acc[collapsed]
    if entries.count:
        cells = entries.cell
        G = np.zeros((entries.count, dual.partition.dimension))
        for a, (rows_a, mat) in dual._tables.items():
            G += (mat @ (duals[rows_a, None] * dual._rec_v[rows_a]))[grid[cells, a]]
        const = np.where(entries.ray, 0.0, acc[cells])
        score[: entries.count] = const + np.einsum("ij,ij->i", G, entries.points)
    at = dual.master_positions()
    keys = at[entries.count :] - entries.count
    objective = np.concatenate([entries.objective, dual._objectives(keys)])
    score[at] = score[at] - objective if use_objective else -score[at]
    return score


def _assert_scores_match_the_gather_formula(dual, seed=0):
    """The reference sweep is bitwise the per-cell running sum, and so
    is every value among the pricer's candidates, whether it sweeps
    the grid or searches it one unit at a time or in blocks of the
    default size."""
    duals = np.random.default_rng(seed).normal(0.0, 1.0, master_rows(dual).size)
    seen = np.zeros(0, dtype=np.intp)
    for use_objective in (True, False):
        gather = _per_cell_gather_scores(dual, duals, use_objective)
        assert np.array_equal(reference_reduced_costs(dual, duals, use_objective), gather)
        for box_block in (None, 1, dual_builder.BOX_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                _price_by(mp, box_block)
                pos, vals = dual._reduced_costs(duals, use_objective, 8, seen)
            assert np.array_equal(vals, gather[pos])


def _price_by(mp, box_block):
    """Leave the pricer's limits as they are when ``box_block`` is None,
    else make it search every grid, starting with blocks of
    ``box_block`` boxes."""
    if box_block is not None:
        mp.setattr(dual_builder, "SWEEP_SIZE", 0)
        mp.setattr(dual_builder, "BOX_BLOCK", box_block)


@settings(max_examples=80, deadline=None)
@given(column_models(), st.integers(0, 2**32 - 1))
def test_reduced_costs_match_the_per_cell_gather_formula(dual, seed):
    _assert_scores_match_the_gather_formula(dual, seed)


@pytest.mark.parametrize("kind", [RiskKind.VAR_INDICATOR, RiskKind.CVAR_HINGE])
def test_a_thin_cell_within_the_tolerance_of_tau_holds_its_key_below(kind):
    # axis 1 carries no record; the cell [0.5, 0.5 + 5e-13] x [0, 5e-13]
    # has both sums within STRADDLE_TOL of tau, so it is a whole cell
    # below tau, and its key's cell with the least sums decides that
    bps = [np.array([0.0, 0.5, 0.5 + 5e-13, 1.0]), np.array([0.0, 5e-13, 1.0])]
    tau = 0.5 + 5e-13
    partition = build_box_partition(bps, tau)
    grid, flag, side, _mins, _maxs = partition.ref_arrays()
    assert (grid[3].tolist(), flag[3], side[3]) == ([1, 0], 0, -1)
    dual = assemble_dual_lp(partition, _frequency_records(partition.breakpoints, [0]),
                            RiskFunctional(kind, tau))
    # keys (slab 1, below) and (slab 1, above) both hold a cell
    assert dual._has.reshape(2, -1)[:, 1].tolist() == [True, True]
    _assert_scores_match_the_gather_formula(dual)


# -- solve_bound against HiGHS --


def _highs_bound(partition, testfns, risk, rows=None):
    """Reference (status, bound) from scipy's HiGHS: the full master, or
    the explicit row dual when ``rows`` is set, by default when some
    cell is unbounded.  An infeasible row dual means +inf if a measure
    fits, which the VaR row dual tells (it is always feasible: z0 = 1
    dominates the indicator)."""
    if rows is None:
        rows = not all(np.all(np.isfinite(b)) for b in partition.breakpoints)
    if not rows:
        return scipy_reference(assemble_dual_lp(partition, testfns, risk).master_lp())

    def rows(riskfn):
        dual = assemble_dual_lp(partition, testfns, riskfn)
        return scipy_reference(dual.materialize(ReductionMode.EXPLICIT))

    status, value = rows(risk)
    if status == "unbounded":
        return "infeasible", None
    if status == "infeasible":
        probe, _ = rows(RiskFunctional(RiskKind.VAR_INDICATOR, risk.tau))
        return ("unbounded" if probe == "optimal" else "infeasible"), None
    return status, value


def _agrees_with_highs(partition, testfns, risk, mode=ReductionMode.LAMBDA_ELIMINATED):
    got = solve_bound(partition, testfns, risk, mode)
    status, ref = _highs_bound(partition, testfns, risk)
    assert got.status == status
    if status == "optimal":
        assert abs(got.bound - ref) <= 1e-7 * max(1.0, abs(ref)), (got.bound, ref)
        # the multipliers certify the bound: sum_r mult_r rhs_r + z0
        y, z, z0 = got.multipliers
        rhs = np.array([rec[2] for rec in got.dual.records])
        value = np.concatenate([y, z]) @ rhs + z0
        assert abs(value - got.bound) <= 1e-9 * max(1.0, abs(got.bound)), (value, got.bound)
    else:
        assert got.bound is None
    return got


def _tail_records(a, d, p_bound, m_bound=None, sense=Sense.UPPER, v=None):
    """Probability bound on the slab [1, inf) of axis ``a`` and, when
    ``m_bound`` is given, a moment record on it (first moment of axis
    ``a`` unless ``v`` says otherwise)."""
    fns = [TestFunction(f"tail_p_{a}", TestFunctionKind.SLAB_INDICATOR, a,
                        (1.0, np.inf), Sense.UPPER, p_bound)]
    if m_bound is not None:
        v = np.eye(d)[a] if v is None else np.asarray(v, dtype=float)
        fns.append(TestFunction(f"tail_m_{a}", TestFunctionKind.SLAB_AFFINE, a,
                                (1.0, np.inf), sense, m_bound, v=v, c=0.0))
    return fns


def _low_tail_records(a, d, p_bound, m_bound=None):
    """P(X_a <= 0) <= p_bound and, when ``m_bound`` is given,
    E[X_a 1{X_a <= 0}] >= -m_bound, on the slab (-inf, 0] of axis ``a``."""
    fns = [TestFunction(f"low_p_{a}", TestFunctionKind.SLAB_INDICATOR, a,
                        (-np.inf, 0.0), Sense.UPPER, p_bound)]
    if m_bound is not None:
        fns.append(TestFunction(f"low_m_{a}", TestFunctionKind.SLAB_AFFINE, a,
                                (-np.inf, 0.0), Sense.LOWER, -m_bound, v=np.eye(d)[a], c=0.0))
    return fns


@st.composite
def bound_models(draw):
    """Calibrated random models with d <= 3, affine and equality records,
    either risk, optionally an axis open above and one open below, each
    with tail records: their cells carry e_u, -e_l and e_u - e_l rays.
    One or two axes may instead be whole lines (-inf, inf), each with a
    mean record in place of its slab records; their cells carry pair
    rays in both directions."""
    d = draw(st.integers(1, 3))
    inst = random_instance(
        draw(st.integers(0, 2**16)),
        d=d,
        m=draw(st.sampled_from([2, 3] if d == 3 else [2, 3, 4])),
        affine=draw(st.booleans()),
        equality=draw(st.booleans()),
        risk_kind=draw(st.sampled_from(list(RiskKind))),
    )
    bps = list(inst.partition.breakpoints)
    fns = list(inst.testfns)
    modes = list(ALL_MODES)
    lines = draw(st.permutations(range(d)))[: draw(st.sampled_from([0, 0, 0, 1, 2]))]
    for a in lines:
        bps[a] = np.array([-np.inf, np.inf])
        fns = [fn for fn in fns if fn.axis != a]
        # calibrated on the samples, like every other record
        sense = draw(st.sampled_from(list(Sense)))
        bound = float(np.mean(inst.samples[:, a]))
        bound += {Sense.UPPER: 0.05, Sense.LOWER: -0.05, Sense.EQUALITY: 0.0}[sense]
        fns.append(TestFunction(f"mean_{a}", TestFunctionKind.SLAB_AFFINE, a,
                                (-np.inf, np.inf), sense, bound, v=np.eye(d)[a], c=0.0))
    free = [a for a in range(d) if a not in lines]
    # the samples live in [0, 1], so tail bounds >= 0 keep them feasible
    tails = draw(st.sampled_from(["none", "upper", "lower", "both"])) if free else "none"
    if tails in ("upper", "both"):
        a = draw(st.sampled_from(free))
        bps[a] = np.append(bps[a], np.inf)
        p_bound = draw(st.sampled_from([0.05, 0.2]))
        m_bound = draw(st.sampled_from([None, 0.1, 0.3]))
        fns += _tail_records(a, d, p_bound, m_bound)
    if tails in ("lower", "both"):
        a = draw(st.sampled_from(free))
        bps[a] = np.insert(bps[a], 0, -np.inf)
        p_bound = draw(st.sampled_from([0.05, 0.2]))
        m_bound = draw(st.sampled_from([None, 0.1, 0.3]))
        fns += _low_tail_records(a, d, p_bound, m_bound)
    if tails != "none" or lines:
        modes.remove(ReductionMode.VERTEX)
    partition = build_box_partition(bps, inst.risk.tau)
    return partition, fns, inst.risk, draw(st.sampled_from(modes))


@settings(max_examples=80, deadline=None)
@given(bound_models())
def test_solve_bound_agrees_with_highs(model):
    _agrees_with_highs(*model)


def _halves(bound, axis=0):
    # mass ``bound`` pinned on each half of [0, 1]
    return [
        TestFunction(name, TestFunctionKind.SLAB_INDICATOR, axis, slab, Sense.EQUALITY, bound)
        for name, slab in (("lo", (0.0, 0.5)), ("hi", (0.5, 1.0)))
    ]


HINGE = RiskKind.CVAR_HINGE
VAR = RiskKind.VAR_INDICATOR
TAIL_AXIS = [0.0, 0.5, 1.0, np.inf]


@pytest.mark.parametrize("name,bps,tau,kind,fns,status,engine", [
    # the two-atom example: the VaR corner and an affine equality
    ("corner_equality", [[0.0, 1.0]], 1.0, VAR, two_point_model(14.0 / 9.0).testfns,
     "optimal", "dcg"),
    ("corner_d2", [[0.0, 0.5, 1.0]] * 2, 2.0, VAR, _halves(0.5), "optimal", "dcg"),
    ("infeasible_equalities", [[0.0, 0.5, 1.0]], 0.75, VAR, _halves(0.9), "infeasible", "dcg"),
    ("infeasible_tail_axis", [TAIL_AXIS], 0.75, HINGE, _halves(0.9), "infeasible", "dcg"),
    # no record holds the tail cells: their rays raise the hinge at no cost
    ("unbounded_collapsed_tail", [TAIL_AXIS], 1.0, HINGE, _tail_records(0, 1, 0.1),
     "unbounded", "dcg"),
    # only a lower moment bound on the tail: the ray e_0 of the tail cell
    # raises the hinge at no cost, so the master is unbounded
    ("unbounded_rows_probe", [TAIL_AXIS], 1.0, HINGE,
     _tail_records(0, 1, 0.1, 0.2, Sense.LOWER), "unbounded", "dcg"),
    ("hinge_tail", [[0.0, 1.0, np.inf]], 1.0, HINGE, _tail_records(0, 1, 1.0, 0.5),
     "optimal", "dcg"),
    ("var_tail_axis", [TAIL_AXIS, [0.0, 1.0]], 1.5, VAR, _tail_records(0, 2, 0.2, 0.3),
     "optimal", "dcg"),
    # the tail record weighs x_1 only; the ray e_0 of the sliced tail cell
    # raises the hinge while no record sees it
    ("unbounded_ray_d2", [TAIL_AXIS, [0.0, 0.5, 1.0]], 1.5, HINGE,
     _tail_records(0, 2, 0.2, 0.3, v=[0.0, 1.0]), "unbounded", "dcg"),
    # an axis open below and one open above: sliced corner cells carry
    # -e_0, e_1 and e_1 - e_0
    ("var_lower_tail_axis", [[-np.inf, 0.0, 0.5, 1.0], TAIL_AXIS], 1.5, VAR,
     _low_tail_records(0, 2, 0.2, 0.3) + _tail_records(1, 2, 0.2, 0.3), "optimal", "dcg"),
    # a one-slab axis (-inf, inf): its cells are the halves at tau, with
    # the vertex tau and the rays -e_0 below and e_0 above
    ("line_axis_rows", [[-np.inf, np.inf]], 1.0, VAR,
     [TestFunction("mean", TestFunctionKind.SLAB_AFFINE, 0, (-np.inf, np.inf),
                   Sense.EQUALITY, 0.5, v=np.array([1.0]), c=0.0)], "optimal", "dcg"),
    ("infeasible_line_axis", [[-np.inf, np.inf], [0.0, 0.5, 1.0]], 0.75, HINGE,
     _halves(0.9, axis=1), "infeasible", "dcg"),
    # two line axes: the pair rays +-(e_0 - e_1) span the lineality space
    ("two_line_axes", [[-np.inf, np.inf], [-np.inf, np.inf], [0.0, 0.5, 1.0]], 0.75, VAR,
     [TestFunction(f"mean_{a}", TestFunctionKind.SLAB_AFFINE, a, (-np.inf, np.inf),
                   Sense.EQUALITY, 0.5, v=np.eye(3)[a], c=0.0) for a in (0, 1)]
     + _halves(0.5, axis=2), "optimal", "dcg"),
])
def test_solve_bound_edge_cases_agree_with_highs(name, bps, tau, kind, fns, status, engine):
    partition = build_box_partition([np.array(b) for b in bps], tau)
    got = _agrees_with_highs(partition, fns, RiskFunctional(kind, tau))
    assert (got.status, got.engine) == (status, engine)


def _frequency_grid_dual(d=4, m=16):
    """Family (a): two-sided frequency bounds on every slab of d axes of
    m slabs on [0, 1], VaR at 0.7 * d; every cell collapses."""
    grid = np.linspace(0.0, 1.0, m + 1)
    partition = build_box_partition([grid] * d, 0.7 * d)
    return assemble_dual_lp(partition, _frequency_records(partition.breakpoints, range(d)),
                            RiskFunctional(VAR, 0.7 * d))


def test_pricing_allocates_in_proportion_to_the_boxes_evaluated():
    # 4 axes of 16 slabs, VaR at 0.7 * 4: 70,375 cells, all collapsed;
    # one round may allocate per box evaluated and per unit, not per cell
    dual = _frequency_grid_dual()
    count = dual.master_generator().count
    assert count == 70_375
    duals = np.random.default_rng(0).normal(0.0, 1.0, master_rows(dual).size)
    # the first search builds the unit tables, once per run
    dual._reduced_costs(-duals, True, 8, np.zeros(0, dtype=np.intp))
    tracemalloc.start()
    try:
        pos, _vals = dual._reduced_costs(duals, True, 8, np.zeros(0, dtype=np.intp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pos.size == 8 and 0 < dual._scored < count // 8
    assert peak <= 128 * (dual._scored + dual._units.size) + 65_536
    assert peak < 4 * count


@st.composite
def indicator_models(draw):
    """Indicator records only, so every cell on which the risk has a
    maximum collapses: axes may carry no record, the first record may
    sit on any axis, axes may be open, VaR may sit at the top corner,
    and the hinge charges each cell above tau its own objective."""
    bps = draw(breakpoint_grids())
    d = len(bps)
    lo = sum(b[0] for b in bps)
    hi = sum(b[-1] for b in bps)
    kind = draw(st.sampled_from(list(RiskKind)))
    if kind is RiskKind.VAR_INDICATOR and draw(st.booleans()):
        tau = hi
    else:
        tau = lo + draw(st.integers(1, 7)) / 8 * (hi - lo)
    if draw(st.booleans()):
        bps = open_ends(draw, bps)
    fns = []
    for j, axis in enumerate(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=5))):
        i0, i1 = sorted(draw(st.lists(
            st.integers(0, len(bps[axis]) - 1), min_size=2, max_size=2, unique=True)))
        fns.append(TestFunction(f"ind{j}", TestFunctionKind.SLAB_INDICATOR, axis,
                                (float(bps[axis][i0]), float(bps[axis][i1])),
                                draw(st.sampled_from(list(Sense))), 0.5))
    return assemble_dual_lp(build_box_partition(bps, tau), fns, RiskFunctional(kind, tau))


def _assert_key_objectives(dual):
    """Bitwise, each key's objective is the largest of its collapsed
    cells': VaR charges 1 above tau, the hinge the cell's max sum as the
    partition stores it, less tau."""
    _grid, _flag, side, _mins, maxs = dual.partition.ref_arrays()
    hinge = dual.riskfn.kind is RiskKind.CVAR_HINGE
    best = {}
    for i in np.flatnonzero(reference_collapsed(dual)):
        obj = 0.0 if side[i] < 0 else maxs[i] - dual.riskfn.tau if hinge else 1.0
        key = _cell_key(dual, i)
        best[key] = max(best.get(key, -np.inf), obj)
    keys = sorted(best)
    assert dual._objectives(np.array(keys, dtype=np.intp)).tolist() == [best[k] for k in keys]


@settings(max_examples=100, deadline=None)
@given(st.one_of(column_models(), indicator_models()))
def test_key_objective_is_bitwise_the_largest_of_its_cells(dual):
    _assert_key_objectives(dual)


def _assert_pricer_matches_the_sweep(dual, rng, box_block):
    """Picks and reduced costs of every pricing call equal the full
    sweep's, in both phases, for q of 1, 8 and 64, random generated
    sets, and random, integer and z0-only duals: the last two make
    ties at the q-th value common."""
    gen, ref = dual.master_generator(), reference_generator(dual)
    n = master_rows(dual).size
    positions = dual.master_positions()
    for duals in (rng.normal(0.0, 1.0, n), rng.integers(-2, 3, n).astype(float),
                  np.eye(n)[-1] * rng.integers(-2, 3)):
        generated = rng.choice(positions, size=int(rng.integers(0, gen.count + 1)), replace=False)
        gen.generated = set(generated.tolist())
        ref.generated = set(generated.tolist())
        for q in (1, 8, 64):
            for use_objective in (True, False):
                with pytest.MonkeyPatch.context() as mp:
                    _price_by(mp, box_block)
                    picks, rc = price(gen, duals, q, use_objective)
                want, want_rc = price(ref, duals, q, use_objective)
                assert picks.tolist() == want.tolist()
                assert np.array_equal(rc, want_rc)


@settings(max_examples=150, deadline=None)
@given(st.one_of(column_models(), indicator_models()), st.sampled_from([None, 1, 64, 2048]),
       st.integers(0, 2**32 - 1))
def test_box_pricer_matches_the_sweep(dual, box_block, seed):
    # None sweeps these small grids; a box block of 1 makes the search
    # stop and check after each unit
    _assert_pricer_matches_the_sweep(dual, np.random.default_rng(seed), box_block)


def test_box_search_keeps_boxes_whose_sums_round_low():
    # 4 axes of 2 slabs, hinge at the top, so every cell collapses below
    # tau.  Axes 2 and 3 add 2**53 and take it back: z0 + 3 + 2**53
    # rounds up to 2**53 + 4, so every box is worth 4 and scores -4 in
    # phase one, though head partial plus tail part says 3 or 3.25.
    # Bounds without their rounding slack would search the 3.25 units
    # first and stop there, missing the first column, the key below tau
    # of box 0 at position 16.
    grid = [0.0, 0.5, 1.0]
    fns = [TestFunction(f"hi_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a,
                        (grid[g], grid[g + 1]), Sense.UPPER, 0.75)
           for a in range(4) for g in range(2)]
    dual = assemble_dual_lp(build_box_partition([grid] * 4, 4.0), fns,
                            RiskFunctional(HINGE, 4.0))
    big = 2.0**53
    duals = np.array([3.0, 3.25, 0.0, 0.0, big, big, -big, -big, 0.0])
    assert np.all(reference_reduced_costs(dual, duals, False)[dual.master_positions()] == -4.0)
    with pytest.MonkeyPatch.context() as mp:
        _price_by(mp, 1)
        picks, rc = price(dual.master_generator(), duals, 1, use_objective=False)
    assert picks.tolist() == [16] and rc.tolist() == [-4.0]


def test_a_tie_in_a_later_unit_replaces_the_last_pick():
    # units run by bound, not by position: here key 7 ties key 12, the
    # 4th pick so far, at -3 and sits before it, but its unit comes
    # later, so ties count up to the last pick's position
    grid = np.linspace(0.0, 1.0, 4)
    dual = assemble_dual_lp(build_box_partition([grid] * 2, 1.0),
                            _frequency_records([grid] * 2, [0, 1]), RiskFunctional(VAR, 1.0))
    # one dual per record, hi and lo in turn, then z0; a pair's master
    # row carries hi's column, lo's negated, so its dual is y_hi - y_lo
    y = np.array([1.0, -1.0, -1.0, 2.0, -2.0, -1.0, 1.0, 1.0, 1.0, 2.0, -2.0, -1.0])
    duals = np.append(y[0::2] - y[1::2], 0.0)
    with pytest.MonkeyPatch.context() as mp:
        _price_by(mp, 1)
        picks, rc = price(dual.master_generator(), duals, 4)
    assert picks.tolist() == price(reference_generator(dual), duals, 4)[0].tolist()
    assert picks.tolist() == [4, 5, 13, 7] and rc.tolist() == [-5.0, -5.0, -4.0, -3.0]


def _frequency_records(bps, axes):
    """Two-sided frequency bounds on every slab of ``axes``, listed in
    that order."""
    fns = []
    for a in axes:
        b = bps[a]
        m = len(b) - 1
        for g in range(m):
            slab = (float(b[g]), float(b[g + 1]))
            fns.append(TestFunction(f"hi_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a, slab,
                                    Sense.UPPER, 1.35 / m))
            fns.append(TestFunction(f"lo_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a, slab,
                                    Sense.LOWER, 0.65 / m))
    return fns


GRID6 = list(np.linspace(0.0, 1.0, 7))
OPEN6 = [-np.inf] + GRID6[1:-1] + [np.inf]


@pytest.mark.parametrize("bps,axes,tau,kind,extra", [
    # VaR at the top corner: the corner is a point entry
    ([GRID6] * 4, [0, 1, 2, 3], 4.0, VAR, []),
    # hinge on indicators: cells above tau collapse with their own objectives
    ([GRID6] * 4, [0, 1, 2, 3], 2.4, HINGE, []),
    # axis 1 carries no record
    ([GRID6] * 5, [0, 2, 3, 4], 3.0, VAR, []),
    # table order is not axis order
    ([GRID6] * 4, [3, 1, 0, 2], 2.6, VAR, []),
    # open axes, and an affine record whose cells get vertices and rays
    ([OPEN6] * 4, [0, 1, 2, 3], 2.2, VAR,
     [TestFunction("aff", TestFunctionKind.SLAB_AFFINE, 0, (GRID6[-2], np.inf), Sense.UPPER,
                   0.3, v=np.eye(4)[0], c=0.0)]),
], ids=["var_corner", "hinge_collapsed", "record_free_axis", "table_order", "open_axes"])
def test_box_search_matches_the_sweep_on_fixed_models(bps, axes, tau, kind, extra):
    partition = build_box_partition([np.array(b) for b in bps], tau)
    dual = assemble_dual_lp(partition, _frequency_records(partition.breakpoints, axes) + extra,
                            RiskFunctional(kind, tau))
    # more boxes than the default first block, so the search has to
    # decide where to stop
    boxes = np.prod([partition.slab_counts[a] for a in dual._tables])
    assert 2 * boxes > dual_builder.BOX_BLOCK
    _assert_pricer_matches_the_sweep(dual, np.random.default_rng(7), dual_builder.BOX_BLOCK)


@pytest.mark.parametrize("bps,axes,tau,kind,status", [
    # axis 1 carries no record: each key holds a cell of each of its slabs
    ([GRID6, [0.0, 0.5, 1.0], GRID6], [0, 2], 1.9, VAR, "optimal"),
    # the same under the hinge: a key carries its cells' largest objective
    ([GRID6, [0.0, 0.5, 1.0], GRID6], [0, 2], 1.9, HINGE, "optimal"),
    # a record-free axis with the top slab (1, inf): a key above tau holds
    # the collapsed cells of [0, 1] and the vertex and ray cells of
    # (1, inf), whose rays raise the hinge at no cost
    ([GRID6, [0.0, 1.0, np.inf], GRID6], [0, 2], 1.9, HINGE, "unbounded"),
], ids=["var", "hinge", "hinge_open_axis"])
def test_record_free_axes_agree_with_highs(bps, axes, tau, kind, status):
    partition = build_box_partition([np.array(b) for b in bps], tau)
    fns = _frequency_records(partition.breakpoints, axes)
    risk = RiskFunctional(kind, tau)
    got = solve_bound(partition, fns, risk)
    assert (got.status, got.engine) == (status, "dcg")
    for rows in (False, True):
        ref_status, ref = _highs_bound(partition, fns, risk, rows=rows)
        assert ref_status == status
        if status == "optimal":
            assert abs(got.bound - ref) <= 1e-9 * max(1.0, abs(ref)), (rows, got.bound, ref)
    dual = got.dual
    # fewer keys than collapsed cells: cells share keys
    n_keys = dual.master_generator().count - dual.scan_entries().count
    assert n_keys < np.count_nonzero(reference_collapsed(dual))
    for box_block in (None, 1, dual_builder.BOX_BLOCK):
        _assert_pricer_matches_the_sweep(dual, np.random.default_rng(3), box_block)


def test_key_objective_adds_the_tops_in_axis_order():
    # the top cell's max sum 0.1 + 0.1 + 0.4 is 0.6000000000000001 in
    # axis order and 0.6 in table order (axis 2 first) or reversed;
    # axis 1 carries no record, so a key takes its largest finite top
    bps = [np.array([0.0, 0.05, 0.1]), np.array([0.0, 0.05, 0.1]), np.array([0.0, 0.2, 0.4])]
    partition = build_box_partition(bps, 0.3)
    dual = assemble_dual_lp(partition, _frequency_records(bps, [2, 0]), RiskFunctional(HINGE, 0.3))
    assert list(dual._tables) == [2, 0]
    assert partition.ref_arrays()[4].max() == 0.6000000000000001
    _assert_key_objectives(dual)


def test_dual_and_partition_keep_no_per_cell_array():
    # after the seed and a searched pricing call, no array of the dual,
    # of its point entries or of its partition grows with the cells
    dual = _frequency_grid_dual()
    _seed, gen = dual.master_seed()
    duals = np.random.default_rng(0).normal(0.0, 1.0, master_rows(dual).size)
    gen.reduced_costs(duals, True, 8, np.zeros(0, dtype=np.intp))
    assert dual._unit_least is not None  # the search ran
    cells = dual.partition.cell_count
    for owner in (dual, dual.scan_entries(), dual.partition):
        for name, value in vars(owner).items():
            arrays = value.values() if isinstance(value, dict) else [value]
            for arr in arrays:
                if isinstance(arr, np.ndarray) and arr.size:
                    assert len(arr) < cells, name


def test_build_assemble_and_seed_hold_no_per_slot_memory():
    # family (a) at d=5, m=14, VaR at 0.7 * 5: 568,400 slots, whose
    # per-slot arrays took 44 MB at this stage
    d, m = 5, 14
    bps = [np.array([g / m for g in range(m + 1)])] * d
    fns = _frequency_records(bps, range(d))
    risk = RiskFunctional(VAR, 0.7 * d)
    tracemalloc.start()
    try:
        partition = build_box_partition(bps, risk.tau)
        dual = assemble_dual_lp(partition, fns, risk)
        dual.master_seed()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert partition.cell_count == 568_400
    assert peak <= 8 * 2**20


def test_seed_reads_the_key_table_in_blocks():
    # family (a) at d=5, m=14, VaR at 0.7 * 5: the seed reads _has only
    # for its first batch, one unit's row at a time, so it holds no copy
    # of the key table, whole or by side
    d, m = 5, 14
    bps = [np.array([g / m for g in range(m + 1)])] * d
    risk = RiskFunctional(VAR, 0.7 * d)
    dual = assemble_dual_lp(build_box_partition(bps, risk.tau), _frequency_records(bps, range(d)),
                            risk)
    tracemalloc.start()
    try:
        dual.master_seed()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * dual._has.nbytes


def test_box_search_blocks_stop_doubling_at_the_sweep_size(monkeypatch):
    # no _box_costs call evaluates more than max(SWEEP_SIZE, n_tail)
    # boxes: one unit at a time when SWEEP_SIZE is 0, and at most
    # SWEEP_SIZE boxes when z0-only duals tie every box, so that every
    # unit is evaluated
    dual = _frequency_grid_dual()
    sizes = []
    box_costs = dual._box_costs

    def counted(at, *args):
        sizes.append(len(at) * dual._n_tail)
        return box_costs(at, *args)

    monkeypatch.setattr(dual, "_box_costs", counted)
    n = master_rows(dual).size
    seen = np.zeros(0, dtype=np.intp)
    dual._reduced_costs(np.eye(n)[-1], False, 8, seen)
    assert sum(sizes) == dual._units.size * dual._n_tail
    assert max(sizes) <= dual_builder.SWEEP_SIZE
    sizes.clear()
    with pytest.MonkeyPatch.context() as mp:
        _price_by(mp, 1)
        dual._reduced_costs(np.random.default_rng(0).normal(0.0, 1.0, n), True, 8, seen)
    assert len(sizes) > 1 and max(sizes) == dual._n_tail


def test_box_bound_reaches_only_the_tails_where_a_unit_holds_keys():
    # two axes of 4 slabs, VaR at 1.2.  An affine record on axis 1's top
    # slab leaves no key on that tail, though its sums reach past tau
    # from every head.  Duals that make that tail's part the least must
    # not pull a unit's bound down: each bound is its head partial plus
    # the least part of the tails where it holds keys.
    grid = np.linspace(0.0, 1.0, 5)
    fns = _frequency_records([grid] * 2, [0, 1]) + [_affine_record(1, (0.75, 1.0), [0.0, 1.0])]
    dual = assemble_dual_lp(build_box_partition([grid] * 2, 1.2), fns, RiskFunctional(VAR, 1.2))
    assert not np.any(dual._has[:, 3]) and np.any(dual._has[: dual._n_head])
    rows, mat = dual._tables[1]
    slab_3 = np.flatnonzero(np.all((mat != 0.0) == (np.arange(4) == 3)[:, None], axis=0))[0]
    duals = np.zeros(master_rows(dual).size)
    duals[rows[slab_3]] = -100.0 / mat[3, slab_3]
    tables = [mat_a @ (duals[rows_a] * dual._rec_c[rows_a])
              for rows_a, mat_a in dual._tables.values()]
    assert np.argmin(tables[1]) == 3 and tables[1][3] == -100.0
    dual._index_units()
    partial = dual._box_sums(duals[-1:], tables[:1])[0]
    units, bound = dual._bounded_units(partial, tables[1:], 1.0, np.inf)
    assert units.size == dual._units.size
    for i, b in zip(units, bound):
        unit = dual._units[i]
        held = tables[1][dual._has[unit]]
        assert b == pytest.approx(partial[unit % dual._n_head] + held.min() - dual._unit_obj[i])
    gen, ref = dual.master_generator(), reference_generator(dual)
    for use_objective in (True, False):
        for q in (1, 8):
            with pytest.MonkeyPatch.context() as mp:
                _price_by(mp, 1)
                picks, rc = price(gen, duals, q, use_objective)
            want, want_rc = price(ref, duals, q, use_objective)
            assert picks.tolist() == want.tolist() and np.array_equal(rc, want_rc)
    _assert_pricer_matches_the_sweep(dual, np.random.default_rng(0), 1)


def _affine_record(axis, slab, v):
    return TestFunction(f"aff_{axis}", TestFunctionKind.SLAB_AFFINE, axis, slab, Sense.UPPER,
                        0.5, v=np.array(v, dtype=float), c=0.25)


@pytest.mark.parametrize("bps,tau,kind,fns,corner,rays", [
    # VaR at the top corner; axis 1 carries no record
    ([[0.0, 0.5, 1.0]] * 3, 3.0, VAR,
     _halves(0.5) + [_affine_record(2, (0.5, 1.0), [0.5, -1.0, 2.0])], True, False),
    # open axes under the hinge: vertex and ray entries
    ([[-np.inf, 0.0, 0.5, 1.0], TAIL_AXIS], 1.5, HINGE,
     _halves(0.4, axis=1) + [_affine_record(0, (-np.inf, 0.0), [-1.0, 0.5]),
                             _affine_record(1, (1.0, np.inf), [0.25, 1.0])], False, True),
])
def test_reduced_costs_match_the_gather_formula_on_fixed_models(bps, tau, kind, fns, corner,
                                                                rays):
    partition = build_box_partition([np.array(b) for b in bps], tau)
    dual = assemble_dual_lp(partition, fns, RiskFunctional(kind, tau))
    entries = dual.scan_entries()
    assert (dual.corner_cell is not None) == corner
    assert bool(np.any(entries.ray)) == rays
    # point entries past the corner, which is position 0 when there is one
    assert entries.count > corner
    _assert_scores_match_the_gather_formula(dual)



def test_line_axis_model_solves_on_column_generation():
    # d = 3: a whole-line axis with a mean equality and two 16-slab
    # indicator grids, VaR at 1.6; 512 cells, each sliced, each holding
    # the line
    m = 16
    grid = np.linspace(0.0, 1.0, m + 1)
    fns = [TestFunction("mean_0", TestFunctionKind.SLAB_AFFINE, 0, (-np.inf, np.inf),
                        Sense.EQUALITY, 0.5, v=np.array([1.0, 0.0, 0.0]), c=0.0)]
    for a in (1, 2):
        for g in range(m):
            slab = (float(grid[g]), float(grid[g + 1]))
            fns.append(TestFunction(f"hi_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a, slab,
                                    Sense.UPPER, 1.35 / m))
            fns.append(TestFunction(f"lo_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a, slab,
                                    Sense.LOWER, 0.65 / m))
    partition = build_box_partition([np.array([-np.inf, np.inf]), grid, grid], 1.6)
    assert partition.cell_count == 2 * m * m
    got = _agrees_with_highs(partition, fns, RiskFunctional(VAR, 1.6))
    assert (got.status, got.engine, got.certified) == ("optimal", "dcg", True)


@st.composite
def slab_mass_models(draw):
    """Slab-mass equalities on every slab of every axis, hinge risk.
    Axes have 2-6 slabs with uniform or random breakpoints and uniform
    or Dirichlet masses; tau lies strictly inside the range of sums."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bps, masses = [], []
    for _ in range(d):
        m = draw(st.integers(2, 6))
        if draw(st.booleans()):
            bps.append(np.linspace(0.0, 1.0, m + 1))
        else:
            bps.append(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, m))]))
        masses.append(rng.dirichlet(np.ones(m)) if draw(st.booleans()) else np.full(m, 1.0 / m))
    tau = draw(st.floats(0.05, 0.95)) * sum(b[-1] for b in bps)
    return bps, masses, tau


def _comonotone_hinge(bps, masses, tau):
    """Integral over u in (0, 1] of (sum_a Q_a(u) - tau)+, where Q_a is
    the quantile of axis a's slab masses placed at the slab tops.  The
    hinge is supermodular, so the comonotone coupling is the worst case
    (Meilijson & Nadas 1979)."""
    cums = [np.cumsum(p) for p in masses]
    knots = np.unique(np.clip(np.concatenate([[0.0, 1.0], *cums]), 0.0, 1.0))
    mid = 0.5 * (knots[:-1] + knots[1:])
    tops = sum(b[1:][np.minimum(np.searchsorted(c, mid), c.size - 1)] for b, c in zip(bps, cums))
    return float(np.sum(np.diff(knots) * np.maximum(tops - tau, 0.0)))


@settings(max_examples=100, deadline=None)
@given(slab_mass_models())
def test_hinge_bound_is_the_comonotone_value(model):
    bps, masses, tau = model
    fns = [
        TestFunction(f"p_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, axis=a,
                     slab=(float(b[g]), float(b[g + 1])), sense=Sense.EQUALITY, bound=float(p[g]))
        for a, (b, p) in enumerate(zip(bps, masses))
        for g in range(p.size)
    ]
    risk = RiskFunctional(RiskKind.CVAR_HINGE, tau)
    res = solve_bound(build_box_partition(bps, tau=tau), fns, risk)
    assert res.status == "optimal"
    ref = _comonotone_hinge(bps, masses, tau)
    assert ref > 0.0
    assert abs(res.bound - ref) <= 1e-9 * ref


@st.composite
def makarov_models(draw):
    """Two axes of m slabs on [0, 1], uniform or random breakpoints, and
    tau anywhere in [0, 2] or, three times in ten, on a sum of two slab
    tops."""
    m = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bps = [
        np.linspace(0.0, 1.0, m + 1) if draw(st.booleans())
        else np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, m - 1)), [1.0]])
        for _ in range(2)
    ]
    if draw(st.integers(0, 9)) < 3:
        tau = float(bps[0][rng.integers(1, m + 1)] + bps[1][rng.integers(1, m + 1)])
    else:
        tau = float(rng.uniform(0.0, 2.0))
    return bps, tau


def _makarov(bps, tau):
    """max k/m such that top_1[m-k+i] + top_2[m+1-i] > tau for every
    i = 1..k, where top_a holds axis a's slab tops in increasing order
    (1-based); 1/m, the corner, when no k does and tau is the sum of the
    axis tops.  With uniform slab masses at d = 2 this is the exact worst
    case (Makarov 1981; Ruschendorf 1982)."""
    top1, top2 = bps[0][1:], bps[1][1:]
    m = top1.size
    k = max((k for k in range(1, m + 1)
             if all(top1[m - k + i - 1] + top2[m - i] > tau for i in range(1, k + 1))),
            default=0)
    if k == 0 and tau == top1[-1] + top2[-1]:
        k = 1
    return k / m


def _uniform_mass_var_bound(bps, tau):
    """VaR bound at tau under mass 1/m on each of the m slabs of every
    axis."""
    m = bps[0].size - 1
    fns = [
        TestFunction(f"p_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, axis=a,
                     slab=(float(b[g]), float(b[g + 1])), sense=Sense.EQUALITY, bound=1.0 / m)
        for a, b in enumerate(bps)
        for g in range(m)
    ]
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, tau)
    res = solve_bound(build_box_partition(bps, tau=tau), fns, risk)
    assert res.status == "optimal"
    return res.bound


@settings(max_examples=100, deadline=None)
@given(makarov_models())
def test_var_bound_is_the_makarov_value(model):
    bps, tau = model
    assert abs(_uniform_mass_var_bound(bps, tau) - _makarov(bps, tau)) <= 1e-9


@st.composite
def rearrangement_models(draw):
    """Three or four axes of m = 4-10 slabs on [0, 1], all uniform or
    all random breakpoints, and tau anywhere in [0, d] or on a sum of
    slab tops, one per axis.  Uniform axes with tau on a sum of tops
    are where rows sum exactly to tau."""
    d = draw(st.integers(3, 4))
    m = draw(st.integers(4, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniform = draw(st.booleans())
    bps = [
        np.linspace(0.0, 1.0, m + 1) if uniform
        else np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, m - 1)), [1.0]])
        for _ in range(d)
    ]
    if draw(st.booleans()):
        tau = float(sum(b[rng.integers(1, m + 1)] for b in bps))
    else:
        tau = float(rng.uniform(0.0, d))
    return bps, tau


def _rearrangement(bps, tau):
    """Rearrangement-algorithm value (Puccetti & Ruschendorf 2012): the
    largest k/m for which the top k slab tops of every axis, each
    column rearranged to be oppositely ordered to the sum of the
    others, give rows that all sum past tau + 1e-9.  Mass 1/m on each
    row, with the other slabs paired off anyhow, fits the slab masses,
    and a row summing past tau has the risk 1 at points just below its
    slab tops, so this is a lower bound on the worst case.  The margin
    keeps a float sum of tops one ulp past a tau that equals it in
    exact arithmetic from counting; the partition treats sums within
    1e-12 of tau as not past it."""
    m = bps[0].size - 1
    for k in range(m, 0, -1):
        rows = np.column_stack([b[-k:] for b in bps])
        for _sweep in range(100):
            before = rows.copy()
            for j in range(rows.shape[1]):
                others = rows.sum(axis=1) - rows[:, j]
                col = np.empty(k)
                col[np.argsort(others, kind="stable")] = np.sort(rows[:, j])[::-1]
                rows[:, j] = col
            if np.array_equal(rows, before):
                break
        if np.all(rows.sum(axis=1) > tau + 1e-9):
            return k / m
    return 0.0


@settings(max_examples=100, deadline=None)
@given(rearrangement_models())
def test_var_bound_is_at_least_the_rearrangement_value(model):
    bps, tau = model
    assert _uniform_mass_var_bound(bps, tau) >= _rearrangement(bps, tau) - 1e-9


def _dual_bound(tops, d, tau):
    """Embrechts & Puccetti's dual bound (Finance Stoch. 10, 2006) on
    P(X_1 + ... + X_d >= tau) for d variables distributed as X, uniform
    on ``tops``: min(1, D(t)) over candidate t < tau / d, with

        D(t) = d * int_t^{tau - (d - 1) t} P(X > x) dx / (tau - d t).

    Each D(t) is the mean of d * min(1, (x - t)+ / (tau - d t)) under X,
    a function whose sum over the axes is at least 1 wherever the sum
    reaches tau; so every t gives an upper bound, and a finite set of t
    is safe.  D is a ratio of piecewise-linear functions of t, which
    takes its minimum where t or tau - (d - 1) t meets a top, or in a
    limit; the candidates are those points and a grid."""
    cands = np.concatenate([tops, (tau - tops) / (d - 1), np.linspace(-1.0, tau / d, 201)])
    t = cands[tau - d * cands > 1e-6][:, None]
    upper = tau - (d - 1) * t
    mass = np.mean(np.clip(tops, t, upper) - t, axis=1)
    return min(1.0, float(np.min(d * mass / (tau - d * t[:, 0]))))


@st.composite
def shared_axis_models(draw):
    """Three or four axes that share one breakpoint list of m = 4-10
    slabs on [0, 1], uniform or random, and tau anywhere in [0, d] or on
    a sum of slab tops, one per axis."""
    d = draw(st.integers(3, 4))
    m = draw(st.integers(4, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        bp = np.linspace(0.0, 1.0, m + 1)
    else:
        bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, m - 1)), [1.0]])
    if draw(st.booleans()):
        tau = float(sum(bp[rng.integers(1, m + 1, size=d)]))
    else:
        tau = float(rng.uniform(0.0, d))
    return [bp] * d, tau


@settings(max_examples=100, deadline=None)
@given(shared_axis_models())
def test_var_bound_is_at_most_the_dual_bound(model):
    # mass 1/m on each slab puts at most the mass of X, uniform on the
    # slab tops, above any point, so the dual bound holds on the model
    bps, tau = model
    bound = _uniform_mass_var_bound(bps, tau)
    assert bound <= _dual_bound(bps[0][1:], len(bps), tau) + 1e-9


# -- ranged master rows: one row per two-sided pair --


def _unmerged_master(dual):
    """The master with one row per record: a record's row is its master
    row, negated for the lower record of a pair, with the record's own
    right-hand side, and no row has a range."""
    with lp_limit("DENSE_BUDGET", 100_000):
        merged = dual.master_lp()
    row_of = np.empty(len(dual.records), dtype=np.intp)
    sign = np.ones(len(dual.records))
    row_of[dual.row_records] = np.arange(dual.row_records.size)
    paired = np.flatnonzero(dual.row_lower >= 0)
    row_of[dual.row_lower[paired]] = paired
    sign[dual.row_lower[paired]] = -1.0
    A = np.vstack([merged.A[row_of] * sign[:, None], merged.A[-1:]])
    senses = ["<="] * dual.n_ineq + ["="] * (dual.n_eq + 1)
    return LinearProgram("max", merged.c, A, senses, [rec[2] for rec in dual.records] + [1.0])


def _ranged_model(seed):
    """A random model on at most 3 axes of at most 3 slabs, one axis
    sometimes unbounded above, with records calibrated on a sample so
    it is usually feasible: indicator and affine pairs, some with
    lo = hi, one-sided records, equalities, and duplicates of earlier
    records, and rarely a pair with lo > hi."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    bps = [jittered_breakpoints(rng, int(rng.integers(1, 4))) for _ in range(d)]
    data = rng.uniform(0.0, 1.0, (60, d))
    if rng.random() < 0.3:
        a = int(rng.integers(d))
        bps[a] = np.append(bps[a], np.inf)
        data[:12, a] += rng.uniform(0.0, 1.0, 12)
    tau = float(np.quantile(data.sum(axis=1), rng.uniform(0.4, 0.9)))
    partition = build_box_partition(bps, tau)
    risk = RiskFunctional(VAR if rng.random() < 0.5 else HINGE, tau)
    fns = []
    for i in range(int(rng.integers(1, 7))):
        a = int(rng.integers(d))
        b = partition.breakpoints[a]
        i0 = int(rng.integers(0, len(b) - 1))
        slab = (float(b[i0]), float(b[int(rng.integers(i0 + 1, len(b)))]))
        if rng.random() < 0.5:
            kind, v, c = TestFunctionKind.SLAB_INDICATOR, None, 0.0
        else:
            kind, v, c = TestFunctionKind.SLAB_AFFINE, rng.normal(0.0, 1.0, d), float(rng.normal())

        def record(name, sense, bound):
            return TestFunction(f"{name}_{i}", kind, a, slab, sense, bound, v=v, c=c)

        emp = empirical_integral(record("probe", Sense.UPPER, 0.0), data)
        slack = float(rng.choice([0.02, 0.1]))
        shape = rng.choice(["pair", "equal_pair", "upper", "lower", "equality", "duplicate"])
        if shape in ("pair", "duplicate"):
            fns += [record("hi", Sense.UPPER, emp + slack), record("lo", Sense.LOWER, emp - slack)]
        if shape == "equal_pair":
            fns += [record("lo", Sense.LOWER, emp), record("hi", Sense.UPPER, emp)]
        if shape == "upper":
            fns.append(record("hi", Sense.UPPER, emp + slack))
        if shape == "lower":
            fns.append(record("lo", Sense.LOWER, emp - slack))
        if shape == "equality":
            fns.append(record("eq", Sense.EQUALITY, emp))
        if shape == "duplicate":
            # a looser copy of one side, and a tighter one of the other
            fns.append(record("hi2", Sense.UPPER, emp + 2 * slack))
            fns.append(record("lo2", Sense.LOWER, emp - slack / 2))
        if rng.random() < 0.03:
            # lo > hi: no measure fits
            fns += [record("xhi", Sense.UPPER, emp - slack), record("xlo", Sense.LOWER, emp + slack)]
    rng.shuffle(fns)
    return partition, fns, risk


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ranged_master_agrees_with_highs_on_the_unmerged_master(seed):
    partition, fns, risk = _ranged_model(seed)
    got = solve_bound(partition, fns, risk)
    dual = got.dual
    status, ref = scipy_reference(_unmerged_master(dual))
    assert got.status == status
    if status != "optimal":
        assert got.multipliers is None
        return
    assert abs(got.bound - ref) <= 1e-7 * max(1.0, abs(ref)), (got.bound, ref)
    # each record of a pair has its own multiplier, >= 0, and at most
    # one of the two is nonzero
    y, z, z0 = got.multipliers
    paired = dual.row_lower >= 0
    hi, lo = y[dual.row_records[paired]], y[dual.row_lower[paired]]
    assert np.all(hi >= 0.0) and np.all(lo >= 0.0)
    assert not np.any((hi != 0.0) & (lo != 0.0))
    # the split multipliers certify the bound on the records' own rows
    rhs = np.array([rec[2] for rec in dual.records])
    value = np.concatenate([y, z]) @ rhs + z0
    assert abs(value - got.bound) <= 1e-9 * max(1.0, abs(got.bound)), (value, got.bound)


def test_master_rows_pair_two_sided_records_of_one_definition():
    # hi/lo on slab 0 pair, lo first; a second upper on slab 0 and a
    # lower with lo > hi on slab 1 stay rows of their own; the affine
    # upper differs from the affine lower in c, so they do not pair
    grid = [0.0, 0.5, 1.0]

    def ind(name, slab, sense, bound):
        return TestFunction(name, TestFunctionKind.SLAB_INDICATOR, 0, slab, sense, bound)

    def aff(name, sense, bound, c):
        return TestFunction(name, TestFunctionKind.SLAB_AFFINE, 0, (0.0, 1.0), sense, bound,
                            v=np.array([1.0]), c=c)

    fns = [ind("lo0", (0.0, 0.5), Sense.LOWER, 0.2), ind("hi0", (0.0, 0.5), Sense.UPPER, 0.7),
           ind("hi0b", (0.0, 0.5), Sense.UPPER, 0.9), ind("hi1", (0.5, 1.0), Sense.UPPER, 0.3),
           ind("lo1", (0.5, 1.0), Sense.LOWER, 0.4), aff("ahi", Sense.UPPER, 0.8, 0.0),
           aff("alo", Sense.LOWER, 0.1, 0.5), ind("eq", (0.0, 1.0), Sense.EQUALITY, 1.0)]
    dual = assemble_dual_lp(build_box_partition([grid], 0.75), fns, RiskFunctional(VAR, 0.75))
    ids = [rec[0].id for rec in dual.records]
    assert [ids[r] for r in dual.row_records] == ["hi0", "hi0b", "hi1", "lo1", "ahi", "alo", "eq"]
    assert [ids[r] if r >= 0 else None for r in dual.row_lower] == ["lo0"] + [None] * 6
    senses, rhs, ranges = dual.master_row_data()
    assert senses == ["<="] * 6 + ["="] * 2
    assert rhs.tolist() == [0.7, 0.9, 0.3, -0.4, 0.8, -0.1, 1.0, 1.0]
    assert ranges[0] == pytest.approx(0.5) and np.all(np.isinf(ranges[1:]))
