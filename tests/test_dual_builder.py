"""Per-cell reductions, the assembled dual, and the transposed master.

The three reduction routes (explicit multipliers, precomputed
multipliers, vertex rows) describe the same feasible set on their
common domain, so every route must land on the same optimum.  That
equivalence, checked on randomized instances, is the main guard
against sign mistakes in any one route.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdual import (
    CapacityError,
    Cell,
    InputError,
    LPStatus,
    LinearProgram,
    ModelInfeasibleOnCell,
    PartitionIncompatibleError,
    ReductionMode,
    RiskFunctional,
    RiskKind,
    Sense,
    TestFunction,
    TestFunctionKind,
    UnsupportedCellError,
    assemble_dual_lp,
    build_box_partition,
    cell_vertices,
    maximize_linear_over_cell,
    precompute_cell_lambda,
    restrict_to_cell,
    solve_bound,
    solve_dcg,
    solve_dense_simplex,
)
from riskdual.dual_builder import CONST_TOL, _point_rows, _signed_restrictions
from riskdual.geometry import VERTEX_TOL, partition_rays, partition_vertices

from conftest import random_instance, scipy_reference, two_point_model

ALL_MODES = (
    ReductionMode.EXPLICIT,
    ReductionMode.LAMBDA_ELIMINATED,
    ReductionMode.VERTEX,
)


def _solve(dual, budget=20_000):
    sol = solve_dense_simplex(dual.materialize(budget), budget=budget)
    assert sol.status is LPStatus.OPTIMAL
    return sol.objective


# -- the two-atom example --
#
# On {0, 1} with E[1 + x] pinned to b, the only measure puts mass
# 2 - b at 0 and b - 1 at 1, so the tail probability at 1 is b - 1.


@pytest.mark.parametrize("mode", ALL_MODES)
def test_two_point_example(mode):
    inst = two_point_model(14.0 / 9.0)
    assert _solve(inst.dual(mode)) == pytest.approx(5.0 / 9.0, abs=1e-12)


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
    lam, C = precompute_cell_lambda(cell, np.array([1.0, 1.0]))
    # support of <g, x> on the box is 4, reached at the top corner
    assert C == pytest.approx(-4.0, abs=1e-12)
    F = np.array([h.normal for h in cell.halfspaces])
    ell = np.array([h.bound for h in cell.halfspaces])
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
    lam, C = precompute_cell_lambda(cell, g)

    # the same multiplier program, handed to the simplex directly
    F = np.array([h.normal for h in cell.halfspaces])
    ell = np.array([h.bound for h in cell.halfspaces])
    lp = LinearProgram("max", ell, F.T, ["="] * d, -g, name="lambda_direct")
    sol = solve_dense_simplex(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert C == pytest.approx(sol.objective, abs=1e-9)
    assert lam.shape == (len(cell.halfspaces),)


def test_precompute_lambda_unbounded_gradient():
    ray = Cell([0.0], [np.inf])
    with pytest.raises(ModelInfeasibleOnCell):
        precompute_cell_lambda(ray, np.array([1.0]))
    # the matching multiplier program has no feasible lam either
    F = np.array([h.normal for h in ray.halfspaces])
    ell = np.array([h.bound for h in ray.halfspaces])
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
    dual = assemble_dual_lp(part, fns, risk, ReductionMode.EXPLICIT)
    cell = part.cell_at(0)
    base, lam, senses, rhs = dual.cell_rows(cell)
    # one equality per coordinate plus the constant row
    assert senses == ["="] * cell.dimension + [">="]
    assert base.shape == (cell.dimension + 1, len(dual.records) + 1)
    assert lam.shape == (cell.dimension + 1, len(cell.halfspaces))
    assert base[-1, -1] == 1.0
    assert sorted(lam[-1]) == sorted(h.bound for h in cell.halfspaces)
    g, e = restrict_to_cell(risk, cell)
    assert rhs[-1] == e
    assert rhs[0] == g[0]


def test_vertex_block_matches_vertices():
    part, fns, risk = _simple_setup()
    dual = assemble_dual_lp(part, fns, risk, ReductionMode.VERTEX)
    cell = part.cell_at(0)
    base, lam, senses, rhs = dual.cell_rows(cell)
    verts = cell_vertices(cell)
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
        if cell.degenerate or not dual.eliminable[cell.id]:
            continue
        base, lam, senses, rhs = dual.cell_rows(cell)
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
    assert [len(cell.halfspaces) for cell in cells] == [3, 2, 3]

    lp = assemble_dual_lp(part, fns, risk, ReductionMode.EXPLICIT).materialize()
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
        lp = assemble_dual_lp(part, fns, risk, mode).materialize()
        assert lp.dense_matrix().tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert list(lp.row_senses) == [">=", ">="]
        assert lp.rhs.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("seed", range(10))
def test_reduction_modes_agree(seed):
    inst = random_instance(seed, affine=True, equality=True)
    values = [_solve(inst.dual(mode)) for mode in ALL_MODES]
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
    master = solve_dense_simplex(dual.master_lp(20_000), budget=20_000)
    assert master.status is LPStatus.OPTIMAL
    assert master.objective == pytest.approx(row_value, abs=1e-8)


@pytest.mark.parametrize("seed", range(18, 26))
def test_column_generation_agrees_with_single_shot(seed):
    inst = random_instance(seed)
    dual = inst.dual()
    single = solve_dense_simplex(dual.master_lp(20_000), budget=20_000)
    seed_lp, gen = dual.master_seed()
    dcg = solve_dcg(seed_lp, gen)
    assert dcg.status is LPStatus.OPTIMAL
    assert dcg.certified
    assert dcg.objective == pytest.approx(single.objective, abs=1e-9)


def test_generated_columns_match_the_materialized_master():
    inst = random_instance(42, d=2, m=4)
    dual = inst.dual()
    lp = dual.master_lp(20_000)
    gen = dual.master_generator()
    dense = lp.dense_matrix()
    for pos in range(gen.count):
        cols, objs = gen.column_at(np.array([pos]))
        assert np.allclose(cols[:, 0], dense[:, pos], atol=1e-12)
        assert objs[0] == pytest.approx(float(lp.c[pos]), abs=1e-12)


def test_vectorized_pricing_matches_per_column_scores():
    inst = random_instance(43, d=2, m=4)
    gen = inst.dual().master_generator()
    rng = np.random.default_rng(0)
    n_rows = len(inst.dual().master_row_data()[1])
    duals = rng.normal(0, 1, n_rows)
    for use_obj in (True, False):
        fast = gen.reduced_costs(duals, use_objective=use_obj)
        slow = np.empty(gen.count)
        for pos in range(gen.count):
            cols, objs = gen.column_at(np.array([pos]))
            score = float(duals @ cols[:, 0])
            slow[pos] = score - objs[0] if use_obj else -score
        assert np.allclose(fast, slow, atol=1e-10)


def test_master_seed_covers_every_record_row():
    inst = random_instance(44, d=2, m=4)
    dual = inst.dual()
    seed_lp, _gen = dual.master_seed()
    M = seed_lp.dense_matrix()
    # each record row needs at least one seeded column touching it,
    # otherwise phase one starts from scratch on that row
    touched = np.any(M != 0.0, axis=1)
    assert np.all(touched[: len(dual.records)])


def test_corner_cell_covers_threshold_at_the_top():
    # sum can reach tau only at the single top corner
    part = build_box_partition([np.array([0.0, 1.0])] * 2, 2.0)
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 2.0)
    dual = assemble_dual_lp(part, [], risk)
    assert dual.corner_cell is not None
    assert not part.has_above_cells()
    assert _solve(dual) == pytest.approx(1.0)  # point mass at the corner


def test_no_corner_when_threshold_is_unreachable():
    part = build_box_partition([np.array([0.0, 1.0])] * 2, 2.5)
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 2.5)
    dual = assemble_dual_lp(part, [], risk)
    assert dual.corner_cell is None
    assert _solve(dual) == pytest.approx(0.0)


def test_shortfall_with_unbounded_domain_is_flagged():
    # cells: [0, 0.5] and [0.5, 1] (the halves of [0, 1]), then [1, inf)
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 0.5)
    risk = RiskFunctional(RiskKind.CVAR_HINGE, 0.5)
    dual = assemble_dual_lp(part, [], risk)
    # the hinge has no maximum on the tail cell, so it does not collapse:
    # its vertex 1 and its ray e_0 are master columns; the ray's objective
    # is the hinge's slope along it
    assert dual.eliminable.tolist() == [True, True, False]
    entries = dual.scan_entries()
    assert entries.cell.tolist() == [1, 2, 2, 0]
    assert entries.ray.tolist() == [False, False, True, False]
    assert entries.points[entries.vertex[1:3]].tolist() == [[1.0], [1.0]]
    assert entries.objective[1:3].tolist() == [0.5, 1.0]
    res = solve_bound(part, [], risk)
    assert (res.status, res.engine) == ("unbounded", "dcg")
    # under VaR every cell collapses
    var_dual = assemble_dual_lp(part, [], RiskFunctional(RiskKind.VAR_INDICATOR, 0.5))
    assert np.all(var_dual.eliminable)
    # a moment record on the tail keeps its cell out of the collapse too
    tail = TestFunction("tail_m", TestFunctionKind.SLAB_AFFINE, 0, (1.0, np.inf),
                        Sense.UPPER, 0.5, v=np.array([1.0]), c=0.0)
    dual = assemble_dual_lp(part, [tail], RiskFunctional(RiskKind.VAR_INDICATOR, 0.5))
    assert dual.eliminable.tolist() == [True, True, False]


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


def test_assemble_validation():
    part, fns, risk = _simple_setup()
    with pytest.raises(InputError):
        assemble_dual_lp(part, fns, risk, mode="explicit")
    with pytest.raises(InputError):
        assemble_dual_lp(part, fns, RiskFunctional(RiskKind.VAR_INDICATOR, np.inf))
    with pytest.raises(InputError):
        # partition sliced elsewhere
        other = build_box_partition([np.array([0.0, 0.5, 1.0])], 0.25)
        assemble_dual_lp(other, fns, risk)
    with pytest.raises(InputError):
        unsliced = build_box_partition([np.array([0.0, 0.5, 1.0])])
        assemble_dual_lp(unsliced, fns, risk)
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
        # on the grid within GRID_TOL, but a cell straddles it at EVAL_TOL
        near_grid = [
            TestFunction(
                "f", TestFunctionKind.SLAB_INDICATOR, 0, (0.0, 0.5 + 1e-10), Sense.UPPER, 1.0
            )
        ]
        assemble_dual_lp(part, near_grid, risk)


def test_vertex_mode_rejects_unbounded_cells():
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 0.5)
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 0.5)
    dual = assemble_dual_lp(part, [], risk, ReductionMode.VERTEX)
    with pytest.raises(Exception):
        dual.materialize()


def test_materialize_budget():
    inst = random_instance(3, d=2, m=4)
    with pytest.raises(CapacityError):
        inst.dual().materialize(4)
    with pytest.raises(CapacityError):
        inst.dual().master_lp(4)


def test_scan_order_prefers_cells_past_the_threshold():
    inst = random_instance(21, d=2, m=4, risk_kind=RiskKind.VAR_INDICATOR)
    dual = inst.dual()
    _grid, _flag, side, _mins, _maxs = inst.partition.ref_arrays()
    order = dual.scan_order
    first_below = np.argmax(side[order] < 0)
    # all cells past the threshold come before the first below cell
    assert np.all(side[order[:first_below]] > 0)


# -- the array column source against the per-cell restriction route --


@st.composite
def axis_breakpoints(draw, max_ticks=4):
    # quarter-grid values make corner sums land exactly on tau; a sliver
    # slab of width near VERTEX_TOL exercises the vertex deduplication
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
    start, points = partition_vertices(partition, idx)
    for j, i in enumerate(idx):
        ref = np.array(cell_vertices(partition.cell_at(i)))
        got = points[start[j] : start[j + 1]]
        assert got.shape == ref.shape
        # distinct vertices lie more than VERTEX_TOL apart, so equal
        # values position by position also means equal order
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def brute_force_vertices_and_rays(cell):
    """Vertices and extreme rays of a cell from its halfspaces alone:
    every n tight halfspaces with a unique solution that meets the rest,
    every n - 1 with a one-dimensional solution set whose direction
    meets the recession cone.  Rays are scaled to a largest entry of 1."""
    F = np.array([h.normal for h in cell.halfspaces]).reshape(-1, cell.dimension)
    ell = np.array([h.bound for h in cell.halfspaces])
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
    vstart, points = partition_vertices(partition, idx)
    rstart, rays = partition_rays(partition, idx)
    for i in idx:
        cell = partition.cell_at(int(i))
        section, lines = line_section(cell)
        verts, ref_rays = brute_force_vertices_and_rays(section)
        got = points[vstart[i] : vstart[i + 1]]
        if cell.bounded:
            np.testing.assert_allclose(got, cell_vertices(cell), rtol=0, atol=1e-12)
        # each table vertex is a vertex; each vertex lies within the
        # deduplication tolerance of one in the table
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
            F = np.array([h.normal for h in cell.halfspaces])
            assert np.all(F @ table.T >= -1e-12)
        else:
            # a cell with no line: the table holds its extreme rays only
            assert len(table) == len(ref_rays)


def test_unsliced_line_cell_has_no_vertex_table():
    partition = build_box_partition([np.array([-np.inf, np.inf]), np.array([0.0, 1.0])])
    with pytest.raises(UnsupportedCellError, match="contains a line"):
        partition_vertices(partition, [0])


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


def _restricted_entries(dual):
    """Scan entries rebuilt cell by cell through restrict_to_cell:
    (cell, point or ray or None, is a ray, column, objective).  An
    unbounded cell reads its vertices and rays off the entry table,
    which test_vertex_and_ray_table_matches_brute_force checks."""
    entries = dual.scan_entries()
    out = []
    corner = dual.corner_cell
    if corner is not None:
        (vals,), (obj,) = _point_rows(dual.records, dual.riskfn, corner, [corner.lows])
        out.append((-1, corner.lows, False, vals, obj))
    for i in dual.scan_order:
        cell = dual.partition.cell_at(int(i))
        V, cvec = _signed_restrictions(dual.records, cell)
        g, e = restrict_to_cell(dual.riskfn, cell)
        # a cell collapses when every record is constant on it and the
        # risk has a finite maximum there
        top, _x, _lam = maximize_linear_over_cell(cell, g)
        constant = np.max(np.abs(V), initial=0.0) <= CONST_TOL
        assert dual.eliminable[i] == (constant and np.isfinite(top))
        if dual.eliminable[i]:
            _lam, support = precompute_cell_lambda(cell, g)
            out.append((int(i), None, False, np.append(cvec, 1.0), float(e - support)))
            continue
        if cell.bounded:
            verts, rays = cell_vertices(cell), []
        else:
            rows = entries.vertex[entries.cell == i]
            is_ray = entries.ray[entries.cell == i]
            verts, rays = entries.points[rows[~is_ray]], entries.points[rows[is_ray]]
        vals, objs = _point_rows(dual.records, dual.riskfn, cell, verts)
        for q, row, obj in zip(verts, vals, objs):
            out.append((int(i), q, False, row, obj))
        for r in rays:
            out.append((int(i), r, True, np.append(V @ r, 0.0), float(g @ r)))
    return out


@settings(max_examples=80, deadline=None)
@given(column_models())
def test_column_source_matches_the_restriction_route(dual):
    ref = _restricted_entries(dual)
    entries = dual.scan_entries()
    gen = dual.master_generator()
    master = dual.master_lp(100_000)
    M = master.dense_matrix()
    assert entries.count == gen.count == len(ref)
    assert entries.cell.tolist() == [cell for cell, _q, _ray, _vals, _obj in ref]
    assert entries.ray.tolist() == [ray for _cell, _q, ray, _vals, _obj in ref]
    duals = np.random.default_rng(0).normal(0.0, 1.0, len(dual.records) + 1)
    rc = gen.reduced_costs(duals, use_objective=True)
    for pos, (_cell, q, _ray, vals, obj) in enumerate(ref):
        if q is None:
            assert entries.vertex[pos] == -1
        else:
            np.testing.assert_allclose(entries.points[entries.vertex[pos]], q, rtol=0, atol=1e-12)
        cols, col_objs = gen.column_at(np.array([pos]))
        col, col_obj = cols[:, 0], col_objs[0]
        np.testing.assert_allclose(col, vals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(M[:, pos], vals, rtol=0, atol=1e-12)
        assert col_obj == pytest.approx(obj, rel=0, abs=1e-12)
        assert master.c[pos] == pytest.approx(obj, rel=0, abs=1e-12)
        assert rc[pos] == pytest.approx(duals @ vals - obj, rel=0, abs=1e-10)


# -- solve_bound against HiGHS --


def _highs_bound(partition, testfns, risk):
    """Reference (status, bound) from scipy's HiGHS: the full master when
    every cell is bounded, else the explicit row dual.  An infeasible
    row dual means +inf if a measure fits, which the VaR row dual tells
    (it is always feasible: z0 = 1 dominates the indicator)."""
    if all(np.all(np.isfinite(b)) for b in partition.breakpoints):
        return scipy_reference(assemble_dual_lp(partition, testfns, risk).master_lp())

    def rows(riskfn):
        dual = assemble_dual_lp(partition, testfns, riskfn, ReductionMode.EXPLICIT)
        return scipy_reference(dual.materialize())

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
