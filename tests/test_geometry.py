"""Cells, slicing, vertex enumeration and the linear support routine."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskdual import (
    CapacityError,
    Cell,
    InputError,
    SideOfTau,
    build_box_partition,
    cell_vertices,
    maximize_linear_over_cell,
)
from riskdual.errors import UnsupportedCellError
from riskdual.geometry import STRADDLE_TOL, VERTEX_TOL, slot_vertices

from conftest import (
    contains,
    greedy_cell_vertices,
    reference_box_partition,
    reference_cell_vertices,
    reference_maximize_linear_over_cell,
)

UNIT = np.array([0.0, 1.0])
HALVES = np.array([0.0, 0.5, 1.0])


def test_two_axis_partition_layout():
    # 2x2 grid cut by x+y = 1: the two off-diagonal boxes straddle,
    # the low box stays below, the high box touches only at its corner
    part = build_box_partition([HALVES, HALVES], 1.0)
    assert part.cell_count == 6
    grid, flag, side, mins, maxs = part.ref_arrays()
    assert int(np.sum(flag == 0)) == 2
    assert int(np.sum(flag == -1)) == 2
    assert int(np.sum(flag == 1)) == 2
    assert int(np.sum(side > 0)) == 3
    assert int(np.sum(side < 0)) == 3
    # sliced halves carry clipped sum ranges
    assert np.all(maxs[flag == -1] == 1.0)
    assert np.all(mins[flag == 1] == 1.0)
    assert part.max_total_sum == 2.0
    assert part.has_above_cells()
    # grid order, a straddling box in two consecutive slots, below first
    assert grid.tolist() == [[0, 0], [0, 1], [0, 1], [1, 0], [1, 0], [1, 1]]
    assert flag.tolist() == [0, -1, 1, -1, 1, 0]
    assert side.tolist() == [-1, -1, 1, -1, 1, 1]
    assert mins.tolist() == [0.0, 0.5, 1.0, 0.5, 1.0, 1.0]
    assert maxs.tolist() == [1.0, 1.0, 1.5, 1.0, 1.5, 2.0]


def test_sliced_cell_vertices_triangle_piece():
    part = build_box_partition([HALVES, HALVES], 1.0)
    grid, flag, _side, _min, _max = part.ref_arrays()
    (below,) = np.nonzero((grid == [0, 1]).all(axis=1) & (flag == -1))[0]
    got = sorted(map(tuple, cell_vertices(part.cell_at(int(below)))))
    want = [(0.0, 0.5), (0.0, 1.0), (0.5, 0.5)]
    assert np.allclose(got, want, atol=1e-12)


def test_sliced_unit_square_halves():
    lo = Cell([0.0, 0.0], [1.0, 1.0], slice_sign=-1, tau=1.0)
    hi = Cell([0.0, 0.0], [1.0, 1.0], slice_sign=1, tau=1.0)
    assert sorted(map(tuple, cell_vertices(lo))) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert sorted(map(tuple, cell_vertices(hi))) == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_box_vertices_are_the_corners():
    cell = Cell([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    verts = cell_vertices(cell)
    assert len(verts) == 8
    sums = sorted(float(v.sum()) for v in verts)
    assert sums[0] == 0.0 and sums[-1] == 6.0


# widths: zero, below and near VERTEX_TOL, and ordinary
WIDTHS = st.one_of(st.sampled_from([0.0, 1e-10, 5e-10, 1e-9, 2e-9]), st.floats(0.01, 3.0))
# tau offsets from a corner sum, within and around VERTEX_TOL
NEAR = [0.0, 1e-12, -1e-12, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]


@st.composite
def adhoc_cells(draw):
    """Cells built directly, not from a partition: zero-width and sliver
    axes, slices with tau on or within 2e-9 of a corner sum, slices past
    either end of the box (no vertex), and sometimes an infinite end."""
    d = draw(st.integers(1, 4))
    lows = np.array([draw(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0])) for _ in range(d)])
    lows = lows + np.array([draw(st.floats(-1.0, 1.0)) * draw(st.sampled_from([0, 1]))
                            for _ in range(d)])
    highs = lows + np.array([draw(WIDTHS) for _ in range(d)])
    sign = draw(st.sampled_from([0, 1, -1]))
    tau = None
    if sign:
        ends = np.where([draw(st.booleans()) for _ in range(d)], highs, lows)
        where = draw(st.sampled_from(["corner", "inside", "below", "above"]))
        if where == "corner":
            tau = float(sum(ends)) + draw(st.sampled_from(NEAR))
        elif where == "inside":
            tau = float(np.sum(lows) + draw(st.floats(0.0, 1.0)) * np.sum(highs - lows))
        else:
            tau = float(np.sum(lows) - 1.0 if where == "below" else np.sum(highs) + 1.0)
    if draw(st.integers(0, 5)) == 0:
        a = draw(st.integers(0, d - 1))
        if draw(st.booleans()):
            lows[a] = -np.inf
        else:
            highs[a] = np.inf
    return Cell(lows, highs, slice_sign=sign, tau=tau, cell_id=draw(st.integers(0, 99)),
                degenerate=True)


@settings(max_examples=400, deadline=None)
@given(adhoc_cells())
def test_cell_vertices_match_the_reference_enumerator(cell):
    try:
        ref = np.array(reference_cell_vertices(cell))
    except UnsupportedCellError as exc:
        with pytest.raises(UnsupportedCellError) as got:
            cell_vertices(cell)
        assert str(got.value) == str(exc)
        return
    got = cell_vertices(cell)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


@settings(max_examples=400, deadline=None)
@given(adhoc_cells())
def test_cell_vertices_keep_every_vertex_of_the_greedy_merge(cell):
    # the greedy merge kept one of each chain of near candidates; the
    # kernel keeps kept corners and straddling crossings, with no merge
    if not cell.bounded:
        return
    try:
        old = np.array(greedy_cell_vertices(cell))
    except UnsupportedCellError:
        with pytest.raises(UnsupportedCellError):
            cell_vertices(cell)
        return
    new = cell_vertices(cell)
    dist = np.max(np.abs(old[:, None, :] - new[None, :, :]), axis=-1)
    assert np.all(dist.min(axis=1) <= VERTEX_TOL + 1e-12)
    assert np.all(dist.min(axis=0) <= VERTEX_TOL + 1e-12)


def test_cut_cells_with_cuts_on_slab_ends_keep_distinct_vertices():
    # tau * m = 12 on a grid of fifths: up to rounding, the hyperplane
    # passes through corners and crosses edges at their ends
    d, m = 4, 5
    partition = build_box_partition([np.linspace(0.0, 1.0, m + 1)] * d, 0.60 * d)
    grid, flag, _side, _min, _max = partition.ref_arrays()
    ids = np.flatnonzero(flag != 0)
    assert ids.size == 400
    start, points = slot_vertices(partition, grid[ids], flag[ids], ids)
    for j, i in enumerate(ids):
        got = points[start[j] : start[j + 1]]
        assert np.array_equal(got, np.array(reference_cell_vertices(partition.cell_at(int(i)))))
        dist = np.max(np.abs(got[:, None, :] - got[None, :, :]), axis=-1)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > VERTEX_TOL


@pytest.mark.parametrize("lows, highs, degenerate", [
    ([np.inf], [np.inf], False),
    ([-np.inf], [-np.inf], False),
    ([np.inf], [np.inf], True),
    ([-np.inf], [-np.inf], True),
    ([0.0, np.inf], [1.0, np.inf], True),
    ([np.nan], [1.0], True),
])
def test_cell_bounds_are_compared_not_differenced(lows, highs, degenerate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            Cell(lows, highs, degenerate=degenerate)
        # a zero-width axis beside an open one is still a cell
        Cell([0.0, 0.0], [0.0, np.inf], degenerate=True)


def test_degenerate_cell_point():
    corner = Cell([1.0, 1.0], [1.0, 1.0], degenerate=True)
    assert contains(corner, [1.0, 1.0])
    verts = cell_vertices(corner)
    assert len(verts) == 1
    assert np.allclose(verts[0], [1.0, 1.0])
    with pytest.raises(InputError):
        Cell([1.0, 1.0], [1.0, 1.0])


def test_cell_constructor_validation():
    with pytest.raises(InputError):
        Cell([0.0], [1.0, 2.0])
    with pytest.raises(InputError):
        Cell([0.0], [1.0], slice_sign=2)
    with pytest.raises(InputError):
        Cell([0.0], [1.0], slice_sign=1)  # sliced needs tau


def test_halfspaces_are_the_finite_bounds_then_the_slice():
    cell = Cell([0.0, -np.inf], [1.0, 2.0], slice_sign=-1, tau=1.5)
    # x0 >= 0, -x0 >= -1, then -x1 >= -2 (the -inf lower bound
    # contributes no halfspace), then -x0 - x1 >= -1.5
    F, ell = cell.halfspaces
    assert F.tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]]
    assert ell.tolist() == [0.0, -1.0, -2.0, -1.5]


def test_breakpoint_validation():
    with pytest.raises(InputError):
        build_box_partition([], 0.5)
    with pytest.raises(InputError):
        build_box_partition([np.array([0.0])], 0.5)
    with pytest.raises(InputError):
        build_box_partition([np.array([0.0, 0.0, 1.0])], 0.5)
    with pytest.raises(InputError):
        build_box_partition([np.array([0.0, np.inf, 1.0])], 0.5)
    with pytest.raises(InputError):
        build_box_partition([np.array([np.nan, 1.0])], 0.5)
    # a whole-line axis is sliced only at a finite threshold
    for tau in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="threshold must be finite"):
            build_box_partition([np.array([-np.inf, np.inf])], tau)


def test_cell_budget_is_checked_before_allocation():
    bp = [np.linspace(0.0, 1.0, 101)] * 3
    with pytest.raises(CapacityError):
        build_box_partition(bp, 1.5, cell_budget=10_000)
    # slicing can push a fitting grid over the budget
    with pytest.raises(CapacityError):
        build_box_partition([HALVES, HALVES], 1.0, cell_budget=5)


def test_cell_at_checks_range():
    part = build_box_partition([HALVES], 0.25)
    with pytest.raises(InputError):
        part.cell_at(part.cell_count)


def test_ref_arrays_match_materialized_cells():
    part = build_box_partition([HALVES, np.array([0.0, 0.3, 1.0])], 0.9)
    _grid, flag, side, mins, maxs = part.ref_arrays()
    for i in range(part.cell_count):
        cell = part.cell_at(i)
        assert cell.id == i
        assert cell.slice_sign == int(flag[i])
        want_side = SideOfTau.ABOVE if side[i] > 0 else SideOfTau.BELOW
        assert cell.side_of_tau is want_side
        lo_sum = float(cell.lows.sum())
        hi_sum = float(cell.highs.sum())
        if cell.slice_sign == -1:
            hi_sum = part.tau
        elif cell.slice_sign == 1:
            lo_sum = part.tau
        assert mins[i] == pytest.approx(lo_sum)
        assert maxs[i] == pytest.approx(hi_sum)


def test_grid_scale_counts():
    # 16^3 boxes, threshold at 0.62 * 3; this size shows up again in
    # the timing comparison
    part = build_box_partition([np.linspace(0.0, 1.0, 17)] * 3, 1.86)
    assert part.cell_count == 4580
    part4 = build_box_partition([np.linspace(0.0, 1.0, 9)] * 4, 2.48)
    assert part4.cell_count == 5145


@st.composite
def partition_inputs(draw):
    """Breakpoints of one to four axes of one to four slabs, eighths
    (so grid sums tie) or any floats, with open first or last ends; a
    threshold on a grid sum, within a few STRADDLE_TOL of one, or
    anywhere; and a cell budget near the grid's cell count, or none."""
    d = draw(st.integers(1, 4))
    eighths = st.integers(-16, 16).map(lambda k: k / 8)
    bps = []
    for _ in range(d):
        ticks = draw(st.lists(st.one_of(eighths, st.floats(-2, 2)), min_size=1, max_size=5,
                              unique=True))
        ends = draw(st.sampled_from(["none", "low", "high", "both"]))
        b = sorted(ticks)
        if ends in ("low", "both"):
            b.insert(0, -np.inf)
        if ends in ("high", "both"):
            b.append(np.inf)
        if len(b) < 2:
            b.append(b[-1] + 1.0)
        bps.append(np.array(b))
    if draw(st.booleans()):
        # a grid sum, added in axis order from 0.0 as the partition adds
        ends = [draw(st.sampled_from(b[np.isfinite(b)].tolist())) for b in bps]
        tau = 0.0
        for v in ends:
            tau = tau + v
        tau += draw(st.sampled_from([0.0, 1, -1, 0.5, -0.5, 1.5, -1.5])) * STRADDLE_TOL
    else:
        tau = draw(st.floats(-8, 8))
    k0 = int(np.prod([len(b) - 1 for b in bps]))
    budget = draw(st.one_of(st.none(), st.integers(max(1, k0 - 2), 2 * k0 + 2)))
    return bps, tau, budget


def _built(build, bps, tau, budget):
    kwargs = {} if budget is None else {"cell_budget": budget}
    try:
        return build(bps, tau, **kwargs), None
    except CapacityError as exc:
        return None, str(exc)


@settings(max_examples=150, deadline=None)
@given(partition_inputs())
def test_partition_matches_the_per_slot_reference_bitwise(inputs):
    bps, tau, budget = inputs
    part, err = _built(build_box_partition, bps, tau, budget)
    ref, ref_err = _built(reference_box_partition, bps, tau, budget)
    assert err == ref_err
    if ref is None:
        return
    grid, flag, side, mins, maxs = ref
    assert part.cell_count == len(flag)
    for got, want in zip(part.ref_arrays(), ref):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert part.has_above_cells() == bool(np.any(side > 0))
    for i in range(part.cell_count):
        cell = part.cell_at(i)
        assert cell.id == i
        assert cell.lows.tobytes() == np.array([b[g] for b, g in zip(bps, grid[i])]).tobytes()
        assert cell.highs.tobytes() == np.array([b[g + 1] for b, g in zip(bps, grid[i])]).tobytes()
        assert cell.slice_sign == flag[i]
        assert cell.side_of_tau is (SideOfTau.ABOVE if side[i] > 0 else SideOfTau.BELOW)
        assert cell.slabs.tolist() == grid[i].tolist()
    # any slots in any order, and every slot block by block
    idx = np.random.default_rng(0).integers(0, part.cell_count, 2 * part.cell_count)
    got = part.slots(idx)
    assert [x.tolist() for x in got] == [grid[idx].tolist(), flag[idx].tolist(), side[idx].tolist()]
    blocks = list(part.slot_blocks())
    assert [first for first, *_ in blocks] == np.cumsum([0] + [len(f) for _, _, f, _ in blocks[:-1]]).tolist()
    assert np.concatenate([g for _, g, _, _ in blocks]).tolist() == grid.tolist()
    assert [c.id for c in part.cells(True)] == np.flatnonzero(side > 0).tolist()
    assert [c.id for c in part.cells(False)] == np.flatnonzero(side < 0).tolist()


@st.composite
def cells_and_gradients(draw):
    d = draw(st.integers(1, 3))
    lows = np.array([draw(st.floats(-5, 5)) for _ in range(d)])
    widths = np.array([draw(st.floats(0.1, 4)) for _ in range(d)])
    highs = lows + widths
    slice_sign = draw(st.sampled_from([0, 1, -1]))
    tau = None
    if slice_sign != 0:
        frac = draw(st.floats(0.05, 0.95))
        tau = float(lows.sum() + frac * widths.sum())
    g = np.array([draw(st.floats(-3, 3)) for _ in range(d)])
    return Cell(lows, highs, slice_sign=slice_sign, tau=tau), g


@settings(max_examples=80, deadline=None)
@given(cells_and_gradients())
def test_linear_support_matches_vertex_max(cg):
    cell, g = cg
    val, x, lam = maximize_linear_over_cell(cell, g)
    verts = cell_vertices(cell)
    best = max(float(v @ g) for v in verts)
    scale = max(1.0, abs(best))
    assert abs(val - best) <= 1e-9 * scale
    assert contains(cell, x)
    # multiplier certificate: nonnegative, reproduces -g, prices the bounds
    F, ell = cell.halfspaces
    assert np.all(lam >= -1e-12)
    assert np.allclose(F.T @ lam, -g, atol=1e-9)
    assert abs(lam @ ell + val) <= 1e-8 * scale


def test_linear_support_unbounded_direction():
    ray = Cell([0.0], [np.inf])
    val, x, lam = maximize_linear_over_cell(ray, np.array([1.0]))
    assert val == np.inf and x is None and lam is None
    val, x, lam = maximize_linear_over_cell(ray, np.array([-1.0]))
    assert val == 0.0
    assert x == pytest.approx([0.0])
    assert lam == pytest.approx([1.0])


def test_linear_support_on_sliced_unbounded_cell():
    # above half of a quadrant: minimizing the sum pins x to the slice
    cell = Cell([0.0, 0.0], [np.inf, np.inf], slice_sign=1, tau=2.0)
    val, x, _lam = maximize_linear_over_cell(cell, np.array([-1.0, -1.0]))
    assert val == pytest.approx(-2.0, abs=1e-12)
    assert x.sum() == pytest.approx(2.0, abs=1e-12)
    val, _, _ = maximize_linear_over_cell(cell, np.array([1.0, -1.0]))
    assert val == np.inf


INF = np.inf


@pytest.mark.parametrize("lows,highs,sign,tau,g,value", [
    # a zero slope on an axis with an infinite end, slice kept below
    ([0.0, 0.0], [INF, 1.0], -1, 2.0, [0.0, 1.0], 1.0),
    # ... and on an axis that runs down to -inf, slice kept above
    ([-INF, 0.0], [0.0, 1.0], 1, -1.0, [0.0, -1.0], 0.0),
    # the zero-slope axis chases the slice out along its open end
    ([0.0, 0.0], [INF, INF], 1, 2.0, [-1.0, 0.0], 0.0),
    ([0.0, -INF], [1.0, 0.0], 0, None, [1.0, 0.0], 1.0),
])
def test_linear_support_with_zero_slopes_on_unbounded_cells(lows, highs, sign, tau, g, value):
    cell = Cell(lows, highs, slice_sign=sign, tau=tau)
    g = np.array(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, x, lam = maximize_linear_over_cell(cell, g)
    assert val == pytest.approx(value, abs=1e-12)
    assert np.all(np.isfinite(x)) and contains(cell, x)
    F, ell = cell.halfspaces
    assert np.all(lam >= 0.0)
    assert np.allclose(F.T @ lam, -g, atol=1e-12)
    assert lam @ ell == pytest.approx(-val, abs=1e-12)


@st.composite
def open_cells_and_gradients(draw):
    """Cells whose axes are finite, open at one end or the whole line,
    with tau on an integer sum of finite ends or anywhere, and integer
    gradients (ties and zeros) or normal ones."""
    d = draw(st.integers(1, 4))
    lows, highs = [], []
    for _ in range(d):
        lo = draw(st.integers(-3, 3)) + draw(st.sampled_from([0.0, 0.25, -0.3]))
        hi = lo + draw(st.sampled_from([1.0, 2.0, 0.5, 3.7]))
        kind = draw(st.sampled_from(["finite", "finite", "down", "up", "line"]))
        lows.append(-np.inf if kind in ("down", "line") else lo)
        highs.append(np.inf if kind in ("up", "line") else hi)
    sign = draw(st.sampled_from([0, 1, -1]))
    tau = None
    if sign != 0:
        ends = [draw(st.sampled_from([e for e in (lo, hi) if np.isfinite(e)] or [0.0]))
                for lo, hi in zip(lows, highs)]
        tau = draw(st.one_of(st.just(float(np.sum(np.round(ends)))), st.floats(-8, 8)))
    if draw(st.booleans()):
        g = np.array([draw(st.integers(-2, 2)) for _ in range(d)], dtype=float)
    else:
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=d)
    return Cell(lows, highs, slice_sign=sign, tau=tau), g


def _outcome(solver, cell, g):
    with np.errstate(all="raise"):
        try:
            return solver(cell, g), None
        except Exception as exc:  # the error type is part of the outcome
            return None, type(exc)


@settings(max_examples=300, deadline=None)
@given(open_cells_and_gradients())
# the kinks at gamma = 4.25e-110 and 1 tie in floating point; the first
# is the one whose maximizer reaches the slice
@example((Cell([0.0] * 3, [1.0] * 3, slice_sign=1, tau=1.5), np.array([1.0, -1.0, -4.25e-110])))
# slices that miss the box by exactly 1e-12 touch it, in both solvers
@example((Cell([0.0, 0.0, -np.inf], [1.0, 0.5, -1.5], slice_sign=1, tau=1e-12),
          np.array([0.126, -0.132, 0.640])))
@example((Cell([0.0], [np.inf], slice_sign=-1, tau=-1e-12), np.array([0.12573022])))
def test_kink_scan_matches_the_reference_solver(cg):
    cell, g = cg
    got, err = _outcome(maximize_linear_over_cell, cell, g)
    want, want_err = _outcome(reference_maximize_linear_over_cell, cell, g)
    assert err is want_err
    if err is not None:
        return
    val, x, lam = got
    assert np.isinf(val) == np.isinf(want[0])
    if np.isinf(val):
        assert val > 0 and x is None and lam is None
        return
    scale = max(1.0, abs(want[0]))
    assert abs(val - want[0]) <= 1e-9 * scale
    assert contains(cell, x, tol=1e-9)
    assert float(g @ x) == val
    F, ell = cell.halfspaces
    assert np.all(lam >= 0.0)
    assert np.allclose(F.T @ lam, -g, atol=1e-9)
    assert abs(lam @ ell + val) <= 1e-9 * scale
