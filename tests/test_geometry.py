"""Cells, slicing, vertex enumeration and the linear support routine."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdual import (
    CapacityError,
    Cell,
    InputError,
    SideOfTau,
    build_box_partition,
    cell_contains,
    cell_interior_point,
    cell_vertices,
    maximize_linear_over_cell,
)

UNIT = np.array([0.0, 1.0])
HALVES = np.array([0.0, 0.5, 1.0])


def test_two_axis_partition_layout():
    # 2x2 grid cut by x+y = 1: the two off-diagonal boxes straddle,
    # the low box stays below, the high box touches only at its corner
    part = build_box_partition([HALVES, HALVES], 1.0)
    assert part.cell_count == 6
    _grid, flag, side, mins, maxs = part.ref_arrays()
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


def test_partition_without_tau_keeps_boxes_whole():
    part = build_box_partition([HALVES, HALVES])
    assert part.tau is None
    assert part.cell_count == 4
    for cell in part.cells:
        assert cell.slice_sign == 0
        assert cell.side_of_tau is None


def test_sliced_cell_vertices_triangle_piece():
    part = build_box_partition([HALVES, HALVES], 1.0)
    below = [
        c for c in part.cells if c.multi_index == (0, 1) and c.slice_sign == -1
    ]
    assert len(below) == 1
    got = sorted(map(tuple, cell_vertices(below[0])))
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


def test_cell_contains_boundary_tolerance():
    cell = Cell([0.0], [1.0])
    assert cell_contains(cell, [0.0])
    assert cell_contains(cell, [1.0])
    assert not cell_contains(cell, [1.0 + 1e-10])
    assert cell_contains(cell, [1.0 + 1e-10], tol=1e-9)
    assert not cell_contains(cell, [1.1])
    sliced = Cell([0.0, 0.0], [1.0, 1.0], slice_sign=1, tau=1.0)
    assert cell_contains(sliced, [0.5, 0.5])
    assert not cell_contains(sliced, [0.2, 0.2])


def test_interior_points_land_inside():
    part = build_box_partition([HALVES, HALVES], 1.0)
    for cell in part.cells:
        assert cell_contains(cell, cell_interior_point(cell))
    # unbounded tails on either end
    for cell in build_box_partition([np.array([-np.inf, 0.0, 1.0, np.inf])], 0.5).cells:
        assert cell_contains(cell, cell_interior_point(cell))
    tall = Cell([0.0, 0.0], [np.inf, np.inf], slice_sign=1, tau=3.0)
    q = cell_interior_point(tall)
    assert cell_contains(tall, q)
    assert q.sum() >= 3.0


def test_degenerate_cell_point():
    corner = Cell([1.0, 1.0], [1.0, 1.0], degenerate=True)
    assert cell_contains(corner, [1.0, 1.0])
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


def test_halfspace_roles_align():
    cell = Cell([0.0, -np.inf], [1.0, 2.0], slice_sign=-1, tau=1.5)
    roles = cell.halfspace_roles
    assert len(roles) == len(cell.halfspaces)
    assert roles.count(("slice", -1)) == 1
    # the -inf lower bound contributes no halfspace
    assert ("lo", 1) not in roles
    assert ("hi", 1) in roles


def test_breakpoint_validation():
    with pytest.raises(InputError):
        build_box_partition([])
    with pytest.raises(InputError):
        build_box_partition([np.array([0.0])])
    with pytest.raises(InputError):
        build_box_partition([np.array([0.0, 0.0, 1.0])])
    with pytest.raises(InputError):
        build_box_partition([np.array([0.0, np.inf, 1.0])])
    with pytest.raises(InputError):
        build_box_partition([np.array([np.nan, 1.0])])


def test_cell_budget_is_checked_before_allocation():
    bp = [np.linspace(0.0, 1.0, 101)] * 3
    with pytest.raises(CapacityError):
        build_box_partition(bp, cell_budget=10_000)
    # slicing can push a fitting grid over the budget
    with pytest.raises(CapacityError):
        build_box_partition([HALVES, HALVES], 1.0, cell_budget=5)


def test_cell_at_caches_and_checks_range():
    part = build_box_partition([HALVES], 0.25)
    assert part.cell_at(0) is part.cell_at(0)
    with pytest.raises(InputError):
        part.cell_at(part.cell_count)


def test_ref_arrays_match_materialized_cells():
    part = build_box_partition([HALVES, np.array([0.0, 0.3, 1.0])], 0.9)
    _grid, flag, side, mins, maxs = part.ref_arrays()
    for i, cell in enumerate(part.cells):
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
    assert cell_contains(cell, x)
    # multiplier certificate: nonnegative, reproduces -g, prices the bounds
    F = np.array([h.normal for h in cell.halfspaces])
    ell = np.array([h.bound for h in cell.halfspaces])
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
    assert np.all(np.isfinite(x)) and cell_contains(cell, x)
    F = np.array([h.normal for h in cell.halfspaces])
    ell = np.array([h.bound for h in cell.halfspaces])
    assert np.all(lam >= 0.0)
    assert np.allclose(F.T @ lam, -g, atol=1e-12)
    assert lam @ ell == pytest.approx(-val, abs=1e-12)
