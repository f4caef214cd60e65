"""Discretized primal oracle: measures on candidate points whose value
meets the dual bound from below."""

import numpy as np
import pytest

from riskdual import (
    CapacityError,
    LPStatus,
    RiskKind,
    Sense,
    TestFunction,
    TestFunctionKind,
    RiskFunctional,
    assemble_dual_lp,
    build_box_partition,
    build_candidate_grid,
    dual_builder,
    duality_gap,
    oracle,
    solve_primal_discretization,
)

from riskdual.dual_builder import _point_rows

from conftest import count_decodes, random_instance, solve_rows, two_point_model


def _dual_value(dual):
    sol = solve_rows(dual)
    assert sol.status is LPStatus.OPTIMAL
    return sol.objective


def test_two_point_example_closes_the_gap():
    dual = two_point_model(14.0 / 9.0).dual()
    primal = solve_primal_discretization(dual)
    assert primal.status is LPStatus.OPTIMAL
    gap, rel = duality_gap(primal.value, _dual_value(dual))
    assert abs(rel) <= 1e-12
    # the worst measure splits its mass between the two corners
    assert len(primal.support) == 2
    pts = {float(p[0]): w for p, w in primal.support}
    assert pts[0.0] == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert pts[1.0] == pytest.approx(5.0 / 9.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_bounded_instances_close_the_gap(seed):
    inst = random_instance(seed, affine=(seed % 3 == 0))
    dual = inst.dual()
    grid = build_candidate_grid(dual)
    assert grid.exact
    primal = solve_primal_discretization(dual, grid)
    assert primal.status is LPStatus.OPTIMAL
    _gap, rel = duality_gap(primal.value, _dual_value(dual))
    assert abs(rel) <= 1e-9
    masses = [w for _, w in primal.support]
    assert sum(masses) == pytest.approx(1.0, abs=1e-9)
    assert all(w > 0 for w in masses)


def test_support_points_lie_in_the_box():
    inst = random_instance(2, d=2, m=4)
    dual = inst.dual()
    primal = solve_primal_discretization(dual)
    for p, _w in primal.support:
        assert np.all(p >= -1e-12)
        assert np.all(p <= 1.0 + 1e-9)


def test_tail_mass_on_an_unbounded_axis():
    # only an upper bound on the bounded slab: everything else may sit
    # past the threshold, and the finite vertex of the constant
    # unbounded cell represents it exactly
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 1.0)
    fns = [
        TestFunction(
            "low", TestFunctionKind.SLAB_INDICATOR, 0, (0.0, 1.0), Sense.LOWER, 0.3
        )
    ]
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 1.0)
    dual = assemble_dual_lp(part, fns, risk)
    grid = build_candidate_grid(dual)
    assert grid.exact
    primal = solve_primal_discretization(dual)
    assert primal.value == pytest.approx(0.7, abs=1e-9)
    gap, _ = duality_gap(primal.value, _dual_value(dual))
    assert abs(gap) <= 1e-9


def test_surrogate_grid_drops_exactness():
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 0.5)
    fns = [
        TestFunction(
            "mean", TestFunctionKind.SLAB_AFFINE, 0, (1.0, np.inf),
            Sense.UPPER, 0.8, v=np.array([1.0]), c=0.0,
        )
    ]
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 0.5)
    dual = assemble_dual_lp(part, fns, risk)
    grid = build_candidate_grid(dual)
    # the affine record varies on the unbounded cell, so its points
    # include moves along its ray, where no maximum is attained
    assert not grid.exact


def _far_threshold_tail():
    """VaR at 5 on [0, 1, inf) with a tail moment: the part of [1, inf)
    past 5 is a sliced unbounded cell that does not collapse."""
    part = build_box_partition([np.array([0.0, 1.0, np.inf])], 5.0)
    fns = [
        TestFunction(
            "mean", TestFunctionKind.SLAB_AFFINE, 0, (1.0, np.inf),
            Sense.UPPER, 2.0, v=np.array([1.0]), c=0.0,
        )
    ]
    dual = assemble_dual_lp(part, fns, RiskFunctional(RiskKind.VAR_INDICATOR, 5.0))
    (cell,) = [c for c in dual.iter_cells() if not c.bounded and c.slice_sign > 0]
    assert not dual.collapses(cell)
    return dual, cell


def test_candidate_grid_decodes_each_slot_once(monkeypatch):
    # family (c) on two axes: 40 slabs on [0, 1] and the tail [1, inf),
    # two head blocks, with a moment record on each tail, so the
    # unbounded cells do not collapse and take the ray branch
    bp = np.append(np.linspace(0.0, 1.0, 41), np.inf)
    part = build_box_partition([bp] * 2, 1.8)
    fns = [
        TestFunction(
            f"tail_m_{a}", TestFunctionKind.SLAB_AFFINE, a, (1.0, np.inf),
            Sense.UPPER, 0.3, v=np.eye(2)[a], c=0.0,
        )
        for a in range(2)
    ]
    dual = assemble_dual_lp(part, fns, RiskFunctional(RiskKind.VAR_INDICATOR, 1.8))
    calls, blocks = count_decodes(monkeypatch, part)
    assert blocks == 2
    assert not build_candidate_grid(dual).exact
    # one pass over the cells above tau, one over those below
    assert len(calls) <= 2 * blocks


def test_far_threshold_tail_gets_points_along_its_ray(monkeypatch):
    dual, cell = _far_threshold_tail()
    monkeypatch.setattr(oracle, "RAY_RADIUS", 1.0)
    grid = build_candidate_grid(dual)
    # the cut vertex 5, then 5 moved twice the radius along the ray e_0
    points = [float(q[0]) for c, q in grid.entries if c.id == cell.id]
    assert points == [5.0, 7.0]
    assert not grid.exact
    primal = solve_primal_discretization(dual, grid)
    assert primal.status is LPStatus.OPTIMAL


def test_primal_grid_restricts_each_cell_once(monkeypatch):
    inst = random_instance(1, d=3, m=4)
    dual = inst.dual()
    grid = build_candidate_grid(dual)
    # reference: one restriction per entry, deduplicated in entry order
    cols, objs, seen = [], [], set()
    for cell, q in grid.entries:
        (vals,), (obj,) = _point_rows(dual.records, dual.riskfn, cell, [q])
        sig = (round(float(obj), 12), tuple(np.round(vals, 12)))
        if sig not in seen:
            seen.add(sig)
            cols.append(vals)
            objs.append(obj)
    restricted, lps = [], []
    restrict, solve = dual_builder.restrict_to_cell, oracle.solve_dense_simplex
    monkeypatch.setattr(dual_builder, "restrict_to_cell",
                        lambda fn, cell: restricted.append(cell) or restrict(fn, cell))
    monkeypatch.setattr(oracle, "solve_dense_simplex",
                        lambda lp: lps.append(lp) or solve(lp))
    primal = solve_primal_discretization(dual, grid)
    assert primal.status is LPStatus.OPTIMAL
    cells = {id(cell) for cell, _q in grid.entries}
    assert (len(grid.entries), len(cells)) == (788, 98)
    # every record and the risk, once per cell: 2,450 calls, not 19,700
    assert len(restricted) == len(cells) * (len(dual.records) + 1)
    (lp,) = lps
    assert np.array_equal(lp.A, np.column_stack(cols))
    assert np.array_equal(lp.c, np.array(objs))


def test_point_budget_is_enforced(monkeypatch):
    inst = random_instance(1, d=2, m=4)
    monkeypatch.setattr(oracle, "POINT_BUDGET", 3)
    with pytest.raises(CapacityError):
        build_candidate_grid(inst.dual())


def test_infeasible_constraints_are_reported():
    # two slabs cannot both carry 90 percent of the mass
    part = build_box_partition([np.array([0.0, 0.5, 1.0])], 0.75)
    fns = [
        TestFunction(
            "a", TestFunctionKind.SLAB_INDICATOR, 0, (0.0, 0.5), Sense.EQUALITY, 0.9
        ),
        TestFunction(
            "b", TestFunctionKind.SLAB_INDICATOR, 0, (0.5, 1.0), Sense.EQUALITY, 0.9
        ),
    ]
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 0.75)
    dual = assemble_dual_lp(part, fns, risk)
    primal = solve_primal_discretization(dual)
    assert primal.status is LPStatus.INFEASIBLE
    assert primal.value is None
    assert primal.support == []


def test_duality_gap_scaling():
    gap, rel = duality_gap(0.5, 0.5 + 1e-8)
    assert gap == pytest.approx(1e-8)
    assert rel == pytest.approx(1e-8)  # primal below one: absolute scale
    _gap, rel = duality_gap(200.0, 201.0)
    assert rel == pytest.approx(1.0 / 200.0)
