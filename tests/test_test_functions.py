"""Pointwise evaluation versus per-cell affine restriction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdual import (
    Cell,
    InputError,
    PartitionIncompatibleError,
    RiskFunctional,
    RiskKind,
    Sense,
    SideOfTau,
    TestFunction,
    TestFunctionKind,
    build_box_partition,
    cell_vertices,
    empirical_integral,
    evaluate,
    normalized_records,
    restrict_to_cell,
)
from riskdual.test_functions import check_model


def ind(axis, slab, sense=Sense.UPPER, bound=1.0, fn_id="f"):
    return TestFunction(fn_id, TestFunctionKind.SLAB_INDICATOR, axis, slab, sense, bound)


def aff(axis, slab, v, c, sense=Sense.UPPER, bound=1.0, fn_id="g"):
    return TestFunction(
        fn_id, TestFunctionKind.SLAB_AFFINE, axis, slab, sense, bound, v=v, c=c
    )


def test_indicator_slab_is_closed_at_both_ends():
    fn = ind(0, (0.25, 0.75))
    assert evaluate(fn, np.array([0.25])) == 1.0
    assert evaluate(fn, np.array([0.75])) == 1.0
    assert evaluate(fn, np.array([0.74])) == 1.0
    assert evaluate(fn, np.array([0.76])) == 0.0
    out = evaluate(fn, np.array([[0.1], [0.5], [0.9]]))
    assert out.tolist() == [0.0, 1.0, 0.0]


def test_affine_factor_vanishes_outside_slab():
    fn = aff(0, (0.0, 0.5), v=np.array([2.0, 1.0]), c=-0.25)
    assert evaluate(fn, np.array([0.25, 0.5])) == pytest.approx(0.75)
    assert evaluate(fn, np.array([0.75, 0.5])) == 0.0


def test_risk_functional_values():
    var = RiskFunctional(RiskKind.VAR_INDICATOR, 1.0)
    cvar = RiskFunctional(RiskKind.CVAR_HINGE, 1.0)
    assert evaluate(var, np.array([0.5, 0.5])) == 1.0  # threshold included
    assert evaluate(var, np.array([0.5, 0.4])) == 0.0
    assert evaluate(cvar, np.array([0.9, 0.6])) == pytest.approx(0.5)
    assert evaluate(cvar, np.array([0.2, 0.2])) == 0.0


def test_restriction_on_inside_and_outside_cells():
    cell_in = Cell([0.0], [0.5])
    cell_out = Cell([0.5], [1.0])
    fn = ind(0, (0.0, 0.5))
    v, c = restrict_to_cell(fn, cell_in)
    assert np.all(v == 0.0) and c == 1.0
    v, c = restrict_to_cell(fn, cell_out)
    assert np.all(v == 0.0) and c == 0.0
    a = aff(0, (0.0, 0.5), v=np.array([3.0]), c=1.0)
    v, c = restrict_to_cell(a, cell_in)
    assert v.tolist() == [3.0] and c == 1.0


def test_restriction_rejects_straddling_cells():
    fn = ind(0, (0.0, 0.5))
    with pytest.raises(PartitionIncompatibleError):
        restrict_to_cell(fn, Cell([0.25], [0.75]))
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 1.0)
    with pytest.raises(PartitionIncompatibleError):
        restrict_to_cell(risk, Cell([0.0, 0.0], [1.0, 1.0]))


def test_risk_restriction_per_side():
    var = RiskFunctional(RiskKind.VAR_INDICATOR, 1.0)
    cvar = RiskFunctional(RiskKind.CVAR_HINGE, 1.0)
    below = Cell(
        [0.0, 0.0], [1.0, 1.0], slice_sign=-1, tau=1.0, side_of_tau=SideOfTau.BELOW
    )
    above = Cell(
        [0.0, 0.0], [1.0, 1.0], slice_sign=1, tau=1.0, side_of_tau=SideOfTau.ABOVE
    )
    assert restrict_to_cell(var, below)[1] == 0.0
    assert restrict_to_cell(var, above)[1] == 1.0
    v, c = restrict_to_cell(cvar, above)
    assert v == pytest.approx([1.0, 1.0]) and c == -1.0
    v, c = restrict_to_cell(cvar, below)
    assert v == pytest.approx([0.0, 0.0]) and c == 0.0


def test_risk_restriction_checks_slice_threshold():
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 2.0)
    cell = Cell([0.0], [1.0], slice_sign=-1, tau=0.5, side_of_tau=SideOfTau.BELOW)
    with pytest.raises(PartitionIncompatibleError):
        restrict_to_cell(risk, cell)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.001, 0.999), st.integers(2, 6))
def test_slab_indicators_tile_the_axis(x, m):
    # away from breakpoints exactly one slab indicator is on
    bp = np.linspace(0.0, 1.0, m + 1)
    if np.min(np.abs(bp - x)) < 1e-6:
        return
    fns = [ind(0, (bp[s], bp[s + 1]), fn_id=f"s{s}") for s in range(m)]
    total = sum(evaluate(fn, np.array([x])) for fn in fns)
    assert total == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_evaluation_matches_restriction_inside_cells(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    bp = [np.sort(rng.choice(np.linspace(0, 1, 11), size=3, replace=False)) for _ in range(d)]
    part = build_box_partition(bp, float(rng.uniform(0.2, 0.8) * d))
    axis = int(rng.integers(0, d))
    b = part.breakpoints[axis]
    fns = [
        ind(axis, (float(b[0]), float(b[1]))),
        aff(axis, (float(b[1]), float(b[2])), v=rng.normal(size=d), c=float(rng.normal())),
        RiskFunctional(RiskKind.VAR_INDICATOR, part.tau),
        RiskFunctional(RiskKind.CVAR_HINGE, part.tau),
    ]
    for cell in map(part.cell_at, range(part.cell_count)):
        q = np.mean(cell_vertices(cell), axis=0)
        for fn in fns:
            v, c = restrict_to_cell(fn, cell)
            assert evaluate(fn, q) == pytest.approx(float(v @ q + c), abs=1e-9)


def test_empirical_integral_is_the_sample_mean():
    data = np.array([[0.1], [0.3], [0.9]])
    assert empirical_integral(ind(0, (0.0, 0.5)), data) == pytest.approx(2 / 3)
    with pytest.raises(InputError):
        empirical_integral(ind(0, (0.0, 0.5)), np.zeros((0, 1)))


def test_normalized_records_order_and_signs():
    fns = [
        ind(0, (0.0, 0.5), Sense.EQUALITY, 0.4, fn_id="e"),
        ind(0, (0.0, 0.5), Sense.UPPER, 0.7, fn_id="u"),
        ind(0, (0.5, 1.0), Sense.LOWER, 0.2, fn_id="l"),
    ]
    recs = normalized_records(fns)
    # inequalities first, in input order, then equalities
    assert [r[0].id for r in recs] == ["u", "l", "e"]
    assert [r[1] for r in recs] == [1.0, -1.0, 1.0]
    assert [r[2] for r in recs] == [0.7, -0.2, 0.4]
    assert [r[3] for r in recs] == [False, False, True]


def test_duplicate_function_ids_are_rejected():
    fns = [ind(0, (0.0, 0.5), fn_id="same"), ind(0, (0.5, 1.0), fn_id="same")]
    risk = RiskFunctional(RiskKind.VAR_INDICATOR, 0.5)
    with pytest.raises(InputError, match="duplicate test function id 'same'"):
        check_model([[0.0, 0.5, 1.0]], fns, risk)


def test_constructor_validation():
    with pytest.raises(InputError, match="positive width"):
        ind(0, (0.5, 0.5))
    for slab in ((np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(InputError, match="slab endpoints must not be NaN"):
            ind(0, slab)
    with pytest.raises(InputError):
        TestFunction("a", TestFunctionKind.SLAB_AFFINE, 0, (0.0, 1.0), Sense.UPPER, 1.0)
    with pytest.raises(InputError):
        RiskFunctional(RiskKind.VAR_INDICATOR, np.nan)
    with pytest.raises(ValueError):
        TestFunction("a", "no_such_kind", 0, (0.0, 1.0), Sense.UPPER, 1.0)
    for axis in (-1, 0.7, True, "0"):
        with pytest.raises(InputError, match="axis"):
            ind(axis, (0.0, 1.0))
    assert ind(np.int64(2), (0.0, 1.0)).axis == 2
    for bound in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="bound"):
            ind(0, (0.0, 1.0), bound=bound)
    for v, c in (([np.inf], 0.0), ([np.nan], 0.0), ([1.0], np.nan), ([1.0], -np.inf)):
        with pytest.raises(InputError, match="v and c"):
            aff(0, (0.0, 1.0), v, c)


def test_enum_values_accept_their_wire_names():
    fn = TestFunction("a", "slab_indicator", 0, (0.0, 1.0), "inequality_upper", 1.0)
    assert fn.kind is TestFunctionKind.SLAB_INDICATOR
    assert fn.sense is Sense.UPPER
    risk = RiskFunctional("cvar_hinge", 0.5)
    assert risk.kind is RiskKind.CVAR_HINGE
