"""Shared builders for the test suite.

Randomized model instances calibrate their integral bounds on an
empirical sample, so the sampling measure itself satisfies every
constraint and the resulting bound is finite.  scipy's linprog shows
up here purely as an independent reference solver for cross-checks;
the package itself never calls it.
"""

import contextlib
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from riskdual import (
    LinearProgram,
    ReductionMode,
    RiskFunctional,
    RiskKind,
    Sense,
    TestFunction,
    TestFunctionKind,
    assemble_dual_lp,
    build_box_partition,
    empirical_integral,
    solve_dense_simplex,
)
from riskdual import lp_engine
from riskdual.dual_builder import CONST_TOL
from riskdual.errors import CapacityError, InputError, UnsupportedCellError
from riskdual.geometry import (
    DEFAULT_CELL_BUDGET,
    STRADDLE_TOL,
    VERTEX_TOL,
    Partition,
    _free_fill,
    check_breakpoints,
    head_blocks,
)


@contextlib.contextmanager
def lp_limit(name, value):
    """Run the block with the lp_engine constant ``name`` (DENSE_BUDGET,
    ITER_LIMIT, ROUND_LIMIT or DCG_BATCH) set to ``value``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_engine, name, value)
        yield


def count_decodes(monkeypatch, partition):
    """A list that gets one entry per Partition._decode call from now
    on, and the number of head blocks of ``partition``: a pass over
    every slot decodes each block once."""
    calls = []
    decode = Partition._decode
    monkeypatch.setattr(Partition, "_decode",
                        lambda self, heads: calls.append(heads) or decode(self, heads))
    return calls, sum(1 for _ in head_blocks(partition.slab_counts))


def solve_rows(dual, mode=ReductionMode.LAMBDA_ELIMINATED):
    """The row dual materialized under ``mode`` and solved by the dense
    simplex, under a budget of 20,000 rows and columns."""
    with lp_limit("DENSE_BUDGET", 20_000):
        return solve_dense_simplex(dual.materialize(mode))


class Instance:
    """A model bundled with the sample it was calibrated on."""

    def __init__(self, partition, testfns, risk, samples):
        self.partition = partition
        self.testfns = testfns
        self.risk = risk
        self.samples = samples

    def dual(self):
        return assemble_dual_lp(self.partition, self.testfns, self.risk)

    def bound(self, mode=ReductionMode.LAMBDA_ELIMINATED):
        return solve_rows(self.dual(), mode)


def master_rows(dual):
    """Each master row's record index, the normalization row last with
    the record count: per-record values indexed by it give the master's
    rows, a pair's row taking its upper record's."""
    return np.append(dual.row_records, len(dual.records))


def jittered_breakpoints(rng, m, lo=0.0, hi=1.0):
    bp = np.linspace(lo, hi, m + 1)
    # jitter below half the spacing keeps the order strict
    bp[1:-1] += rng.uniform(-0.3, 0.3, size=m - 1) * (hi - lo) / m
    return bp


def _indicator(fn_id, axis, slab, sense, bound):
    return TestFunction(
        fn_id, TestFunctionKind.SLAB_INDICATOR, axis, slab, sense, bound
    )


def _affine(fn_id, axis, slab, sense, bound, v, c):
    return TestFunction(
        fn_id, TestFunctionKind.SLAB_AFFINE, axis, slab, sense, bound, v=v, c=c
    )


def random_instance(
    seed,
    *,
    d=None,
    m=None,
    affine=False,
    equality=False,
    risk_kind=None,
    two_sided=True,
    k=200,
    slack=0.05,
):
    """Indicator bounds on every slab of every axis, plus optional
    affine constraints, all calibrated on k beta-distributed samples.

    The threshold sits at an interior quantile of the sample sums so
    both sides of the slice are populated.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3)) if d is None else d
    m = int(rng.choice([2, 4])) if m is None else m
    bps = [jittered_breakpoints(rng, m) for _ in range(d)]
    data = np.column_stack(
        [
            rng.beta(rng.uniform(0.8, 3.0), rng.uniform(0.8, 3.0), size=k)
            for _ in range(d)
        ]
    )
    tau = float(np.quantile(data.sum(axis=1), rng.uniform(0.5, 0.9)))
    partition = build_box_partition(bps, tau)
    if risk_kind is None:
        risk_kind = RiskKind.VAR_INDICATOR if rng.random() < 0.5 else RiskKind.CVAR_HINGE
    risk = RiskFunctional(risk_kind, tau)

    fns = []
    for a in range(d):
        bp = partition.breakpoints[a]
        for s in range(len(bp) - 1):
            slab = (float(bp[s]), float(bp[s + 1]))
            emp = empirical_integral(_indicator("probe", a, slab, Sense.UPPER, 0.0), data)
            fns.append(_indicator(f"up_{a}_{s}", a, slab, Sense.UPPER, emp + slack))
            if two_sided:
                fns.append(
                    _indicator(f"lo_{a}_{s}", a, slab, Sense.LOWER, max(0.0, emp - slack))
                )
    if affine:
        for j in range(int(rng.integers(1, 3))):
            a = int(rng.integers(0, d))
            bp = partition.breakpoints[a]
            i0 = int(rng.integers(0, len(bp) - 1))
            i1 = int(rng.integers(i0 + 1, len(bp)))
            slab = (float(bp[i0]), float(bp[i1]))
            v = rng.normal(0.0, 1.0, size=d)
            c = float(rng.normal())
            emp = empirical_integral(_affine("probe", a, slab, Sense.UPPER, 0.0, v, c), data)
            if equality and rng.random() < 0.5:
                fns.append(_affine(f"aff_{j}", a, slab, Sense.EQUALITY, emp, v, c))
            elif rng.random() < 0.5:
                fns.append(_affine(f"aff_{j}", a, slab, Sense.UPPER, emp + slack, v, c))
            else:
                fns.append(_affine(f"aff_{j}", a, slab, Sense.LOWER, emp - slack, v, c))
    return Instance(partition, fns, risk, data)


def two_point_model(moment, risk_kind=RiskKind.VAR_INDICATOR):
    """One axis, breakpoints {0, 1}, threshold at the top corner, and a
    single equality pinning the mean of 1 + x.  Measures supported on
    {0, 1} are then fully determined by the moment."""
    partition = build_box_partition([np.array([0.0, 1.0])], 1.0)
    fn = _affine(
        "mean_one_plus_x", 0, (0.0, 1.0), Sense.EQUALITY, moment,
        v=np.array([1.0]), c=1.0,
    )
    return Instance(partition, [fn], RiskFunctional(risk_kind, 1.0), None)


def random_lp(seed, m=None, n=None):
    """Small LP with quarter-integer data.  The coarse grid makes
    degenerate ties common, which is the point."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7)) if m is None else m
    n = int(rng.integers(1, 9)) if n is None else n
    A = np.round(rng.normal(0.0, 1.0, (m, n)) * 4) / 4
    A[rng.random((m, n)) < 0.3] = 0.0
    senses = [("<=", ">=", "=")[int(rng.integers(0, 3))] for _ in range(m)]
    rhs = np.round(rng.normal(0.0, 2.0, m) * 4) / 4
    c = np.round(rng.normal(0.0, 1.0, n) * 4) / 4
    free = rng.random(n) < 0.25
    sense = "min" if rng.random() < 0.5 else "max"
    return LinearProgram(sense, c, A, senses, rhs, var_free=free, name=f"rand{seed}")


def scipy_reference(lp):
    """Solve a LinearProgram with HiGHS and map the result back to the
    LP's own sense.  A ranged row goes to HiGHS as two inequalities, so
    the reference shares no bound handling with the engine.  Returns (status, value) with status one of
    'optimal', 'infeasible', 'unbounded'.  HiGHS reports some feasible,
    unbounded programs as infeasible, so an infeasible answer is checked
    by a re-solve with a zero objective: when that is feasible, the
    program is unbounded."""
    A = lp.dense_matrix()
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(lp.row_senses):
        if s == "<=":
            A_ub.append(A[i])
            b_ub.append(lp.rhs[i])
            if np.isfinite(lp.row_range[i]):
                # a ranged row is its two inequalities here
                A_ub.append(-A[i])
                b_ub.append(lp.row_range[i] - lp.rhs[i])
        elif s == ">=":
            A_ub.append(-A[i])
            b_ub.append(-lp.rhs[i])
        else:
            A_eq.append(A[i])
            b_eq.append(lp.rhs[i])
    sign = 1.0 if lp.sense == "min" else -1.0
    rows = dict(
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(None, None) if f else (0.0, None) for f in lp.var_free],
        method="highs",
    )
    res = linprog(sign * lp.c, **rows)
    if res.status == 2:
        feasible = linprog(np.zeros(lp.n_cols), **rows).status == 0
        return ("unbounded" if feasible else "infeasible"), None
    if res.status == 3:
        return "unbounded", None
    assert res.status == 0, res.message
    return "optimal", float(sign * res.fun)


def contains(cell, x, tol=1e-12):
    """Whether the point ``x`` satisfies every halfspace of ``cell``,
    F x >= ell, to within ``tol``."""
    F, ell = cell.halfspaces
    return bool(np.all(F @ np.asarray(x, dtype=float) >= ell - tol))


# -- the per-cell vertex enumerators: the reference, and the greedy merge --


def _corners(cell, axes):
    """The corners of the cell's box over ``axes``, in product order."""
    return itertools.product(*[(cell.lows[i], cell.highs[i]) for i in axes])


def _check_bounded(cell):
    if not cell.bounded:
        raise UnsupportedCellError(
            f"cell {cell.id} is unbounded and has no vertex representation"
        )


def _exact_once(points):
    out = []
    for p in sorted(points, key=tuple):
        if not out or tuple(p) != tuple(out[-1]):
            out.append(p)
    return out


def reference_cell_vertices(cell):
    """Vertices of a bounded cell, enumerated one candidate at a time.

    A plain box yields its 2^n corners.  A sliced box yields the
    corners on the kept side, up to VERTEX_TOL, plus the intersection
    of the hyperplane with each box edge whose end corners straddle it,
    one short of it and one past it by more than VERTEX_TOL.  Exact
    repeats, which a zero-width axis makes, count once, and the result
    is sorted.  Unbounded cells have no vertex form and raise
    UnsupportedCellError.  This is the reference that the array kernel
    behind ``cell_vertices`` and ``slot_vertices`` must match value for
    value, in order, with the same errors.
    """
    _check_bounded(cell)
    n = cell.dimension
    corners = [np.array(c, dtype=float) for c in _corners(cell, range(n))]
    if cell.slice_sign == 0:
        return _exact_once(corners)
    sign, tau = cell.slice_sign, cell.tau

    def gap(p):
        return float(np.sum(p)) - tau

    kept = [c for c in corners if sign * gap(c) >= -VERTEX_TOL]
    cuts = []
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        for combo in _corners(cell, others):
            fixed = dict(zip(others, combo))
            ends = np.empty((2, n))
            for i, val in fixed.items():
                ends[:, i] = val
            ends[:, axis] = cell.lows[axis], cell.highs[axis]
            gaps = [gap(e) for e in ends]
            if min(gaps) < -VERTEX_TOL and max(gaps) > VERTEX_TOL:
                p = ends[0].copy()
                p[axis] = tau - sum(fixed.values())
                cuts.append(p)
    verts = _exact_once(kept + cuts)
    if not verts:
        raise UnsupportedCellError(f"sliced cell {cell.id} has an empty vertex set")
    return verts


def _greedy_merge(points):
    out = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= VERTEX_TOL for q in out):
            out.append(p)
    out.sort(key=lambda p: tuple(p))
    return out


def greedy_cell_vertices(cell):
    """Vertices of a bounded cell by the earlier rule: the kept corners
    and every crossing strictly inside its edge, corners in product
    order and then the crossings axis by axis, each dropped when it lies
    within VERTEX_TOL of an earlier survivor.  The survivors of a chain
    of near points depend on that order, so this is no reference; the
    tests use it to show that the current rule loses none of the
    vertices this one kept.
    """
    _check_bounded(cell)
    n = cell.dimension
    corners = [np.array(c, dtype=float) for c in _corners(cell, range(n))]
    if cell.slice_sign == 0:
        return _greedy_merge(corners)
    sign, tau = cell.slice_sign, cell.tau
    kept = [c for c in corners if sign * (float(np.sum(c)) - tau) >= -VERTEX_TOL]
    cuts = []
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        for combo in _corners(cell, others):
            fixed = dict(zip(others, combo))
            t = tau - sum(fixed.values())
            if cell.lows[axis] < t < cell.highs[axis]:
                p = np.empty(n)
                p[axis] = t
                for i, val in fixed.items():
                    p[i] = val
                cuts.append(p)
    verts = _greedy_merge(kept + cuts)
    if not verts:
        raise UnsupportedCellError(f"sliced cell {cell.id} has an empty vertex set")
    return verts


# -- the three-case linear support solver, kept as the reference --


def _halfspace_roles(cell):
    """("lo", axis), ("hi", axis) and ("slice", -1) for each row of
    ``cell.halfspaces``, in order: each finite low then each finite
    high, axis by axis, then the slice."""
    roles = []
    for axis in range(cell.dimension):
        if math.isfinite(cell.lows[axis]):
            roles.append(("lo", axis))
        if math.isfinite(cell.highs[axis]):
            roles.append(("hi", axis))
    if cell.slice_sign != 0:
        roles.append(("slice", -1))
    return roles


def _lam_from_bounds(cell, at_hi, coeff_hi, at_lo, coeff_lo, slice_coeff=0.0):
    lam = np.zeros(len(cell.halfspaces[1]))
    for j, role in enumerate(_halfspace_roles(cell)):
        kind, axis = role
        if kind == "hi" and axis in at_hi:
            lam[j] = coeff_hi[axis]
        elif kind == "lo" and axis in at_lo:
            lam[j] = coeff_lo[axis]
        elif kind == "slice":
            lam[j] = slice_coeff
    return lam


def reference_maximize_linear_over_cell(cell, g):
    """Maximize <g, x> over the cell, case by case: an unsliced box, a
    box optimum that the slice admits, else a scan of the face sum(x) =
    tau over the candidate levels of g.  Returns ``(value, x, lam)`` as
    ``maximize_linear_over_cell`` does, which must match its +inf
    verdict, its error type and its finite values.
    """
    g = np.asarray(g, dtype=float)
    n = cell.dimension
    if g.shape != (n,):
        raise InputError("gradient dimension does not match the cell")
    lows, highs = cell.lows, cell.highs
    up_open = ~np.isfinite(highs)
    down_open = ~np.isfinite(lows)

    if cell.slice_sign == 0:
        if np.any((g > 0) & up_open) or np.any((g < 0) & down_open):
            return math.inf, None, None
        x = np.where(g > 0, highs, np.where(g < 0, lows, np.clip(0.0, lows, highs)))
        at_hi = {i for i in range(n) if g[i] > 0}
        at_lo = {i for i in range(n) if g[i] < 0}
        lam = _lam_from_bounds(cell, at_hi, g, at_lo, -g)
        return float(g @ x), x, lam

    sigma, tau = cell.slice_sign, cell.tau

    # unboundedness over the sliced box: a recession direction with
    # positive payoff that the slice admits
    p_axes = np.nonzero(up_open)[0]   # +e allowed
    n_axes = np.nonzero(down_open)[0]  # -e allowed
    unbounded = False
    if sigma > 0 and p_axes.size and np.max(g[p_axes]) > 0:
        unbounded = True
    if sigma < 0 and n_axes.size and np.min(g[n_axes]) < 0:
        unbounded = True
    if p_axes.size and n_axes.size and np.max(g[p_axes]) > np.min(g[n_axes]):
        unbounded = True
    if unbounded:
        return math.inf, None, None

    # box optimum, with g == 0 coordinates free to chase the slice; when
    # the box value is infinite but the slice blocks it, fall through to
    # the active-face solve below
    if not (np.any((g > 0) & up_open) or np.any((g < 0) & down_open)):
        free_idx = [int(i) for i in np.nonzero(g == 0)[0]]
        pinned_sum = float(
            np.sum(np.where(g > 0, highs, np.where(g < 0, lows, 0.0)))
        )
        best_free = sum(
            (highs[i] if sigma > 0 else lows[i]) for i in free_idx
        )
        if sigma * (pinned_sum + best_free - tau) >= 0:
            lo_free = sum(lows[i] for i in free_idx)
            hi_free = sum(highs[i] for i in free_idx)
            lo_t = max(lo_free, tau - pinned_sum) if sigma > 0 else lo_free
            hi_t = hi_free if sigma > 0 else min(hi_free, tau - pinned_sum)
            target = min(max(0.0, lo_t), hi_t)
            vals = _free_fill(lows, highs, free_idx, target)
            x = np.where(g > 0, highs, np.where(g < 0, lows, 0.0))
            for i, v in vals.items():
                x[i] = v
            at_hi = {i for i in range(n) if g[i] > 0}
            at_lo = {i for i in range(n) if g[i] < 0}
            lam = _lam_from_bounds(cell, at_hi, g, at_lo, -g)
            return float(g @ x), x, lam

    # the slice is active: maximize over the face sum(x) = tau
    candidates = sorted(set(float(v) for v in g), reverse=True)
    for nu in candidates:
        hi_set = np.nonzero(g > nu)[0]
        lo_set = np.nonzero(g < nu)[0]
        free_idx = [int(i) for i in np.nonzero(g == nu)[0]]
        if np.any(up_open[hi_set]) or np.any(down_open[lo_set]):
            continue
        pinned_sum = float(np.sum(highs[hi_set])) + float(np.sum(lows[lo_set]))
        s_min = pinned_sum + sum(lows[i] for i in free_idx)
        s_max = pinned_sum + sum(highs[i] for i in free_idx)
        if not (s_min - 1e-12 <= tau <= s_max + 1e-12):
            continue
        vals = _free_fill(lows, highs, free_idx, tau - pinned_sum)
        x = np.empty(n)
        x[hi_set] = highs[hi_set]
        x[lo_set] = lows[lo_set]
        for i, v in vals.items():
            x[i] = v
        gamma = -sigma * nu
        if gamma < -1e-9:
            # the face multiplier must be nonnegative; this candidate
            # corresponds to the slice pushing the wrong way
            continue
        gamma = max(gamma, 0.0)
        coeff_hi = g - nu
        coeff_lo = nu - g
        at_hi = {int(i) for i in hi_set}
        at_lo = {int(i) for i in lo_set}
        lam = _lam_from_bounds(cell, at_hi, coeff_hi, at_lo, coeff_lo, slice_coeff=gamma)
        return float(g @ x), x, lam
    raise InputError("cell face sum(x) = tau is empty; invalid sliced cell")


# -- the per-slot partition build, kept as the reference --


def _grid_sums(per_axis):
    total = np.zeros(1)
    for arr in per_axis:
        total = (total[:, None] + arr[None, :]).reshape(-1)
    return total


def reference_box_partition(breakpoints, tau, *, cell_budget=DEFAULT_CELL_BUDGET):
    """The partition with one array entry per slot, as
    ``(grid, flag, side, min_sum, max_sum)``: the build that
    ``build_box_partition``, ``Partition.cell_at`` and
    ``Partition.ref_arrays`` must match bitwise, with the same errors.
    Flags: 0 whole cell, -1 below half, +1 above half; sides: -1 below,
    +1 above.
    """
    if cell_budget < 1:
        raise InputError(f"cell budget must be at least 1, got {cell_budget}")
    axes = check_breakpoints(breakpoints)
    counts = [len(arr) - 1 for arr in axes]
    k0 = 1
    for m in counts:
        k0 *= m
        if k0 > cell_budget:
            raise CapacityError(
                f"grid would have more than {cell_budget} cells; raise the cell budget"
            )

    tau = float(tau)
    if not math.isfinite(tau):
        raise InputError(f"partition threshold must be finite, got {tau}")
    min_sums = _grid_sums([arr[:-1] for arr in axes])
    max_sums = _grid_sums([arr[1:] for arr in axes])
    straddle = (min_sums < tau - STRADDLE_TOL) & (max_sums > tau + STRADDLE_TOL)
    if k0 + int(np.count_nonzero(straddle)) > cell_budget:
        raise CapacityError(
            f"sliced grid would have more than {cell_budget} cells; raise the cell budget"
        )
    # a straddling grid cell takes two consecutive slots, below half first
    reps = np.where(straddle, 2, 1)
    grid = np.stack(
        np.meshgrid(*[np.arange(m, dtype=np.int32) for m in counts], indexing="ij"), axis=-1
    ).reshape(-1, len(axes))
    ref_grid = np.repeat(grid, reps, axis=0)
    ref_flag = np.repeat(-straddle.astype(np.int8), reps)
    above = np.cumsum(reps)[straddle] - 1
    ref_flag[above] = 1
    # a half's side is its flag; a whole cell is above when its max sum
    # passes tau
    ref_side = np.repeat(np.where(max_sums <= tau + STRADDLE_TOL, -1, 1).astype(np.int8), reps)
    ref_side[above - 1] = -1
    # a half inherits the box min/max sum clipped at tau
    ref_min = np.repeat(min_sums, reps)
    ref_min[above] = tau
    ref_max = np.repeat(max_sums, reps)
    ref_max[above - 1] = tau
    return ref_grid, ref_flag, ref_side, ref_min, ref_max


def reference_collapsed(dual):
    """Each slot's collapse flag by the per-slot rule over the decoded
    partition: a slot collapses unless the slab of a record with a
    non-constant linear part holds it, or the hinge has no maximum on
    it: past tau with an infinite max sum."""
    grid, _flag, side, _min, rmax = dual.partition.ref_arrays()
    linear = np.max(np.abs(dual._rec_v), axis=1, initial=0.0) > CONST_TOL
    if dual.riskfn.kind is RiskKind.CVAR_HINGE:
        out = (side <= 0) | np.isfinite(rmax)
    else:
        out = np.ones(len(side), dtype=bool)
    for a, (rows_a, mat) in dual._tables.items():
        held = np.any(mat[:, linear[rows_a]] != 0.0, axis=1)
        out &= ~held[grid[:, a]]
    return out


# -- the per-entry pricing sweep, kept as the reference --


def reference_reduced_costs(dual, duals, use_objective):
    """Reduced cost at every master position, the sweep the box pricer
    must reproduce; +inf at a key that holds no collapsed cell, which is
    no column.

    Each axis's slab table weighted by the duals gives a record part
    per slab; numpy broadcasting adds them onto z0 once per slab box,
    in table order.  A key scores its box's value; a point entry gathers
    the value of its cell's box and adds <G, q>, with G the
    dual-weighted sum of the linear parts of the records whose slab
    holds the cell.  A ray entry scores <G, r> alone: no constant part
    and no z0 term.
    """
    entries = dual.scan_entries()
    duals = np.asarray(duals, dtype=float)
    counts = dual.partition.slab_counts
    boxes = duals[-1]
    box = np.zeros(entries.count, dtype=np.intp)
    k = len(dual._tables)
    grid = dual.partition.ref_arrays()[0]
    for i, (a, (rows_a, mat)) in enumerate(dual._tables.items()):
        t = mat @ (duals[rows_a] * dual._rec_c[rows_a])
        boxes = boxes + t.reshape((-1,) + (1,) * (k - 1 - i))
        box = box * counts[a] + grid[entries.cell, a]
    boxes = np.ravel(boxes)
    score = np.concatenate([boxes[box], boxes, boxes])
    if entries.count:
        G = np.zeros((entries.count, dual.partition.dimension))
        for a, (rows_a, mat) in dual._tables.items():
            G += (mat @ (duals[rows_a, None] * dual._rec_v[rows_a]))[grid[entries.cell, a]]
        const = np.where(entries.ray, 0.0, score[: entries.count])
        score[: entries.count] = const + np.einsum("ij,ij->i", G, entries.points)
    keys = np.flatnonzero(dual._has)
    objective = np.concatenate([entries.objective, dual._objectives(keys)])
    at = np.concatenate([np.arange(entries.count), entries.count + keys])
    if use_objective:
        score[at] -= objective
    else:
        np.negative(score, out=score)
    out = np.full(score.size, np.inf)
    out[at] = score[at]
    return out


def sweep_generator(count, column_at, scores):
    """A generator whose pricer scores every position with
    ``scores(duals, use_objective)`` and picks among them with
    :func:`~riskdual.lp_engine.steepest_candidates`."""

    def reduced_costs(duals, use_objective, q, seen):
        rc = np.asarray(scores(duals, use_objective), dtype=float)
        return lp_engine.steepest_candidates(np.arange(rc.size), rc, q, seen)

    return lp_engine.ColumnGenerator(count, column_at, reduced_costs)


def price(gen, duals, q, use_objective=True):
    """The picks of one pricing call on ``gen``, outside the positions
    it has generated, as column generation asks for them."""
    seen = np.array(sorted(gen.generated), dtype=np.intp)
    return gen.reduced_costs(np.asarray(duals, dtype=float), use_objective, q, seen)


def reference_generator(dual):
    """The dual's generator with the full sweep as its pricer."""
    return sweep_generator(
        dual.master_generator().count, dual._columns,
        lambda duals, use_objective: reference_reduced_costs(dual, duals, use_objective),
    )
