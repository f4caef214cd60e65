"""Primal discretization used to certify dual bounds.

Any probability measure supported on finitely many candidate points
that satisfies the integral constraints is feasible for the original
problem, so its risk value is a lower bound on the worst case.  When
the candidates include, for every cell, a point attaining the cell's
restricted maximum, the discretized primal and the finite dual close
the gap exactly; the pair then certifies each other.

Evaluation here is cell-restricted: a candidate carries the cell it
came from, and test functions are evaluated through their restriction
to that cell.  On cell boundaries the pointwise value of a slab
indicator is ambiguous, the restriction is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dual_builder import _point_rows
from .errors import CapacityError, UnsupportedCellError
from .geometry import Cell, cell_contains, cell_interior_point, cell_vertices
from .lp_engine import DENSE_BUDGET, LinearProgram, LPSolution, LPStatus, solve_dense_simplex
from .test_functions import RiskKind

# candidate points closer than this are the same point for reporting
POINT_TOL = 1e-9
# default surrogate extent for cells with infinite bounds
DEFAULT_RAY_RADIUS = 10.0
DEFAULT_POINT_BUDGET = 100_000


@dataclass(eq=False)
class CandidateGrid:
    """Candidate support points with cell provenance.

    ``entries`` holds (cell, point) pairs; a geometric point shared by
    several cells appears once per cell because its restricted column
    differs per cell.  ``exact`` says whether the grid provably attains
    every cell's restricted maximum, i.e. whether the discretized
    primal matches the dual bound rather than merely bounding it from
    below.
    """

    entries: list
    exact: bool

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    def unique_points(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((0, 0))
        pts = np.array([p for _c, p in self.entries])
        order = np.lexsort(pts.T[::-1])
        pts = pts[order]
        keep = [0]
        for i in range(1, len(pts)):
            if np.max(np.abs(pts[i] - pts[keep[-1]])) > POINT_TOL:
                keep.append(i)
        return pts[keep]


def _surrogate_points(cell, radius):
    lows = cell.lows
    highs = cell.highs
    lo_inf = ~np.isfinite(lows)
    hi_inf = ~np.isfinite(highs)
    anchor_lo = np.where(lo_inf, np.where(hi_inf, -radius, highs - 2 * radius), lows)
    anchor_hi = np.where(hi_inf, np.where(lo_inf, radius, anchor_lo + 2 * radius), highs)
    boxed = Cell(
        anchor_lo,
        anchor_hi,
        slice_sign=cell.slice_sign,
        tau=cell.tau,
        side_of_tau=cell.side_of_tau,
        cell_id=cell.id,
    )
    try:
        pts = cell_vertices(boxed)
    except UnsupportedCellError:
        # the box misses the kept side of the hyperplane
        pts = []
    return [p for p in pts if cell_contains(cell, p)]


def _cell_is_constant(dual, cell):
    """True when every record and the risk restrict to constants on the
    cell, so one interior point carries the cell's whole column."""
    if not dual.eliminable[cell.id]:
        return False
    if dual.riskfn.kind is RiskKind.CVAR_HINGE and cell.side_of_tau is not None:
        return cell.side_of_tau.value != "above"
    return True


def build_candidate_grid(
    dual,
    *,
    extra_points=None,
    ray_radius: float = DEFAULT_RAY_RADIUS,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> CandidateGrid:
    """Collect per-cell candidate points for the discretized primal.

    Bounded cells contribute their vertices.  A cell with infinite
    bounds contributes one interior point when everything restricts to
    a constant on it (any point carries the same column), otherwise
    the vertices of a radius-limited surrogate box, which keeps the
    grid usable but drops the exactness guarantee.  ``extra_points``
    are attached to every cell containing them.
    """
    entries = []
    exact = True
    for cell in dual.iter_cells():
        if cell.bounded:
            points = cell_vertices(cell)
        elif _cell_is_constant(dual, cell):
            points = [cell_interior_point(cell)]
        else:
            points = _surrogate_points(cell, ray_radius)
            exact = False
        for q in points:
            entries.append((cell, q))
        if len(entries) > point_budget:
            raise CapacityError(
                f"candidate grid exceeds the point budget {point_budget}"
            )
    if extra_points is not None:
        cells = list(dual.iter_cells())
        for q in np.atleast_2d(np.asarray(extra_points, dtype=float)):
            for cell in cells:
                if cell_contains(cell, q):
                    entries.append((cell, q.copy()))
        if len(entries) > point_budget:
            raise CapacityError(
                f"candidate grid exceeds the point budget {point_budget}"
            )
    return CandidateGrid(entries=entries, exact=exact)


@dataclass(eq=False)
class DiscretePrimal:
    """Result of the discretized primal: the achieved risk value and
    the supporting measure, as (point, mass) pairs with mass summed
    over coinciding points."""

    value: Optional[float]
    status: LPStatus
    support: list
    solution: LPSolution


def solve_primal_discretization(
    dual,
    grid: Optional[CandidateGrid] = None,
    *,
    budget: int = DENSE_BUDGET,
) -> DiscretePrimal:
    """Maximize the risk over measures on the candidate grid.

    Builds one column per grid entry from the cell-restricted values,
    restricting each cell once for all of its entries, deduplicates
    identical columns, and solves the resulting LP with the dense
    simplex.  Infeasibility means no measure on the grid meets the
    integral constraints.
    """
    if grid is None:
        grid = build_candidate_grid(dual)
    senses, rhs = dual.master_row_data()
    # a cell's entries share its Cell object, which the partition
    # caches, so identity groups them
    members = {}
    for k, (cell, _q) in enumerate(grid.entries):
        members.setdefault(id(cell), (cell, []))[1].append(k)
    rows = [None] * grid.n_entries
    for cell, ks in members.values():
        points = [grid.entries[k][1] for k in ks]
        cell_vals, cell_objs = _point_rows(dual.records, dual.riskfn, cell, points)
        for k, vals, obj in zip(ks, cell_vals, cell_objs):
            rows[k] = (vals, obj)
    cols = []
    objs = []
    reps = []
    seen = {}
    for (_cell, q), (vals, obj) in zip(grid.entries, rows):
        sig = (round(float(obj), 12), tuple(np.round(vals, 12)))
        if sig in seen:
            continue
        seen[sig] = len(cols)
        cols.append(vals)
        objs.append(obj)
        reps.append(q)
    if len(cols) > budget:
        raise CapacityError(
            f"{len(cols)} distinct candidate columns exceed the budget {budget}"
        )
    n_rows = len(rhs)
    M = np.column_stack(cols) if cols else np.zeros((n_rows, 0))
    lp = LinearProgram("max", np.array(objs), M, senses, rhs, name="primal_grid")
    sol = solve_dense_simplex(lp, budget=budget)
    support = []
    if sol.status is LPStatus.OPTIMAL:
        agg = {}
        for j, w in enumerate(sol.x):
            if w <= 1e-12:
                continue
            key = tuple(np.round(reps[j] / POINT_TOL).astype(np.int64))
            if key in agg:
                agg[key] = (agg[key][0], agg[key][1] + w)
            else:
                agg[key] = (reps[j], w)
        support = sorted(agg.values(), key=lambda pw: tuple(pw[0]))
    return DiscretePrimal(
        value=sol.objective if sol.status is LPStatus.OPTIMAL else None,
        status=sol.status,
        support=support,
        solution=sol,
    )


def duality_gap(primal_value: float, dual_value: float):
    """Gap between the two certificates: dual minus primal, and the
    same relative to max(1, |primal|).  Nonnegative up to solver
    tolerance whenever both sides solved."""
    gap = dual_value - primal_value
    rel = gap / max(1.0, abs(primal_value))
    return gap, rel
