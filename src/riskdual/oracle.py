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
from itertools import groupby
from typing import Optional

import numpy as np

from .dual_builder import _point_rows
from .errors import CapacityError
from .geometry import cell_vertices, slot_rays, slot_vertices
from .lp_engine import LinearProgram, LPSolution, LPStatus, solve_dense_simplex

# candidate points closer than this are the same point for reporting
POINT_TOL = 1e-9
# candidates on an unbounded cell sit twice this far along its rays
RAY_RADIUS = 10.0
# candidate grid entries, over all cells
POINT_BUDGET = 100_000


@dataclass(eq=False)
class CandidateGrid:
    """Candidate support points with cell provenance.

    ``entries`` holds (cell, point) pairs, each cell's entries in one
    run; a geometric point shared by several cells appears once per
    cell because its restricted column differs per cell.  ``exact``
    says whether the grid provably attains every cell's restricted
    maximum, i.e. whether the discretized primal matches the dual bound
    rather than merely bounding it from below.
    """

    entries: list
    exact: bool


def build_candidate_grid(dual) -> CandidateGrid:
    """Collect per-cell candidate points for the discretized primal,
    from the vertex and ray tables the master's columns come from.

    Every cell contributes its vertices: a bounded cell and the corner
    through :func:`cell_vertices`, an unbounded cell its finite ones
    through :func:`slot_vertices` on the slabs and slice it was built
    with.  An unbounded cell that does not collapse also contributes
    each vertex moved twice RAY_RADIUS along each of its rays from
    :func:`slot_rays`; the grid is inexact when any such cell has a
    ray, since its restricted maximum need not be attained.  A
    collapsible cell has every record constant and a finite risk
    maximum, attained at a vertex.  Raises CapacityError when the grid
    holds more than POINT_BUDGET entries.  RAY_RADIUS and POINT_BUDGET
    are module constants, read at call time.
    """
    entries = []
    exact = True
    for cell in dual.iter_cells():
        if cell.bounded:
            points = cell_vertices(cell)
        else:
            grid, flag = cell.slabs[None], np.array([cell.slice_sign])
            _start, points = slot_vertices(dual.partition, grid, flag, [cell.id])
            if not dual.collapses(cell):
                _start, rays = slot_rays(dual.partition, grid, flag)
                if len(rays):
                    exact = False
                    moved = points[:, None, :] + 2 * RAY_RADIUS * rays
                    points = np.vstack([points, moved.reshape(-1, cell.dimension)])
        entries.extend((cell, q) for q in points)
        if len(entries) > POINT_BUDGET:
            raise CapacityError(f"candidate grid exceeds the point budget {POINT_BUDGET}")
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


def solve_primal_discretization(dual, grid: Optional[CandidateGrid] = None) -> DiscretePrimal:
    """Maximize the risk over measures on the candidate grid.

    Builds one column per grid entry from the cell-restricted values,
    restricting each cell once for all of its entries, deduplicates
    identical columns, and solves the resulting LP with the dense
    simplex, which raises CapacityError past its budget.  Infeasibility
    means no measure on the grid meets the integral constraints.
    """
    if grid is None:
        grid = build_candidate_grid(dual)
    # one row per record, as the row routes have, not the master's rows
    senses = ["<="] * dual.n_ineq + ["="] * (dual.n_eq + 1)
    rhs = np.array([rec[2] for rec in dual.records] + [1.0])
    # a cell's entries form one run, restricted once
    rows = []
    for cell, run in groupby(grid.entries, key=lambda entry: entry[0]):
        cell_vals, cell_objs = _point_rows(dual.records, dual.riskfn, cell, [q for _c, q in run])
        rows.extend(zip(cell_vals, cell_objs))
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
    n_rows = len(rhs)
    M = np.column_stack(cols) if cols else np.zeros((n_rows, 0))
    lp = LinearProgram("max", np.array(objs), M, senses, rhs, name="primal_grid")
    sol = solve_dense_simplex(lp)
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
