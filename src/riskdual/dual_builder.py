"""Finite dual of the worst-case risk bound over a sliced box partition.

The bounding dual has one constraint per support point: the weighted
test functions plus the normalization constant must dominate the risk
function everywhere.  On each partition cell the data are affine, so
the infinite constraint family collapses to finitely many linear rows.
Three reduction routes produce the rows:

* an explicit multiplier block per cell (valid on any nonempty cell),
  on the cell's H-form ``F, ell = Cell.halfspaces``,
* a support-function collapse for cells where every test function
  restricts to a constant, leaving a single row per cell whose
  right-hand side is the risk's maximum over the cell, from
  :func:`~riskdual.geometry.maximize_linear_over_cell`,
* vertex enumeration for bounded cells.

All three describe the same feasible set on their common domain;
keeping the routes separate is what lets tests cross-check one against
another.  They differ only in which rows they emit: every route gives
a cell's rows as arrays from :meth:`DualLP.cell_rows`.  The row dual's
columns are y (one per inequality record), z (one per equality
record), z0, then the multipliers of each explicit block, block by
block in :meth:`DualLP.iter_cells` order.

The transposed master, used by column generation and the single-shot
solve, has one column per point entry, a vertex or a ray of a cell that
does not collapse or the corner point, then one per key, a slab tuple
over the axes that carry records and a side of tau, which stands for
every collapsed cell there; it has one row per record, but one ranged
row per two-sided pair (see :class:`DualLP`).  A cell is the hull of
its vertices plus the cone of its rays plus its lineality space, whose
generators enter as rays in both directions, so domination on the cell
is domination at every vertex plus a gap that does not fall along any
ray; the vertices and rays come from
:func:`~riskdual.geometry.slot_vertices` and
:func:`~riskdual.geometry.slot_rays` on the decoded slots.  Columns and
reduced costs come from one array source: per-axis tables of each
row's signed slab containment, indexed by slab, times the row's affine
factor at the entry's vertex, or its slope along the entry's ray.  The
tables are built from the slab ranges that
:func:`~riskdual.test_functions.check_model` returns, the one check of
a model's validity.  No column goes through a per-cell restriction; the
row-form routes above and the primal oracle still do, which keeps them
an independent check.  Pricing scores the point entries one by one and
finds the steepest keys by an exact bound-and-evaluate search over slab
boxes (see :meth:`DualLP._reduced_costs`).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

import numpy as np

from .errors import CapacityError, InputError, SolverError
from .geometry import (
    Cell,
    Partition,
    SideOfTau,
    cell_vertices,
    grid_terms,
    head_blocks,
    maximize_linear_over_cell,
    slot_rays,
    slot_vertices,
)
from . import lp_engine
from .lp_engine import (
    RC_TOL,
    ColumnGenerator,
    LinearProgram,
    LPStatus,
    solve_dcg,
    solve_dense_simplex,
    steepest_candidates,
)
from .test_functions import (
    EVAL_TOL,
    RiskFunctional,
    RiskKind,
    TestFunctionKind,
    check_model,
    normalized_records,
    restrict_to_cell,
)

log = logging.getLogger(__name__)

# linear parts below this count as constant for the collapse test
CONST_TOL = 1e-12
# boxes in the box pricer's first block of units, each next block
# twice as many
BOX_BLOCK = 2048
# a grid whose boxes, on both sides, and keys number at most this many
# together is swept whole: there one sum per box and one pick per key
# cost less than the search's per-round bounds (on 2- to 5-axis
# frequency grids, 1 BLAS thread, the two meet between 42,000 and 53,000)
SWEEP_SIZE = 2**15


@unique
class ReductionMode(Enum):
    """How per-cell dual constraints are reduced to rows.

    LAMBDA_ELIMINATED collapses a cell to one row whenever every test
    function is constant on it and the risk has a finite maximum there,
    and falls back to the explicit block otherwise, so it is always
    applicable.  EXPLICIT always emits the multiplier block.  VERTEX
    needs bounded cells.
    """

    EXPLICIT = "explicit"
    LAMBDA_ELIMINATED = "lambda_eliminated"
    VERTEX = "vertex"


def _signed_restrictions(records, cell):
    n = cell.dimension
    V = np.zeros((len(records), n))
    c = np.zeros(len(records))
    for r, (fn, sign, _rhs, _iseq) in enumerate(records):
        v, const = restrict_to_cell(fn, cell)
        V[r] = sign * v
        c[r] = sign * const
    return V, c


def _point_rows(records, riskfn, cell, points):
    """Record values at each of the cell's ``points``, with a trailing
    1 for z0, as a (len(points), len(records) + 1) array, and the risk
    value at each point."""
    V, cvec = _signed_restrictions(records, cell)
    g, e = restrict_to_cell(riskfn, cell)
    vals = np.array([np.append(V @ q + cvec, 1.0) for q in points])
    return vals, np.array([g @ q + e for q in points])


@dataclass(eq=False)
class ScanEntries:
    """The master's point columns in position order: vertices, rays and
    the corner, one entry per column.  Collapsed cells have none; their
    columns are keys (see :class:`DualLP`).

    ``cell`` holds each entry's partition cell and ``slabs`` that
    cell's grid index, one slab per axis; the corner, when there is
    one, is entry 0, of the last cell.  ``points`` holds the vertex,
    ray or corner, and ``ray`` flags the rays.  ``objective`` is the
    risk the column carries: its value at a point, its slope <g, r>
    along a ray.
    """

    cell: np.ndarray
    slabs: np.ndarray
    ray: np.ndarray
    points: np.ndarray
    objective: np.ndarray

    @property
    def count(self) -> int:
        return int(self.cell.size)


class DualLP:
    """Assembled finite dual, ready to materialize or transpose.

    Rows of the master (the transposed form) are fixed as: one '<='
    row per inequality record, but one ranged row for a two-sided pair
    (see :func:`_master_rows`), then one '=' row per equality record,
    then the normalization row with right-hand side one.  A pair's row
    a.x <= hi has a slack bounded by hi - lo, so it holds lo <= a.x too.
    ``row_records`` names the record each row takes its coefficients and
    right-hand side from, a pair's upper one, and ``row_lower`` the
    pair's lower record, or -1.  The slab tables and the affine factors
    ``_rec_v``, ``_rec_c`` are per master row; the row routes and the
    oracle keep one row per record (``records``), so they stay an
    independent check.  Cells are visited
    (:meth:`iter_cells`) with the synthetic corner first (when present),
    then cells on the high side of tau, then the rest, each group in
    partition order.  A cell collapses (:meth:`collapses`) when every
    record restricts to a constant on it and the risk has a finite
    maximum there; both are per-axis tests on its slabs, so no array
    runs over the cells.  In LAMBDA_ELIMINATED mode a collapsed cell is
    one row of the row dual, and the others get the explicit block.
    The corner is the top vertex of the last cell, the whole top grid
    cell: the master has it as a point entry of that cell, the row
    routes as the degenerate cell ``corner_cell``, one past the last
    slot, which collapses when the top cell does.

    The master's columns are the point entries of :meth:`scan_entries`,
    at positions 0 to P - 1, then one column per key.  A key is the flat
    index of a slab tuple over the axes that carry records, in table
    order, plus the box count when the column lies below tau; its
    position is P plus the key.  Every collapsed cell with those slabs
    on that side has the same column, so the key stands for all of them
    and carries their largest objective, which dominates the rest.
    ``_has`` flags the keys that hold a collapsed cell, one row per unit
    (side, head tuple: the first half of the table axes, rounded up) and
    one column per tail tuple; the other keys are not columns.  It is
    found key by key from the slab tables (:meth:`_index_keys`).  Column
    generation prices the master through :meth:`_reduced_costs`.
    """

    def __init__(self, partition, riskfn, records, spans, corner_cell):
        self.partition = partition
        self.riskfn = riskfn
        self.records = records
        self.corner_cell = corner_cell
        self.n_ineq = sum(1 for _, _, _, iseq in records if not iseq)
        self.n_eq = len(records) - self.n_ineq
        self.row_records, self.row_lower = _master_rows(records)

        # each master row's affine factor <v, x> + c; an indicator has v = 0, c = 1
        n = partition.dimension
        self._rec_v = np.zeros((self.row_records.size, n))
        self._rec_c = np.ones(self.row_records.size)
        for row, r in enumerate(self.row_records):
            fn = records[r][0]
            if fn.kind is TestFunctionKind.SLAB_AFFINE:
                self._rec_v[row] = fn.v
                self._rec_c[row] = fn.c
        self._tables = self._containment_tables(spans)
        # per table axis, the slabs that a record with a linear part holds
        linear = np.max(np.abs(self._rec_v), axis=1, initial=0.0) > CONST_TOL
        self._held = {a: np.any(mat[:, linear[rows_a]] != 0.0, axis=1)
                      for a, (rows_a, mat) in self._tables.items()}
        self._index_keys()
        self._entries = None
        self._unit_least = None

    # -- per-record slab containment, tabulated over slab indices --

    def _containment_tables(self, spans):
        counts = self.partition.slab_counts
        tables = {}
        for row, r in enumerate(self.row_records):
            (fn, sign, _rhs, _iseq), (i0, i1) = self.records[r], spans[r]
            s = np.arange(counts[fn.axis])
            rows, mat = tables.setdefault(fn.axis, ([], []))
            rows.append(row)
            # table entries carry the record sign so lookups give the
            # signed restriction constant directly
            mat.append(sign * ((s >= i0) & (s < i1)))
        out = {}
        for a, (rows, mat) in tables.items():
            out[a] = (np.array(rows, dtype=int), np.column_stack(mat))
        return out

    def _index_keys(self):
        """The key layout, ``_has`` key by key, and the units that hold a
        key.  A key's cells share its slabs on the table axes and may
        take any slab on the others; sums grow with every slab index, so
        a key holds a cell past tau exactly when its cell with the
        largest max sum does (each other axis at ``_free_top``), and one
        below tau exactly when its cell with the least sums does (each
        other axis at its first slab).  Their sums are added in axis
        order from 0.0 and :meth:`Partition.sides` decides, so every
        decision is the partition's.  Neither side holds a collapsed
        cell when a record with a linear part holds one of its slabs."""
        counts = self.partition.slab_counts
        bps = self.partition.breakpoints
        hinge = self.riskfn.kind is RiskKind.CVAR_HINGE
        self._shape = tuple(counts[a] for a in self._tables)
        half = (len(self._shape) + 1) // 2
        self._n_head = int(np.prod(self._shape[:half], dtype=np.intp))
        self._n_tail = int(np.prod(self._shape[half:], dtype=np.intp))
        self._n_boxes = self._n_head * self._n_tail
        # a record-free axis's slab in a key's cell with the largest max
        # sum: its last, or under the hinge, which collapses only cells
        # with a finite max sum, its last with a finite top
        self._free_top = {a: (max(np.count_nonzero(np.isfinite(b[1:])), 1) - 1 if hinge
                              else len(b) - 2) for a, b in enumerate(bps) if a not in self._tables}
        dim = {a: i for i, a in enumerate(self._tables)}
        top = [(dim.get(a), b[1:] if a in dim else b[1 + self._free_top[a]])
               for a, b in enumerate(bps)]
        least = [(dim.get(a), b[:-1] if a in dim else b[0]) for a, b in enumerate(bps)]
        least_top = [(dim.get(a), b[1:] if a in dim else b[1]) for a, b in enumerate(bps)]
        held = [(dim[a], h) for a, h in self._held.items() if np.any(h)]
        has = np.zeros((2, self._n_boxes), dtype=bool)
        best = -math.inf
        for heads in head_blocks(self._shape):
            constant = ~grid_terms(self._shape, heads, held, np.logical_or, False) if held else True
            low = grid_terms(self._shape, heads, least)
            high = grid_terms(self._shape, heads, top)
            up = self.partition.sides(low, high)[0] & constant
            if hinge:
                up &= np.isfinite(high)
                if np.any(up):
                    best = max(best, float(np.max(high[up])))
            low_top = grid_terms(self._shape, heads, least_top)
            down = self.partition.sides(low, low_top)[1] & constant
            # the block's keys are consecutive, row-major
            keys = slice(int(heads[0]) * up.shape[1], (int(heads[-1]) + 1) * up.shape[1])
            has[0, keys] = up.ravel()
            has[1, keys] = down.ravel()
        self._has = has.reshape(2 * self._n_head, self._n_tail)
        self._n_keys = int(np.count_nonzero(has))
        self._units = np.flatnonzero(np.any(self._has, axis=1))
        # the largest objective of a key past tau: 1 under VaR, the
        # largest max sum less tau under the hinge
        self._top_objective = max(0.0, best - self.riskfn.tau) if hinge else 1.0

    def _key_slabs(self, keys):
        """Each table axis's slab at ``keys``, in table order."""
        return np.unravel_index(keys % self._n_boxes, self._shape) if self._shape else ()

    def _objectives(self, keys):
        """The objective of each key's column, the largest of its cells'.
        VaR charges 1 past tau; the hinge charges a cell past tau its
        largest sum less tau, and 0 below; the largest sum puts every
        axis without records in its top slab, ``_free_top``."""
        above = keys < self._n_boxes
        out = above.astype(float)
        if self.riskfn.kind is RiskKind.CVAR_HINGE:
            slabs = dict(zip(self._tables, self._key_slabs(keys[above])))
            top = [slabs[a] if a in slabs else self._free_top[a]
                   for a in range(self.partition.dimension)]
            out[above] = self.partition.top_sums(top) - self.riskfn.tau
        return out

    # -- cell enumeration --

    def _needs_points(self, grid, side):
        """Which of the slots with grid indices ``grid`` and sides
        ``side`` do not collapse: a record with a linear part holds one
        of their slabs, or they lie past tau under the hinge with an
        infinite top, where the hinge has no maximum."""
        need = np.zeros(len(side), dtype=bool)
        for a, held in self._held.items():
            need |= held[grid[:, a]]
        if self.riskfn.kind is RiskKind.CVAR_HINGE:
            for a, b in enumerate(self.partition.breakpoints):
                if b[-1] == math.inf:
                    need |= (side > 0) & (grid[:, a] == len(b) - 2)
        return need

    def collapses(self, cell) -> bool:
        """Whether a partition cell, or the corner, collapses: every
        record restricts to a constant on it and the risk has a finite
        maximum there.  Reads the slabs and side the cell was built with;
        the corner has the top cell's slabs and collapses when it does."""
        side = 1 if cell.side_of_tau is SideOfTau.ABOVE else -1
        return not self._needs_points(cell.slabs[None], np.array([side]))[0]

    def _point_cells(self):
        """The slots that do not collapse, above tau first, each side in
        slot order, as (ids, grid, flag, side) arrays.  When no record
        has a linear part, and the hinge has a maximum on every cell,
        there are none, and no slot is decoded."""
        parts = []
        hinge_open = self.riskfn.kind is RiskKind.CVAR_HINGE and any(
            b[-1] == math.inf for b in self.partition.breakpoints)
        if hinge_open or any(np.any(h) for h in self._held.values()):
            for first, grid, flag, side in self.partition.slot_blocks():
                at = np.flatnonzero(self._needs_points(grid, side))
                parts.append((first + at, grid[at], flag[at], side[at]))
        if not parts:
            n = self.partition.dimension
            return (np.zeros(0, dtype=np.intp), np.zeros((0, n), dtype=np.int32),
                    np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int8))
        ids, grid, flag, side = (np.concatenate(x) for x in zip(*parts))
        order = np.argsort(side < 0, kind="stable")
        return ids[order], grid[order], flag[order], side[order]

    def iter_cells(self):
        """All cells: corner first, then high side, then the rest."""
        if self.corner_cell is not None:
            yield self.corner_cell
        yield from self.partition.cells(above=True)
        yield from self.partition.cells(above=False)

    def cell_rows(self, cell, mode):
        """Row-dual rows of one cell under the reduction ``mode``, as
        ``(base, lam, senses, rhs)``.

        ``base`` holds each row's coefficients on y and z (in record
        order), then z0; ``lam`` holds those on the cell's halfspace
        multipliers, numbered in the order the rows first use them, or
        is None when the rows have none.  VERTEX mode gives one '>=' row
        per vertex, since an affine function dominates another on a
        polytope exactly when it does so at every vertex.  A collapsible
        cell in LAMBDA_ELIMINATED mode gives one '>=' row on the
        constant parts whose right-hand side is the risk's maximum over
        the cell.  Any other cell gets the explicit block, valid on any
        nonempty cell: one '=' row per coordinate tying the weighted
        linear parts to the halfspace normals through nonnegative
        multipliers, then the '>=' row on the constant parts.
        """
        if not isinstance(mode, ReductionMode):
            raise InputError(f"unknown reduction mode: {mode!r}")
        if mode is ReductionMode.VERTEX:
            base, rhs = _point_rows(self.records, self.riskfn, cell, cell_vertices(cell))
            return base, None, [">="] * len(rhs), rhs
        V, cvec = _signed_restrictions(self.records, cell)
        g, e = restrict_to_cell(self.riskfn, cell)
        const = np.append(cvec, 1.0)
        if mode is ReductionMode.LAMBDA_ELIMINATED and self.collapses(cell):
            support = maximize_linear_over_cell(cell, g)[0]
            return const[None, :], None, [">="], np.array([e + support])
        n = cell.dimension
        F, ell = cell.halfspaces
        first_use = np.argsort(np.argmax(F != 0.0, axis=1), kind="stable")
        base = np.vstack([np.hstack([V.T, np.zeros((n, 1))]), const])
        lam = np.vstack([-F[first_use].T, ell[first_use]])
        return base, lam, ["="] * n + [">="], np.append(g, e)

    # -- materialized dual (row form) --

    def materialize(self, mode=ReductionMode.LAMBDA_ELIMINATED) -> LinearProgram:
        """Build the row dual under the reduction ``mode`` from every
        cell's :meth:`cell_rows`.

        Columns are y, z, z0, then each explicit block's multipliers,
        block by block in :meth:`iter_cells` order.  A row with no
        multipliers is dropped when an earlier one has the same sense,
        right-hand side and nonzero coefficients, each rounded to 12
        digits.  Raises CapacityError when the row or column count would
        exceed ``lp_engine.DENSE_BUDGET``.
        """
        budget = lp_engine.DENSE_BUDGET
        n_cells = self.partition.cell_count + (1 if self.corner_cell is not None else 0)
        if n_cells > budget:
            raise CapacityError(
                f"{n_cells} cells exceed the materialization budget {budget}"
            )
        blocks = []
        seen = set()
        n_rows = n_lam = 0
        for cell in self.iter_cells():
            base, lam, senses, rhs = self.cell_rows(cell, mode)
            if lam is None:
                keep = []
                for i, row in enumerate(base):
                    nz = np.flatnonzero(row)
                    sig = (
                        senses[i],
                        round(float(rhs[i]), 12),
                        tuple(nz),
                        tuple(np.round(row[nz], 12)),
                    )
                    if sig not in seen:
                        seen.add(sig)
                        keep.append(i)
                base, rhs, senses = base[keep], rhs[keep], [senses[i] for i in keep]
            blocks.append((base, lam, n_lam, senses, rhs))
            n_rows += len(rhs)
            if n_rows > budget:
                raise CapacityError(f"dual row count exceeds the budget {budget}")
            if lam is not None:
                n_lam += lam.shape[1]
        n_base = len(self.records) + 1
        if n_base + n_lam > budget:
            raise CapacityError(
                f"dual column count {n_base + n_lam} exceeds the budget {budget}"
            )

        A = np.zeros((n_rows, n_base + n_lam))
        A[:, :n_base] = np.vstack([base for base, *_ in blocks])
        at = 0
        for base, lam, offset, _senses, _rhs in blocks:
            if lam is not None:
                start = n_base + offset
                A[at : at + len(base), start : start + lam.shape[1]] = lam
            at += len(base)
        senses = [s for *_, block_senses, _rhs in blocks for s in block_senses]
        rhs = np.concatenate([block_rhs for *_, block_rhs in blocks])
        cost = np.zeros(n_base + n_lam)
        cost[: n_base - 1] = [rec[2] for rec in self.records]
        cost[n_base - 1] = 1.0
        free = np.zeros(n_base + n_lam, dtype=bool)
        free[self.n_ineq : n_base] = True
        return LinearProgram("min", cost, A, senses, rhs, var_free=free, name="dual")

    # -- transposed master (column form) --

    def master_row_data(self):
        """Senses, right-hand sides and ranges of the master's rows: a
        pair's row has range hi - lo, every other row +inf."""
        rhs = np.array([rec[2] for rec in self.records] + [1.0])
        rows = np.append(self.row_records, len(self.records))
        paired = np.append(self.row_lower >= 0, False)
        ranges = np.full(rows.size, np.inf)
        # a lower record's right-hand side is -lo
        ranges[paired] = rhs[rows[paired]] + rhs[self.row_lower[paired[:-1]]]
        n_ineq = rows.size - self.n_eq - 1
        return ["<="] * n_ineq + ["="] * (self.n_eq + 1), rhs[rows], ranges

    def record_duals(self, duals):
        """The master's row duals laid out as the row dual's y, z, z0: one
        per record, then z0.  A pair's row dual y, free, splits into
        y_hi = max(y, 0) on its upper record and y_lo = max(-y, 0) on its
        lower one."""
        y = duals[:-1]
        paired = self.row_lower >= 0
        values = np.empty(len(self.records) + 1)
        values[self.row_records] = np.where(paired & ~(y > 0.0), 0.0, y)
        values[self.row_lower[paired]] = np.where(y[paired] < 0.0, -y[paired], 0.0)
        values[-1] = duals[-1]
        return values

    def scan_entries(self) -> ScanEntries:
        """The master's point columns, built on first use.

        The corner comes first, as a point entry of the last cell; then
        every cell that does not collapse, in :meth:`iter_cells` order,
        gives one entry per vertex, in :func:`slot_vertices` order,
        then one per ray when it is unbounded.  By Minkowski-Weyl a cell
        is the hull of its vertices plus the cone of its rays plus its
        lineality space, whose generators appear as rays in both
        directions; so an affine function is nonnegative on the cell
        exactly when it is at every vertex and does not fall along any
        ray.  A cell with a whole-line axis is always sliced, because tau
        is finite, and :func:`slot_vertices` takes its vertices from
        a pointed section.  The cells that do not collapse are the only
        ones listed (:meth:`_point_cells`).
        """
        if self._entries is not None:
            return self._entries
        order, grid, flag, side = self._point_cells()
        vstart, vpoints = slot_vertices(self.partition, grid, flag, order)
        rstart, rays = slot_rays(self.partition, grid, flag)
        nv, nr = np.diff(vstart), np.diff(rstart)
        cell = np.repeat(order, nv + nr)
        slabs = np.repeat(grid, nv + nr, axis=0)
        up = np.repeat(side > 0, nv + nr)
        # a cell's entries are its vertices, then its rays
        first = np.cumsum(nv + nr) - nv - nr
        vpos = np.repeat(first - vstart[:-1], nv) + np.arange(len(vpoints))
        rpos = np.repeat(first + nv - rstart[:-1], nr) + np.arange(len(rays))
        points = np.empty((cell.size, self.partition.dimension))
        points[vpos] = vpoints
        points[rpos] = rays
        ray = np.zeros(cell.size, dtype=bool)
        ray[rpos] = True
        if self.riskfn.kind is RiskKind.CVAR_HINGE:
            # the hinge is sum(x) - tau past the threshold: sum(q) - tau at
            # a vertex, sum(r) along a ray; there is no corner under this risk
            tau = np.where(ray, 0.0, self.riskfn.tau)
            objective = np.where(up, np.sum(points, axis=1) - tau, 0.0)
        else:
            objective = (up & ~ray).astype(float)
        if self.corner_cell is not None:
            # the corner is a point of the top cell, the last slot: it has
            # that cell's slabs on every axis, as no slab ends inside it;
            # the indicator risk charges it, as it lies on the threshold
            cell = np.concatenate([[self.partition.cell_count - 1], cell])
            top = np.array([self.partition.slab_counts], dtype=slabs.dtype) - 1
            slabs = np.concatenate([top, slabs])
            ray = np.concatenate([[False], ray])
            points = np.vstack([self.corner_cell.lows, points])
            objective = np.concatenate([[1.0], objective])
        self._entries = ScanEntries(cell, slabs, ray, points, objective)
        return self._entries

    def master_positions(self):
        """Every master column's position, in increasing order: the point
        entries, then the keys that hold a collapsed cell."""
        start = self.scan_entries().count
        return np.concatenate([np.arange(start), start + np.flatnonzero(self._has)])

    def _index_units(self):
        """The search's per-run tables, built on its first use from the
        keys alone, reading ``_has`` a block of units at a time.

        Each side's tails are ranked by how many of its units hold a key
        there, fewest first: a tail that puts one unit's box past tau
        puts those of units with larger sums there too, and below
        likewise, so a unit's keys tend to be the last tails.  In any
        order a unit's keys lie at or after its first, so its slot in
        :meth:`_bounded_units`' table of suffix minima is its first
        key's rank; the order only makes the bound tight.
        """
        n_head, n_tail = self._n_head, self._n_tail
        has = self._has.reshape(2, n_head, n_tail)
        step = max(SWEEP_SIZE // n_tail, 1)
        blocks = [(side, slice(lo, lo + step)) for side in (0, 1) for lo in range(0, n_head, step)]
        held = np.zeros((2, n_tail), dtype=np.intp)
        for side, rows in blocks:
            held[side] += np.count_nonzero(has[side, rows], axis=0)
        self._tail_order = np.argsort(held, axis=1, kind="stable")
        first = np.empty((2, n_head), dtype=np.intp)
        for side, rows in blocks:
            first[side, rows] = np.argmax(has[side, rows][:, self._tail_order[side]], axis=1)
        # for each unit that holds a key, its head tuple, its slot and
        # the largest objective on its side (see _index_keys)
        above = self._units < n_head
        self._unit_head = self._units % n_head
        self._unit_least = first.ravel()[self._units] + np.where(above, 0, n_tail)
        self._unit_obj = np.where(above, self._top_objective, 0.0)

    def _columns(self, pos):
        """Master columns at positions ``pos``, as a (rows, len(pos))
        matrix, and their objectives.  Record r's value is its signed
        slab containment times its affine factor: <v, q> + c at a point
        entry, c on a key, <v, r> along a ray, whose normalization entry
        is 0."""
        entries = self.scan_entries()
        pos = np.asarray(pos)
        at = pos < entries.count
        points, keys = pos[at], pos[~at] - entries.count
        M = np.zeros((self._rec_c.size + 1, pos.size))
        slabs = np.empty(pos.size, dtype=np.intp)
        for (a, (rows_a, mat)), s in zip(self._tables.items(), self._key_slabs(keys)):
            slabs[at], slabs[~at] = entries.slabs[points, a], s
            M[rows_a, :] = mat[slabs, :].T
        M[-1, :] = 1.0
        factor = np.repeat(self._rec_c[:, None], pos.size, axis=1)
        ray = np.zeros(pos.size, dtype=bool)
        ray[at] = entries.ray[pos[at]]
        M[-1, ray] = 0.0
        factor[:, ray] = 0.0
        factor[:, at] += self._rec_v @ entries.points[pos[at]].T
        M[:-1] *= factor
        objective = np.empty(pos.size)
        objective[at] = entries.objective[pos[at]]
        objective[~at] = self._objectives(keys)
        return M, objective

    def _reduced_costs(self, duals, use_objective, q, seen):
        """The round's picks, as :class:`ColumnGenerator` defines them:
        the q steepest columns outside ``seen`` whose reduced cost is
        below -RC_TOL, steepest first, ties broken by position.

        Phase one prices the negated duals with objective weight 0.  That
        is exactly its -duals @ column: negation commutes with the table
        products and the running sums, so only the sign of a zero can
        change.  Each axis's slab table weighted by the duals gives a
        record part per slab.  A box's value is z0 plus its parts,
        summed in table order; a key scores its box's value less its
        weighted objective.  Point entries (vertices, rays and the
        corner) are all scored: the box value plus <G, q>, with G the
        dual-weighted sum of the linear parts of the records whose slab
        holds the cell, or <G, r> alone for a ray.

        Keys are swept when the grid is small (SWEEP_SIZE), and found by
        bound and evaluate otherwise: units are evaluated in order of a
        lower bound on their scores over the tails where they hold keys
        (:meth:`_bounded_units`), in blocks that double up to SWEEP_SIZE
        boxes, until the next bound passes the q-th pick so far, or
        -RC_TOL while there are fewer than q; a unit whose bound equals
        it is still evaluated, as its keys may tie, and a tie counts only
        before that pick.  The search is exact: every box value
        continues the head partial by the same additions in the same
        order as the running sum over the axes, so it is bitwise that
        sum, and a unit or a box is skipped only when it cannot beat the
        q-th pick, ties broken by position.  So the picks, and an empty
        answer as a certificate, are those of a sweep of every column.
        Each call logs, at debug level, how many boxes and point entries
        it scored.
        """
        duals = np.asarray(duals, dtype=float)
        weight = 1.0
        if not use_objective:
            duals, weight = -duals, 0.0
        tables = [mat @ (duals[rows_a] * self._rec_c[rows_a])
                  for rows_a, mat in self._tables.values()]
        points = self.scan_entries().count
        pos, vals = np.arange(points), self._point_costs(duals, tables, weight)
        self._scored = points
        if self._n_keys:
            head, tail = tables[: (len(tables) + 1) // 2], tables[(len(tables) + 1) // 2 :]
            partial = self._box_sums(duals[-1:], head)[0]
            pos, vals = self._search_units(pos, vals, partial, tail, weight, q, seen)
        log.debug("pricing scored %d boxes and %d point entries", self._scored - points, points)
        return steepest_candidates(pos, vals, q, seen)

    def _search_units(self, pos, vals, partial, tail, weight, q, seen):
        """The point picks among ``(pos, vals)`` joined by the keys that
        can beat their q-th, ``(cut, last)`` as (value, position): the
        units by increasing bound, in doubling blocks, while the next
        bound is at most the cut.  On a grid of at most SWEEP_SIZE boxes
        and keys, every key instead."""
        start, n_tail = self._entries.count, self._n_tail
        if 2 * self._n_boxes + self._n_keys <= SWEEP_SIZE:
            boxes = self._box_sums(np.concatenate([partial, partial]), tail)
            keys = np.flatnonzero(self._has)
            box = boxes[self._has] - weight * self._objectives(keys)
            self._scored += boxes.size
            return np.concatenate([pos, start + keys]), np.concatenate([vals, box])
        if self._unit_least is None:
            self._index_units()
        # blocks double up to SWEEP_SIZE boxes, or keep a larger first size
        block = max(BOX_BLOCK // n_tail, 1)
        most = max(block, SWEEP_SIZE // n_tail)
        cut, last = -RC_TOL, start + 2 * self._n_boxes
        pos, vals = steepest_candidates(pos, vals, q, seen)
        if vals.size == q:
            cut, last = vals[-1], pos[-1]
        units, bound = self._bounded_units(partial, tail, weight, cut)
        done = 0
        while done < units.size and bound[done] <= cut:
            stop = min(done + block, int(np.searchsorted(bound, cut, side="right")))
            new_pos, new_vals = self._box_costs(units[done:stop], partial, tail, weight, cut, last)
            pos, vals = steepest_candidates(
                np.concatenate([pos, new_pos]), np.concatenate([vals, new_vals]), q, seen
            )
            if vals.size == q:
                cut, last = vals[-1], pos[-1]
            self._scored += (stop - done) * n_tail
            done, block = stop, min(2 * block, most)
        return pos, vals

    def _bounded_units(self, partial, tail, weight, cut):
        """Indices into ``_units`` of the units whose bound is at most
        ``cut``, by increasing bound, and their bounds.  A unit's bound
        is its head partial plus the least tail part from its first key
        on, in its side's tail order (:meth:`_index_units`), less its
        side's largest objective times ``weight`` and a rounding slack:
        no score in the unit falls below it."""
        part = self._box_sums(np.zeros(1), tail)[0]
        suffix = np.minimum.accumulate(part[self._tail_order][:, ::-1], axis=1)[:, ::-1]
        least = suffix.ravel()[self._unit_least]
        p = partial[self._unit_head]
        obj = weight * self._unit_obj
        # a box sum rounds by at most a few eps of its terms' sizes
        size = np.abs(p) + sum(np.max(np.abs(t)) for t in tail) + obj
        slack = 4 * (len(self._tables) + 2) * np.finfo(float).eps * size
        bound = p + least - obj - slack
        keep = np.flatnonzero(bound <= cut)
        order = keep[np.argsort(bound[keep], kind="stable")]
        return order, bound[order]

    def _box_costs(self, at, partial, tail, weight, cut, last):
        """Positions and reduced costs of the keys of units ``_units[at]``
        that can beat the q-th pick so far, ``(cut, last)`` as (value,
        position).  Each box value continues its head partial over the
        tail tables in table order.  Less the side's largest weighted
        objective it rounds, rounding being monotone, to at most the
        key's score; a box that ties the cut counts only before
        ``last``."""
        units = self._units[at]
        vals = self._box_sums(partial[self._unit_head[at]], tail)
        low = vals - weight * self._unit_obj[at, None]
        row, col = np.nonzero(self._has[units] & (low <= cut))
        keys = units[row] * vals.shape[1] + col
        keep = (low[row, col] < cut) | (self._entries.count + keys < last)
        keys, box = keys[keep], vals[row[keep], col[keep]]
        return self._entries.count + keys, box - weight * self._objectives(keys)

    @staticmethod
    def _box_sums(partial, tables):
        """Running sums, one row per partial and one column per slab
        tuple of ``tables``, row-major: each partial plus its tuple's
        table entries, added in table order."""
        vals = partial.reshape((-1,) + (1,) * len(tables))
        for i, t in enumerate(tables):
            vals = vals + t.reshape((-1,) + (1,) * (len(tables) - 1 - i))
        return vals.reshape(partial.size, math.prod(t.size for t in tables))

    def _point_costs(self, duals, tables, weight):
        """Reduced costs of the point entries, in position order."""
        entries = self._entries
        if not entries.count:
            return np.zeros(0)
        slabs = [entries.slabs[:, a] for a in self._tables]
        box = duals[-1]
        for t, s in zip(tables, slabs):
            box = box + t[s]
        # np.take: a row gather, bit for bit the indexing, but faster
        G = np.zeros((entries.count, self.partition.dimension))
        for (rows_a, mat), s in zip(self._tables.values(), slabs):
            G += np.take(mat @ (duals[rows_a, None] * self._rec_v[rows_a]), s, axis=0)
        const = np.where(entries.ray, 0.0, box)
        score = const + np.einsum("ij,ij->i", G, entries.points)
        return score - weight * entries.objective

    def master_generator(self) -> ColumnGenerator:
        """Column producer over the master's columns: one per point
        entry (every vertex and extreme ray of a cell that does not
        collapse, and the corner), then one per key.

        ``column_at`` is :meth:`_columns`, which builds a whole batch of
        positions as one block; it and the pricer, :meth:`_reduced_costs`,
        read the same source, the per-axis slab tables and the point
        table, for indicator and affine records alike; neither restricts
        a record to a cell.
        """
        return ColumnGenerator(self.scan_entries().count + self._n_keys, self._columns,
                               self._reduced_costs)

    def master_lp(self) -> LinearProgram:
        """Fully materialized master with one column per master
        position, in position order.

        This is the single-shot route: every column is built up front
        and handed to the dense solver.  Raises CapacityError when the
        column count exceeds ``lp_engine.DENSE_BUDGET``.
        """
        positions = self.master_positions()
        budget = lp_engine.DENSE_BUDGET
        if positions.size > budget:
            raise CapacityError(f"{positions.size} master columns exceed the budget {budget}")
        senses, rhs, ranges = self.master_row_data()
        M, robj = self._columns(positions)
        return LinearProgram("max", robj, M, senses, rhs, name="master", row_range=ranges)

    def master_seed(self):
        """Restricted master primed for column generation.

        Seeds the first 8 master positions (point entries, then keys
        unit by unit) plus, for every table axis and each of its slabs,
        the first point entry past the corner whose cell lies in that
        slab.  The batch spares phase one a round where point entries
        are few or none; the point entries start the rows of the records
        holding their slabs covered.  A slab with no point entry gets no
        column of its own: pricing finds its keys.  Returns
        (LinearProgram, ColumnGenerator) with the seeded positions
        marked generated.
        """
        gen = self.master_generator()
        entries = self.scan_entries()
        picks = set(range(min(8, entries.count)))
        for unit in self._units:
            if len(picks) == 8:
                break
            keys = unit * self._n_tail + np.flatnonzero(self._has[unit])[: 8 - len(picks)]
            picks.update((entries.count + keys).tolist())
        skip = 0 if self.corner_cell is None else 1
        for a in self._tables:
            picks.update((skip + np.unique(entries.slabs[skip:, a], return_index=True)[1]).tolist())
        pos = np.array(sorted(picks), dtype=np.intp)
        senses, rhs, ranges = self.master_row_data()
        M, objs = self._columns(pos)
        gen.generated.update(pos.tolist())
        lp = LinearProgram("max", objs, M, senses, rhs, name="master_seed", row_range=ranges)
        return lp, gen


def _master_rows(records):
    """The master's rows over ``records`` as two index arrays: each row's
    record, and the lower record paired into it, or -1.

    The k-th upper record of a definition (kind, axis, slab, v and c)
    pairs with its k-th lower record when lo <= hi; the pair is one row
    on the upper record, placed where the first of the two stands.  A
    pair with lo > hi stays two rows, so phase one still finds it
    infeasible.  Every other record is a row of its own, in record
    order, equalities last."""
    groups = {}
    for r, (fn, sign, _rhs, iseq) in enumerate(records):
        if not iseq:
            v = None if fn.v is None else tuple(fn.v.tolist())
            key = (fn.kind, fn.axis, fn.slab, v, fn.c)
            groups.setdefault(key, ([], []))[sign < 0].append(r)
    lower = {}
    for uppers, lowers in groups.values():
        for u, lo in zip(uppers, lowers):
            # a lower record's right-hand side is -lo, so hi - lo >= 0
            if records[u][2] + records[lo][2] >= 0.0:
                lower[u] = lo
    upper_of = {lo: u for u, lo in lower.items()}
    rows = list(dict.fromkeys(upper_of.get(r, r) for r in range(len(records))))
    return np.array(rows, dtype=np.intp), np.array([lower.get(u, -1) for u in rows], dtype=np.intp)


def _make_corner_cell(partition, riskfn):
    if riskfn.kind is not RiskKind.VAR_INDICATOR:
        return None
    # with no cell past tau, the top corner is the only point that can
    # reach it, and it does under the test evaluate applies
    if partition.has_above_cells() or partition.max_total_sum < riskfn.tau - EVAL_TOL:
        return None
    corner = np.array([b[-1] for b in partition.breakpoints])
    return Cell(
        corner,
        corner.copy(),
        tau=partition.tau,
        side_of_tau=SideOfTau.ABOVE,
        cell_id=partition.cell_count,
        degenerate=True,
        slabs=np.array(partition.slab_counts) - 1,
    )


def assemble_dual_lp(partition: Partition, testfns, riskfn: RiskFunctional) -> DualLP:
    """Check the model and assemble the finite dual.

    The model must pass :func:`~riskdual.test_functions.check_model` on
    the partition's breakpoints, and the partition must be sliced at
    the risk threshold.  When the threshold coincides with the largest
    reachable sum, the indicator risk still charges that single point;
    a degenerate corner cell is appended so the dual sees it.
    """
    records = normalized_records(testfns)
    spans = check_model(partition.breakpoints, [rec[0] for rec in records], riskfn)
    if abs(partition.tau - riskfn.tau) > EVAL_TOL:
        raise InputError(
            f"partition is sliced at {partition.tau}, risk threshold is {riskfn.tau}"
        )
    corner = _make_corner_cell(partition, riskfn)
    return DualLP(partition, riskfn, records, spans, corner)


@dataclass(eq=False)
class BoundResult:
    """Answer of :func:`solve_bound`.

    ``status`` is 'optimal' (``bound`` is the worst-case value and
    ``multipliers`` its dual certificate ``(y, z, z0)``), 'infeasible'
    (no measure meets the integral constraints) or 'unbounded' (the
    bound is +inf).  ``engine`` is 'dcg' or 'dense_rows';
    ``columns_generated`` is set by 'dcg' only.  ``iterations`` counts
    the pivots and ``flips`` the bound flips of ranged rows' slacks,
    which 'dcg' masters alone have.  ``rounds`` counts the dense solves,
    one per column-generation round, and ``refactors`` their basis
    factorizations, pivot-check solves included.  The multipliers are
    per record, a pair's ranged row split back into its two records.
    ``assemble_s`` and ``solve_s`` are the wall-clock seconds of the
    assembly and of the solve that followed it; ``seed_s``, set by
    'dcg' only, is the part of ``solve_s`` spent in
    :meth:`DualLP.master_seed`, which lists the point entries.
    """

    status: str
    bound: Optional[float]
    engine: str
    dual: DualLP
    iterations: int
    rounds: int = 1
    refactors: int = 0
    flips: int = 0
    columns_generated: Optional[int] = None
    certified: bool = False
    feas_residual: Optional[float] = None
    multipliers: Optional[tuple] = None
    assemble_s: float = 0.0
    solve_s: float = 0.0
    seed_s: Optional[float] = None


def solve_bound(
    partition: Partition,
    testfns,
    riskfn: RiskFunctional,
    mode: ReductionMode = ReductionMode.LAMBDA_ELIMINATED,
) -> BoundResult:
    """Worst-case bound of ``riskfn`` over the measures that meet
    ``testfns``, on a partition sliced at the risk threshold.

    LAMBDA_ELIMINATED mode runs column generation over the point
    entries and keys, which cover every cell; EXPLICIT and VERTEX solve
    the dense row dual in one shot.  Each engine's solver status maps
    to the bound's status in one place, :func:`_dcg_status` and
    :func:`_rows_status`, which raise SolverError on an iteration limit,
    an uncertified DCG stop or any status without a meaning here.

    'unbounded' is the dual's value.  It can exceed the primal supremum
    when a zero upper bound pins the mass of an unbounded cell past tau:
    there is then no Slater point.
    """
    t0 = time.perf_counter()
    dual = assemble_dual_lp(partition, testfns, riskfn)
    t1 = time.perf_counter()
    seed_s = None
    if mode is ReductionMode.LAMBDA_ELIMINATED:
        seed = dual.master_seed()
        seed_s = time.perf_counter() - t1
        engine, sol = "dcg", solve_dcg(*seed)
        status, values = _dcg_status(sol, dual), sol.duals
    else:
        engine, sol = "dense_rows", solve_dense_simplex(dual.materialize(mode))
        status, values = _rows_status(sol, partition, testfns, riskfn), sol.x
    optimal = status == "optimal"
    if optimal and engine == "dcg":
        values = dual.record_duals(values)
    k, n = dual.n_ineq, dual.n_ineq + dual.n_eq
    return BoundResult(
        status, float(sol.objective) if optimal else None, engine, dual,
        iterations=sol.iterations,
        rounds=sol.rounds,
        refactors=sol.refactors,
        flips=sol.flips,
        columns_generated=sol.columns_generated if engine == "dcg" else None,
        certified=optimal,
        feas_residual=sol.feas_residual,
        multipliers=(values[:k], values[k:n], values[n]) if optimal else None,
        assemble_s=t1 - t0,
        solve_s=time.perf_counter() - t1,
        seed_s=seed_s,
    )


def _dcg_status(sol, dual) -> str:
    """The bound's status after column generation.  An optimum counts
    only after a clean pricing sweep: a restricted master's optimum
    bounds the worst case from below, and its infeasibility proves
    nothing.  An unbounded master means +inf when it has ray columns."""
    if sol.status is LPStatus.UNBOUNDED and np.any(dual.scan_entries().ray):
        # only phase two reports UNBOUNDED: the restricted master is
        # feasible, and its ray is a ray of the full master
        return "unbounded"
    if sol.status not in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE):
        raise SolverError(f"master solve ended with {sol.status.value}")
    if not sol.certified:
        raise SolverError("column generation stopped before a clean pricing sweep")
    return sol.status.value


def _rows_status(sol, partition, testfns, riskfn) -> str:
    """The bound's status after the row dual's solve, which holds every
    cell's constraints, so its optimum is final.  UNBOUNDED means the
    dual rows fall without limit, so no measure fits; INFEASIBLE under
    the hinge means no finite certificate, and the bound is +inf if a
    measure fits."""
    if sol.status is LPStatus.OPTIMAL:
        return "optimal"
    if sol.status is LPStatus.UNBOUNDED:
        return "infeasible"
    if sol.status is LPStatus.INFEASIBLE and riskfn.kind is RiskKind.CVAR_HINGE:
        # the VaR bound on the same cells is 'optimal' exactly when a
        # measure fits (z0 = 1 always certifies it, so this cannot recurse)
        probe = solve_bound(partition, testfns, RiskFunctional(RiskKind.VAR_INDICATOR, riskfn.tau))
        return "unbounded" if probe.status == "optimal" else "infeasible"
    raise SolverError(f"dual solve ended with {sol.status.value}")
