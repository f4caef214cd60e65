"""Finite dual of the worst-case risk bound over a sliced box partition.

The bounding dual has one constraint per support point: the weighted
test functions plus the normalization constant must dominate the risk
function everywhere.  On each partition cell the data are affine, so
the infinite constraint family collapses to finitely many linear rows.
Three reduction routes produce the rows:

* an explicit multiplier block per cell (valid on any nonempty cell),
* a support-function collapse for cells where every test function
  restricts to a constant, leaving a single row per cell,
* vertex enumeration for bounded cells.

All three describe the same feasible set on their common domain;
keeping the routes separate is what lets tests cross-check one against
another.  They differ only in which rows they emit: every route gives
a cell's rows as arrays from :meth:`DualLP.cell_rows`.  The row dual's
columns are y (one per inequality record), z (one per equality
record), z0, then the multipliers of each explicit block, block by
block in scan order.

The transposed master, used by column generation and the single-shot
solve, has one column per scan entry: a collapsible cell, a vertex or
a ray of any other cell, or the corner point.  A cell is the hull of
its vertices plus the cone of its rays plus its lineality space, whose
generators enter as rays in both directions, so domination on the cell
is domination at every vertex plus a gap that does not fall along any
ray.  Columns and reduced costs come from one array source: per-axis
tables of each record's signed slab containment, indexed by the cells'
slab indices, times the record's affine factor at the entry's vertex,
or its slope along the entry's ray.  No column goes through a
per-cell restriction; the row-form routes above and the primal oracle
still do, which keeps them an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

import numpy as np

from .errors import (
    CapacityError,
    InputError,
    ModelInfeasibleOnCell,
    PartitionIncompatibleError,
    SolverError,
)
from .geometry import (
    Cell,
    Partition,
    SideOfTau,
    cell_vertices,
    maximize_linear_over_cell,
    partition_rays,
    partition_vertices,
)
from .lp_engine import (
    DENSE_BUDGET,
    ColumnGenerator,
    LinearProgram,
    LPStatus,
    solve_dcg,
    solve_dense_simplex,
)
from .test_functions import (
    EVAL_TOL,
    RiskFunctional,
    RiskKind,
    TestFunctionKind,
    normalized_records,
    restrict_to_cell,
    slab_inside,
)

# slab endpoints must sit on partition breakpoints within this
GRID_TOL = 1e-9
# partition tau and risk tau must agree within this
TAU_MATCH_TOL = 1e-9
# linear parts below this count as constant for the collapse test
CONST_TOL = 1e-12
# threshold at which the top corner of the box counts as reaching tau
CORNER_TOL = 1e-9


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


def precompute_cell_lambda(cell, g):
    """Best multiplier vector for a collapsed cell row.

    Solves max lam @ ell subject to sum_j lam_j f_j = -g, lam >= 0
    over the cell's halfspaces (f_j, ell_j), reading the multipliers
    off the face active at the maximizer of <g, x>.  Returns (lam, C)
    with C the optimum.  Raises ModelInfeasibleOnCell when no feasible
    lam exists, which happens exactly when <g, x> is unbounded above
    on the cell.
    """
    g = np.asarray(g, dtype=float)
    val, _x, lam = maximize_linear_over_cell(cell, g)
    if not np.isfinite(val):
        raise ModelInfeasibleOnCell(
            f"cell {cell.id} is unbounded along the risk gradient",
            cell_id=cell.id,
        )
    return lam, -val


@dataclass(eq=False)
class ScanEntries:
    """Master columns in scan order, one entry per column.

    ``cell`` holds the partition cell of each entry, -1 for the corner.
    ``vertex`` holds the entry's row in ``points`` for a vertex, a ray
    or the corner, -1 for a collapsed cell.  ``ray`` flags the entries
    whose row is an extreme ray of an unbounded cell rather than a
    point.  ``objective`` is the risk the column carries: its value at
    a point, its slope <g, r> along a ray.
    """

    cell: np.ndarray
    vertex: np.ndarray
    ray: np.ndarray
    points: np.ndarray
    objective: np.ndarray

    @property
    def count(self) -> int:
        return int(self.cell.size)


class DualLP:
    """Assembled finite dual, ready to materialize or transpose.

    Rows of the master (the transposed form) are fixed as: one '<='
    row per inequality record, one '=' row per equality record, then
    the normalization row with right-hand side one.  Cells are scanned
    with the synthetic corner first (when present), then cells on the
    high side of tau, then the rest, each group in partition order.
    ``eliminable`` flags the cells on which every record restricts to
    a constant and the risk has a finite maximum; in LAMBDA_ELIMINATED
    mode those collapse to one row of the row dual and one master
    column, and the others get the explicit block and one master
    column per vertex and per extreme ray.  The corner, when present,
    is the extra last entry.
    """

    def __init__(self, partition, riskfn, mode, records, corner_cell):
        self.partition = partition
        self.riskfn = riskfn
        self.mode = mode
        self.records = records
        self.corner_cell = corner_cell
        self.n_ineq = sum(1 for _, _, _, iseq in records if not iseq)
        self.n_eq = len(records) - self.n_ineq

        grid, flag, side, rmin, rmax = partition.ref_arrays()
        self._grid = grid
        self._side = side
        above = np.nonzero(side > 0)[0]
        below = np.nonzero(side <= 0)[0]
        self.scan_order = np.concatenate([above, below])

        tau = riskfn.tau
        if riskfn.kind is RiskKind.VAR_INDICATOR:
            self._r_cells = (side > 0).astype(float)
        else:
            self._r_cells = np.where(side > 0, rmax - tau, 0.0)

        # restrict_to_cell checks these on every cell; here once per model
        if abs(partition.tau - tau) > EVAL_TOL:
            raise PartitionIncompatibleError(
                f"cells were sliced at tau={partition.tau}, risk uses tau={tau}"
            )
        # each record's affine factor <v, x> + c; an indicator has v = 0, c = 1
        n = partition.dimension
        self._rec_v = np.zeros((len(records), n))
        self._rec_c = np.ones(len(records))
        for row, (fn, _sign, _rhs, _iseq) in enumerate(records):
            if fn.kind is TestFunctionKind.SLAB_AFFINE:
                if fn.v.shape != (n,):
                    raise InputError(
                        f"test function {fn.id}: v has dimension {fn.v.size}, cell has {n}"
                    )
                self._rec_v[row] = fn.v
                self._rec_c[row] = fn.c
        self._tables = self._containment_tables()
        # slab indices per cell; the corner takes an extra last row (its
        # table rows hold the top breakpoint), so entry cell -1 finds it
        self._grid_ext = grid
        if corner_cell is not None:
            top = [len(b) - 1 for b in partition.breakpoints]
            self._grid_ext = np.vstack([grid, np.array([top], dtype=grid.dtype)])
            # the indicator risk charges the corner: it lies on the threshold
            self._r_cells = np.append(self._r_cells, 1.0)
        self.eliminable = self._eliminable_mask()
        self._entries = None

    # -- per-record slab containment, tabulated over slab indices --

    def _containment_tables(self):
        bp = self.partition.breakpoints
        tables = {}
        for row, (fn, sign, _rhs, _iseq) in enumerate(self.records):
            a = fn.axis
            b = bp[a]
            lows, highs = b[:-1], b[1:]
            if self.corner_cell is not None:
                # the corner's interval on every axis is the top breakpoint
                lows = np.append(lows, b[-1])
                highs = np.append(highs, b[-1])
            inside = slab_inside(fn, lows, highs)
            rows, mat = tables.setdefault(a, ([], []))
            rows.append(row)
            # table entries carry the record sign so lookups give the
            # signed restriction constant directly
            mat.append(sign * inside.astype(float))
        out = {}
        for a, (rows, mat) in tables.items():
            out[a] = (np.array(rows, dtype=int), np.column_stack(mat))
        return out

    def _eliminable_mask(self):
        # a cell collapses unless the slab of a record with a non-constant
        # linear part holds it, or the hinge has no maximum on it
        linear = np.max(np.abs(self._rec_v), axis=1, initial=0.0) > CONST_TOL
        mask = np.isfinite(self._r_cells)
        for a, (rows_a, mat) in self._tables.items():
            held = np.any(mat[:, linear[rows_a]] != 0.0, axis=1)
            mask &= ~held[self._grid_ext[:, a]]
        return mask

    # -- cell enumeration --

    def iter_cells(self):
        """All cells in scan order: corner first, then high side, then
        the rest."""
        if self.corner_cell is not None:
            yield self.corner_cell
        for ridx in self.scan_order:
            yield self.partition.cell_at(int(ridx))

    def cell_rows(self, cell):
        """Row-dual rows of one cell under this assembly's mode, as
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
        if self.mode is ReductionMode.VERTEX:
            base, rhs = _point_rows(self.records, self.riskfn, cell, cell_vertices(cell))
            return base, None, [">="] * len(rhs), rhs
        V, cvec = _signed_restrictions(self.records, cell)
        g, e = restrict_to_cell(self.riskfn, cell)
        const = np.append(cvec, 1.0)
        if self.mode is ReductionMode.LAMBDA_ELIMINATED and self.eliminable[cell.id]:
            _lam, support = precompute_cell_lambda(cell, g)
            return const[None, :], None, [">="], np.array([e - support])
        n = cell.dimension
        F = np.array([h.normal for h in cell.halfspaces]).reshape(-1, n)
        ell = np.array([h.bound for h in cell.halfspaces])
        first_use = np.argsort(np.argmax(F != 0.0, axis=1), kind="stable")
        base = np.vstack([np.hstack([V.T, np.zeros((n, 1))]), const])
        lam = np.vstack([-F[first_use].T, ell[first_use]])
        return base, lam, ["="] * n + [">="], np.append(g, e)

    # -- materialized dual (row form) --

    def materialize(self, budget: int = DENSE_BUDGET) -> LinearProgram:
        """Build the row dual from every cell's :meth:`cell_rows`.

        Columns are y, z, z0, then each explicit block's multipliers,
        block by block in scan order.  A row with no multipliers is
        dropped when an earlier one has the same sense, right-hand side
        and nonzero coefficients, each rounded to 12 digits.  Raises
        CapacityError when the row or column count would exceed
        ``budget``.
        """
        n_cells = self.partition.cell_count + (1 if self.corner_cell is not None else 0)
        if n_cells > budget:
            raise CapacityError(
                f"{n_cells} cells exceed the materialization budget {budget}"
            )
        blocks = []
        seen = set()
        n_rows = n_lam = 0
        for cell in self.iter_cells():
            base, lam, senses, rhs = self.cell_rows(cell)
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
        senses = ["<="] * self.n_ineq + ["="] * self.n_eq + ["="]
        rhs = np.array([rec[2] for rec in self.records] + [1.0])
        return senses, rhs

    def scan_entries(self) -> ScanEntries:
        """The master's columns in scan order, built on first use.

        A collapsible cell is one entry; any other cell is one entry per
        vertex, in :func:`cell_vertices` order, then one per ray when it
        is unbounded; the corner is a point entry.  By Minkowski-Weyl a
        cell is the hull of its vertices plus the cone of its rays plus
        its lineality space, whose generators appear as rays in both
        directions; so an affine function is nonnegative on the cell
        exactly when it is at every vertex and does not fall along any
        ray.  A cell with a whole-line axis is always sliced, because
        tau is finite, and :func:`partition_vertices` takes its vertices
        from a pointed section.
        """
        if self._entries is not None:
            return self._entries
        order = self.scan_order
        by_point = ~self.eliminable[order]
        vstart, vpoints = partition_vertices(self.partition, order[by_point])
        rstart, rays = partition_rays(self.partition, order[by_point])
        nv, nr = np.diff(vstart), np.diff(rstart)
        counts = np.ones(order.size, dtype=np.intp)
        counts[by_point] = nv + nr
        cell = np.repeat(order, counts)
        # a cell's entries are its vertices, then its rays; the point
        # table holds every vertex, then every ray
        first = (np.cumsum(counts) - counts)[by_point]
        vpos = np.repeat(first - vstart[:-1], nv) + np.arange(len(vpoints))
        rpos = np.repeat(first + nv - rstart[:-1], nr) + np.arange(len(rays))
        vertex = np.full(cell.size, -1, dtype=np.intp)
        vertex[vpos] = np.arange(len(vpoints))
        vertex[rpos] = len(vpoints) + np.arange(len(rays))
        ray = np.zeros(cell.size, dtype=bool)
        ray[rpos] = True
        points = np.vstack([vpoints, rays])
        if self.corner_cell is not None:
            cell = np.concatenate([[-1], cell])
            vertex = np.concatenate([[len(points)], vertex])
            ray = np.concatenate([[False], ray])
            points = np.vstack([points, self.corner_cell.lows])
        objective = self._r_cells[cell]
        objective[ray] = 0.0
        if self.riskfn.kind is RiskKind.CVAR_HINGE:
            # the hinge is sum(x) - tau past the threshold: sum(q) - tau at
            # a vertex, sum(r) along a ray; there is no corner under this risk
            at = np.nonzero(vertex >= 0)[0]
            objective[at] = np.where(
                self._side[cell[at]] > 0,
                np.sum(points[vertex[at]], axis=1) - np.where(ray[at], 0.0, self.riskfn.tau),
                0.0,
            )
        self._entries = ScanEntries(cell, vertex, ray, points, objective)
        return self._entries

    def _columns(self, pos):
        """Master columns at scan positions ``pos``, as a (rows, len(pos))
        matrix, and their objectives.  Record r's value is its signed
        slab containment times its affine factor: <v, q> + c at a point
        entry, c on a collapsed cell, <v, r> along a ray, whose
        normalization entry is 0."""
        entries = self.scan_entries()
        cells = entries.cell[pos]
        M = np.zeros((len(self.records) + 1, cells.size))
        for a, (rows_a, mat) in self._tables.items():
            M[rows_a, :] = mat[self._grid_ext[cells, a], :].T
        M[-1, :] = 1.0
        factor = np.repeat(self._rec_c[:, None], cells.size, axis=1)
        vx = entries.vertex[pos]
        at = vx >= 0
        if np.any(at):
            ray = entries.ray[pos]
            M[-1, ray] = 0.0
            factor[:, ray] = 0.0
            factor[:, at] += self._rec_v @ entries.points[vx[at]].T
        M[:-1] *= factor
        return M, entries.objective[pos]

    def _reduced_costs(self, duals, use_objective):
        """Reduced cost of every scan entry: per axis, the slab tables
        weighted by the duals give each cell's constant part; point
        entries add <G, q>, with G the dual-weighted sum of the linear
        parts of the records whose slab holds the cell.  A ray entry
        scores <G, r> alone: no constant part and no z0 term."""
        entries = self.scan_entries()
        duals = np.asarray(duals, dtype=float)
        grid = self._grid_ext
        acc = np.full(grid.shape[0], duals[-1])
        for a, (rows_a, mat) in self._tables.items():
            acc += (mat @ (duals[rows_a] * self._rec_c[rows_a]))[grid[:, a]]
        score = acc[entries.cell]
        at = np.nonzero(entries.vertex >= 0)[0]
        if at.size:
            cells = entries.cell[at]
            G = np.zeros((at.size, self.partition.dimension))
            for a, (rows_a, mat) in self._tables.items():
                G += (mat @ (duals[rows_a, None] * self._rec_v[rows_a]))[grid[cells, a]]
            const = np.where(entries.ray[at], 0.0, score[at])
            score[at] = const + np.einsum("ij,ij->i", G, entries.points[entries.vertex[at]])
        return score - entries.objective if use_objective else -score

    def master_generator(self) -> ColumnGenerator:
        """Column producer over the scan entries: one column per
        collapsible cell, one per vertex and extreme ray of every other
        cell, and the corner.

        ``column_at`` is :meth:`_columns`, which builds a whole batch of
        positions as one block; it and the vectorized pricing scorer
        read the same source, the per-axis slab tables and the vertex
        table, for indicator and affine records alike; neither restricts
        a record to a cell.
        """
        return ColumnGenerator(
            self.scan_entries().count, self._columns, reduced_costs=self._reduced_costs
        )

    def master_lp(self, budget: int = DENSE_BUDGET) -> LinearProgram:
        """Fully materialized master with one column per scan entry.

        This is the single-shot route: every column is built up front
        and handed to the dense solver.  Raises CapacityError when the
        column count exceeds ``budget``.
        """
        count = self.scan_entries().count
        if count > budget:
            raise CapacityError(f"{count} master columns exceed the budget {budget}")
        senses, rhs = self.master_row_data()
        M, robj = self._columns(np.arange(count))
        return LinearProgram("max", robj, M, senses, rhs, name="master")

    def master_seed(self, seed_size: int = 8):
        """Restricted master primed for column generation.

        Seeds the first scan positions plus, for every (axis, slab)
        pair, the first position whose cell lies in that slab, so each
        record row starts with coverage and phase one converges in few
        rounds.  Returns (LinearProgram, ColumnGenerator) with the
        seeded positions marked generated.
        """
        gen = self.master_generator()
        entries = self.scan_entries()
        picks = set(range(min(seed_size, gen.count)))
        real = np.nonzero(entries.cell >= 0)[0]
        for a, slabs in enumerate(self.partition.slab_counts):
            first = np.full(slabs, gen.count)
            np.minimum.at(first, self._grid[entries.cell[real], a], real)
            picks.update(first[first < gen.count].tolist())
        pos = np.array(sorted(picks), dtype=np.intp)
        senses, rhs = self.master_row_data()
        M, objs = self._columns(pos)
        gen.generated.update(pos.tolist())
        lp = LinearProgram("max", objs, M, senses, rhs, name="master_seed")
        return lp, gen


def _make_corner_cell(partition, riskfn):
    if riskfn.kind is not RiskKind.VAR_INDICATOR:
        return None
    if partition.has_above_cells():
        return None
    top = partition.max_total_sum
    if not np.isfinite(top):
        return None
    if abs(top - riskfn.tau) > CORNER_TOL * max(1.0, abs(riskfn.tau)):
        return None
    corner = np.array([b[-1] for b in partition.breakpoints])
    return Cell(
        corner,
        corner.copy(),
        tau=partition.tau,
        side_of_tau=SideOfTau.ABOVE,
        cell_id=partition.cell_count,
        degenerate=True,
    )


def assemble_dual_lp(
    partition: Partition,
    testfns,
    riskfn: RiskFunctional,
    mode: ReductionMode = ReductionMode.LAMBDA_ELIMINATED,
) -> DualLP:
    """Check compatibility and assemble the finite dual.

    The partition must be sliced at the risk threshold and every test
    function slab must start and end on breakpoints of its axis.  When
    the threshold coincides with the largest reachable sum, the
    indicator risk still charges that single point; a degenerate
    corner cell is appended so the dual sees it.
    """
    if not isinstance(mode, ReductionMode):
        raise InputError(f"unknown reduction mode: {mode!r}")
    if not np.isfinite(riskfn.tau):
        raise InputError("risk threshold must be finite")
    if partition.tau is None:
        raise InputError("partition must be sliced at the risk threshold")
    if abs(partition.tau - riskfn.tau) > TAU_MATCH_TOL * max(1.0, abs(riskfn.tau)):
        raise InputError(
            f"partition is sliced at {partition.tau}, risk threshold is {riskfn.tau}"
        )
    records = normalized_records(testfns)
    bp = partition.breakpoints
    for fn, _sign, _rhs, _iseq in records:
        if fn.axis >= partition.dimension:
            raise InputError(
                f"test function {fn.id!r} axis {fn.axis} outside dimension "
                f"{partition.dimension}"
            )
        b = bp[fn.axis]
        for end in fn.slab:
            if np.isfinite(end):
                ok = np.min(np.abs(b - end)) <= GRID_TOL
            else:
                # an infinite endpoint must be the axis end itself
                ok = end == b[0] or end == b[-1]
            if not ok:
                raise PartitionIncompatibleError(
                    f"slab endpoint {end} of {fn.id!r} is not a breakpoint "
                    f"of axis {fn.axis}"
                )
    corner = _make_corner_cell(partition, riskfn)
    return DualLP(partition, riskfn, mode, records, corner)


@dataclass(eq=False)
class BoundResult:
    """Answer of :func:`solve_bound`.

    ``status`` is 'optimal' (``bound`` is the worst-case value and
    ``multipliers`` its dual certificate ``(y, z, z0)``), 'infeasible'
    (no measure meets the integral constraints) or 'unbounded' (the
    bound is +inf).  ``engine`` is 'dcg' or 'dense_rows';
    ``columns_generated`` is set by 'dcg' only.
    """

    status: str
    bound: Optional[float]
    engine: str
    dual: DualLP
    iterations: int
    columns_generated: Optional[int] = None
    certified: bool = False
    feas_residual: Optional[float] = None
    multipliers: Optional[tuple] = None


def _feasibility_probe(partition, testfns, tau) -> BoundResult:
    """VaR bound on the same cells: it is 'optimal' exactly when some
    measure meets the integral constraints.  The answer does not depend
    on the reduction, so the probe takes the default one."""
    return solve_bound(partition, testfns, RiskFunctional(RiskKind.VAR_INDICATOR, tau))


def solve_bound(
    partition: Partition,
    testfns,
    riskfn: RiskFunctional,
    mode: ReductionMode = ReductionMode.LAMBDA_ELIMINATED,
) -> BoundResult:
    """Worst-case bound of ``riskfn`` over the measures that meet
    ``testfns``, on a partition sliced at the risk threshold.

    LAMBDA_ELIMINATED mode runs column generation over the scan
    entries, which cover every cell; EXPLICIT and VERTEX solve the dense
    row dual in one shot.  A DCG optimum counts only after a clean
    pricing sweep.  An unbounded DCG master means +inf when it has ray
    columns: the restricted master was feasible and its ray is one of
    the full master.  On the row dual, UNBOUNDED means no measure fits
    and INFEASIBLE means no finite certificate: the bound is +inf if a
    measure fits.  Raises SolverError on an iteration limit, an
    uncertified DCG stop or any status without a meaning here.

    'unbounded' is the dual's value.  It can exceed the primal supremum
    when a zero upper bound pins the mass of an unbounded cell past tau:
    there is then no Slater point.
    """
    dual = assemble_dual_lp(partition, testfns, riskfn, mode)
    n_ineq, n_eq = dual.n_ineq, dual.n_eq
    if mode is ReductionMode.LAMBDA_ELIMINATED:
        seed, gen = dual.master_seed()
        sol = solve_dcg(seed, gen)
        if sol.status is LPStatus.UNBOUNDED and np.any(dual.scan_entries().ray):
            # only phase two reports UNBOUNDED: the restricted master is
            # feasible, and its ray is a ray of the full master
            return BoundResult(
                "unbounded", None, "dcg", dual,
                iterations=sol.iterations,
                columns_generated=sol.columns_generated,
            )
        if sol.status not in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE):
            raise SolverError(f"master solve ended with {sol.status.value}")
        if not sol.certified:
            # a restricted master's optimum bounds the worst case from
            # below, and its infeasibility proves nothing
            raise SolverError("column generation stopped before a clean pricing sweep")
        result = BoundResult(
            "infeasible", None, "dcg", dual,
            iterations=sol.iterations,
            columns_generated=sol.columns_generated,
            certified=sol.status is LPStatus.OPTIMAL,
            feas_residual=sol.feas_residual,
        )
        if sol.status is LPStatus.OPTIMAL:
            result.status = "optimal"
            result.bound = float(sol.objective)
            d = sol.duals
            result.multipliers = (d[:n_ineq], d[n_ineq : n_ineq + n_eq], d[-1])
        return result

    lp = dual.materialize()
    sol = solve_dense_simplex(lp)
    # the row dual holds every cell's constraints, so its optimum is final
    result = BoundResult(
        "infeasible", None, "dense_rows", dual,
        iterations=sol.iterations,
        certified=sol.status is LPStatus.OPTIMAL,
        feas_residual=sol.feas_residual,
    )
    if sol.status is LPStatus.OPTIMAL:
        result.status = "optimal"
        result.bound = float(sol.objective)
        x = sol.x
        result.multipliers = (x[:n_ineq], x[n_ineq : n_ineq + n_eq], x[n_ineq + n_eq])
    elif sol.status is LPStatus.INFEASIBLE and riskfn.kind is RiskKind.CVAR_HINGE:
        # no finite certificate: the bound is +inf if any measure fits
        # (z0 = 1 always certifies the VaR risk, so this cannot recurse)
        if _feasibility_probe(partition, testfns, riskfn.tau).status == "optimal":
            result.status = "unbounded"
    elif sol.status is not LPStatus.UNBOUNDED:
        # UNBOUNDED: the dual rows fall without limit, so no measure fits
        raise SolverError(f"dual solve ended with {sol.status.value}")
    return result
