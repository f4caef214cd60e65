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
another.

The transposed master, used by column generation and the single-shot
solve, has one column per scan entry: a collapsible cell, a vertex or
an extreme ray of any other cell, or the corner point.  A cell that
contains no line is the hull of its vertices plus the cone of its rays,
so domination on the cell is domination at every vertex plus a gap
that does not fall along any ray.  Columns and reduced costs come from
one array source: per-axis tables of each record's signed slab
containment, indexed by the cells' slab indices, times the record's
affine factor at the entry's vertex, or its slope along the entry's
ray.  No column goes through a per-cell restriction; the row-form
routes above and the primal oracle still do, which keeps them an
independent check.
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
    function is constant on it and falls back to the explicit block
    otherwise, so it is always applicable.  EXPLICIT always emits the
    multiplier block.  VERTEX needs bounded cells.
    """

    EXPLICIT = "explicit"
    LAMBDA_ELIMINATED = "lambda_eliminated"
    VERTEX = "vertex"


@dataclass(eq=False)
class CellBlock:
    """Dual rows contributed by one cell.

    ``rows`` holds (coefficients, sense, rhs) triples keyed by dual
    variable: ('y', s) and ('z', t) index the inequality and equality
    records, 'z0' the normalization, ('lam', j) the cell-local
    multipliers.  For a collapsed block ``lam_star`` and
    ``support_value`` record the eliminated multipliers and their
    objective, and ``r_value`` the row's right-hand side, which equals
    the maximum of the restricted risk function over the cell.
    """

    cell_id: int
    mode: str
    rows: list
    lam_count: int = 0
    lam_star: Optional[np.ndarray] = None
    support_value: Optional[float] = None
    r_value: Optional[float] = None


def _signed_restrictions(records, cell):
    n = cell.dimension
    V = np.zeros((len(records), n))
    c = np.zeros(len(records))
    for r, (fn, sign, _rhs, _iseq) in enumerate(records):
        v, const = restrict_to_cell(fn, cell)
        V[r] = sign * v
        c[r] = sign * const
    return V, c


def _var_key(r, n_ineq):
    return ("y", r) if r < n_ineq else ("z", r - n_ineq)


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


def _farkas_rows(cell, records, riskfn):
    V, cvec = _signed_restrictions(records, cell)
    g, e = restrict_to_cell(riskfn, cell)
    halfspaces = cell.halfspaces
    n_ineq = sum(1 for _, _, _, iseq in records if not iseq)
    rows = []
    for a in range(cell.dimension):
        coefs = {}
        for r in range(len(records)):
            if V[r, a] != 0.0:
                coefs[_var_key(r, n_ineq)] = V[r, a]
        for j, h in enumerate(halfspaces):
            if h.normal[a] != 0.0:
                coefs[("lam", j)] = -h.normal[a]
        rows.append((coefs, "=", float(g[a])))
    coefs = {}
    for r in range(len(records)):
        if cvec[r] != 0.0:
            coefs[_var_key(r, n_ineq)] = cvec[r]
    coefs["z0"] = 1.0
    for j, h in enumerate(halfspaces):
        if h.bound != 0.0:
            coefs[("lam", j)] = h.bound
    rows.append((coefs, ">=", float(e)))
    return rows


def farkas_constraints_linear(cell, testfns, riskfn):
    """Explicit multiplier block for one cell.

    Emits one equality row per coordinate tying the weighted linear
    parts to the cell's halfspace normals through nonnegative
    multipliers, plus the constant-part inequality.  Valid on any
    nonempty cell, bounded or not.
    """
    return _farkas_rows(cell, normalized_records(testfns), riskfn)


def _vertex_rows(cell, records, riskfn):
    V, cvec = _signed_restrictions(records, cell)
    g, e = restrict_to_cell(riskfn, cell)
    n_ineq = sum(1 for _, _, _, iseq in records if not iseq)
    rows = []
    for q in cell_vertices(cell):
        vals = V @ q + cvec
        coefs = {}
        for r in range(len(records)):
            if vals[r] != 0.0:
                coefs[_var_key(r, n_ineq)] = float(vals[r])
        coefs["z0"] = 1.0
        rows.append((coefs, ">=", float(g @ q + e)))
    return rows


def concave_vertex_constraints(cell, testfns, riskfn):
    """Vertex form of a cell's dual constraints: one row per vertex.

    Equivalent to the explicit block whenever the cell is bounded,
    since an affine function dominates another on a polytope exactly
    when it does so at every vertex.  Unbounded cells are rejected by
    the vertex enumeration.
    """
    return _vertex_rows(cell, normalized_records(testfns), riskfn)


def _collapsed_block(cell, records, riskfn, lam_cache):
    V, cvec = _signed_restrictions(records, cell)
    if np.max(np.abs(V), initial=0.0) > CONST_TOL:
        return None
    g, e = restrict_to_cell(riskfn, cell)
    cached = lam_cache.get(cell.id)
    if cached is None:
        cached = precompute_cell_lambda(cell, g)
        lam_cache[cell.id] = cached
    lam, support = cached
    n_ineq = sum(1 for _, _, _, iseq in records if not iseq)
    coefs = {}
    for r in range(len(records)):
        if cvec[r] != 0.0:
            coefs[_var_key(r, n_ineq)] = cvec[r]
    coefs["z0"] = 1.0
    r_value = float(e - support)
    return CellBlock(
        cell_id=cell.id,
        mode="lambda",
        rows=[(coefs, ">=", r_value)],
        lam_star=lam,
        support_value=support,
        r_value=r_value,
    )


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
    a constant; those collapse to one master column, the others get
    one column per vertex.
    """

    def __init__(self, partition, testfns, riskfn, mode, records, corner_cell):
        self.partition = partition
        self.testfns = tuple(testfns)
        self.riskfn = riskfn
        self.mode = mode
        self.records = records
        self.corner_cell = corner_cell
        self.n_ineq = sum(1 for _, _, _, iseq in records if not iseq)
        self.n_eq = len(records) - self.n_ineq
        self._lam_cache = {}

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
        self.eliminable = self._eliminable_mask()
        # an eliminable cell past tau with no top: the hinge grows without
        # bound there while every record stays constant, so no finite
        # certificate exists; other unbounded cells go to the row dual
        self.unbounded_above = bool(
            riskfn.kind is RiskKind.CVAR_HINGE
            and np.any((side > 0) & ~np.isfinite(rmax) & self.eliminable)
        )
        # slab indices per cell; the corner takes an extra last row (its
        # table rows hold the top breakpoint), so entry cell -1 finds it
        self._grid_ext = grid
        if corner_cell is not None:
            top = [len(b) - 1 for b in partition.breakpoints]
            self._grid_ext = np.vstack([grid, np.array([top], dtype=grid.dtype)])
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
        # linear part holds it
        linear = np.max(np.abs(self._rec_v), axis=1, initial=0.0) > CONST_TOL
        mask = np.ones(self.partition.cell_count, dtype=bool)
        for a, (rows_a, mat) in self._tables.items():
            held = np.any(mat[:, linear[rows_a]] != 0.0, axis=1)
            mask &= ~held[self._grid[:, a]]
        return mask

    # -- cell enumeration --

    def iter_cells(self):
        """All cells in scan order: corner first, then high side, then
        the rest."""
        if self.corner_cell is not None:
            yield self.corner_cell
        for ridx in self.scan_order:
            yield self.partition.cell_at(int(ridx))

    def cell_block(self, cell) -> CellBlock:
        """Reduce one cell under this assembly's mode."""
        mode = self.mode
        if mode is ReductionMode.VERTEX:
            rows = _vertex_rows(cell, self.records, self.riskfn)
            return CellBlock(cell_id=cell.id, mode="vertex", rows=rows)
        if mode is ReductionMode.LAMBDA_ELIMINATED:
            block = _collapsed_block(cell, self.records, self.riskfn, self._lam_cache)
            if block is not None:
                return block
        rows = _farkas_rows(cell, self.records, self.riskfn)
        return CellBlock(
            cell_id=cell.id,
            mode="explicit",
            rows=rows,
            lam_count=len(cell.halfspaces),
        )

    # -- materialized dual (row form) --

    def materialize(self, budget: int = DENSE_BUDGET) -> LinearProgram:
        """Build the dual LP with every cell's rows, deduplicated.

        The returned LinearProgram carries ``var_keys`` naming its
        columns.  Raises CapacityError when the row or column count
        would exceed ``budget``.
        """
        n_cells = self.partition.cell_count + (1 if self.corner_cell is not None else 0)
        if n_cells > budget:
            raise CapacityError(
                f"{n_cells} cells exceed the materialization budget {budget}"
            )
        var_keys = [("y", s) for s in range(self.n_ineq)]
        var_keys += [("z", t) for t in range(self.n_eq)]
        var_keys.append("z0")
        var_index = {k: i for i, k in enumerate(var_keys)}

        rows = []
        seen = set()
        for cell in self.iter_cells():
            block = self.cell_block(cell)
            for coefs, sense, rhs in block.rows:
                named = {}
                for key, val in coefs.items():
                    if isinstance(key, tuple) and key[0] == "lam":
                        named[("lam", cell.id, key[1])] = val
                    else:
                        named[key] = val
                sig = (
                    sense,
                    round(rhs, 12),
                    tuple(sorted((repr(k), round(v, 12)) for k, v in named.items())),
                )
                if sig in seen:
                    continue
                seen.add(sig)
                for key in named:
                    if key not in var_index:
                        var_index[key] = len(var_keys)
                        var_keys.append(key)
                rows.append((named, sense, rhs))
                if len(rows) > budget:
                    raise CapacityError(
                        f"dual row count exceeds the budget {budget}"
                    )
        if len(var_keys) > budget:
            raise CapacityError(
                f"dual column count {len(var_keys)} exceeds the budget {budget}"
            )

        A = np.zeros((len(rows), len(var_keys)))
        senses = []
        rhs = np.zeros(len(rows))
        for i, (named, sense, r) in enumerate(rows):
            for key, val in named.items():
                A[i, var_index[key]] = val
            senses.append(sense)
            rhs[i] = r
        cost = np.zeros(len(var_keys))
        free = np.zeros(len(var_keys), dtype=bool)
        for i, key in enumerate(var_keys):
            if key == "z0":
                cost[i] = 1.0
                free[i] = True
            elif key[0] == "y":
                cost[i] = self.records[key[1]][2]
            elif key[0] == "z":
                cost[i] = self.records[self.n_ineq + key[1]][2]
                free[i] = True
        lp = LinearProgram("min", cost, A, senses, rhs, var_free=free, name="dual")
        lp.var_keys = tuple(var_keys)
        return lp

    # -- transposed master (column form) --

    def master_row_data(self):
        senses = ["<="] * self.n_ineq + ["="] * self.n_eq + ["="]
        rhs = np.array([rec[2] for rec in self.records] + [1.0])
        return senses, rhs

    def _point_column(self, cell, q):
        V, cvec = _signed_restrictions(self.records, cell)
        g, e = restrict_to_cell(self.riskfn, cell)
        vals = np.concatenate([V @ q + cvec, [1.0]])
        return vals, float(g @ q + e)

    def scan_entries(self) -> ScanEntries:
        """The master's columns in scan order, built on first use.

        A collapsible cell is one entry; any other cell is one entry per
        vertex, in :func:`cell_vertices` order, then one per extreme ray
        when it is unbounded (Minkowski-Weyl: an affine function is
        nonnegative on a cell without a line exactly when it is at every
        vertex and does not fall along any extreme ray); the corner is a
        point entry.  Raises UnsupportedCellError when a cell that needs
        vertices contains a line.
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
        r_cells = self._r_cells
        if self.corner_cell is not None:
            cell = np.concatenate([[-1], cell])
            vertex = np.concatenate([[len(points)], vertex])
            ray = np.concatenate([[False], ray])
            points = np.vstack([points, self.corner_cell.lows])
            # the indicator risk charges the corner: it lies on the threshold
            r_cells = np.append(r_cells, 1.0)
        objective = r_cells[cell]
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
        collapsible cell, one per vertex of every other cell, and the
        corner.

        ``column_at`` and the vectorized pricing scorer read the same
        source, the per-axis slab tables and the vertex table, for
        indicator and affine records alike; neither restricts a record
        to a cell.
        """
        all_rows = np.arange(len(self.records) + 1)

        def column_at(pos):
            M, obj = self._columns(np.array([pos]))
            return all_rows, M[:, 0], float(obj[0])

        return ColumnGenerator(
            self.scan_entries().count, column_at, reduced_costs=self._reduced_costs
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
    return DualLP(partition, testfns, riskfn, mode, records, corner)


@dataclass(eq=False)
class BoundResult:
    """Answer of :func:`solve_bound`.

    ``status`` is 'optimal' (``bound`` is the worst-case value and
    ``multipliers`` its dual certificate ``(y, z, z0)``), 'infeasible'
    (no measure meets the integral constraints) or 'unbounded' (the
    bound is +inf).  ``engine`` is 'dcg' or 'dense_rows'.  The solve
    counters are None when the unbounded-cell shortcut answered without
    solving this model; ``columns_generated`` is set by 'dcg' only.
    """

    status: str
    bound: Optional[float]
    engine: str
    dual: DualLP
    iterations: Optional[int] = None
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

    Column generation runs in LAMBDA_ELIMINATED mode when no
    non-eliminable cell contains a line, that is, has an axis interval
    (-inf, inf): such a cell has no vertex-and-ray columns.  Otherwise
    the dense row dual is solved in one shot.  A DCG optimum counts only
    after a clean pricing sweep.  An unbounded DCG master means +inf
    when it has ray columns: the restricted master was feasible and its
    ray is one of the full master.  On the row dual, UNBOUNDED means no
    measure fits and INFEASIBLE means no finite certificate: the bound
    is +inf if a measure fits.  Raises SolverError on an iteration
    limit, an uncertified DCG stop or any status without a meaning here.
    """
    dual = assemble_dual_lp(partition, testfns, riskfn, mode)
    if dual.unbounded_above:
        probe = _feasibility_probe(partition, testfns, riskfn.tau)
        status = "unbounded" if probe.status == "optimal" else "infeasible"
        return BoundResult(status, None, probe.engine, dual)

    n_ineq, n_eq = dual.n_ineq, dual.n_eq
    # interior breakpoints are finite, so an axis interval (-inf, inf) is
    # a whole axis, and every cell has it
    lines = any(np.all(np.isinf(b)) for b in partition.breakpoints)
    use_dcg = mode is ReductionMode.LAMBDA_ELIMINATED and (
        not lines or bool(np.all(dual.eliminable))
    )
    if use_dcg:
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
        keys = {k: i for i, k in enumerate(lp.var_keys)}
        result.multipliers = (
            [sol.x[keys[("y", s)]] for s in range(n_ineq)],
            [sol.x[keys[("z", t)]] for t in range(n_eq)],
            sol.x[keys["z0"]],
        )
    elif sol.status is LPStatus.INFEASIBLE and riskfn.kind is RiskKind.CVAR_HINGE:
        # no finite certificate: the bound is +inf if any measure fits
        # (z0 = 1 always certifies the VaR risk, so this cannot recurse)
        if _feasibility_probe(partition, testfns, riskfn.tau).status == "optimal":
            result.status = "unbounded"
    elif sol.status is not LPStatus.UNBOUNDED:
        # UNBOUNDED: the dual rows fall without limit, so no measure fits
        raise SolverError(f"dual solve ended with {sol.status.value}")
    return result
