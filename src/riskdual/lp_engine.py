"""Dense two-phase simplex and delayed column generation.

The dense solver is a revised simplex over an explicit basis inverse:
Dantzig pricing with Bland's rule engaged after a run of degenerate
pivots, and the inverse refreshed from scratch every so many pivots to
bound error growth.  The column-generation solver keeps one restricted
master for the whole run: its standard form is built once, each round
appends the priced cell columns to it in place, and the next re-solve
starts from the previous basis, held as column positions.  Pricing asks
the column generator for candidates rather than for every column's
reduced cost; the generator must find them exactly, by search or by
sweep, so an empty answer certifies the master.  The limits
DENSE_BUDGET, ITER_LIMIT, ROUND_LIMIT and DCG_BATCH are module
constants, read when a solve starts.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

import numpy as np

from .errors import CapacityError, FactorizationError, InputError

log = logging.getLogger(__name__)

# primal feasibility tolerance
FEAS_TOL = 1e-7
# reduced-cost optimality tolerance
RC_TOL = 1e-9
# smallest usable pivot element
PIVOT_TOL = 1e-10
# a pivot below this fraction of its column's largest entry is checked
# against a direct solve of the basis before it is taken
PIVOT_CHECK = 1e-7
# a step this small counts as a degenerate pivot
DEGEN_TOL = 1e-12
# switch to Bland's rule after this many consecutive degenerate pivots
BLAND_AFTER = 50
# rebuild the basis inverse from scratch every this many pivots
REFACTOR_EVERY = 100
# dense solver row/column budget
DENSE_BUDGET = 10_000
# pivots per dense solve, phase one and two together
ITER_LIMIT = 100_000
# column-generation rounds, and columns priced into the master per round
ROUND_LIMIT = 100_000
DCG_BATCH = 8

ROW_SENSES = ("<=", ">=", "=")


@unique
class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class LinearProgram:
    """A linear program in row-constraint form.

    min or max  c @ x
    subject to  A[i] @ x  (<=, >=, =)  rhs[i]   for each row i
                x[j] >= 0 unless var_free[j]

    ``A`` is a dense 2-dimensional array.  The simplex runs on the
    equality standard form of :meth:`standard_form`, built once per LP
    and kept up to date by :meth:`append_columns`, the one way to change
    the LP after a solve.
    """

    def __init__(self, sense, c, A, row_senses, rhs, var_free=None, name="lp"):
        if sense not in ("min", "max"):
            raise InputError("LP sense must be 'min' or 'max'")
        self.sense = sense
        self.c = np.asarray(c, dtype=float).reshape(-1)
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise InputError("LP matrix must be 2-dimensional")
        self.A = A
        self.rhs = np.asarray(rhs, dtype=float).reshape(-1)
        senses = list(row_senses)
        if any(s not in ROW_SENSES for s in senses):
            raise InputError(f"row senses must be one of {ROW_SENSES}")
        self.row_senses = tuple(senses)
        m, n = A.shape
        if self.c.size != n or self.rhs.size != m or len(senses) != m:
            raise InputError("LP dimensions are inconsistent")
        if var_free is None:
            self.var_free = np.zeros(n, dtype=bool)
        else:
            self.var_free = np.asarray(var_free, dtype=bool).reshape(-1)
            if self.var_free.size != n:
                raise InputError("var_free length must match the column count")
        self.name = name
        self._standard = None

    @property
    def n_rows(self) -> int:
        return int(self.A.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.A.shape[1])

    def dense_matrix(self) -> np.ndarray:
        return np.array(self.A, dtype=float)

    def standard_form(self) -> "_Canonical":
        if self._standard is None:
            self._standard = _Canonical(self)
        return self._standard

    def append_columns(self, cols, c, basis):
        """Append nonnegative columns; returns ``basis``, standard-form
        positions as in :attr:`LPSolution.basis`, moved to the grown
        form.  The standard form takes the columns in place after its
        structural columns, ahead of the slacks and artificials, so the
        positions from there on move up by ``len(c)``."""
        cols = np.asarray(cols, dtype=float)
        c = np.asarray(c, dtype=float).reshape(-1)
        standard = self.standard_form()
        basis = np.asarray(basis)
        moved = np.where(basis < standard.n_struct, basis, basis + c.size)
        standard.insert(cols, c if self.sense == "min" else -c)
        self.A = np.concatenate([self.A, cols], axis=1)
        self.c = np.concatenate([self.c, c])
        self.var_free = np.concatenate([self.var_free, np.zeros(c.size, dtype=bool)])
        return moved


@dataclass(eq=False)
class LPSolution:
    """Solver result.  ``x`` and ``duals`` refer to the original rows
    and columns.  On an infeasible exit ``duals`` holds the phase-one
    row prices: a new column ``a`` can restore feasibility only if
    duals @ a > 0.  ``basis`` holds the final basis as positions in the
    LP's standard form, one per row; passed back as ``warm_basis`` it
    resumes the solve, phase one included."""

    status: LPStatus
    objective: Optional[float]
    x: Optional[np.ndarray]
    duals: Optional[np.ndarray]
    iterations: int
    columns_generated: int = 0
    basis: Optional[np.ndarray] = None
    feas_residual: Optional[float] = None
    certified: bool = False
    column_positions: Optional[list] = None


class _Canonical:
    """Equality standard form: structural, slack, artificial columns.

    Each original column is one structural column, or two adjacent ones
    (+x, -x) when it is free; ``first[j]`` is the position of original
    column j's first.  A slack or surplus follows for each inequality
    row in row order, then one artificial per row.  Rows with a negative
    right-hand side are negated, artificials excepted.  :meth:`insert`
    puts new columns right after the structural block, so every column
    keeps the order a build from scratch would give it, and with that
    every tie-break of the pivot rules.
    """

    def __init__(self, lp: LinearProgram):
        m, n = lp.n_rows, lp.n_cols
        cmin = lp.c if lp.sense == "min" else -lp.c

        # a free column j is followed by its negation
        struct_of = np.repeat(np.arange(n), np.where(lp.var_free, 2, 1))
        negated = np.zeros(struct_of.size, dtype=bool)
        negated[1:] = struct_of[1:] == struct_of[:-1]
        struct = lp.A[:, struct_of]
        struct[:, negated] = -struct[:, negated]
        costs = cmin[struct_of]
        costs[negated] = -costs[negated]

        senses = np.array(lp.row_senses, dtype="<U2")
        self.slack_rows = np.flatnonzero(senses != "=")
        slack_mat = np.zeros((m, self.slack_rows.size))
        slack_mat[self.slack_rows, np.arange(self.slack_rows.size)] = np.where(
            senses[self.slack_rows] == "<=", 1.0, -1.0
        )
        n_real = struct.shape[1] + self.slack_rows.size

        A = np.concatenate([struct, slack_mat, np.eye(m)], axis=1)
        flip = lp.rhs < 0
        # artificials for flipped rows keep coefficient +1
        A[flip, :n_real] = -A[flip, :n_real]

        self.m = m
        self.A = A
        self.b = np.abs(lp.rhs)
        self.row_sign = np.where(flip, -1.0, 1.0)
        self.first = np.flatnonzero(~negated)
        self.n_struct = struct.shape[1]
        self.cost2 = np.concatenate([costs, np.zeros(A.shape[1] - costs.size)])

    @property
    def n_real(self) -> int:
        """Columns ahead of the artificials."""
        return self.A.shape[1] - self.m

    def insert(self, cols, costs):
        """Nonnegative columns, in the LP's own row signs, after the
        structural block."""
        k = self.n_struct
        flipped = cols * self.row_sign[:, None]
        self.A = np.concatenate([self.A[:, :k], flipped, self.A[:, k:]], axis=1)
        self.cost2 = np.concatenate([self.cost2[:k], costs, self.cost2[k:]])
        self.first = np.concatenate([self.first, k + np.arange(costs.size)])
        self.n_struct += costs.size

    def cold_basis(self):
        basis = self.n_real + np.arange(self.m)
        slacks = self.n_struct + np.arange(self.slack_rows.size)
        # a slack enters the starting basis only when its flipped
        # coefficient is +1, so the basic value equals b[i] >= 0
        keep = self.A[self.slack_rows, slacks] > 0.5
        basis[self.slack_rows[keep]] = slacks[keep]
        return basis


def _refactor(A, basis, rhs=None):
    """Basis inverse, or the basis solved against ``rhs`` when given."""
    B = A[:, basis]
    try:
        return np.linalg.solve(B, np.eye(B.shape[0]) if rhs is None else rhs)
    except np.linalg.LinAlgError as exc:
        cond = None
        try:
            cond = float(np.linalg.cond(B))
        except Exception:
            pass
        raise FactorizationError(f"singular simplex basis: {exc}", condition=cond)


def _leaving_row(d, xB, basis):
    """Ratio test for an entering column with basis-space entries ``d``:
    the row that leaves, or None when no entry can pivot."""
    idx = np.nonzero(d > PIVOT_TOL)[0]
    if idx.size == 0:
        return None
    ratios = xB[idx] / d[idx]
    theta = max(float(np.min(ratios)), 0.0)
    near = idx[ratios <= theta + DEGEN_TOL]
    # deterministic leave choice: smallest basic column position
    return int(near[np.argmin(basis[near])])


def _pivot(basis, Binv, j, d, r):
    """Column ``j``, with basis-space entries ``d``, enters the basis in
    row ``r``; updates the inverse in place, by a rank-one update that
    builds no second m x m array, and returns it."""
    basis[r] = j
    piv_row = Binv[r] / d[r]
    Binv -= np.multiply.outer(d, piv_row)
    Binv[r] = piv_row
    return Binv


def _simplex_phase(canon, cost, basis, Binv, enterable, stats, phase_one=False):
    """Run pivots until optimal/unbounded for the given costs.

    Returns (status, basis, Binv, xB) with status 'optimal',
    'unbounded' or 'iteration_limit'.  A pivot that is tiny next to its
    column is checked by a direct solve of the basis; when the two
    disagree, the pivot was rounding left in the updated inverse, which
    is then rebuilt.  Phase one is bounded below, so there an entering
    column without a pivot row priced negative only by rounding; it is
    skipped until the next pivot.
    """
    A, b = canon.A, canon.b
    xB = Binv @ b
    degen_streak = 0
    bland = False
    skipped = np.zeros(A.shape[1], dtype=bool)
    while True:
        if stats["iterations"] >= ITER_LIMIT:
            return "iteration_limit", basis, Binv, xB
        pi = cost[basis] @ Binv
        rc = cost - pi @ A
        cand = enterable & (rc < -RC_TOL) & ~skipped
        cand[basis] = False
        if not np.any(cand):
            return "optimal", basis, Binv, xB
        if bland:
            j = int(np.nonzero(cand)[0][0])
        else:
            masked = np.where(cand, rc, np.inf)
            j = int(np.argmin(masked))
        d = Binv @ A[:, j]
        r = _leaving_row(d, xB, basis)
        if r is not None and d[r] < PIVOT_CHECK * np.max(np.abs(d)):
            exact = _refactor(A, basis, A[:, j])
            if abs(exact[r] - d[r]) > PIVOT_CHECK * d[r]:
                Binv = _refactor(A, basis)
                xB = np.maximum(Binv @ b, 0.0)
                d = exact
                r = _leaving_row(d, xB, basis)
        if r is None:
            if phase_one:
                skipped[j] = True
                continue
            return "unbounded", basis, Binv, xB
        skipped[:] = False
        step = xB[r] / d[r]
        if step <= DEGEN_TOL:
            degen_streak += 1
            if degen_streak >= BLAND_AFTER:
                bland = True
        else:
            degen_streak = 0
            bland = False
        xB = xB - step * d
        xB[r] = step
        np.maximum(xB, 0.0, out=xB)
        Binv = _pivot(basis, Binv, j, d, r)
        stats["iterations"] += 1
        if stats["iterations"] % REFACTOR_EVERY == 0:
            Binv = _refactor(A, basis)
            xB = Binv @ b
            np.maximum(xB, 0.0, out=xB)


def _drive_out_artificials(canon, basis, Binv, xB):
    """Pivot zero-valued basic artificials out where a real column can
    replace them; rows where none can are redundant and keep their
    artificial pinned at zero."""
    for r in range(canon.m):
        if basis[r] < canon.n_real or xB[r] > FEAS_TOL:
            continue
        row = Binv[r] @ canon.A[:, : canon.n_real]
        good = np.nonzero(np.abs(row) > 1e-8)[0]
        if good.size == 0:
            continue
        j = int(good[0])
        Binv = _pivot(basis, Binv, j, Binv @ canon.A[:, j], r)
        xB = Binv @ canon.b
        np.maximum(xB, 0.0, out=xB)
    return basis, Binv, xB


def _feasibility_residual(lp: LinearProgram, x: np.ndarray) -> float:
    ax = lp.A @ x
    senses = np.array(lp.row_senses, dtype="<U2")
    gap = np.where(
        senses == "<=", ax - lp.rhs, np.where(senses == ">=", lp.rhs - ax, np.abs(ax - lp.rhs))
    )
    return float(np.max(gap, initial=0.0))


def solve_dense_simplex(lp: LinearProgram, *, warm_basis=None) -> LPSolution:
    """Two-phase revised simplex over the fully materialized LP.

    ``warm_basis`` may carry the ``basis`` of an earlier solution of the
    same LP, as :meth:`LinearProgram.append_columns` returns it when
    columns were appended since.  When it still names a feasible basis,
    the solve resumes there.  Raises CapacityError when the row or
    column count exceeds DENSE_BUDGET, and stops with status
    ITERATION_LIMIT after ITER_LIMIT pivots.
    """
    if lp.n_rows > DENSE_BUDGET or lp.n_cols > DENSE_BUDGET:
        raise CapacityError(
            f"LP size {lp.n_rows}x{lp.n_cols} exceeds the dense budget {DENSE_BUDGET}"
        )
    canon = lp.standard_form()
    stats = {"iterations": 0}

    # a warm basis may include artificials: the previous round of column
    # generation can stop mid-phase-one, and resuming it there is the
    # point of warm starting
    basis = None if warm_basis is None else np.array(warm_basis, dtype=int)
    if basis is not None:
        try:
            Binv = _refactor(canon.A, basis)
        except FactorizationError:
            basis = None
        else:
            xB = Binv @ canon.b
            if not np.all(xB >= -FEAS_TOL):
                basis = None
    if basis is None:
        basis = canon.cold_basis()
        Binv = _refactor(canon.A, basis)
        xB = Binv @ canon.b

    real = np.arange(canon.A.shape[1]) < canon.n_real
    if np.any(~real[basis] & (xB > FEAS_TOL)):
        cost1 = (~real).astype(float)
        status, basis, Binv, xB = _simplex_phase(
            canon, cost1, basis, Binv, real, stats, phase_one=True
        )
        if status == "iteration_limit":
            return LPSolution(LPStatus.ITERATION_LIMIT, None, None, None, stats["iterations"])
        infeas = float(cost1[basis] @ xB)
        if infeas > FEAS_TOL:
            pi1 = cost1[basis] @ Binv
            duals1 = canon.row_sign * pi1
            return LPSolution(
                LPStatus.INFEASIBLE, None, None, duals1, stats["iterations"], basis=basis
            )
    if not np.all(real[basis]):
        basis, Binv, xB = _drive_out_artificials(canon, basis, Binv, xB)

    status, basis, Binv, xB = _simplex_phase(canon, canon.cost2, basis, Binv, real, stats)
    if status == "iteration_limit":
        return LPSolution(
            LPStatus.ITERATION_LIMIT, None, None, None, stats["iterations"], basis=basis
        )
    if status == "unbounded":
        obj = -math.inf if lp.sense == "min" else math.inf
        return LPSolution(LPStatus.UNBOUNDED, obj, None, None, stats["iterations"], basis=basis)

    x_can = np.zeros(canon.A.shape[1])
    x_can[basis] = xB
    x = x_can[canon.first]
    free = lp.var_free
    x[free] -= x_can[canon.first[free] + 1]
    obj_min = float(canon.cost2 @ x_can)
    # 0.0 - v, not -v, which would turn a zero into -0.0
    objective = obj_min if lp.sense == "min" else 0.0 - obj_min
    pi2 = canon.cost2[basis] @ Binv
    duals_min = canon.row_sign * pi2
    duals = duals_min if lp.sense == "min" else 0.0 - duals_min
    residual = _feasibility_residual(lp, x)
    return LPSolution(
        LPStatus.OPTIMAL, objective, x, duals,
        stats["iterations"], basis=basis, feas_residual=residual,
    )


class ColumnGenerator:
    """On-demand producer of master columns for cell constraints.

    Positions index a fixed deterministic order: point entries, then
    key positions; ``count`` is the number of columns.
    ``column_at(positions)`` takes an integer array of positions and
    returns the dense ``(rows, len(positions))`` column block and the
    objectives; it is a pure function, so fetching a position again, in
    any batch, yields bit-identical data.  ``reduced_costs(duals,
    use_objective, q, seen)`` prices once per round, ``seen`` being the
    sorted positions in ``generated``, and returns candidate
    ``(positions, values)``: unseen positions with reduced cost below
    -RC_TOL, their costs, and among them the q steepest by cost, then
    position.  A pricer may find them by search rather than by scoring
    every position, but it must be exact: :func:`_pricing_batch` picks
    from the candidates alone, and no candidate certifies the master.
    ``generated`` records the positions already present in the
    restricted master.
    """

    def __init__(self, count, column_at, reduced_costs):
        self.count = int(count)
        self.column_at = column_at
        self.reduced_costs = reduced_costs
        self.generated = set()


def steepest_candidates(positions, values, q, seen):
    """The ``q`` steepest pairs of ``(positions, values)`` that pricing
    may pick, by value, then position: those not in ``seen``, a sorted
    array, with value below -RC_TOL.  Partial selections find them, so
    nothing is sorted here."""
    keep = values < -RC_TOL
    positions, values = positions[keep], values[keep]
    if seen.size and positions.size:
        at = np.minimum(np.searchsorted(seen, positions), seen.size - 1)
        keep = seen[at] != positions
        positions, values = positions[keep], values[keep]
    if values.size > q:
        last = np.partition(values, q - 1)[q - 1]
        keep = values < last
        tied = np.flatnonzero(values == last)
        # the ties at the q-th value that fit, lowest positions first
        room = q - np.count_nonzero(keep)
        keep[tied[np.argpartition(positions[tied], room - 1)[:room]]] = True
        positions, values = positions[keep], values[keep]
    return positions, values


def _pricing_batch(gen, duals, q, *, use_objective=True):
    """Positions of the ``q`` steepest unseen columns with reduced cost
    below -RC_TOL, steepest first, ties broken by position, and their
    reduced costs.  None from an exact pricer certifies the restricted
    master solution."""
    seen = np.sort(np.fromiter(gen.generated, dtype=np.intp, count=len(gen.generated)))
    pos, vals = gen.reduced_costs(np.asarray(duals, dtype=float), use_objective, q, seen)
    order = np.lexsort((pos, vals))[:q]
    return pos[order], vals[order]


def solve_dcg(seed_lp: LinearProgram, gen: ColumnGenerator) -> LPSolution:
    """Delayed column generation over the transposed dual.

    ``seed_lp`` holds the master rows and an initial column set (the
    generator's pre-marked positions); initial feasibility comes from
    those columns plus the dense solver's phase-one artificials.  One
    restricted master, a copy of the seed, lives through the run.  Each
    round re-solves it from the last basis, then prices unseen columns
    and appends up to DCG_BATCH of the steepest to it in place.  An
    exact pricing call that finds no candidate sets ``certified``: the
    returned optimum, or infeasibility, then holds against every cell;
    a stop after ROUND_LIMIT rounds leaves it unset.  Identical inputs
    produce identical iteration counts, columns and objective.  Each
    round logs one line at debug level: phase, restricted objective,
    pivots, picks, most negative reduced cost and pricing seconds.
    """
    master = LinearProgram(
        seed_lp.sense, seed_lp.c, seed_lp.A, seed_lp.row_senses, seed_lp.rhs, name=seed_lp.name
    )
    positions = [None] * seed_lp.n_cols
    basis = None
    total_iters = 0
    sol = None

    for round_no in range(ROUND_LIMIT):
        sol = solve_dense_simplex(master, warm_basis=basis)
        total_iters += sol.iterations
        if sol.status is LPStatus.ITERATION_LIMIT:
            break
        if sol.status is LPStatus.UNBOUNDED:
            break
        use_obj = sol.status is LPStatus.OPTIMAL
        t0 = time.perf_counter()
        picks, rc = _pricing_batch(gen, sol.duals, DCG_BATCH, use_objective=use_obj)
        log.debug(
            "dcg round %d: phase %d, objective %s, pivots %d, picks %d, min rc %s, "
            "pricing %.6f s",
            round_no + 1, 2 if use_obj else 1, sol.objective, sol.iterations, picks.size,
            float(rc[0]) if rc.size else None, time.perf_counter() - t0,
        )
        if not picks.size:
            # exact pricing found nothing: the optimum, or after phase
            # one the infeasibility, holds for every column
            sol.certified = True
            break
        cols, col_objs = gen.column_at(picks)
        # resume from the last basis even after an infeasible round:
        # phase one continues where it stopped
        basis = master.append_columns(cols, col_objs, sol.basis)
        positions.extend(picks.tolist())
        gen.generated.update(picks.tolist())

    sol.iterations = total_iters
    sol.columns_generated = len(positions) - seed_lp.n_cols
    sol.column_positions = positions
    return sol
