"""Dense two-phase simplex and delayed column generation.

The dense solver is a revised simplex over an explicit basis inverse:
Dantzig pricing with Bland's rule engaged after a run of degenerate
pivots.  The basis and its inverse live with the LP's standard form, so
a solve resumes where the last solve of the same LP stopped, and the
inverse is rebuilt from scratch only every REFACTOR_EVERY pivots,
counted across solves, to bound error growth.  The column-generation
solver keeps one restricted master for the whole run: its standard form
is built once, each round appends the priced cell columns to it in
place, and the next re-solve starts from the previous basis and its
inverse, with no refactor because a round began.  A ranged row is one
row whose slack is bounded by the range, and the ratio test flips a
slack that reaches its own bound first (Dantzig, Econometrica 23,
1955).  Pricing asks the column generator for the round's picks rather
than for every column's reduced cost; the generator must find them
exactly, by search or by sweep, so an empty answer certifies the
master.  The limits
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
                A[i] @ x  >=  rhs[i] - row_range[i]   for a ranged '<=' row i
                x[j] >= 0 unless var_free[j]

    ``A`` is a dense 2-dimensional array.  ``row_range`` is +inf on every
    row by default; a finite, nonnegative range is allowed on '<=' rows
    only, and such a row stays one row, with a slack bounded by the
    range.  The simplex runs on the equality standard form of
    :meth:`standard_form`, built once per LP and kept up to date by
    :meth:`append_columns`, the one way to change the LP after a solve.
    The standard form also keeps the last solve's basis and inverse, so
    solving the LP again resumes from there.
    """

    def __init__(self, sense, c, A, row_senses, rhs, var_free=None, name="lp", row_range=None):
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
        if row_range is None:
            self.row_range = np.full(m, np.inf)
        else:
            self.row_range = np.asarray(row_range, dtype=float).reshape(-1)
            if self.row_range.size != m:
                raise InputError("row_range length must match the row count")
            if not np.all(self.row_range >= 0.0):
                raise InputError("row ranges must be nonnegative")
            if np.any(np.isfinite(self.row_range) & (np.array(senses, dtype="<U2") != "<=")):
                raise InputError("only '<=' rows take a finite range")
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

    def append_columns(self, cols, c):
        """Append nonnegative columns.  The standard form takes them in
        place after its structural columns, ahead of the slacks and
        artificials, and keeps its basis and inverse: the basic columns
        are unchanged, so the next solve starts from that basis with no
        refactor."""
        cols = np.asarray(cols, dtype=float)
        c = np.asarray(c, dtype=float).reshape(-1)
        self.standard_form().insert(cols, c if self.sense == "min" else -c)
        self.A = np.concatenate([self.A, cols], axis=1)
        self.c = np.concatenate([self.c, c])
        self.var_free = np.concatenate([self.var_free, np.zeros(c.size, dtype=bool)])


@dataclass(eq=False)
class LPSolution:
    """Solver result.  ``x`` and ``duals`` refer to the original rows
    and columns.  On an infeasible exit ``duals`` holds the phase-one
    row prices: a new column ``a`` can restore feasibility only if
    duals @ a > 0.  A ranged row's dual is free: positive where its
    upper end binds, negative where its lower end does.  The final basis
    stays with the LP's standard form, where the next solve resumes,
    phase one included.  ``iterations`` counts the pivots and ``flips``
    the bound flips, steps that move a ranged row's slack from one bound
    to the other with no basis change; ``refactors`` counts the basis
    factorizations, pivot-check solves included, and ``rounds`` the
    dense solves behind the result."""

    status: LPStatus
    objective: Optional[float]
    x: Optional[np.ndarray]
    duals: Optional[np.ndarray]
    iterations: int
    columns_generated: int = 0
    feas_residual: Optional[float] = None
    certified: bool = False
    column_positions: Optional[list] = None
    refactors: int = 0
    rounds: int = 1
    flips: int = 0


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

    ``basis`` and ``Binv`` hold the basis the last solve ended on and
    its inverse, always in step, or None before a first solve and after
    one that failed; ``since_refactor`` counts the pivots taken since
    that inverse was last factorized.
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
        self.b0 = np.abs(lp.rhs)
        self.b = self.b0.copy()
        self.row_sign = np.where(flip, -1.0, 1.0)
        self.first = np.flatnonzero(~negated)
        self.n_struct = struct.shape[1]
        self.cost2 = np.concatenate([costs, np.zeros(A.shape[1] - costs.size)])
        self.upper = np.full(A.shape[1], np.inf)
        self.upper[self.n_struct : n_real] = lp.row_range[self.slack_rows]
        self.bounded = bool(np.any(np.isfinite(self.upper)))
        # per slack, whether it is held complemented
        self.complemented = np.zeros(self.slack_rows.size, dtype=bool)
        self.basis = None
        self.Binv = None
        self.since_refactor = 0

    @property
    def n_real(self) -> int:
        """Columns ahead of the artificials."""
        return self.A.shape[1] - self.m

    def insert(self, cols, costs):
        """Nonnegative columns, in the LP's own row signs, after the
        structural block; basis positions past it move up with them."""
        k = self.n_struct
        if self.basis is not None:
            self.basis[self.basis >= k] += costs.size
        flipped = cols * self.row_sign[:, None]
        self.A = np.concatenate([self.A[:, :k], flipped, self.A[:, k:]], axis=1)
        self.cost2 = np.concatenate([self.cost2[:k], costs, self.cost2[k:]])
        self.upper = np.concatenate([self.upper[:k], np.full(costs.size, np.inf), self.upper[k:]])
        self.first = np.concatenate([self.first, k + np.arange(costs.size)])
        self.n_struct += costs.size

    def complement(self, k):
        """Hold bounded column ``k``, a slack, as its distance from its
        bound, or back as itself: its unit entry changes sign, and its
        row's right-hand side becomes the fresh one less the bound times
        the fresh entry, or the fresh one again, with no rounding drift
        over repeated flips."""
        s = k - self.n_struct
        i = self.slack_rows[s]
        self.complemented[s] = not self.complemented[s]
        self.A[i, k] = -self.A[i, k]
        self.b[i] = self.b0[i] + self.upper[k] * self.A[i, k] if self.complemented[s] else self.b0[i]

    def cold_basis(self):
        """The slack and artificial basis, on fresh slacks but for one
        rule: a ranged row's slack with entry +1 starts complemented when
        the row's right-hand side exceeds its range, where it could not be
        basic.  A slack is basic when its entry is then +1, so its value
        b[i] >= 0 lies within its bound; the other rows start on their
        artificials."""
        slacks = self.n_struct + np.arange(self.slack_rows.size)
        sign = np.where(self.complemented, -1.0, 1.0) * self.A[self.slack_rows, slacks]
        over = (sign > 0.5) & (self.b0[self.slack_rows] > self.upper[slacks])
        sign[over] = -1.0
        self.A[self.slack_rows, slacks] = sign
        self.complemented = over
        self.b[:] = self.b0
        self.b[self.slack_rows[over]] -= self.upper[slacks[over]]
        basis = self.n_real + np.arange(self.m)
        keep = sign > 0.5
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


def _factor(canon, basis, stats):
    """A fresh, counted inverse of ``basis``; the pivot count toward the
    next refactor starts again."""
    stats["refactors"] += 1
    canon.since_refactor = 0
    return _refactor(canon.A, basis)


def _leaving_row(d, xB, basis, ubB=None):
    """Ratio test for an entering column with basis-space entries ``d``:
    the row that leaves and the entering column's step, or (None, inf)
    when no entry can pivot.  A basic value falls to zero where d > 0;
    given ``ubB``, the basic columns' upper bounds, one also rises to its
    bound where d < 0, at the step (xB - ubB) / d."""
    if ubB is None:
        idx = np.nonzero(d > PIVOT_TOL)[0]
        if idx.size == 0:
            return None, math.inf
        ratios = xB[idx] / d[idx]
    else:
        idx = np.arange(d.size)
        ratios = np.divide(xB - np.where(d > 0.0, 0.0, ubB), d, out=np.full(d.size, np.inf),
                           where=np.abs(d) > PIVOT_TOL)
    theta = float(ratios.min())
    if theta == math.inf:
        return None, theta
    near = np.nonzero(ratios <= max(theta, 0.0) + DEGEN_TOL)[0]
    # deterministic leave choice: smallest basic column position
    at = near[basis[idx[near]].argmin()]
    return int(idx[at]), max(float(ratios[at]), 0.0)


def _pivot(basis, Binv, j, d, r):
    """Column ``j``, with basis-space entries ``d``, enters the basis in
    row ``r``; updates ``basis`` and, by a rank-one update, the inverse
    in place."""
    basis[r] = j
    piv_row = Binv[r] / d[r]
    Binv -= np.multiply.outer(d, piv_row)
    Binv[r] = piv_row


def _simplex_phase(canon, cost, basis, Binv, stats, phase_one=False):
    """Run pivots until optimal/unbounded for the given costs.

    Only real columns, ahead of the artificials, enter.  ``basis`` and
    ``Binv`` change in place, and a refactor replaces ``Binv``.
    Returns (status, Binv, xB) with status 'optimal', 'unbounded' or
    'iteration_limit'.  A pivot that is tiny next to its column is
    checked by a direct solve of the basis; when the two disagree, the
    pivot was rounding left in the updated inverse, which is then
    rebuilt.  Phase one is bounded below, so there an entering column
    without a pivot row priced negative only by rounding; it is skipped
    until the next pivot.  On a form with bounded columns the ratio test
    also stops a basic column at its bound, which then leaves
    complemented, and an entering bounded column that reaches its own
    bound first flips there: it is complemented and stays nonbasic, a
    step counted in ``stats["flips"]``, not as a pivot.
    """
    A, b = canon.A, canon.b
    n = canon.n_real
    real = A[:, :n]
    upper = canon.upper if canon.bounded else None
    # the basic columns' upper bounds, kept in step with the basis
    ubB = None if upper is None else upper[basis]
    xB = Binv @ b
    if n == 0:
        return "optimal", Binv, xB
    degen_streak = 0
    bland = False
    # columns that may not enter: the basic ones, and in phase one those
    # skipped since the last pivot
    blocked = np.zeros(n, dtype=bool)
    blocked[basis[basis < n]] = True
    skipped = []
    while True:
        if stats["iterations"] >= ITER_LIMIT:
            return "iteration_limit", Binv, xB
        pi = cost[basis] @ Binv
        rc = cost[:n] - pi @ real
        rc[blocked] = np.inf
        # Bland's rule takes the first candidate, Dantzig's the steepest
        j = int((rc < -RC_TOL).argmax() if bland else rc.argmin())
        if not rc[j] < -RC_TOL:
            return "optimal", Binv, xB
        d = Binv @ A[:, j]
        r, step = _leaving_row(d, xB, basis, ubB)
        if r is not None and abs(d[r]) < PIVOT_CHECK * np.abs(d).max():
            stats["refactors"] += 1
            exact = _refactor(A, basis, A[:, j])
            if abs(exact[r] - d[r]) > PIVOT_CHECK * abs(d[r]):
                Binv = _factor(canon, basis, stats)
                xB = np.maximum(Binv @ b, 0.0)
                d = exact
                r, step = _leaving_row(d, xB, basis, ubB)
        if upper is not None and upper[j] <= step and upper[j] < math.inf:
            # the entering slack reaches its own bound first
            xB -= upper[j] * d
            np.maximum(xB, 0.0, out=xB)
            canon.complement(j)
            stats["flips"] += 1
            if upper[j] > DEGEN_TOL:
                degen_streak = 0
                bland = False
            continue
        if r is None:
            if phase_one:
                blocked[j] = True
                skipped.append(j)
                continue
            return "unbounded", Binv, xB
        if skipped:
            blocked[skipped] = False
            skipped.clear()
        if step <= DEGEN_TOL:
            degen_streak += 1
            if degen_streak >= BLAND_AFTER:
                bland = True
        else:
            degen_streak = 0
            bland = False
        xB -= step * d
        xB[r] = step
        np.maximum(xB, 0.0, out=xB)
        leaving = basis[r]
        if leaving < n:
            blocked[leaving] = False
        blocked[j] = True
        _pivot(basis, Binv, j, d, r)
        if d[r] < 0.0:
            # the leaving column stops at its bound, where it is held
            # complemented
            canon.complement(leaving)
        if ubB is not None:
            ubB[r] = upper[j]
        stats["iterations"] += 1
        canon.since_refactor += 1
        if canon.since_refactor >= REFACTOR_EVERY:
            Binv = _factor(canon, basis, stats)
            xB = Binv @ b
            np.maximum(xB, 0.0, out=xB)


def _drive_out_artificials(canon, basis, Binv, xB):
    """Pivot zero-valued basic artificials out where a real column can
    replace them; rows where none can are redundant and keep their
    artificial pinned at zero.  Returns the basic values."""
    for r in range(canon.m):
        if basis[r] < canon.n_real or xB[r] > FEAS_TOL:
            continue
        row = Binv[r] @ canon.A[:, : canon.n_real]
        good = np.nonzero(np.abs(row) > 1e-8)[0]
        if good.size == 0:
            continue
        j = int(good[0])
        _pivot(basis, Binv, j, Binv @ canon.A[:, j], r)
        xB = Binv @ canon.b
        np.maximum(xB, 0.0, out=xB)
    return xB


def _feasibility_residual(lp: LinearProgram, x: np.ndarray) -> float:
    """The largest violation of a row by ``x``, at either end of a
    ranged row."""
    ax = lp.A @ x
    senses = np.array(lp.row_senses, dtype="<U2")
    gap = np.where(
        senses == "<=", ax - lp.rhs, np.where(senses == ">=", lp.rhs - ax, np.abs(ax - lp.rhs))
    )
    ranged = np.isfinite(lp.row_range)
    below = (lp.rhs[ranged] - lp.row_range[ranged]) - ax[ranged]
    gap[ranged] = np.maximum(gap[ranged], below)
    return float(np.max(gap, initial=0.0))


def solve_dense_simplex(lp: LinearProgram) -> LPSolution:
    """Two-phase revised simplex over the fully materialized LP.

    The solve resumes from the basis and inverse that the LP's standard
    form kept from its last solve, moved past any columns appended
    since, while that basis is still feasible, bounds included; otherwise
    it starts from the slack and artificial basis.  It keeps the basis,
    its inverse and the complemented slacks it ends on for the next
    solve.  The inverse is rebuilt only every
    REFACTOR_EVERY pivots, counted across solves, and when a checked
    pivot disagrees with a direct solve.  Raises CapacityError when the
    row or column count exceeds DENSE_BUDGET, and stops with status
    ITERATION_LIMIT after ITER_LIMIT pivots.
    """
    if lp.n_rows > DENSE_BUDGET or lp.n_cols > DENSE_BUDGET:
        raise CapacityError(
            f"LP size {lp.n_rows}x{lp.n_cols} exceeds the dense budget {DENSE_BUDGET}"
        )
    canon = lp.standard_form()
    stats = {"iterations": 0, "refactors": 0, "flips": 0}

    # a kept basis may include artificials: the previous round of column
    # generation can stop mid-phase-one, and resuming it there is the
    # point of warm starting.  The form holds none while the solve runs,
    # so a solve that raises leaves no inverse out of step with a basis.
    basis, Binv = canon.basis, canon.Binv
    canon.basis = canon.Binv = None
    if basis is not None:
        xB = Binv @ canon.b
        if not (np.all(xB >= -FEAS_TOL) and np.all(xB <= canon.upper[basis] + FEAS_TOL)):
            basis = None
    if basis is None:
        basis = canon.cold_basis()
        Binv = _factor(canon, basis, stats)
        xB = Binv @ canon.b

    real = np.arange(canon.A.shape[1]) < canon.n_real
    cost1 = (~real).astype(float)
    status = "optimal"
    if np.any(~real[basis] & (xB > FEAS_TOL)):
        status, Binv, xB = _simplex_phase(canon, cost1, basis, Binv, stats, phase_one=True)
        if status == "optimal" and float(cost1[basis] @ xB) > FEAS_TOL:
            status = "infeasible"
    if status == "optimal":
        if not np.all(real[basis]):
            xB = _drive_out_artificials(canon, basis, Binv, xB)
        status, Binv, xB = _simplex_phase(canon, canon.cost2, basis, Binv, stats)
    canon.basis, canon.Binv = basis, Binv
    done = dict(iterations=stats["iterations"], refactors=stats["refactors"], flips=stats["flips"])

    if status == "iteration_limit":
        return LPSolution(LPStatus.ITERATION_LIMIT, None, None, None, **done)
    if status == "infeasible":
        duals1 = canon.row_sign * (cost1[basis] @ Binv)
        return LPSolution(LPStatus.INFEASIBLE, None, None, duals1, **done)
    if status == "unbounded":
        obj = -math.inf if lp.sense == "min" else math.inf
        return LPSolution(LPStatus.UNBOUNDED, obj, None, None, **done)

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
        LPStatus.OPTIMAL, objective, x, duals, feas_residual=residual, **done
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
    sorted positions in ``generated``, and returns the round's picks
    ``(positions, values)``: at most q unseen positions with reduced
    cost below -RC_TOL, steepest first, ties broken by position, and
    their costs.  Phase two (``use_objective``) prices a column as
    duals @ column less its objective, phase one as -duals @ column.  A
    pricer may find the picks by search rather than by scoring every
    position, but it must be exact: :func:`solve_dcg` appends exactly
    the picks, and none certifies the master.  ``generated`` records
    the positions already present in the restricted master.
    """

    def __init__(self, count, column_at, reduced_costs):
        self.count = int(count)
        self.column_at = column_at
        self.reduced_costs = reduced_costs
        self.generated = set()


def steepest_candidates(positions, values, q, seen):
    """The picks among ``(positions, values)``: at most ``q`` pairs not
    in ``seen``, a sorted array, with value below -RC_TOL, steepest
    first, ties broken by position.  A partial selection finds them, so
    only the picks are sorted."""
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
    order = np.lexsort((positions, values))
    return positions[order], values[order]


def solve_dcg(seed_lp: LinearProgram, gen: ColumnGenerator) -> LPSolution:
    """Delayed column generation over the transposed dual.

    ``seed_lp`` holds the master rows and an initial column set (the
    generator's pre-marked positions); initial feasibility comes from
    those columns plus the dense solver's phase-one artificials.  One
    restricted master, a copy of the seed, lives through the run.  Each
    round re-solves it from the last basis, then asks the generator for
    the round's picks, at most DCG_BATCH, and appends exactly those to
    it in place.  An exact pricing call that picks nothing sets
    ``certified``: the returned optimum, or infeasibility, then holds
    against every cell; a stop after ROUND_LIMIT rounds leaves it
    unset.  Identical inputs produce identical iteration counts,
    columns and objective.  The result carries the pivots, flips,
    refactors and rounds summed over the run.  Each round logs one line
    at debug level: phase, restricted objective, pivots, flips,
    refactors, picks, most negative reduced cost and pricing seconds.
    """
    master = LinearProgram(
        seed_lp.sense, seed_lp.c, seed_lp.A, seed_lp.row_senses, seed_lp.rhs, name=seed_lp.name,
        row_range=seed_lp.row_range,
    )
    positions = [None] * seed_lp.n_cols
    total_iters = total_refactors = total_flips = 0
    sol = None

    for round_no in range(ROUND_LIMIT):
        sol = solve_dense_simplex(master)
        total_iters += sol.iterations
        total_refactors += sol.refactors
        total_flips += sol.flips
        if sol.status is LPStatus.ITERATION_LIMIT:
            break
        if sol.status is LPStatus.UNBOUNDED:
            break
        use_obj = sol.status is LPStatus.OPTIMAL
        t0 = time.perf_counter()
        seen = np.sort(np.fromiter(gen.generated, dtype=np.intp, count=len(gen.generated)))
        picks, rc = gen.reduced_costs(sol.duals, use_obj, DCG_BATCH, seen)
        log.debug(
            "dcg round %d: phase %d, objective %s, pivots %d, flips %d, refactors %d, "
            "picks %d, min rc %s, pricing %.6f s",
            round_no + 1, 2 if use_obj else 1, sol.objective, sol.iterations, sol.flips,
            sol.refactors, picks.size, float(rc[0]) if rc.size else None, time.perf_counter() - t0,
        )
        if not picks.size:
            # exact pricing found nothing: the optimum, or after phase
            # one the infeasibility, holds for every column
            sol.certified = True
            break
        cols, col_objs = gen.column_at(picks)
        # the next solve resumes from the last basis and its inverse,
        # even after an infeasible round: phase one continues there
        master.append_columns(cols, col_objs)
        positions.extend(picks.tolist())
        gen.generated.update(picks.tolist())

    sol.iterations, sol.refactors, sol.rounds = total_iters, total_refactors, round_no + 1
    sol.flips = total_flips
    sol.columns_generated = len(positions) - seed_lp.n_cols
    sol.column_positions = positions
    return sol
