"""Dense two-phase simplex and delayed column generation.

The dense solver is a revised simplex over an explicit basis inverse:
Dantzig pricing with Bland's rule engaged after a run of degenerate
pivots, and the inverse refreshed from scratch every so many pivots to
bound error growth.  The column-generation solver drives the same core
over a restricted master, pricing cell columns in a fixed scan order
and warm-starting each re-solve from the previous basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, FactorizationError, InputError

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

DEFAULT_ITER_LIMIT = 100_000

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

    ``A`` may be a scipy sparse matrix or a dense ndarray; columns are
    kept in sorted sparse-column form internally.
    """

    def __init__(self, sense, c, A, row_senses, rhs, var_free=None, name="lp"):
        if sense not in ("min", "max"):
            raise InputError("LP sense must be 'min' or 'max'")
        self.sense = sense
        self.c = np.asarray(c, dtype=float).reshape(-1)
        if sp.issparse(A):
            A = A.tocsc()
            A.sort_indices()
        else:
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

    @property
    def n_rows(self) -> int:
        return int(self.A.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.A.shape[1])

    def dense_matrix(self) -> np.ndarray:
        if sp.issparse(self.A):
            return np.asarray(self.A.todense(), dtype=float)
        return np.array(self.A, dtype=float)


@dataclass(eq=False)
class LPSolution:
    """Solver result.  ``x`` and ``duals`` refer to the original rows
    and columns.  On an infeasible exit ``duals`` holds the phase-one
    row prices: a new column ``a`` can restore feasibility only if
    duals @ a > 0."""

    status: LPStatus
    objective: Optional[float]
    x: Optional[np.ndarray]
    duals: Optional[np.ndarray]
    iterations: int
    columns_generated: int = 0
    basis_tokens: Optional[tuple] = None
    feas_residual: Optional[float] = None
    certified: bool = False
    column_positions: Optional[list] = None


class _Canonical:
    """Equality standard form with a stable column-token layout.

    Tokens: ('x', j) for a nonnegative variable, ('xp', j)/('xn', j)
    for the split of a free variable, ('s', i) slack/surplus, ('a', i)
    artificial.  Token identity survives appending columns to the
    original LP, which is what makes warm starts across column
    generation valid.
    """

    def __init__(self, lp: LinearProgram):
        m, n = lp.n_rows, lp.n_cols
        dense = lp.dense_matrix()
        cmin = lp.c if lp.sense == "min" else -lp.c

        if not np.any(lp.var_free):
            tokens = [("x", j) for j in range(n)]
            struct = np.array(dense, dtype=float)
            costs = list(cmin)
        else:
            tokens = []
            cols = []
            costs = []
            for j in range(n):
                tokens.append(("x", j) if not lp.var_free[j] else ("xp", j))
                cols.append(dense[:, j])
                costs.append(cmin[j])
                if lp.var_free[j]:
                    tokens.append(("xn", j))
                    cols.append(-dense[:, j])
                    costs.append(-cmin[j])
            struct = np.column_stack(cols) if cols else np.zeros((m, 0))

        slack_rows = [i for i, s in enumerate(lp.row_senses) if s != "="]
        slack_mat = np.zeros((m, len(slack_rows)))
        slack_of_row = {}
        for k, i in enumerate(slack_rows):
            slack_mat[i, k] = 1.0 if lp.row_senses[i] == "<=" else -1.0
            slack_of_row[i] = struct.shape[1] + k
            tokens.append(("s", i))
            costs.append(0.0)
        n_real = struct.shape[1] + len(slack_rows)
        tokens.extend(("a", i) for i in range(m))
        costs.extend([0.0] * m)

        A = np.concatenate([struct, slack_mat, np.eye(m)], axis=1)
        b = lp.rhs.astype(float).copy()
        flip = b < 0
        row_sign = np.where(flip, -1.0, 1.0)
        b = np.abs(b)
        # artificials for flipped rows keep coefficient +1
        A[flip, :n_real] = -A[flip, :n_real]

        self.m = m
        self.A = A
        self.b = b
        self.row_sign = row_sign
        self.tokens = tokens
        self.token_index = {t: k for k, t in enumerate(tokens)}
        self.n_real = n_real
        self.cost2 = np.array(costs)
        self.cost1 = np.zeros(len(tokens))
        self.cost1[n_real:] = 1.0
        self.artificial = np.zeros(len(tokens), dtype=bool)
        self.artificial[n_real:] = True
        self.slack_of_row = slack_of_row
        self.lp = lp

    def cold_basis(self):
        basis = np.empty(self.m, dtype=int)
        for i in range(self.m):
            j = self.slack_of_row.get(i)
            # a slack enters the starting basis only when its flipped
            # coefficient is +1, so the basic value equals b[i] >= 0
            if j is not None and self.A[i, j] > 0.5:
                basis[i] = j
            else:
                basis[i] = self.n_real + i
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
    # deterministic leave choice: smallest basis token index
    return int(near[np.argmin(basis[near])])


def _simplex_phase(canon, cost, basis, Binv, enterable, iter_budget, stats, phase_one=False):
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
        if stats["iterations"] >= iter_budget:
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
        basis[r] = j
        piv_row = Binv[r] / d[r]
        Binv = Binv - np.outer(d, piv_row)
        Binv[r] = piv_row
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
        if not canon.artificial[basis[r]]:
            continue
        if xB[r] > FEAS_TOL:
            continue
        row = Binv[r] @ canon.A[:, : canon.n_real]
        good = np.nonzero(np.abs(row) > 1e-8)[0]
        if good.size == 0:
            continue
        j = int(good[0])
        d = Binv @ canon.A[:, j]
        piv_row = Binv[r] / d[r]
        Binv = Binv - np.outer(d, piv_row)
        Binv[r] = piv_row
        basis[r] = j
        xB = Binv @ canon.b
        np.maximum(xB, 0.0, out=xB)
    return basis, Binv, xB


def _feasibility_residual(lp: LinearProgram, x: np.ndarray) -> float:
    ax = lp.A @ x if not sp.issparse(lp.A) else np.asarray(lp.A @ x).reshape(-1)
    worst = 0.0
    for i, s in enumerate(lp.row_senses):
        if s == "<=":
            worst = max(worst, ax[i] - lp.rhs[i])
        elif s == ">=":
            worst = max(worst, lp.rhs[i] - ax[i])
        else:
            worst = max(worst, abs(ax[i] - lp.rhs[i]))
    return float(worst)


def solve_dense_simplex(
    lp: LinearProgram,
    *,
    warm_basis=None,
    iteration_limit: int = DEFAULT_ITER_LIMIT,
    budget: int = DENSE_BUDGET,
) -> LPSolution:
    """Two-phase revised simplex over the fully materialized LP.

    ``warm_basis`` may carry the basis tokens of a previous solution of
    the same LP (possibly with columns appended since); when the tokens
    still name a feasible basis, phase one is skipped.  Raises
    CapacityError when the row or column count exceeds ``budget``.
    """
    if lp.n_rows > budget or lp.n_cols > budget:
        raise CapacityError(
            f"LP size {lp.n_rows}x{lp.n_cols} exceeds the dense budget {budget}"
        )
    canon = _Canonical(lp)
    stats = {"iterations": 0}

    # a warm basis may include artificial tokens: the previous round of
    # column generation can stop mid-phase-one, and resuming it there is
    # the point of warm starting
    basis = None
    Binv = None
    if warm_basis is not None:
        try:
            cand = np.array([canon.token_index[t] for t in warm_basis], dtype=int)
        except KeyError:
            cand = None
        if cand is not None and cand.size == canon.m:
            try:
                Btry = _refactor(canon.A, cand)
            except FactorizationError:
                Btry = None
            if Btry is not None:
                xB = Btry @ canon.b
                if np.all(xB >= -FEAS_TOL):
                    basis = cand
                    Binv = Btry

    if basis is None:
        basis = canon.cold_basis()
        Binv = _refactor(canon.A, basis)
        xB = Binv @ canon.b

    if np.any(canon.artificial[basis] & (xB > FEAS_TOL)):
        enter1 = ~canon.artificial
        status, basis, Binv, xB = _simplex_phase(
            canon, canon.cost1, basis, Binv, enter1, iteration_limit, stats, phase_one=True
        )
        if status == "iteration_limit":
            return LPSolution(LPStatus.ITERATION_LIMIT, None, None, None, stats["iterations"])
        infeas = float(canon.cost1[basis] @ xB)
        if infeas > FEAS_TOL:
            pi1 = canon.cost1[basis] @ Binv
            duals1 = canon.row_sign * pi1
            return LPSolution(
                LPStatus.INFEASIBLE, None, None, duals1, stats["iterations"],
                basis_tokens=tuple(canon.tokens[k] for k in basis),
            )
    if np.any(canon.artificial[basis]):
        basis, Binv, xB = _drive_out_artificials(canon, basis, Binv, xB)

    enter2 = ~canon.artificial
    status, basis, Binv, xB = _simplex_phase(
        canon, canon.cost2, basis, Binv, enter2, iteration_limit, stats
    )
    tokens = tuple(canon.tokens[k] for k in basis)
    if status == "iteration_limit":
        return LPSolution(
            LPStatus.ITERATION_LIMIT, None, None, None,
            stats["iterations"], basis_tokens=tokens,
        )
    if status == "unbounded":
        obj = -math.inf if lp.sense == "min" else math.inf
        return LPSolution(
            LPStatus.UNBOUNDED, obj, None, None,
            stats["iterations"], basis_tokens=tokens,
        )

    x_can = np.zeros(len(canon.tokens))
    x_can[basis] = xB
    x = np.zeros(lp.n_cols)
    for k, tok in enumerate(canon.tokens):
        kind = tok[0]
        if kind == "x":
            x[tok[1]] = x_can[k]
        elif kind == "xp":
            x[tok[1]] += x_can[k]
        elif kind == "xn":
            x[tok[1]] -= x_can[k]
    obj_min = float(canon.cost2 @ x_can)
    objective = obj_min if lp.sense == "min" else -obj_min
    pi2 = canon.cost2[basis] @ Binv
    duals_min = canon.row_sign * pi2
    duals = duals_min if lp.sense == "min" else -duals_min
    residual = _feasibility_residual(lp, x)
    return LPSolution(
        LPStatus.OPTIMAL, objective, x, duals,
        stats["iterations"], basis_tokens=tokens, feas_residual=residual,
    )


class ColumnGenerator:
    """On-demand producer of master columns for cell constraints.

    Positions index a fixed deterministic scan order (above-tau cells
    first).  ``column_at(pos)`` returns ``(row_indices, values,
    objective)`` and is a pure function: regenerating a position yields
    bit-identical data.  ``reduced_costs(duals, use_objective)`` scores
    every position at once; pricing reads nothing else.  ``generated``
    records the positions already present in the restricted master.
    """

    def __init__(self, count, column_at, reduced_costs):
        self.count = int(count)
        self.column_at = column_at
        self.reduced_costs = reduced_costs
        self.generated = set()


@dataclass(eq=False)
class PricedColumn:
    position: int
    rows: np.ndarray
    values: np.ndarray
    objective: float
    reduced_cost: float


def _pricing_batch(gen, duals, q, *, use_objective=True, rc_tol=RC_TOL):
    """The ``q`` steepest unseen positions with reduced cost below
    -rc_tol, ties broken by scan position.  An empty list after a full
    scan certifies the restricted master solution."""
    rc = np.asarray(gen.reduced_costs(np.asarray(duals, dtype=float), use_objective), dtype=float)
    mask = rc < -rc_tol
    if gen.generated:
        mask[np.fromiter(gen.generated, dtype=int)] = False
    cand = np.nonzero(mask)[0]
    order = np.lexsort((cand, rc[cand]))
    out = []
    for pos in cand[order[:q]]:
        rows, vals, obj = gen.column_at(int(pos))
        out.append(PricedColumn(int(pos), rows, vals, obj, float(rc[pos])))
    return out


def solve_dcg(
    seed_lp: LinearProgram,
    gen: ColumnGenerator,
    *,
    batch: int = 8,
    iteration_limit: int = DEFAULT_ITER_LIMIT,
    round_limit: int = 100_000,
    rc_tol: float = RC_TOL,
) -> LPSolution:
    """Delayed column generation over the transposed dual.

    ``seed_lp`` holds the master rows and an initial column set (the
    generator's pre-marked positions); initial feasibility comes from
    those columns plus the dense solver's phase-one artificials.  Each
    round re-solves the restricted master warm-started from the last
    basis, then prices unseen columns, adding up to ``batch`` of the
    steepest.  A clean full pricing sweep sets ``certified``: the
    returned optimum, or infeasibility, then holds against every cell;
    a stop at ``round_limit`` leaves it unset.  Identical inputs
    produce identical iteration counts, columns and objective.
    """
    m = seed_lp.n_rows
    dense = seed_lp.dense_matrix()
    columns = [dense[:, j].copy() for j in range(seed_lp.n_cols)]
    objs = [float(v) for v in seed_lp.c]
    positions = [None] * seed_lp.n_cols
    tokens = None
    total_iters = 0
    generated = 0
    sol = None

    for _ in range(round_limit):
        lp = LinearProgram(
            seed_lp.sense,
            np.array(objs),
            np.column_stack(columns) if columns else np.zeros((m, 0)),
            seed_lp.row_senses,
            seed_lp.rhs,
            name=seed_lp.name,
        )
        sol = solve_dense_simplex(lp, warm_basis=tokens, iteration_limit=iteration_limit)
        total_iters += sol.iterations
        if sol.status is LPStatus.ITERATION_LIMIT:
            break
        if sol.status is LPStatus.UNBOUNDED:
            break
        use_obj = sol.status is LPStatus.OPTIMAL
        picks = _pricing_batch(gen, sol.duals, batch, use_objective=use_obj, rc_tol=rc_tol)
        if not picks:
            # clean full sweep: the optimum, or after phase one the
            # infeasibility, holds for every column
            sol.certified = True
            break
        for pc in picks:
            col = np.zeros(m)
            col[pc.rows] = pc.values
            columns.append(col)
            objs.append(pc.objective)
            positions.append(pc.position)
            gen.generated.add(pc.position)
            generated += 1
        # resume from the last basis even after an infeasible round:
        # phase one continues where it stopped
        tokens = sol.basis_tokens

    sol.iterations = total_iters
    sol.columns_generated = generated
    sol.column_positions = positions
    return sol
