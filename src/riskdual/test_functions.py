"""Piecewise-linear test functions, the two risk functionals, and the
model check.

A test function constrains the unknown measure through its integral:
an upper bound, a lower bound, or an equality.  Supported shapes are
axis-aligned slab indicators 1_S and slab-masked affine pieces
1_S(x) * (<v, x> + c).  Slab intervals are closed at both endpoints,
so :func:`evaluate`, and with it ``verify`` and ``bootstrap``, counts a
point on a shared breakpoint in both neighbouring slabs.  The dual and
the primal oracle score a point through one cell's restriction
instead: a point on an interior breakpoint counts in the slab above
it, and the top end of a finite axis in the last slab.  The two differ
on mass that sits on a breakpoint, as rounded or discrete samples can;
ROADMAP.md item 1 is to settle on one convention.

:func:`check_model` is the one check of a model's validity; the dual
builds its columns from the slab ranges it returns.
:func:`restrict_to_cell` is the independent per-cell route.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

import numpy as np

from .errors import InputError, PartitionIncompatibleError
from .geometry import Cell, SideOfTau, check_breakpoints

EVAL_TOL = 1e-12
# a slab end past an end of its axis by at most this counts as that end
GRID_TOL = 1e-9


@unique
class TestFunctionKind(Enum):
    __test__ = False  # domain vocabulary, not a test case

    SLAB_INDICATOR = "slab_indicator"
    SLAB_AFFINE = "slab_affine"


@unique
class Sense(Enum):
    UPPER = "inequality_upper"
    LOWER = "inequality_lower"
    EQUALITY = "equality"


@unique
class RiskKind(Enum):
    VAR_INDICATOR = "var_indicator"
    CVAR_HINGE = "cvar_hinge"


class TestFunction:
    """One integral constraint on the measure.

    ``slab`` is the closed interval [slab_lo, slab_hi] on ``axis``
    (endpoints may be -inf/+inf at the ends of the axis range).  For
    SLAB_AFFINE, ``v`` and ``c`` define the affine factor; a
    SLAB_INDICATOR ignores them.  ``bound`` is the right-hand side of
    the integral constraint in the direction given by ``sense``.
    """

    __test__ = False  # domain vocabulary, not a test case

    __slots__ = ("id", "kind", "axis", "slab", "v", "c", "sense", "bound")

    def __init__(self, fn_id, kind, axis, slab, sense, bound, v=None, c=0.0):
        self.id = str(fn_id)
        self.kind = TestFunctionKind(kind)
        # bool is an int subclass, and int() would truncate 0.7 to axis 0
        if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or axis < 0:
            raise InputError(f"test function {self.id}: axis must be a non-negative integer, got {axis!r}")
        self.axis = int(axis)
        lo, hi = float(slab[0]), float(slab[1])
        if math.isnan(lo) or math.isnan(hi):
            raise InputError(f"test function {self.id}: slab endpoints must not be NaN")
        if not lo < hi:
            raise InputError(f"test function {self.id}: slab must have positive width")
        self.slab = (lo, hi)
        self.sense = Sense(sense)
        self.bound = float(bound)
        if not math.isfinite(self.bound):
            raise InputError(f"test function {self.id}: bound must be finite, got {self.bound}")
        if self.kind is TestFunctionKind.SLAB_AFFINE:
            if v is None:
                raise InputError(f"test function {self.id}: affine kind needs v")
            self.v = np.asarray(v, dtype=float)
            if self.v.ndim != 1:
                raise InputError(f"test function {self.id}: v must be a vector")
            self.c = float(c)
            if not (np.all(np.isfinite(self.v)) and math.isfinite(self.c)):
                raise InputError(f"test function {self.id}: v and c must be finite")
        else:
            self.v = None
            self.c = 1.0

    def __repr__(self):
        return f"TestFunction({self.id}, {self.kind.value}, axis={self.axis}, slab={self.slab}, {self.sense.value}, bound={self.bound})"


@dataclass(frozen=True)
class RiskFunctional:
    """Objective integrand: tail indicator 1_{sum(x) >= tau} or the
    shortfall hinge max(0, sum(x) - tau)."""

    kind: RiskKind
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "kind", RiskKind(self.kind))
        object.__setattr__(self, "tau", float(self.tau))
        if math.isnan(self.tau):
            raise InputError("risk level tau must not be NaN")


def _slab_relation(fn: TestFunction, cell: Cell) -> str:
    """'inside' when the cell's axis interval lies in the slab,
    'outside' when their interiors are disjoint, error otherwise."""
    a = cell.lows[fn.axis]
    b = cell.highs[fn.axis]
    lo, hi = fn.slab
    if a >= lo - EVAL_TOL and b <= hi + EVAL_TOL:
        return "inside"
    if b <= lo + EVAL_TOL or a >= hi - EVAL_TOL:
        return "outside"
    raise PartitionIncompatibleError(
        f"test function {fn.id}: cell {cell.id} straddles the slab boundary on axis {fn.axis}"
    )


def _cell_side(risk: RiskFunctional, cell: Cell) -> SideOfTau:
    if cell.side_of_tau in (SideOfTau.BELOW, SideOfTau.ABOVE):
        if cell.tau is not None and abs(cell.tau - risk.tau) > EVAL_TOL:
            raise PartitionIncompatibleError(
                f"cell {cell.id} was sliced at tau={cell.tau}, risk uses tau={risk.tau}"
            )
        return cell.side_of_tau
    if cell.max_sum <= risk.tau + EVAL_TOL:
        return SideOfTau.BELOW
    if cell.min_sum >= risk.tau - EVAL_TOL:
        return SideOfTau.ABOVE
    raise PartitionIncompatibleError(
        f"cell {cell.id} straddles the risk hyperplane sum(x) = {risk.tau}"
    )


def restrict_to_cell(fn, cell: Cell):
    """Affine data (v, c) of ``fn`` on ``cell``: fn(x) = <v, x> + c for
    x in the cell.  Works for test functions and risk functionals;
    raises PartitionIncompatibleError when the function is not affine
    on the cell."""
    n = cell.dimension
    if isinstance(fn, RiskFunctional):
        side = _cell_side(fn, cell)
        if fn.kind is RiskKind.VAR_INDICATOR:
            value = 1.0 if side is SideOfTau.ABOVE else 0.0
            return np.zeros(n), value
        if side is SideOfTau.ABOVE:
            return np.ones(n), -fn.tau
        return np.zeros(n), 0.0
    if fn.axis >= n:
        raise InputError(f"test function {fn.id}: axis {fn.axis} out of range")
    relation = _slab_relation(fn, cell)
    if relation == "outside":
        return np.zeros(n), 0.0
    if fn.kind is TestFunctionKind.SLAB_INDICATOR:
        return np.zeros(n), 1.0
    if fn.v.shape != (n,):
        raise InputError(f"test function {fn.id}: v has dimension {fn.v.size}, cell has {n}")
    return fn.v.copy(), fn.c


def evaluate(fn, x):
    """Pointwise value at ``x`` (shape (n,)) or at each row of a (k, n)
    array.  Slab membership is closed at both endpoints."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if isinstance(fn, RiskFunctional):
        sums = pts.sum(axis=1)
        if fn.kind is RiskKind.VAR_INDICATOR:
            out = (sums >= fn.tau - EVAL_TOL).astype(float)
        else:
            out = np.maximum(0.0, sums - fn.tau)
    else:
        col = pts[:, fn.axis]
        inside = (col >= fn.slab[0] - EVAL_TOL) & (col <= fn.slab[1] + EVAL_TOL)
        if fn.kind is TestFunctionKind.SLAB_INDICATOR:
            out = inside.astype(float)
        else:
            out = np.where(inside, pts @ fn.v + fn.c, 0.0)
    return float(out[0]) if single else out


def empirical_integral(fn, samples) -> float:
    """Plug-in estimate: the mean of fn over the sample rows."""
    data = samples.data if hasattr(samples, "data") else np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise InputError("empirical_integral needs a nonempty (k, n) sample array")
    return float(np.mean(evaluate(fn, data)))


def check_model(breakpoints, testfns, riskfn):
    """Raise unless the model is valid; return each test function's slab
    range ``(i0, i1)``, in input order: its slab is the union of grid
    slabs i0 to i1 - 1 of its axis.

    A valid model has breakpoints that pass :func:`check_breakpoints`, a
    finite risk threshold, unique test function ids, an axis below the
    number of axes and an affine ``v`` with one entry per axis, sums
    that stay finite (each axis's largest finite |breakpoint| summed,
    plus |tau|, and an affine record's sum of |v_a| times that axis's
    largest finite |breakpoint|, plus |c|), and slab ends on
    breakpoints: an end counts as b_k when it lies within EVAL_TOL of
    b_k, or when b_k ends the axis and the end lies past it by at most
    GRID_TOL, so an infinite end must be the axis end.  Any other end
    cuts a grid slab, which raises PartitionIncompatibleError, as does a
    slab that holds no grid slab.  Other faults raise InputError.
    """
    axes = [b.tolist() for b in check_breakpoints(breakpoints)]
    n = len(axes)
    if not math.isfinite(riskfn.tau):
        raise InputError("risk threshold must be finite")
    # the largest |x_a| at a finite breakpoint; Python floats overflow to
    # inf without a warning
    reach = [max((abs(x) for x in b if math.isfinite(x)), default=0.0) for b in axes]
    if not math.isfinite(sum(reach) + abs(riskfn.tau)):
        raise InputError("breakpoints and risk threshold overflow a float: "
                         "the sum of each axis's largest |breakpoint| and |tau| is not finite")
    seen = set()
    for fn in testfns:
        if fn.id in seen:
            raise InputError(f"duplicate test function id {fn.id!r}")
        seen.add(fn.id)
        if fn.axis >= n:
            raise InputError(f"test function {fn.id!r} axis {fn.axis} outside dimension {n}")
        if fn.v is not None and fn.v.shape != (n,):
            raise InputError(f"test function {fn.id}: v has dimension {fn.v.size}, cell has {n}")
        if fn.v is not None and not math.isfinite(
                sum(abs(v) * r for v, r in zip(fn.v.tolist(), reach)) + abs(fn.c)):
            raise InputError(f"test function {fn.id}: <v, x> + c overflows a float "
                             "at the grid's finite breakpoints")
    spans = []
    for fn in testfns:
        b = axes[fn.axis]
        for end in fn.slab:
            # b[k] is the first breakpoint at or past end - EVAL_TOL
            k = bisect_left(b, end - EVAL_TOL)
            if not (k < len(b) and b[k] <= end + EVAL_TOL
                    or 0.0 <= b[0] - end <= GRID_TOL or 0.0 <= end - b[-1] <= GRID_TOL):
                raise PartitionIncompatibleError(
                    f"slab endpoint {end} of {fn.id!r} is not a breakpoint of axis {fn.axis}"
                )
        # b[j] >= lo - EVAL_TOL exactly for j >= i0, b[j + 1] <= hi + EVAL_TOL for j < i1
        i0 = bisect_left(b, fn.slab[0] - EVAL_TOL, 0, len(b) - 1)
        i1 = bisect_right(b, fn.slab[1] + EVAL_TOL, 1) - 1
        if i0 >= i1:
            # a sliver past an end of the axis: it holds no cell, only
            # boundary points such as the corner
            raise PartitionIncompatibleError(
                f"slab {fn.slab} of {fn.id!r} holds no slab of axis {fn.axis}"
            )
        spans.append((i0, i1))
    return spans


def normalized_records(testfns):
    """Rewrite the constraint list in a uniform 'upper bound' form.

    Each record is (fn, sign, rhs, is_equality): the constraint reads
    integral(sign * fn) <= sign * bound for inequalities, with sign -1
    flipping a lower bound into an upper one; equalities keep sign +1.
    Inequality records come first, equalities after, both in input
    order.  The record order fixes the dual variable layout everywhere.
    """
    ineq, eq = [], []
    for fn in testfns:
        if fn.sense is Sense.EQUALITY:
            eq.append((fn, 1.0, fn.bound, True))
        elif fn.sense is Sense.UPPER:
            ineq.append((fn, 1.0, fn.bound, False))
        else:
            ineq.append((fn, -1.0, -fn.bound, False))
    return ineq + eq
