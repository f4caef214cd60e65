"""Polyhedral cells and grid partitions sliced by the risk hyperplane.

Cells are axis-aligned boxes, possibly cut once by the hyperplane
``sum(x) = tau``.  A partition is the grid generated by per-axis
breakpoint lists; any grid cell whose interior strictly straddles the
hyperplane is replaced by its two halves.  Cell objects are built
lazily from their multi-index so large grids never have to be
materialized for column generation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, InputError, UnsupportedCellError

# strict-straddle test against the risk hyperplane
STRADDLE_TOL = 1e-12
# membership slack for cell_contains
CONTAIN_TOL = 1e-12
# vertices must satisfy their halfspaces to this tolerance; also the
# metric tolerance for vertex deduplication
VERTEX_TOL = 1e-9

DEFAULT_CELL_BUDGET = 1 << 20


@unique
class SideOfTau(Enum):
    """Position of a cell relative to the hyperplane sum(x) = tau."""

    BELOW = "below"
    ABOVE = "above"


@dataclass(eq=False, frozen=True)
class Halfspace:
    """Closed halfspace {x : <normal, x> >= bound}."""

    normal: np.ndarray
    bound: float

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=float)
        if normal.ndim != 1 or normal.size == 0:
            raise InputError("halfspace normal must be a nonempty vector")
        if not np.any(normal != 0.0):
            raise InputError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "bound", float(self.bound))


class Cell:
    """One box cell, optionally cut by the hyperplane sum(x) = tau.

    ``lows``/``highs`` give the per-axis interval (entries may be
    -inf/+inf).  ``slice_sign`` is 0 for an uncut box, +1 when the cell
    keeps the side sum(x) >= tau and -1 when it keeps sum(x) <= tau.
    Instances are immutable after construction; ``vertices`` is a cache
    filled by :func:`cell_vertices`.
    """

    __slots__ = (
        "id",
        "lows",
        "highs",
        "slice_sign",
        "tau",
        "side_of_tau",
        "multi_index",
        "degenerate",
        "_halfspaces",
        "_roles",
        "vertices",
    )

    def __init__(
        self,
        lows,
        highs,
        *,
        slice_sign=0,
        tau=None,
        side_of_tau=None,
        multi_index=None,
        cell_id=0,
        degenerate=False,
    ):
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if lows.shape != highs.shape or lows.ndim != 1:
            raise InputError("cell bounds must be two vectors of equal length")
        if not degenerate and np.any(highs - lows <= 0):
            raise InputError("cell must have positive extent on every axis")
        if degenerate and np.any(highs - lows < 0):
            raise InputError("degenerate cell bounds are inverted")
        if slice_sign not in (0, 1, -1):
            raise InputError("slice_sign must be 0, +1 or -1")
        if slice_sign != 0 and tau is None:
            raise InputError("a sliced cell needs tau")
        self.id = int(cell_id)
        self.lows = lows
        self.highs = highs
        self.slice_sign = int(slice_sign)
        self.tau = None if tau is None else float(tau)
        self.side_of_tau = side_of_tau
        self.multi_index = None if multi_index is None else tuple(multi_index)
        self.degenerate = bool(degenerate)
        self._halfspaces = None
        self._roles = None
        self.vertices = None

    @property
    def dimension(self) -> int:
        return self.lows.size

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lows)) and np.all(np.isfinite(self.highs)))

    @property
    def min_sum(self) -> float:
        return float(np.sum(self.lows))

    @property
    def max_sum(self) -> float:
        return float(np.sum(self.highs))

    def _build_halfspaces(self):
        n = self.dimension
        halfspaces = []
        roles = []
        for axis in range(n):
            if math.isfinite(self.lows[axis]):
                e = np.zeros(n)
                e[axis] = 1.0
                halfspaces.append(Halfspace(e, self.lows[axis]))
                roles.append(("lo", axis))
            if math.isfinite(self.highs[axis]):
                e = np.zeros(n)
                e[axis] = -1.0
                halfspaces.append(Halfspace(e, -self.highs[axis]))
                roles.append(("hi", axis))
        if self.slice_sign != 0:
            ones = np.full(n, float(self.slice_sign))
            halfspaces.append(Halfspace(ones, self.slice_sign * self.tau))
            roles.append(("slice", -1))
        self._halfspaces = tuple(halfspaces)
        self._roles = tuple(roles)

    @property
    def halfspaces(self):
        if self._halfspaces is None:
            self._build_halfspaces()
        return self._halfspaces

    @property
    def halfspace_roles(self):
        if self._roles is None:
            self._build_halfspaces()
        return self._roles

    def __repr__(self):
        tag = "" if self.slice_sign == 0 else (" | sum>=tau" if self.slice_sign > 0 else " | sum<=tau")
        return f"Cell(id={self.id}, box={list(zip(self.lows, self.highs))}{tag})"


def cell_contains(cell: Cell, x, tol: float = CONTAIN_TOL) -> bool:
    """Membership test: every halfspace satisfied to within ``tol``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cell.dimension,):
        raise InputError("point dimension does not match the cell")
    if np.any(x < cell.lows - tol) or np.any(x > cell.highs + tol):
        return False
    if cell.slice_sign != 0:
        if cell.slice_sign * (float(np.sum(x)) - cell.tau) < -tol:
            return False
    return True


def _dedup_points(points):
    out = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= VERTEX_TOL for q in out):
            out.append(p)
    out.sort(key=lambda p: tuple(p))
    return out


def cell_vertices(cell: Cell):
    """Vertices of a bounded cell.

    A plain box yields its 2^n corners.  A sliced box yields the
    corners on the kept side plus the intersection of the hyperplane
    with each box edge it crosses.  The result is cached on the cell.
    Unbounded cells have no vertex form and raise UnsupportedCellError.
    """
    if cell.vertices is not None:
        return cell.vertices
    if not cell.bounded:
        raise UnsupportedCellError(
            f"cell {cell.id} is unbounded and has no vertex representation"
        )
    n = cell.dimension
    corners = [
        np.array(c, dtype=float)
        for c in itertools.product(*[(cell.lows[i], cell.highs[i]) for i in range(n)])
    ]
    if cell.slice_sign == 0:
        verts = _dedup_points(corners)
        cell.vertices = verts
        return verts
    sign, tau = cell.slice_sign, cell.tau
    kept = [c for c in corners if sign * (float(np.sum(c)) - tau) >= -VERTEX_TOL]
    cuts = []
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        for combo in itertools.product(*[(cell.lows[i], cell.highs[i]) for i in others]):
            fixed = dict(zip(others, combo))
            t = tau - sum(fixed.values())
            # a cut within VERTEX_TOL of a kept corner is dropped by the
            # deduplication; one next to a dropped corner is the vertex
            if cell.lows[axis] < t < cell.highs[axis]:
                p = np.empty(n)
                p[axis] = t
                for i, val in fixed.items():
                    p[i] = val
                cuts.append(p)
    verts = _dedup_points(kept + cuts)
    if not verts:
        raise UnsupportedCellError(f"sliced cell {cell.id} has an empty vertex set")
    cell.vertices = verts
    return verts


# cells per block in partition_vertices' deduplication, which holds a
# cells x candidates x dimension temporary
VERTEX_BLOCK = 1024


def _product_bits(n):
    """Rows of itertools.product((lo, hi), repeat=n) as high-end flags."""
    k = np.arange(1 << n)
    return ((k[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)


def _vertex_candidates(lows, highs, sign, tau):
    """The candidate list of cell_vertices for each cell, before
    deduplication: corners in product order, then the hyperplane cuts
    axis by axis.  Returns points (K, C, n) and a validity mask (K, C).
    A candidate built on an infinite bound is no point and is invalid."""
    n = lows.shape[1]
    # NaN in place of an infinite bound spreads to every candidate built
    # on it, where inf - inf would warn
    lo_pts = np.where(np.isfinite(lows), lows, np.nan)
    hi_pts = np.where(np.isfinite(highs), highs, np.nan)
    corners = np.where(_product_bits(n), hi_pts[:, None, :], lo_pts[:, None, :])
    sums = np.sum(corners, axis=-1)
    kept = (sign[:, None] == 0) | (sign[:, None] * (sums - tau) >= -VERTEX_TOL)
    points, valid = [corners], [kept]
    other_bits = _product_bits(n - 1)
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        fixed = np.where(other_bits, hi_pts[:, None, others], lo_pts[:, None, others])
        # summed left to right, as the builtin sum in cell_vertices does
        total = np.zeros(fixed.shape[:2])
        for j in range(n - 1):
            total = total + fixed[:, :, j]
        t = tau - total
        cut = np.empty(fixed.shape[:2] + (n,))
        cut[:, :, others] = fixed
        cut[:, :, axis] = t
        points.append(cut)
        valid.append((sign[:, None] != 0) & (lows[:, axis, None] < t) & (t < highs[:, axis, None]))
    points = np.concatenate(points, axis=1)
    valid = np.concatenate(valid, axis=1) & ~np.any(np.isnan(points), axis=-1)
    return points, valid


def _dedup_candidates(points, valid):
    """_dedup_points on every cell at once: a candidate survives unless
    it lies within VERTEX_TOL of an earlier survivor."""
    keep = valid.copy()
    for j in range(1, points.shape[1]):
        near = np.max(np.abs(points[:, :j, :] - points[:, j : j + 1, :]), axis=-1) <= VERTEX_TOL
        keep[:, j] &= ~np.any(near & keep[:, :j], axis=1)
    return keep


def _cut_near_an_end(points, valid, lows, highs):
    """Cells with a valid candidate whose coordinate lies off an end of
    its axis by at most twice VERTEX_TOL (VERTEX_TOL would do; the
    factor is a margin).  Only a cut coordinate can: the others sit on
    an end.  On a cell wider than VERTEX_TOL on every axis, two
    candidates lie within VERTEX_TOL of each other only through such a
    cut: distinct corners, and cuts along one axis, differ by a whole
    width on some axis, and any other candidate holds the cut's axis at
    an end.  So every other cell keeps all its valid candidates."""
    near = np.zeros(valid.shape, dtype=bool)
    for ends in (lows, highs):
        gap = np.abs(points - ends[:, None, :])
        near |= np.any((gap > 0) & (gap <= 2 * VERTEX_TOL), axis=-1)
    return np.any(near & valid, axis=1)


def partition_vertices(partition, idx):
    """Vertices of the partition cells ``idx``, stacked in that order.

    Returns ``(start, points)``: the vertices of cell ``idx[j]`` are
    ``points[start[j]:start[j + 1]]``.  On a bounded cell they have the
    values, the order and the VERTEX_TOL deduplication that
    :func:`cell_vertices` gives on ``partition.cell_at(idx[j])``; an
    unbounded cell keeps the finite ones of the same candidates, and
    :func:`partition_rays` gives its recession directions.  A sliced
    cell with k whole-line axes (axis interval (-inf, inf)) is its
    section at x_b = 0 on every line axis b but the first, plus the
    k - 1 dimensional lineality space; its vertices are the section's.
    Raises UnsupportedCellError for the first cell of ``idx`` that is
    unsliced and contains a line, or has no vertex.
    """
    idx = np.asarray(idx, dtype=np.intp)
    n = partition.dimension
    grid, flag, _side, _min, _max = partition.ref_arrays()
    g = grid[idx]
    lows = np.column_stack([b[g[:, a]] for a, b in enumerate(partition.breakpoints)])
    highs = np.column_stack([b[g[:, a] + 1] for a, b in enumerate(partition.breakpoints)])
    sign = flag[idx]
    tau = 0.0 if partition.tau is None else partition.tau
    bounded = np.all(np.isfinite(lows) & np.isfinite(highs), axis=1)
    lines = ~np.isfinite(lows) & ~np.isfinite(highs)
    unsliced_line = np.any(lines, axis=1) & (sign == 0)
    # pin every line axis but the first at 0; the zero-width axes send
    # the cell through the deduplication
    section = lines & (np.cumsum(lines, axis=1) > 1)
    lows[section] = 0.0
    highs[section] = 0.0
    counts = np.zeros(idx.size, dtype=np.intp)
    # a whole box wider than VERTEX_TOL on every axis keeps all its
    # corners, and product order is already sorted
    wide = np.all(highs - lows > VERTEX_TOL, axis=1)
    plain = bounded & wide & (sign == 0)
    counts[plain] = 1 << n
    rest = np.nonzero(~unsliced_line & ~plain)[0]
    rest_points = []
    for lo in range(0, rest.size, VERTEX_BLOCK):
        blk = rest[lo : lo + VERTEX_BLOCK]
        cand, valid = _vertex_candidates(lows[blk], highs[blk], sign[blk], tau)
        # only sliver cells and cells with a cut next to an end of its
        # axis need the pairwise deduplication
        keep = valid.copy()
        dedup = ~wide[blk] | _cut_near_an_end(cand, valid, lows[blk], highs[blk])
        keep[dedup] = _dedup_candidates(cand[dedup], valid[dedup])
        counts[blk] = keep.sum(axis=1)
        k, c = np.nonzero(keep)
        pts = cand[k, c]
        order = np.lexsort([pts[:, i] for i in range(n - 1, -1, -1)] + [k])
        rest_points.append(pts[order])
    bad = unsliced_line | (counts == 0)
    if np.any(bad):
        j = int(np.argmax(bad))
        if unsliced_line[j]:
            raise UnsupportedCellError(
                f"unsliced cell {idx[j]} contains a line and has no vertex representation"
            )
        raise UnsupportedCellError(f"sliced cell {idx[j]} has an empty vertex set")
    start = np.zeros(idx.size + 1, dtype=np.intp)
    np.cumsum(counts, out=start[1:])
    points = np.empty((int(start[-1]), n))
    if np.any(plain):
        at = start[:-1][plain, None] + np.arange(1 << n)
        points[at] = np.where(_product_bits(n), highs[plain, None, :], lows[plain, None, :])
    if rest.size:
        n_rest = counts[rest]
        rank = np.arange(int(n_rest.sum())) - np.repeat(np.cumsum(n_rest) - n_rest, n_rest)
        points[np.repeat(start[rest], n_rest) + rank] = np.concatenate(rest_points)
    return start, points


def partition_rays(partition, idx):
    """Extreme rays of the partition cells ``idx``, stacked in that order.

    Returns ``(start, rays)`` laid out as in :func:`partition_vertices`.
    With U the axes of a cell that have an infinite high, and L those
    with an infinite low (a whole-line axis is in both), the rays are
    e_u for u in U unless the cell keeps sum(x) <= tau, then -e_l for l
    in L unless it keeps sum(x) >= tau, then e_u - e_l for every pair
    (u, l) with u != l on a sliced cell.  A bounded cell has none.  Two
    line axes a and b give both e_a - e_b and e_b - e_a, which span the
    lineality space.  Together with the vertices of
    :func:`partition_vertices` they span the cell.
    """
    idx = np.asarray(idx, dtype=np.intp)
    n = partition.dimension
    grid, flag, _side, _min, _max = partition.ref_arrays()
    up = np.zeros((idx.size, n), dtype=bool)
    down = np.zeros((idx.size, n), dtype=bool)
    for a, b in enumerate(partition.breakpoints):
        slab = grid[idx, a]
        up[:, a] = ~np.isfinite(b[1:])[slab]
        down[:, a] = ~np.isfinite(b[:-1])[slab]
    start = np.zeros(idx.size + 1, dtype=np.intp)
    if not (np.any(up) or np.any(down)):
        return start, np.zeros((0, n))
    sign = flag[idx, None]
    eye = np.eye(n)
    pu, pl = np.divmod(np.arange(n * n), n)
    pu, pl = pu[pu != pl], pl[pu != pl]
    dirs = np.vstack([eye, -eye, eye[pu] - eye[pl]])
    valid = np.hstack([up & (sign >= 0), down & (sign <= 0), up[:, pu] & down[:, pl] & (sign != 0)])
    k, c = np.nonzero(valid)
    np.cumsum(np.bincount(k, minlength=idx.size), out=start[1:])
    return start, dirs[c]


def cell_interior_point(cell: Cell) -> np.ndarray:
    """A point of the cell away from its boundary wherever the cell
    has extent.

    Midway along bounded axes, one unit in from a single finite bound,
    zero on doubly unbounded axes.  On a sliced cell the point is
    pushed past the threshold into the kept side, spread over the axes
    so that no coordinate lands on its own bound unless the piece is a
    zero-depth sliver.
    """
    lows, highs = cell.lows, cell.highs
    x = np.where(
        np.isfinite(lows),
        np.where(np.isfinite(highs), 0.5 * (lows + highs), lows + 1.0),
        np.where(np.isfinite(highs), highs - 1.0, 0.0),
    )
    if cell.slice_sign:
        tau = cell.tau
        total = float(np.sum(x))
        room = (highs - x) if cell.slice_sign > 0 else (x - lows)
        room_total = float(np.sum(room))
        gap = cell.slice_sign * (tau - total)
        depth = room_total - gap
        if depth < -CONTAIN_TOL:
            raise UnsupportedCellError(
                f"cell {cell.id} has no point on its side of the threshold"
            )
        # overshoot by a quarter of the available depth, capped, so the
        # point clears the hyperplane strictly whenever it can
        delta = gap if depth <= CONTAIN_TOL else gap + min(1.0, 0.25 * depth)
        if delta > 0 and room_total > 0:
            if np.isinf(room_total):
                ax = int(np.argmax(np.isinf(room)))
                x[ax] += cell.slice_sign * delta
            else:
                x = x + cell.slice_sign * delta * (room / room_total)
    return x


def _free_fill(lows, highs, free_idx, target):
    """Values for the coordinates in ``free_idx`` summing to ``target``,
    each inside its interval.  Assumes sum(lows) <= target <= sum(highs)
    over the free coordinates (infinite bounds allowed)."""
    vals = {}
    for i in free_idx:
        vals[i] = min(max(0.0, lows[i]), highs[i])
    deficit = target - sum(vals.values())
    for i in free_idx:
        if abs(deficit) <= 1e-15:
            break
        if deficit > 0:
            room = highs[i] - vals[i]
            step = deficit if room >= deficit else room
        else:
            room = lows[i] - vals[i]
            step = deficit if room <= deficit else room
        vals[i] += step
        deficit -= step
    if abs(deficit) > 1e-9:
        raise InputError("free coordinate fill failed: face is empty")
    return vals


def _lam_from_bounds(cell, at_hi, coeff_hi, at_lo, coeff_lo, slice_coeff=0.0):
    lam = np.zeros(len(cell.halfspaces))
    for j, role in enumerate(cell.halfspace_roles):
        kind, axis = role
        if kind == "hi" and axis in at_hi:
            lam[j] = coeff_hi[axis]
        elif kind == "lo" and axis in at_lo:
            lam[j] = coeff_lo[axis]
        elif kind == "slice":
            lam[j] = slice_coeff
    return lam


def maximize_linear_over_cell(cell: Cell, g):
    """Maximize <g, x> over the cell.

    Returns ``(value, x, lam)`` where ``lam`` is the vector of
    nonnegative multipliers, aligned with ``cell.halfspaces``, that
    certifies the value: sum_j lam_j f_j = -g and sum_j lam_j l_j =
    -value.  When the maximum is +infinity the result is
    ``(inf, None, None)``.
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


class Partition:
    """Grid partition of the box spanned by per-axis breakpoints,
    optionally sliced by sum(x) = tau.

    Cell slots are stored as integer refs (multi-index plus a split
    flag); Cell objects are materialized on demand by :meth:`cell_at`.
    """

    def __init__(self, breakpoints, tau, ref_grid, ref_flag, ref_side, ref_min, ref_max):
        self.breakpoints = tuple(np.asarray(b, dtype=float) for b in breakpoints)
        self.dimension = len(self.breakpoints)
        self.tau = tau
        self._ref_grid = ref_grid
        self._ref_flag = ref_flag
        self._ref_side = ref_side
        self._ref_min = ref_min
        self._ref_max = ref_max
        self._cache = {}
        self._all_cells = None

    @property
    def cell_count(self) -> int:
        return int(self._ref_grid.shape[0])

    @property
    def slab_counts(self):
        return tuple(len(b) - 1 for b in self.breakpoints)

    @property
    def max_total_sum(self) -> float:
        return float(np.sum([b[-1] for b in self.breakpoints]))

    def has_above_cells(self) -> bool:
        return bool(np.any(self._ref_side > 0))

    def ref_arrays(self):
        """Raw (grid_index, flag, side, min_sum, max_sum) arrays, one row
        per cell slot.  Flags: 0 whole cell, -1 below half, +1 above half.
        Sides: -1 below, +1 above, 0 no tau."""
        return self._ref_grid, self._ref_flag, self._ref_side, self._ref_min, self._ref_max

    def cell_at(self, i: int) -> Cell:
        cell = self._cache.get(i)
        if cell is not None:
            return cell
        if not (0 <= i < self.cell_count):
            raise InputError(f"cell index {i} out of range")
        idx = self._ref_grid[i]
        lows = np.array([self.breakpoints[a][idx[a]] for a in range(self.dimension)])
        highs = np.array([self.breakpoints[a][idx[a] + 1] for a in range(self.dimension)])
        flag = int(self._ref_flag[i])
        side_code = int(self._ref_side[i])
        side = None
        if self.tau is not None:
            side = SideOfTau.BELOW if side_code < 0 else SideOfTau.ABOVE
        cell = Cell(
            lows,
            highs,
            slice_sign=flag,
            tau=self.tau,
            side_of_tau=side,
            multi_index=tuple(int(v) for v in idx),
            cell_id=i,
        )
        self._cache[i] = cell
        return cell

    @property
    def cells(self):
        if self._all_cells is None:
            self._all_cells = [self.cell_at(i) for i in range(self.cell_count)]
        return self._all_cells

    def __repr__(self):
        taus = "" if self.tau is None else f", tau={self.tau}"
        return f"Partition(dim={self.dimension}, cells={self.cell_count}{taus})"


def _grid_sums(per_axis):
    total = np.zeros(1)
    for arr in per_axis:
        total = (total[:, None] + arr[None, :]).reshape(-1)
    return total


def build_box_partition(breakpoints, tau=None, *, cell_budget=DEFAULT_CELL_BUDGET) -> Partition:
    """Build the grid partition from per-axis breakpoints.

    Breakpoints must be strictly increasing with at least two entries
    per axis; the first entry may be -inf and the last +inf.  When
    ``tau`` is given, any cell strictly straddling sum(x) = tau is
    replaced by its below and above halves; cells touching the
    hyperplane only on their boundary are left whole.  The slot count
    is checked against ``cell_budget`` before any large array is built.
    """
    if cell_budget < 1:
        raise InputError(f"cell budget must be at least 1, got {cell_budget}")
    if not breakpoints:
        raise InputError("need at least one axis of breakpoints")
    axes = []
    for a, bp in enumerate(breakpoints):
        arr = np.asarray(bp, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InputError(f"axis {a}: need at least two breakpoints")
        if np.any(np.diff(arr) <= 0):
            raise InputError(f"axis {a}: breakpoints must be strictly increasing")
        if arr.size > 2 and (not np.all(np.isfinite(arr[1:-1]))):
            raise InputError(f"axis {a}: interior breakpoints must be finite")
        if np.isnan(arr[0]) or np.isnan(arr[-1]):
            raise InputError(f"axis {a}: breakpoints must not be NaN")
        axes.append(arr)
    n = len(axes)
    counts = [len(arr) - 1 for arr in axes]
    k0 = 1
    for m in counts:
        k0 *= m
        if k0 > cell_budget:
            raise CapacityError(
                f"grid would have more than {cell_budget} cells; raise the cell budget"
            )

    lows_ax = [arr[:-1] for arr in axes]
    highs_ax = [arr[1:] for arr in axes]
    min_sums = _grid_sums(lows_ax)
    max_sums = _grid_sums(highs_ax)
    grid = np.stack(
        np.meshgrid(*[np.arange(m, dtype=np.int32) for m in counts], indexing="ij"),
        axis=-1,
    ).reshape(-1, n) if n > 0 else np.zeros((1, 0), dtype=np.int32)

    if tau is None:
        flags = np.zeros(k0, dtype=np.int8)
        sides = np.zeros(k0, dtype=np.int8)
        return Partition(axes, None, grid, flags, sides, min_sums, max_sums)

    tau = float(tau)
    straddle = (min_sums < tau - STRADDLE_TOL) & (max_sums > tau + STRADDLE_TOL)
    n_extra = int(np.count_nonzero(straddle))
    if k0 + n_extra > cell_budget:
        raise CapacityError(
            f"sliced grid would have more than {cell_budget} cells; raise the cell budget"
        )
    total = k0 + n_extra
    ref_grid = np.empty((total, n), dtype=np.int32)
    ref_flag = np.empty(total, dtype=np.int8)
    ref_side = np.empty(total, dtype=np.int8)
    ref_min = np.empty(total)
    ref_max = np.empty(total)

    # slot layout: each straddling grid cell contributes two consecutive
    # slots (below half first); whole cells contribute one
    out = np.cumsum(np.where(straddle, 2, 1))
    start = out - np.where(straddle, 2, 1)
    whole = ~straddle
    w_pos = start[whole]
    ref_grid[w_pos] = grid[whole]
    ref_flag[w_pos] = 0
    ref_side[w_pos] = np.where(max_sums[whole] <= tau + STRADDLE_TOL, -1, 1)
    ref_min[w_pos] = min_sums[whole]
    ref_max[w_pos] = max_sums[whole]
    s_pos = start[straddle]
    for offset, flag, side in ((0, -1, -1), (1, 1, 1)):
        pos = s_pos + offset
        ref_grid[pos] = grid[straddle]
        ref_flag[pos] = flag
        ref_side[pos] = side
        ref_min[pos] = min_sums[straddle]
        ref_max[pos] = max_sums[straddle]
    # a sliced half inherits the box min/max sum clipped at tau
    below_mask = ref_flag == -1
    above_mask = ref_flag == 1
    ref_max[below_mask] = tau
    ref_min[above_mask] = tau
    return Partition(axes, tau, ref_grid, ref_flag, ref_side, ref_min, ref_max)
