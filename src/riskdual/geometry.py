"""Polyhedral cells and grid partitions sliced by the risk hyperplane.

Cells are axis-aligned boxes, possibly cut once by the hyperplane
``sum(x) = tau``.  A partition is the grid generated by per-axis
breakpoint lists; any grid cell whose interior strictly straddles the
hyperplane is replaced by its two halves.  A Cell object is built on
each request from its slot's arrays, so large grids never have to be
materialized for column generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique

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
    A ``degenerate`` cell may have zero-width axes.  Instances are
    immutable after construction.
    """

    __slots__ = (
        "id",
        "lows",
        "highs",
        "slice_sign",
        "tau",
        "side_of_tau",
        "degenerate",
        "_halfspaces",
    )

    def __init__(
        self,
        lows,
        highs,
        *,
        slice_sign=0,
        tau=None,
        side_of_tau=None,
        cell_id=0,
        degenerate=False,
    ):
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if lows.shape != highs.shape or lows.ndim != 1:
            raise InputError("cell bounds must be two vectors of equal length")
        # compared, not differenced: inf - inf is NaN, which passes "< 0"
        if not degenerate and not np.all(lows < highs):
            raise InputError("cell must have positive extent on every axis")
        # a zero-width axis must still hold a real number
        if degenerate and not np.all((lows <= highs) & (lows < math.inf) & (highs > -math.inf)):
            raise InputError("degenerate cell bounds are inverted or hold no real number")
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
        self.degenerate = bool(degenerate)
        self._halfspaces = None

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
        for axis in range(n):
            if math.isfinite(self.lows[axis]):
                e = np.zeros(n)
                e[axis] = 1.0
                halfspaces.append(Halfspace(e, self.lows[axis]))
            if math.isfinite(self.highs[axis]):
                e = np.zeros(n)
                e[axis] = -1.0
                halfspaces.append(Halfspace(e, -self.highs[axis]))
        if self.slice_sign != 0:
            ones = np.full(n, float(self.slice_sign))
            halfspaces.append(Halfspace(ones, self.slice_sign * self.tau))
        self._halfspaces = tuple(halfspaces)

    @property
    def halfspaces(self):
        if self._halfspaces is None:
            self._build_halfspaces()
        return self._halfspaces

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


# boxes per block in _box_vertices' deduplication, which holds a
# boxes x candidates x dimension temporary
VERTEX_BLOCK = 1024


def _product_bits(n):
    """Rows of itertools.product((lo, hi), repeat=n) as high-end flags."""
    k = np.arange(1 << n)
    return ((k[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)


def _vertex_candidates(lows, highs, sign, tau):
    """The candidate vertices of each box, before deduplication: corners
    in product order, then the hyperplane cuts axis by axis.  Returns
    points (K, C, n) and a validity mask (K, C).  A candidate built on
    an infinite bound is no point and is invalid."""
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
        # a plain running sum, left to right, where np.sum may pair terms
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
    """Deduplication of every box at once: a candidate survives unless
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


def _box_vertices(lows, highs, sign, tau, ids):
    """Vertices of boxes ``lows[j]``/``highs[j]``, each cut by sum(x) =
    tau on its side ``sign[j]`` (as ``Cell.slice_sign``; 0 is uncut).

    Returns ``(start, points)``: box j's vertices, sorted, are
    ``points[start[j]:start[j + 1]]``: its corners on the kept side and
    the hyperplane's crossings of its edges, less any within VERTEX_TOL
    of an earlier one (corners in product order, then the crossings
    axis by axis).  An unbounded box keeps the finite ones.  A sliced
    box with k whole-line axes (interval (-inf, inf)) is its section at
    x_b = 0 on every line axis b but the first, plus a k - 1
    dimensional lineality space; its vertices are the section's.  A
    partition cell with a whole-line axis has sums over (-inf, inf), so
    it straddles the finite tau and is sliced.  Raises
    UnsupportedCellError, naming ``ids[j]``, for the first box that has
    no vertex.
    """
    n = lows.shape[1]
    bounded = np.all(np.isfinite(lows) & np.isfinite(highs), axis=1)
    lines = ~np.isfinite(lows) & ~np.isfinite(highs)
    # pin every line axis but the first at 0; the zero-width axes send
    # the box through the deduplication
    section = lines & (np.cumsum(lines, axis=1) > 1)
    lows = np.where(section, 0.0, lows)
    highs = np.where(section, 0.0, highs)
    counts = np.zeros(len(lows), dtype=np.intp)
    # a whole box wider than VERTEX_TOL on every axis keeps all its
    # corners, and product order is already sorted
    wide = np.all(highs - lows > VERTEX_TOL, axis=1)
    plain = bounded & wide & (sign == 0)
    counts[plain] = 1 << n
    rest = np.nonzero(~plain)[0]
    rest_points = []
    for lo in range(0, rest.size, VERTEX_BLOCK):
        blk = rest[lo : lo + VERTEX_BLOCK]
        cand, valid = _vertex_candidates(lows[blk], highs[blk], sign[blk], tau)
        # only sliver boxes and boxes with a cut next to an end of its
        # axis need the pairwise deduplication
        keep = valid.copy()
        dedup = ~wide[blk] | _cut_near_an_end(cand, valid, lows[blk], highs[blk])
        keep[dedup] = _dedup_candidates(cand[dedup], valid[dedup])
        counts[blk] = keep.sum(axis=1)
        k, c = np.nonzero(keep)
        pts = cand[k, c]
        order = np.lexsort([pts[:, i] for i in range(n - 1, -1, -1)] + [k])
        rest_points.append(pts[order])
    if not np.all(counts):
        j = int(np.argmin(counts))
        raise UnsupportedCellError(f"sliced cell {ids[j]} has an empty vertex set")
    start = np.zeros(len(lows) + 1, dtype=np.intp)
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


def partition_vertices(partition, idx):
    """Vertices of the partition cells ``idx``, stacked in that order,
    as ``(start, points)`` from :func:`_box_vertices`: the vertices of
    cell ``idx[j]`` are ``points[start[j]:start[j + 1]]``.  An unbounded
    cell gets its finite vertices, and :func:`partition_rays` its
    recession directions."""
    idx = np.asarray(idx, dtype=np.intp)
    grid, flag, _side, _min, _max = partition.ref_arrays()
    g = grid[idx]
    lows = np.column_stack([b[g[:, a]] for a, b in enumerate(partition.breakpoints)])
    highs = np.column_stack([b[g[:, a] + 1] for a, b in enumerate(partition.breakpoints)])
    return _box_vertices(lows, highs, flag[idx], partition.tau, idx)


def cell_vertices(cell: Cell) -> np.ndarray:
    """Vertices of a bounded cell, one per row, from :func:`_box_vertices`:
    a plain box's 2^n corners, or a sliced box's corners on the kept
    side and the hyperplane's crossings of its edges.  Unbounded cells
    have no vertex form and raise UnsupportedCellError."""
    if not cell.bounded:
        raise UnsupportedCellError(
            f"cell {cell.id} is unbounded and has no vertex representation"
        )
    tau = 0.0 if cell.tau is None else cell.tau
    sign = np.array([cell.slice_sign])
    return _box_vertices(cell.lows[None], cell.highs[None], sign, tau, [cell.id])[1]


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


def maximize_linear_over_cell(cell: Cell, g):
    """Maximize <g, x> over the cell.

    Returns ``(value, x, lam)`` where ``lam`` is the vector of
    nonnegative multipliers, aligned with ``cell.halfspaces``, that
    certifies the value: sum_j lam_j f_j = -g and sum_j lam_j l_j =
    -value.  When the maximum is +infinity the result is
    ``(inf, None, None)``.

    This is the LP dual over the slice multiplier gamma >= 0: with s
    the slice sign and h = g + s gamma 1, the value is the least
    max over the box of <h, x> - s gamma tau.  That function of gamma
    is convex and piecewise linear with kinks at 0 and at each -s g_i
    > 0.  The optimal gamma is the first kink, in ascending order, at
    which the box maximizer, its zero coefficients of h at their
    s-side ends, reaches the slice to within STRADDLE_TOL.  There x
    puts h > 0 at highs and h < 0 at lows and fills the rest to the
    slice, and lam holds -h on the lows, h on the highs and gamma on
    the slice.  Raises InputError when no kink reaches the slice: the
    cell is empty.
    """
    g = np.asarray(g, dtype=float)
    n = cell.dimension
    if g.shape != (n,):
        raise InputError("gradient dimension does not match the cell")
    lows, highs, s = cell.lows, cell.highs, cell.slice_sign
    gamma, h = 0.0, g
    if s != 0:
        side = highs if s > 0 else lows
        for gamma in sorted({0.0} | {float(-s * v) for v in g if -s * v > 0}):
            h = g + s * gamma
            # an infinite s * x_i decides the test without the sum,
            # which would form inf - inf when both signs occur; they do
            # only where the box max is +inf at every gamma, and the
            # verdict below returns +inf
            reach = s * np.where(h > 0, highs, np.where(h < 0, lows, side))
            # a slice that misses the box by at most STRADDLE_TOL touches
            # it, as in build_box_partition's straddle test
            if reach.max() == math.inf or (
                reach.min() > -math.inf and np.sum(reach) >= s * cell.tau - STRADDLE_TOL
            ):
                break
        else:
            raise InputError("cell face sum(x) = tau is empty; invalid sliced cell")
    if np.any((h > 0) & ~np.isfinite(highs)) or np.any((h < 0) & ~np.isfinite(lows)):
        return math.inf, None, None
    x = np.where(h > 0, highs, np.where(h < 0, lows, np.clip(0.0, lows, highs)))
    if s != 0:
        free = np.nonzero(h == 0)[0]
        pinned = float(np.sum(highs[h > 0])) + float(np.sum(lows[h < 0]))
        target = min(max(cell.tau - pinned, float(np.sum(lows[free]))), float(np.sum(highs[free])))
        for i, v in _free_fill(lows, highs, free, target).items():
            x[i] = v
    # row-major selection: each axis's finite low, then its finite high,
    # in the order of cell.halfspaces
    lam = np.column_stack([np.where(h < 0, -h, 0.0), np.where(h > 0, h, 0.0)])
    lam = lam[np.column_stack([np.isfinite(lows), np.isfinite(highs)])]
    if s != 0:
        lam = np.append(lam, gamma)
    return float(g @ x), x, lam


class Partition:
    """Grid partition of the box spanned by per-axis breakpoints, sliced
    by sum(x) = tau.

    Cell slots are stored as integer refs (grid index plus a split
    flag); :meth:`cell_at` builds a slot's Cell on each call.
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

    @property
    def cell_count(self) -> int:
        return int(self._ref_grid.shape[0])

    @property
    def slab_counts(self):
        return tuple(len(b) - 1 for b in self.breakpoints)

    @property
    def max_total_sum(self) -> float:
        return float(np.sum([b[-1] for b in self.breakpoints]))

    def top_sums(self, slabs):
        """Each cell's largest sum, for cells given by their slab index
        arrays, one per axis: the slab tops added in axis order from 0.0,
        as the max sums of :meth:`ref_arrays` are."""
        total = 0.0
        for b, s in zip(self.breakpoints, slabs):
            total = total + b[1:][s]
        return total

    def has_above_cells(self) -> bool:
        return bool(np.any(self._ref_side > 0))

    def ref_arrays(self):
        """Raw (grid_index, flag, side, min_sum, max_sum) arrays, one row
        per cell slot.  Flags: 0 whole cell, -1 below half, +1 above half.
        Sides: -1 below, +1 above."""
        return self._ref_grid, self._ref_flag, self._ref_side, self._ref_min, self._ref_max

    def cell_at(self, i: int) -> Cell:
        if not (0 <= i < self.cell_count):
            raise InputError(f"cell index {i} out of range")
        idx = self._ref_grid[i]
        lows = np.array([self.breakpoints[a][idx[a]] for a in range(self.dimension)])
        highs = np.array([self.breakpoints[a][idx[a] + 1] for a in range(self.dimension)])
        return Cell(
            lows,
            highs,
            slice_sign=int(self._ref_flag[i]),
            tau=self.tau,
            side_of_tau=SideOfTau.BELOW if self._ref_side[i] < 0 else SideOfTau.ABOVE,
            cell_id=i,
        )

    def __repr__(self):
        return f"Partition(dim={self.dimension}, cells={self.cell_count}, tau={self.tau})"


def _grid_sums(per_axis):
    total = np.zeros(1)
    for arr in per_axis:
        total = (total[:, None] + arr[None, :]).reshape(-1)
    return total


def check_breakpoints(breakpoints):
    """Per-axis breakpoints as float arrays.  Raises InputError unless
    there is at least one axis and every axis has at least two strictly
    increasing breakpoints, all finite except that the first may be
    -inf and the last +inf."""
    if not breakpoints:
        raise InputError("need at least one axis of breakpoints")
    axes = []
    for a, bp in enumerate(breakpoints):
        arr = np.asarray(bp, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InputError(f"axis {a}: need at least two breakpoints")
        if np.any(np.isnan(arr)):
            raise InputError(f"axis {a}: breakpoints must not be NaN")
        # compared, not differenced: inf - inf is NaN, which passes "<= 0"
        if not np.all(arr[1:] > arr[:-1]):
            raise InputError(f"axis {a}: breakpoints must be strictly increasing")
        if arr.size > 2 and (not np.all(np.isfinite(arr[1:-1]))):
            raise InputError(f"axis {a}: interior breakpoints must be finite")
        axes.append(arr)
    return axes


def build_box_partition(breakpoints, tau, *, cell_budget=DEFAULT_CELL_BUDGET) -> Partition:
    """Build the grid partition from per-axis breakpoints, sliced at tau.

    Breakpoints must pass :func:`check_breakpoints` and tau must be
    finite, so every cell with a whole-line axis is sliced.  Any cell
    strictly straddling sum(x) = tau is replaced by its below and above
    halves, in two consecutive slots, below first; cells touching the
    hyperplane only on their boundary are left whole.  The slot count
    is checked against ``cell_budget`` before any large array is built.
    """
    if cell_budget < 1:
        raise InputError(f"cell budget must be at least 1, got {cell_budget}")
    axes = check_breakpoints(breakpoints)
    counts = [len(arr) - 1 for arr in axes]
    k0 = 1
    for m in counts:
        k0 *= m
        if k0 > cell_budget:
            raise CapacityError(
                f"grid would have more than {cell_budget} cells; raise the cell budget"
            )

    tau = float(tau)
    if not math.isfinite(tau):
        raise InputError(f"partition threshold must be finite, got {tau}")
    min_sums = _grid_sums([arr[:-1] for arr in axes])
    max_sums = _grid_sums([arr[1:] for arr in axes])
    straddle = (min_sums < tau - STRADDLE_TOL) & (max_sums > tau + STRADDLE_TOL)
    if k0 + int(np.count_nonzero(straddle)) > cell_budget:
        raise CapacityError(
            f"sliced grid would have more than {cell_budget} cells; raise the cell budget"
        )
    # a straddling grid cell takes two consecutive slots, below half first
    reps = np.where(straddle, 2, 1)
    grid = np.stack(
        np.meshgrid(*[np.arange(m, dtype=np.int32) for m in counts], indexing="ij"), axis=-1
    ).reshape(-1, len(axes))
    ref_grid = np.repeat(grid, reps, axis=0)
    ref_flag = np.repeat(-straddle.astype(np.int8), reps)
    above = np.cumsum(reps)[straddle] - 1
    ref_flag[above] = 1
    # a half's side is its flag; a whole cell is above when its max sum
    # passes tau
    ref_side = np.repeat(np.where(max_sums <= tau + STRADDLE_TOL, -1, 1).astype(np.int8), reps)
    ref_side[above - 1] = -1
    # a half inherits the box min/max sum clipped at tau
    ref_min = np.repeat(min_sums, reps)
    ref_min[above] = tau
    ref_max = np.repeat(max_sums, reps)
    ref_max[above - 1] = tau
    return Partition(axes, tau, ref_grid, ref_flag, ref_side, ref_min, ref_max)
