"""Polyhedral cells and grid partitions sliced by the risk hyperplane.

Cells are axis-aligned boxes, possibly cut once by the hyperplane
``sum(x) = tau``.  A partition is the grid generated by per-axis
breakpoint lists; any grid cell whose interior strictly straddles the
hyperplane is replaced by its two halves.  A partition stores no
per-cell array: a slot is decoded from per-axis breakpoints and small
per-block tables, and a Cell object is built on each request, so large
grids are never materialized for column generation.
"""

from __future__ import annotations

import math
from enum import Enum, unique

import numpy as np

from .errors import CapacityError, InputError, UnsupportedCellError

# strict-straddle test against the risk hyperplane
STRADDLE_TOL = 1e-12
# a corner must satisfy the slice to this tolerance, and a crossing's
# edge must straddle it by more, so no crossing lies this close to a
# kept corner
VERTEX_TOL = 1e-9

DEFAULT_CELL_BUDGET = 1 << 20


@unique
class SideOfTau(Enum):
    """Position of a cell relative to the hyperplane sum(x) = tau."""

    BELOW = "below"
    ABOVE = "above"


class Cell:
    """One box cell, optionally cut by the hyperplane sum(x) = tau.

    ``lows``/``highs`` give the per-axis interval (entries may be
    -inf/+inf).  ``slice_sign`` is 0 for an uncut box, +1 when the cell
    keeps the side sum(x) >= tau and -1 when it keeps sum(x) <= tau.
    A ``degenerate`` cell may have zero-width axes.  ``slabs`` holds a
    partition cell's grid index, one slab per axis, as the partition
    decoded it, and is None on a cell built by hand.  Instances are
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
        "slabs",
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
        slabs=None,
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
        self.slabs = None if slabs is None else np.array(slabs, dtype=np.intp)

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

    @property
    def halfspaces(self):
        """The cell as ``(F, ell)``, {x : F x >= ell}: one row per finite
        bound, each axis's low (x_a >= low) then its high (-x_a >= -high),
        axis by axis, then the slice (s sum(x) >= s tau)."""
        n = self.dimension
        axis = np.arange(n)
        F = np.zeros((2 * n, n))
        F[2 * axis, axis] = 1.0
        F[2 * axis + 1, axis] = -1.0
        ell = np.column_stack([self.lows, -self.highs]).ravel()
        finite = np.isfinite(ell)
        F, ell = F[finite], ell[finite]
        if self.slice_sign != 0:
            F = np.vstack([F, np.full(n, float(self.slice_sign))])
            ell = np.append(ell, self.slice_sign * self.tau)
        return F, ell

    def __repr__(self):
        tag = "" if self.slice_sign == 0 else (" | sum>=tau" if self.slice_sign > 0 else " | sum<=tau")
        return f"Cell(id={self.id}, box={list(zip(self.lows, self.highs))}{tag})"


# boxes per block in _box_vertices' general path, which holds a
# boxes x candidates x dimension array of candidates; head_blocks also
# fills a block up to this many grid cells, so a small grid is one block
VERTEX_BLOCK = 1024


def _product_bits(n):
    """Rows of itertools.product((lo, hi), repeat=n) as high-end flags."""
    k = np.arange(1 << n)
    return ((k[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)


def _vertex_candidates(lows, highs, sign, tau):
    """The candidate vertices of each box: corners in product order,
    then the hyperplane's crossings of the edges axis by axis.  Returns
    points (K, C, n) and a validity mask (K, C).

    A corner is valid on an uncut box, or on the kept side up to
    VERTEX_TOL.  A crossing is valid on a cut box when its edge's end
    corners straddle the hyperplane, one short of it and one past it by
    more than VERTEX_TOL, so no crossing lies within VERTEX_TOL of a
    valid corner.  The straddle test reads the corners' sums over the
    real ends, so an infinite end counts, and a NaN from inf - inf is no
    crossing.  A candidate built on an infinite bound, or whose cut
    overflows, is no point and is invalid."""
    n = lows.shape[1]
    # NaN in place of an infinite bound spreads to every candidate built
    # on it, where inf - inf would warn
    lo_pts = np.where(np.isfinite(lows), lows, np.nan)
    hi_pts = np.where(np.isfinite(highs), highs, np.nan)
    bits = _product_bits(n)
    corners = np.where(bits, hi_pts[:, None, :], lo_pts[:, None, :])
    with np.errstate(invalid="ignore"):
        gap = np.sum(np.where(bits, highs[:, None, :], lows[:, None, :]), axis=-1) - tau
        valid = [(sign[:, None] == 0) | (sign[:, None] * gap >= -VERTEX_TOL)]
    points = [corners]
    other_bits = _product_bits(n - 1)
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        fixed = np.where(other_bits, hi_pts[:, None, others], lo_pts[:, None, others])
        # a plain running sum, left to right, where np.sum may pair terms
        total = np.zeros(fixed.shape[:2])
        for j in range(n - 1):
            total = total + fixed[:, :, j]
        cut = np.empty(fixed.shape[:2] + (n,))
        cut[:, :, others] = fixed
        cut[:, :, axis] = tau - total
        points.append(cut)
        # the edge's end corners as positions in product order; the low
        # end has the smaller sum, so it is the one that can fall short
        low_end = other_bits @ (1 << np.arange(n - 1, -1, -1)[others])
        high_end = low_end + (1 << (n - 1 - axis))
        straddle = (gap[:, low_end] < -VERTEX_TOL) & (gap[:, high_end] > VERTEX_TOL)
        valid.append((sign[:, None] != 0) & straddle)
    points = np.concatenate(points, axis=1)
    valid = np.concatenate(valid, axis=1) & np.all(np.isfinite(points), axis=-1)
    return points, valid


def _box_vertices(lows, highs, sign, tau, ids):
    """Vertices of boxes ``lows[j]``/``highs[j]``, each cut by sum(x) =
    tau on its side ``sign[j]`` (as ``Cell.slice_sign``; 0 is uncut).

    Returns ``(start, points)``: box j's vertices, sorted, are
    ``points[start[j]:start[j + 1]]``: the valid candidates of
    :func:`_vertex_candidates`, its corners on the kept side and the
    crossings of the edges that straddle the hyperplane, each exact
    repeat (from a zero-width axis) once.  An unbounded box keeps the
    finite ones.  A sliced box with k whole-line axes (interval
    (-inf, inf)) is its section at x_b = 0 on every line axis b but the
    first, plus a k - 1 dimensional lineality space; its vertices are
    the section's.  A partition cell with a whole-line axis has sums
    over (-inf, inf), so it straddles the finite tau and is sliced.
    Raises UnsupportedCellError, naming ``ids[j]``, for the first box
    that has no vertex.
    """
    n = lows.shape[1]
    bounded = np.all(np.isfinite(lows) & np.isfinite(highs), axis=1)
    lines = ~np.isfinite(lows) & ~np.isfinite(highs)
    # pin every line axis but the first at 0
    section = lines & (np.cumsum(lines, axis=1) > 1)
    lows = np.where(section, 0.0, lows)
    highs = np.where(section, 0.0, highs)
    counts = np.zeros(len(lows), dtype=np.intp)
    # a whole box of positive width keeps all its corners, distinct and
    # already sorted in product order
    plain = bounded & np.all(highs > lows, axis=1) & (sign == 0)
    counts[plain] = 1 << n
    rest = np.nonzero(~plain)[0]
    rest_points = []
    for lo in range(0, rest.size, VERTEX_BLOCK):
        blk = rest[lo : lo + VERTEX_BLOCK]
        cand, valid = _vertex_candidates(lows[blk], highs[blk], sign[blk], tau)
        k, c = np.nonzero(valid)
        pts = cand[k, c]
        order = np.lexsort([pts[:, i] for i in range(n - 1, -1, -1)] + [k])
        k, pts = k[order], pts[order]
        # exact repeats are neighbours now; the first of each run stays
        new = np.ones(k.size, dtype=bool)
        new[1:] = (k[1:] != k[:-1]) | np.any(pts[1:] != pts[:-1], axis=1)
        counts[blk] = np.bincount(k[new], minlength=blk.size)
        rest_points.append(pts[new])
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


def slot_vertices(partition, grid, flag, ids):
    """Vertices of the partition cells with grid indices ``grid`` and
    flags ``flag``, as :meth:`Partition.slot_blocks` decodes them, stacked
    in that order, as ``(start, points)`` from :func:`_box_vertices`: the
    vertices of the j-th cell, whose id ``ids[j]`` names it in errors,
    are ``points[start[j]:start[j + 1]]``.  An unbounded cell gets its
    finite vertices, and :func:`slot_rays` its recession directions."""
    lows = np.column_stack([b[grid[:, a]] for a, b in enumerate(partition.breakpoints)])
    highs = np.column_stack([b[grid[:, a] + 1] for a, b in enumerate(partition.breakpoints)])
    return _box_vertices(lows, highs, flag, partition.tau, ids)


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


def slot_rays(partition, grid, flag):
    """Extreme rays of the partition cells with grid indices ``grid``
    and flags ``flag``, stacked in that order.

    Returns ``(start, rays)`` laid out as in :func:`slot_vertices`.
    With U the axes of a cell that have an infinite high, and L those
    with an infinite low (a whole-line axis is in both), the rays are
    e_u for u in U unless the cell keeps sum(x) <= tau, then -e_l for l
    in L unless it keeps sum(x) >= tau, then e_u - e_l for every pair
    (u, l) with u != l on a sliced cell.  A bounded cell has none.  Two
    line axes a and b give both e_a - e_b and e_b - e_a, which span the
    lineality space.  Together with the vertices of
    :func:`slot_vertices` they span the cell.
    """
    n = partition.dimension
    up = np.zeros((len(flag), n), dtype=bool)
    down = np.zeros((len(flag), n), dtype=bool)
    for a, b in enumerate(partition.breakpoints):
        slab = grid[:, a]
        up[:, a] = ~np.isfinite(b[1:])[slab]
        down[:, a] = ~np.isfinite(b[:-1])[slab]
    start = np.zeros(len(flag) + 1, dtype=np.intp)
    if not (np.any(up) or np.any(down)):
        return start, np.zeros((0, n))
    sign = flag[:, None]
    eye = np.eye(n)
    pu, pl = np.divmod(np.arange(n * n), n)
    pu, pl = pu[pu != pl], pl[pu != pl]
    dirs = np.vstack([eye, -eye, eye[pu] - eye[pl]])
    valid = np.hstack([up & (sign >= 0), down & (sign <= 0), up[:, pu] & down[:, pl] & (sign != 0)])
    k, c = np.nonzero(valid)
    np.cumsum(np.bincount(k, minlength=len(flag)), out=start[1:])
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
    nonnegative multipliers, one per row of ``F, ell = cell.halfspaces``,
    that certifies the value: F^T lam = -g and lam @ ell = -value.
    When the maximum is +infinity the result is ``(inf, None, None)``.

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
    # in the row order of cell.halfspaces
    lam = np.column_stack([np.where(h < 0, -h, 0.0), np.where(h > 0, h, 0.0)])
    lam = lam[np.column_stack([np.isfinite(lows), np.isfinite(highs)])]
    if s != 0:
        lam = np.append(lam, gamma)
    return float(g @ x), x, lam


def grid_terms(shape, heads, terms, op=np.add, start=0.0):
    """Per-axis terms combined over part of a row-major grid of
    ``shape``, whose head is its first ``len(shape) // 2`` axes and its
    tail the rest: one row per head tuple in ``heads``, one column per
    tail tuple.  Each term is ``(axis, values)``, values indexed by the
    axis's slab, or ``(None, scalar)``; every entry is ``start``
    combined with the terms by ``op`` in list order, so with np.add
    it is the running sum of its slabs' values in that order."""
    half = len(shape) // 2
    tail = shape[half:]
    slabs = np.unravel_index(heads, shape[:half]) if half else ()
    vals = np.full((heads.size,) + (1,) * len(tail), start)
    for axis, v in terms:
        if axis is not None and axis < half:
            v = v[slabs[axis]].reshape((-1,) + (1,) * len(tail))
        elif axis is not None:
            v = v.reshape((-1,) + (1,) * (len(shape) - 1 - axis))
        vals = op(vals, v)
    return np.broadcast_to(vals, (heads.size,) + tail).reshape(heads.size, math.prod(tail))


def head_blocks(shape):
    """The head tuples of a row-major grid of ``shape`` (see
    :func:`grid_terms`) in consecutive blocks of about the square root
    of their count, so a block holds far fewer cells than a large grid;
    or of more, up to VERTEX_BLOCK cells, which saves the per-block
    overhead on a small grid."""
    n = math.prod(shape[: len(shape) // 2])
    step = max(math.isqrt(n - 1) + 1, VERTEX_BLOCK // math.prod(shape[len(shape) // 2 :]))
    for lo in range(0, n, step):
        yield np.arange(lo, min(lo + step, n))


class Partition:
    """Grid partition of the box spanned by per-axis breakpoints, sliced
    by sum(x) = tau.

    Slots are numbered in grid order, row-major over the axes; a grid
    cell whose interior strictly straddles the hyperplane takes two
    consecutive slots, its below half first.  :meth:`sides` decides
    which sides of tau a grid cell has, here and for the dual's keys.
    The partition holds no array with one entry per slot.  It keeps the
    first slot of each head tuple (the first half of the axes, rounded
    down) and decides a head tuple's cells when asked, by the running
    sums of their slab ends over the axes in order from 0.0
    (:func:`grid_terms`).
    :meth:`cell_at` builds a slot's Cell on each call, and
    :meth:`slot_blocks` decodes every slot, block by block.
    """

    def __init__(self, breakpoints, tau):
        self.breakpoints = tuple(np.asarray(b, dtype=float) for b in breakpoints)
        self.dimension = len(self.breakpoints)
        self.tau = tau
        shape = self.slab_counts
        n_head = math.prod(shape[: self.dimension // 2])
        # each head tuple's first slot, and one past the last
        self._start = np.zeros(n_head + 1, dtype=np.int64)
        for heads in head_blocks(shape):
            split = np.logical_and(*self.sides(*self._sums(heads)))
            self._start[heads + 1] = split.shape[1] + np.count_nonzero(split, axis=1)
        np.cumsum(self._start, out=self._start)

    @property
    def cell_count(self) -> int:
        return int(self._start[-1])

    @property
    def slab_counts(self):
        return tuple(len(b) - 1 for b in self.breakpoints)

    @property
    def max_total_sum(self) -> float:
        return float(np.sum([b[-1] for b in self.breakpoints]))

    def top_sums(self, slabs):
        """Each cell's largest sum, for cells given by their slab index
        arrays, one per axis: the slab tops added in axis order from 0.0,
        as the partition's max sums are."""
        total = 0.0
        for b, s in zip(self.breakpoints, slabs):
            total = total + b[1:][s]
        return total

    def sides(self, min_sums, max_sums):
        """``(above, below)``: whether grid cells with these min and max
        sums have a slot above tau, their max sum past it by more than
        STRADDLE_TOL, and one below, not above or their min sum short of
        it by as much.  A cell with both strictly straddles tau."""
        above = max_sums > self.tau + STRADDLE_TOL
        return above, ~above | (min_sums < self.tau - STRADDLE_TOL)

    def has_above_cells(self) -> bool:
        # the top cell has the largest max sum
        top = self.top_sums([n - 1 for n in self.slab_counts])
        return bool(self.sides(top, top)[0])

    def _sums(self, heads):
        """The min and max sums of the grid cells of head tuples
        ``heads``, one row per head tuple."""
        shape = self.slab_counts
        return (grid_terms(shape, heads, [(a, b[:-1]) for a, b in enumerate(self.breakpoints)]),
                grid_terms(shape, heads, [(a, b[1:]) for a, b in enumerate(self.breakpoints)]))

    def _decode(self, heads):
        """The slots of head tuples ``heads``, in order: (grid index, flag,
        side, min sum, max sum) arrays, one row per slot.  Flags: 0 whole
        cell, -1 below half, +1 above half.  Sides: -1 below, +1 above."""
        tau = self.tau
        min_sums, max_sums = (x.ravel() for x in self._sums(heads))
        above, below = self.sides(min_sums, max_sums)
        straddle = above & below
        shape = self.slab_counts
        half = self.dimension // 2
        n_tail = math.prod(shape[half:])
        head = np.unravel_index(heads, shape[:half]) if half else ()
        tail = np.unravel_index(np.arange(n_tail), shape[half:])
        grid = np.empty((straddle.size, self.dimension), dtype=np.int32)
        for a in range(self.dimension):
            if a < half:
                grid[:, a] = np.repeat(head[a], n_tail)
            else:
                grid[:, a] = np.tile(tail[a - half], heads.size)
        # a straddling grid cell takes two consecutive slots, below half first
        reps = np.where(straddle, 2, 1)
        ref_grid = np.repeat(grid, reps, axis=0)
        ref_flag = np.repeat(-straddle.astype(np.int8), reps)
        upper = np.cumsum(reps)[straddle] - 1
        ref_flag[upper] = 1
        # a half's side is its flag; a whole cell's is the one it has
        ref_side = np.repeat(np.where(above, 1, -1).astype(np.int8), reps)
        ref_side[upper - 1] = -1
        # a half inherits the box min/max sum clipped at tau
        ref_min = np.repeat(min_sums, reps)
        ref_min[upper] = tau
        ref_max = np.repeat(max_sums, reps)
        ref_max[upper - 1] = tau
        return ref_grid, ref_flag, ref_side, ref_min, ref_max

    def ref_arrays(self):
        """Every slot's (grid_index, flag, side, min_sum, max_sum) arrays,
        one row per slot, decoded on each call: for small partitions and
        tests.  Flags and sides as in :meth:`slot_blocks`."""
        return self._decode(np.arange(self._start.size - 1))

    def slot_blocks(self):
        """Every slot, in order, decoded one block of head tuples at a
        time, as ``(first, grid, flag, side)``: the slots first, first +
        1, ... have grid indices ``grid``, flags ``flag`` (0 whole cell,
        -1 below half, +1 above half) and sides ``side`` (-1 below, +1
        above)."""
        for heads in head_blocks(self.slab_counts):
            grid, flag, side, _min, _max = self._decode(heads)
            yield int(self._start[heads[0]]), grid, flag, side

    def slots(self, idx):
        """The grid index, flag and side of each slot in ``idx``, as
        :meth:`slot_blocks` gives them, decoding only the head tuples
        that hold them."""
        idx = np.asarray(idx, dtype=np.intp)
        heads = np.searchsorted(self._start, idx, side="right") - 1
        uniq, inv = np.unique(heads, return_inverse=True)
        grid, flag, side, _min, _max = self._decode(uniq)
        counts = self._start[uniq + 1] - self._start[uniq]
        at = (np.cumsum(counts) - counts)[inv] + idx - self._start[heads]
        return grid[at], flag[at], side[at]

    def _cell(self, i, grid, flag, side):
        return Cell(
            [b[g] for b, g in zip(self.breakpoints, grid)],
            [b[g + 1] for b, g in zip(self.breakpoints, grid)],
            slice_sign=int(flag),
            tau=self.tau,
            side_of_tau=SideOfTau.BELOW if side < 0 else SideOfTau.ABOVE,
            cell_id=i,
            slabs=grid,
        )

    def cell_at(self, i: int) -> Cell:
        if not (0 <= i < self.cell_count):
            raise InputError(f"cell index {i} out of range")
        grid, flag, side = self.slots([i])
        return self._cell(i, grid[0], flag[0], side[0])

    def cells(self, above: bool):
        """The cells on one side of tau, above it when ``above``, in slot
        order, built block by block."""
        for first, grid, flag, side in self.slot_blocks():
            for j in np.flatnonzero((side > 0) == above):
                yield self._cell(first + int(j), grid[j], flag[j], side[j])

    def __repr__(self):
        return f"Partition(dim={self.dimension}, cells={self.cell_count}, tau={self.tau})"


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


def check_grid_budget(counts, cell_budget):
    """Raise InputError when ``cell_budget`` is below 1, and
    CapacityError when a grid of ``counts`` slabs per axis has more
    cells than it.  The product stops at the first axis past the
    budget, so the check costs nothing that grows with the grid."""
    if cell_budget < 1:
        raise InputError(f"cell budget must be at least 1, got {cell_budget}")
    cells = 1
    for m in counts:
        cells *= m
        if cells > cell_budget:
            raise CapacityError(
                f"grid would have more than {cell_budget} cells; raise the cell budget"
            )


def build_box_partition(breakpoints, tau, *, cell_budget=DEFAULT_CELL_BUDGET) -> Partition:
    """Build the grid partition from per-axis breakpoints, sliced at tau.

    Breakpoints must pass :func:`check_breakpoints` and tau must be
    finite, so every cell with a whole-line axis is sliced.  Any cell
    strictly straddling sum(x) = tau is replaced by its below and above
    halves, in two consecutive slots, below first; cells touching the
    hyperplane only on their boundary are left whole.  The slots are
    counted block by block, and no array runs over them (see
    :class:`Partition`); the grid's cell count is checked against
    ``cell_budget`` (:func:`check_grid_budget`) before they are
    counted, the slot count after.
    """
    axes = check_breakpoints(breakpoints)
    check_grid_budget([len(arr) - 1 for arr in axes], cell_budget)
    tau = float(tau)
    if not math.isfinite(tau):
        raise InputError(f"partition threshold must be finite, got {tau}")
    partition = Partition(axes, tau)
    if partition.cell_count > cell_budget:
        raise CapacityError(
            f"sliced grid would have more than {cell_budget} cells; raise the cell budget"
        )
    return partition
