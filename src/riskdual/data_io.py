"""Sample ingestion and bootstrap construction of integral bounds.

Bounds come from percentile bootstrap intervals of empirical test
function means.  Replicates are indexed draws: replicate r uses the
generator seeded with (seed, r), so results are reproducible.  A
replicate mean is the count-weighted sum sum_i (N_i / k) * values_i,
where N_i counts the draws of row i, so no resampled rows are copied.

Each distinct test function definition is evaluated once, and the
replicates are summed in blocks.  A column whose values are integers
with max|value| * k < 2**53 goes through one BLAS product per block:
every product N_i * value_i and every partial sum is an integer below
2**53, so the sum is exact in any order and at any BLAS thread count.
The other columns go through einsum, whose summation order is fixed.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .test_functions import evaluate

MIN_REPLICATES = 100
# replicates whose draw counts are summed in one product; the block's
# counts take _BLOCK * k * 8 bytes
_BLOCK = 16


@dataclass(frozen=True)
class SampleSet:
    """A matrix of observations, one row per joint sample."""

    data: np.ndarray
    columns: tuple

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise InputError("sample data must be two-dimensional")
        if data.shape[0] == 0:
            raise InputError("sample set is empty")
        if not np.all(np.isfinite(data)):
            raise InputError("sample data contains non-finite values")
        if len(self.columns) != data.shape[1]:
            raise InputError("header width does not match the sample rows")
        object.__setattr__(self, "data", data)

    @property
    def n_samples(self) -> int:
        return int(self.data.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.data.shape[1])


def load_samples_csv(path) -> SampleSet:
    """Read samples from a CSV file with one header row.

    Every later row must hold one float per header column; errors name
    the offending line, or the file when it cannot be read as UTF-8 text.
    A number may not hold an underscore, which float() would skip.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read samples file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    # one scan of the rows after the header: float("1_0") is 10.0.  The
    # csv reader ends a line at "\r", "\n" or "\r\n"
    head = re.search("[\r\n]", text)
    at = text.find("_", head.end()) if head else -1
    if at >= 0:
        ends = text.count("\r", 0, at) + text.count("\n", 0, at) - text.count("\r\n", 0, at)
        raise InputError(f"{path}:{ends + 1}: underscore in a number")
    columns, rows = _read_rows(csv.reader(io.StringIO(text, newline="")), path)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return SampleSet(np.array(rows, dtype=float), columns)


def _read_rows(reader, path):
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: file is empty") from None
    columns = tuple(name.strip() for name in header)
    if not columns or any(not c for c in columns):
        raise InputError(f"{path}: header row has empty column names")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise InputError(
                f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}"
            )
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return columns, rows


@dataclass(frozen=True)
class IntegralBound:
    """Two-sided bound on a test function integral with its sampling
    provenance."""

    function_id: str
    lower: float
    upper: float
    level: float
    replicates: int


def bootstrap_integral_bounds(
    testfns,
    samples,
    *,
    level: float = 0.95,
    replicates: int = 1000,
    seed: int = 0,
):
    """Percentile bootstrap intervals for each test function mean.

    Each replicate resamples the rows with replacement using a
    generator seeded by (seed, replicate) and weights each row by its
    draw count to take every test function mean; the interval takes
    the symmetric percentiles at the requested level.  Returns one
    IntegralBound per function, in input order.
    """
    if not 0.0 < level < 1.0:
        raise InputError("bootstrap level must be strictly between 0 and 1")
    if replicates < MIN_REPLICATES:
        raise InputError(f"bootstrap needs at least {MIN_REPLICATES} replicates")
    # the replicate generators take (seed, r), which must be nonnegative
    if seed < 0:
        raise InputError(f"bootstrap seed must be nonnegative, got {seed}")
    data = samples.data if hasattr(samples, "data") else np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise InputError("bootstrap needs a nonempty two-dimensional sample set")
    testfns = list(testfns)
    k = data.shape[0]
    # one column per distinct definition
    slot, defs = [], {}
    for fn in testfns:
        v = None if fn.v is None else tuple(fn.v)
        key = (fn.kind, fn.axis, fn.slab, v, fn.c)
        slot.append(defs.setdefault(key, (len(defs), fn))[0])
    # exact columns fill the rows from the top, the rest from the bottom
    values = np.empty((len(defs), k))
    row, top, bottom = [], 0, len(defs)
    for _, fn in defs.values():
        col = evaluate(fn, data)
        if np.array_equal(col, np.trunc(col)) and np.abs(col).max() * k < 2.0**53:
            row.append(top)
            top += 1
        else:
            bottom -= 1
            row.append(bottom)
        values[row[-1]] = col
    exact, rest = values[:top], values[top:]
    means = np.empty((replicates, len(defs)))
    # float counts: BLAS takes them as they are, and einsum would cast
    # an int64 operand chunk by chunk
    counts = np.empty((_BLOCK, k))
    for r0 in range(0, replicates, _BLOCK):
        block = counts[: min(_BLOCK, replicates - r0)]
        for b, drawn in enumerate(block):
            idx = np.random.default_rng((seed, r0 + b)).integers(0, k, size=k)
            drawn[:] = np.bincount(idx, minlength=k)
        out = means[r0 : r0 + len(block)]
        # @ on the exact columns only: each of their sums is an integer
        # below 2**53, the same in any order.  einsum, not @, on the rest:
        # BLAS sums a float column in an order set by its thread count
        out[:, :top] = block @ exact.T
        out[:, top:] = np.einsum("ri,ji->rj", block, rest)
    means /= k
    q = [100.0 * (1.0 - level) / 2.0, 100.0 * (1.0 + level) / 2.0]
    lower, upper = np.percentile(means, q, axis=0)
    return [
        IntegralBound(fn.id, float(lower[row[j]]), float(upper[row[j]]), level, replicates)
        for fn, j in zip(testfns, slot)
    ]
