"""Sample loading and bootstrap intervals."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskdual.data_io as data_io
from riskdual import (
    InputError,
    SampleSet,
    Sense,
    TestFunction,
    TestFunctionKind,
    bootstrap_integral_bounds,
    empirical_integral,
    evaluate,
    load_samples_csv,
)


def ind(slab, fn_id="f", axis=0):
    return TestFunction(
        fn_id, TestFunctionKind.SLAB_INDICATOR, axis, slab, Sense.UPPER, 1.0
    )


def aff(slab, v, c, fn_id="a", axis=0):
    return TestFunction(
        fn_id, TestFunctionKind.SLAB_AFFINE, axis, slab, Sense.EQUALITY, 0.0, v=v, c=c
    )


def hinge_grid_fns(d=3, m=8):
    """The 51 records of the d=3, m=8 hinge grid model: a two-sided
    frequency bound on every slab, which puts two records on each slab,
    and one mean equality per axis."""
    fns = []
    for a in range(d):
        for g in range(m):
            slab = (g / m, (g + 1) / m)
            fns.append(TestFunction(f"hi_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a, slab,
                                    Sense.UPPER, 1.35 / m))
            fns.append(TestFunction(f"lo_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, a, slab,
                                    Sense.LOWER, 0.65 / m))
    return fns + [aff((0.0, 1.0), [float(i == a) for i in range(d)], 0.0, f"mean_{a}", a)
                  for a in range(d)]


@pytest.fixture(scope="module")
def grid_samples():
    rng = np.random.default_rng(5)
    return 0.4 * rng.beta(2.0, 3.0, (20_000, 1)) + 0.6 * rng.beta(2.0, 2.0, (20_000, 3))


def _percentiles(means, level):
    return np.percentile(means, [50.0 * (1.0 - level), 50.0 * (1.0 + level)], axis=0)


def einsum_reference(fns, data, *, level, replicates, seed):
    """The one-replicate-at-a-time kernel: every record's column, and one
    sequential einsum of the draw counts per replicate."""
    values = np.column_stack([evaluate(fn, data) for fn in fns])
    k = data.shape[0]
    means = np.empty((replicates, len(fns)))
    for r in range(replicates):
        idx = np.random.default_rng((seed, r)).integers(0, k, size=k)
        counts = np.bincount(idx, minlength=k).astype(float)
        means[r] = np.einsum("i,ij->j", counts, values) / k
    return _percentiles(means, level)


def gather_reference(fns, data, *, level, replicates, seed):
    """Copy each resample and average it."""
    values = np.column_stack([evaluate(fn, data) for fn in fns])
    k = data.shape[0]
    means = np.array([
        values[np.random.default_rng((seed, r)).integers(0, k, size=k)].mean(axis=0)
        for r in range(replicates)
    ])
    return _percentiles(means, level)


def _intervals(bounds):
    return np.array([[b.lower for b in bounds], [b.upper for b in bounds]])


def einsum_columns(monkeypatch):
    """The number of columns each later einsum call sums, in a list."""
    columns, einsum = [], np.einsum
    monkeypatch.setattr(data_io.np, "einsum",
                        lambda spec, *ops: columns.append(ops[1].shape[0]) or einsum(spec, *ops))
    return columns


def test_csv_round_trip(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("x,y\n0.1,0.2\n0.3,0.4\n\n0.5,0.6\n")
    ss = load_samples_csv(path)
    assert ss.columns == ("x", "y")
    assert ss.n_samples == 3  # the blank line is skipped
    assert ss.dimension == 2
    assert ss.data[1].tolist() == [0.3, 0.4]


def test_csv_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0.1,0.2\n0.3\n")
    with pytest.raises(InputError, match="bad.csv:3"):
        load_samples_csv(path)
    path.write_text("x,y\n0.1,oops\n")
    with pytest.raises(InputError, match="bad.csv:2"):
        load_samples_csv(path)
    path.write_text("")
    with pytest.raises(InputError, match="empty"):
        load_samples_csv(path)
    path.write_text("x,y\n")
    with pytest.raises(InputError, match="no data rows"):
        load_samples_csv(path)
    path.write_text("x,\n0.1,0.2\n")
    with pytest.raises(InputError, match="header"):
        load_samples_csv(path)


def test_csv_rejects_underscores_in_numbers(tmp_path):
    # float() reads "1_0" as 10.0; a header name may hold one
    path = tmp_path / "under.csv"
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(f"x_0,y_0{end}0.1,0.2{end}{end}1_0,0.4{end}".encode())
        with pytest.raises(InputError, match="under.csv:4: underscore"):
            load_samples_csv(path)
        path.write_bytes(f"x_0,y_0{end}0.1,0.2{end}".encode())
        assert load_samples_csv(path).columns == ("x_0", "y_0")


def test_sample_set_validation():
    with pytest.raises(InputError):
        SampleSet(np.array([1.0, 2.0]), ("x",))
    with pytest.raises(InputError):
        SampleSet(np.zeros((0, 1)), ("x",))
    with pytest.raises(InputError):
        SampleSet(np.array([[np.inf]]), ("x",))
    with pytest.raises(InputError):
        SampleSet(np.ones((2, 2)), ("x",))


def test_bootstrap_is_deterministic_given_the_seed():
    rng = np.random.default_rng(0)
    data = rng.uniform(0.0, 1.0, (400, 1))
    fns = [ind((0.0, 0.5), "half"), ind((0.25, 0.75), "mid")]
    a = bootstrap_integral_bounds(fns, data, replicates=200, seed=7)
    b = bootstrap_integral_bounds(fns, data, replicates=200, seed=7)
    for x, y in zip(a, b):
        assert x == y
    c = bootstrap_integral_bounds(fns, data, replicates=200, seed=8)
    assert any(x != y for x, y in zip(a, c))


def test_bootstrap_matches_the_gather_mean_reference():
    # the reference copies each resample and averages it; the kernel
    # weights the original rows by their draw counts instead
    rng = np.random.default_rng(3)
    data = rng.beta(2.0, 3.0, (2000, 3))
    fns = [ind((g / 4, (g + 1) / 4), f"ind_{a}_{g}", axis=a) for a in range(3) for g in range(4)]
    fns += [
        TestFunction(f"aff_{a}", TestFunctionKind.SLAB_AFFINE, a, (0.0, 1.0), Sense.EQUALITY,
                     0.4, v=[1.0 + a, -2.0, 0.5], c=3.0)
        for a in range(3)
    ]
    kw = dict(level=0.9, replicates=300, seed=11)
    lower, upper = gather_reference(fns, data, **kw)
    got = bootstrap_integral_bounds(fns, data, **kw)
    assert [b.function_id for b in got] == [fn.id for fn in fns]
    np.testing.assert_allclose([b.lower for b in got], lower, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose([b.upper for b in got], upper, rtol=0.0, atol=1e-12)


def test_indicator_intervals_equal_the_sequential_einsum(grid_samples):
    # a slab indicator's replicate sum is an integer below 2**53, exact
    # in any order, so the blocked product gives the old kernel's bits
    fns = hinge_grid_fns()
    kw = dict(level=0.95, replicates=200, seed=3)
    got = _intervals(bootstrap_integral_bounds(fns, grid_samples, **kw))
    ref = einsum_reference(fns, grid_samples, **kw)
    assert [fn.kind for fn in fns[:48]] == [TestFunctionKind.SLAB_INDICATOR] * 48
    assert got[:, :48].tolist() == ref[:, :48].tolist()
    np.testing.assert_allclose(got[:, 48:], gather_reference(fns[48:], grid_samples, **kw),
                               rtol=0.0, atol=1e-12)


def test_integer_affine_columns_take_the_exact_route(monkeypatch):
    rng = np.random.default_rng(8)
    data = rng.integers(-4, 5, (3000, 3)).astype(float)
    fns = [aff((-4.0, 4.0), [2.0, -1.0, 3.0], 4.0, "int", axis=1), ind((0.0, 2.0), "ind")]
    kw = dict(level=0.9, replicates=150, seed=2)
    columns = einsum_columns(monkeypatch)
    got = _intervals(bootstrap_integral_bounds(fns, data, **kw))
    assert set(columns) == {0}
    assert got.tolist() == einsum_reference(fns, data, **kw).tolist()


def test_columns_past_two_to_the_53_take_the_einsum_route(monkeypatch):
    # integer values, but max|value| * k reaches 2**53: a BLAS sum could
    # round in a thread-dependent order
    rng = np.random.default_rng(9)
    data = rng.integers(0, 3, (1000, 2)).astype(float)
    # "small" stays below 2**53 / k and keeps the exact route
    big = aff((0.0, 2.0), [1.0, 1.0], 2.0**44, "big")
    fns = [big, aff((0.0, 2.0), [1.0, 1.0], 2.0**42, "small"), ind((0.0, 1.0), "ind")]
    assert np.abs(evaluate(big, data)).max() * data.shape[0] >= 2.0**53
    kw = dict(level=0.95, replicates=120, seed=4)
    columns = einsum_columns(monkeypatch)
    got = _intervals(bootstrap_integral_bounds(fns, data, **kw))
    assert set(columns) == {1}
    np.testing.assert_allclose(got, gather_reference(fns, data, **kw), rtol=1e-12, atol=0.0)
    assert got[:, 1:].tolist() == einsum_reference(fns, data, **kw)[:, 1:].tolist()


# few choices per field, so definitions often differ in one field only
_record = st.one_of(
    st.tuples(st.just("ind"), st.integers(0, 1), st.sampled_from([(-1.0, 0.5), (-3.0, 3.0)])),
    st.tuples(st.just("aff"), st.integers(0, 1), st.sampled_from([(-1.0, 0.5), (-3.0, 3.0)]),
              st.sampled_from([(1.0, 0.0, 0.0), (0.25, -2.0, 0.0), (-0.0, 1.0, 1e-3)]),
              st.sampled_from([0.0, -0.0, 1.0, 0.7])),
)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 40),
    integer_data=st.booleans(),
    defs=st.lists(_record, max_size=5),
    picks=st.lists(st.integers(0, 9), max_size=8),
    data_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
def test_blocked_kernel_matches_both_references(k, integer_data, defs, picks, data_seed, seed):
    # duplicates come from picking a definition more than once
    rng = np.random.default_rng(data_seed)
    data = rng.uniform(-2.0, 2.0, (k, 3))
    if integer_data:
        data = np.round(data)
    made = [ind(d[2], axis=d[1]) if d[0] == "ind" else aff(d[2], d[3], d[4], axis=d[1])
            for d in defs]
    which = [p % len(made) for p in picks] if made else []
    fns = [TestFunction(f"f{i}", made[w].kind, made[w].axis, made[w].slab, made[w].sense,
                        made[w].bound, v=made[w].v, c=made[w].c) for i, w in enumerate(which)]
    kw = dict(level=0.8, replicates=100, seed=seed)
    got = bootstrap_integral_bounds(fns, data, **kw)
    assert [b.function_id for b in got] == [fn.id for fn in fns]
    if not fns:
        return
    got = _intervals(got)
    first = {w: i for i, w in reversed(list(enumerate(which)))}
    assert all(got[:, i].tolist() == got[:, first[w]].tolist() for i, w in enumerate(which))
    # every value here is far below 2**53 / k, so integer columns are exact
    values = np.column_stack([evaluate(fn, data) for fn in fns])
    exact = np.all(values == np.trunc(values), axis=0)
    assert got[:, exact].tolist() == einsum_reference(fns, data, **kw)[:, exact].tolist()
    scale = max(1.0, float(np.abs(values).max()))
    np.testing.assert_allclose(got, gather_reference(fns, data, **kw), rtol=1e-12,
                               atol=1e-12 * scale)


def test_each_distinct_definition_is_evaluated_once(monkeypatch):
    calls = []
    monkeypatch.setattr(data_io, "evaluate", lambda fn, x: calls.append(fn.id) or evaluate(fn, x))
    rng = np.random.default_rng(6)
    fns = hinge_grid_fns()
    got = bootstrap_integral_bounds(fns, rng.uniform(0.0, 1.0, (500, 3)), replicates=100)
    # hi_a_g and lo_a_g share a slab
    assert len(calls) == 27
    assert [b.function_id for b in got] == [fn.id for fn in fns]
    by_id = {b.function_id: (b.lower, b.upper) for b in got}
    assert all(by_id[f"hi_{a}_{g}"] == by_id[f"lo_{a}_{g}"] for a in range(3) for g in range(8))
    assert len(set(by_id.values())) == 27


def test_definitions_that_differ_in_one_field_keep_their_own_columns(monkeypatch):
    calls = []
    monkeypatch.setattr(data_io, "evaluate", lambda fn, x: calls.append(fn.id) or evaluate(fn, x))
    data = np.random.default_rng(4).uniform(-1.0, 1.0, (300, 2))
    base = dict(slab=(-1.0, 0.5), v=[1.0, 0.5], c=0.25, axis=0)
    fns = [aff(**base, fn_id="base"), aff(**base, fn_id="same"),
           ind(base["slab"], "kind", axis=0)]
    for field, other in (("slab", (-0.5, 1.0)), ("v", [1.0, -0.5]), ("c", 0.75), ("axis", 1)):
        fns.append(aff(**dict(base, **{field: other}), fn_id=field))
    kw = dict(level=0.9, replicates=100, seed=5)
    got = _intervals(bootstrap_integral_bounds(fns, data, **kw))
    assert len(calls) == len(fns) - 1
    np.testing.assert_allclose(got, gather_reference(fns, data, **kw), rtol=1e-12, atol=1e-15)


def test_bootstrap_memory_stays_within_its_columns(grid_samples):
    # the draw counts of a block of replicates, not of all of them, sit
    # next to one column per distinct definition
    fns = hinge_grid_fns()
    tracemalloc.start()
    try:
        bootstrap_integral_bounds(fns, grid_samples, replicates=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * grid_samples.shape[0] * len(fns) * 8


def test_bootstrap_brackets_the_empirical_mean():
    rng = np.random.default_rng(1)
    data = rng.uniform(0.0, 1.0, (1000, 1))
    fn = ind((0.0, 0.5), "half")
    (bound,) = bootstrap_integral_bounds([fn], data, replicates=400, seed=0)
    emp = empirical_integral(fn, data)
    assert bound.lower <= emp <= bound.upper
    assert bound.function_id == "half"
    assert bound.level == 0.95
    assert bound.replicates == 400
    # interval width tracks the binomial standard error of the mean
    se = np.sqrt(emp * (1 - emp) / 1000)
    assert 2.0 * se <= bound.upper - bound.lower <= 6.0 * se


def test_bootstrap_interval_narrows_with_level():
    rng = np.random.default_rng(2)
    data = rng.uniform(0.0, 1.0, (500, 2))
    fn = ind((0.0, 0.7), "w", axis=1)
    (wide,) = bootstrap_integral_bounds([fn], data, level=0.99, replicates=300)
    (narrow,) = bootstrap_integral_bounds([fn], data, level=0.5, replicates=300)
    assert narrow.upper - narrow.lower < wide.upper - wide.lower


def test_bootstrap_validation():
    data = np.ones((10, 1)) * 0.5
    fn = ind((0.0, 1.0))
    with pytest.raises(InputError):
        bootstrap_integral_bounds([fn], data, replicates=10)
    with pytest.raises(InputError):
        bootstrap_integral_bounds([fn], data, level=1.0)
    with pytest.raises(InputError):
        bootstrap_integral_bounds([fn], np.zeros((0, 1)))


def test_bootstrap_accepts_sample_sets():
    ss = SampleSet(np.linspace(0.0, 1.0, 101).reshape(-1, 1), ("x",))
    (bound,) = bootstrap_integral_bounds([ind((0.0, 0.5))], ss, replicates=150)
    assert 0.3 <= bound.lower <= bound.upper <= 0.7
