"""Sample loading and bootstrap intervals."""

import numpy as np
import pytest

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
    level, replicates, seed = 0.9, 300, 11
    values = np.column_stack([evaluate(fn, data) for fn in fns])
    k = data.shape[0]
    means = np.array([
        values[np.random.default_rng((seed, r)).integers(0, k, size=k)].mean(axis=0)
        for r in range(replicates)
    ])
    lower, upper = np.percentile(means, [50.0 * (1.0 - level), 50.0 * (1.0 + level)], axis=0)
    got = bootstrap_integral_bounds(fns, data, level=level, replicates=replicates, seed=seed)
    assert [b.function_id for b in got] == [fn.id for fn in fns]
    np.testing.assert_allclose([b.lower for b in got], lower, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose([b.upper for b in got], upper, rtol=0.0, atol=1e-12)


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
