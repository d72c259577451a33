import numpy as np
import pytest

from idr import StepCdf, quantile_rows
from idr.stepfun import distinct_sorted


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        StepCdf([], [])
    with pytest.raises(ValueError):
        StepCdf([1, 1], [0.5, 1.0])  # jumps must strictly increase
    with pytest.raises(ValueError):
        StepCdf([1, 2], [0.8, 0.5])  # cum must be nondecreasing
    with pytest.raises(ValueError):
        StepCdf([1, 2], [0.5, 0.9])  # must end at 1
    with pytest.raises(ValueError):
        StepCdf([1, np.nan], [0.5, 1.0])


def test_evaluate_is_right_continuous():
    f = StepCdf([1.0, 2.0], [0.5, 1.0])
    assert f.evaluate(0.999) == 0.0
    assert f.evaluate(1.0) == 0.5
    assert f.evaluate(1.5) == 0.5
    assert f.evaluate(2.0) == 1.0
    assert f.evaluate(3.0) == 1.0


def test_left_limit():
    f = StepCdf([1.0, 2.0], [0.5, 1.0])
    assert f.left_limit(1.0) == 0.0
    assert f.left_limit(1.5) == 0.5
    assert f.left_limit(2.0) == 0.5
    assert f.left_limit(5.0) == 1.0


def test_evaluate_vectorized_matches_scalar():
    rng = np.random.default_rng(2)
    jumps = np.sort(rng.normal(size=7))
    cum = np.sort(rng.uniform(0.1, 1.0, size=7))
    cum[-1] = 1.0
    f = StepCdf(jumps, cum)
    zs = rng.normal(scale=2, size=40)
    vec = f.evaluate(zs)
    assert vec.shape == zs.shape
    for z, v in zip(zs, vec):
        assert f.evaluate(float(z)) == v


def test_quantile_examples():
    f = StepCdf([1, 2, 3], [0.5, 2 / 3, 1.0])
    assert f.quantile(0.5) == 1.0
    assert f.quantile(0.6) == 2.0
    g = StepCdf.point_mass(7.0)
    for a in (0.01, 0.5, 0.99):
        assert g.quantile(a) == 7.0


def test_quantile_rejects_boundary_alpha():
    f = StepCdf.point_mass(0.0)
    for a in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            f.quantile(a)


def test_quantile_cdf_duality():
    """quantile(a) <= z exactly when F(z) >= a."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = rng.integers(1, 6)
        jumps = np.sort(rng.choice(20, size=k, replace=False)).astype(float)
        cum = np.sort(rng.uniform(0.05, 1.0, size=k))
        cum[-1] = 1.0
        f = StepCdf(jumps, cum)
        for a in rng.uniform(0.01, 0.99, size=10):
            q = f.quantile(a)
            for z in jumps:
                assert (q <= z) == (f.evaluate(z) >= a)


def test_from_sample_counts():
    f = StepCdf.from_sample([3, 1, 2, 1])
    assert f.jumps.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(f.cum, [0.5, 0.75, 1.0])


def test_from_sample_weighted():
    f = StepCdf.from_sample([1, 2], weights=[3.0, 1.0])
    assert np.allclose(f.cum, [0.75, 1.0])
    with pytest.raises(ValueError):
        StepCdf.from_sample([1, 2], weights=[1.0, 0.0])


def test_from_sample_rejects_weights_that_are_not_finite():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
            StepCdf.from_sample([1, 2], weights=[1.0, bad])


def test_from_sample_takes_weights_by_the_one_rule():
    """An overflowing weight sum used to give cum [0, 1], and too few
    weights failed inside np.bincount; both are the weight rule's errors,
    as is a weight too small to scale beside the largest."""
    with pytest.raises(ValueError, match="the sum of the weights overflows the float range"):
        StepCdf.from_sample([1, 2], weights=[1e308, 1e308])
    with pytest.raises(ValueError, match="weights of shape"):
        StepCdf.from_sample([1, 2, 3], weights=[1.0, 2.0])
    with pytest.raises(ValueError, match="the weights span more than the float range"):
        StepCdf.from_sample([1, 2], weights=[5e-324, 1.0])
    assert StepCdf.from_sample([1, 2], weights=[1e307, 1e307]).cum.tolist() == [0.5, 1.0]


def test_from_sample_rejects_an_empty_sample():
    """An empty sample used to fail with an IndexError from its last
    cumulative sum, with or without weights."""
    for weights in (None, []):
        with pytest.raises(ValueError, match="at least one value"):
            StepCdf.from_sample([], weights=weights)


def test_quantile_rows_takes_one_level():
    """An array of levels used to be compared column by column with the
    rows, giving [1, 1] here, and then was a ValueError; it now gives a
    (rows, levels) array whose every column is the one-level call."""
    grid, rows = [1.0, 2.0, 3.0], [[0.2, 0.6, 1.0], [0.5, 0.7, 1.0]]
    table = quantile_rows(grid, rows, [0.1, 0.5, 0.9])
    assert table.shape == (2, 3)
    for k, a in enumerate([0.1, 0.5, 0.9]):
        assert np.array_equal(table[:, k].view(np.int64), quantile_rows(grid, rows, a).view(np.int64))
    assert table.tolist() == [[1.0, 2.0, 3.0], [1.0, 1.0, 3.0]]
    assert quantile_rows(grid, rows, 0.5).tolist() == [2.0, 1.0]
    assert StepCdf(grid, rows[0]).quantile([0.1, 0.5, 0.9]).tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("shape", [(), (4,), (4, 3), (0,)])
def test_quantile_rows_and_step_cdf_quantile_take_levels_of_any_shape(shape):
    """Shape (cases, *alpha.shape), each entry bit for bit the one-level
    call; ``StepCdf.quantile`` is the first row."""
    rng = np.random.default_rng(7)
    grid = np.array([-1.5, -0.0, 0.25, 2.0, 9.0])
    rows = np.sort(rng.choice([0.0, 0.25, 0.5, 0.75], size=(6, grid.size)), axis=1)
    rows[:, -1] = 1.0
    alpha = rng.choice([0.25, 0.5, 1e-9, 0.6, 1 - 1e-9], size=shape)
    table = quantile_rows(grid, rows, alpha)
    assert table.shape == (6, *shape)
    f = StepCdf(grid, rows[0])
    assert np.array_equal(np.asarray(f.quantile(alpha)).view(np.int64), table[0].view(np.int64))
    for index in np.ndindex(shape):
        one = quantile_rows(grid, rows, float(alpha[index]))
        assert np.array_equal(table[(slice(None), *index)].view(np.int64), one.view(np.int64))
        assert np.float64(f.quantile(float(alpha[index]))).view(np.int64) == one[0].view(np.int64)


def test_from_sample_jumps_at_the_zero_distinct_sorted_keeps():
    """Of 0.0 and -0.0 the empirical CDF jumps at the one the sort puts
    first, as :func:`distinct_sorted` gives it; it used to keep the
    first in input order."""
    v = np.array([2, 1, 1, 0.0, 0.0, -0.0, -0.0, -0.0, -0.0, 2, 1, 2, 1, 1, 2, 1, 1, 1, 1, 2])
    f = StepCdf.from_sample(v)
    assert np.array_equal(f.jumps.view(np.int64), distinct_sorted(v).view(np.int64))
    assert f.cum.tolist() == [0.3, 0.75, 1.0]


def test_masses_sum_to_one():
    f = StepCdf([0, 1, 4], [0.2, 0.7, 1.0])
    m = f.masses()
    assert np.allclose(m, [0.2, 0.5, 0.3])
    assert m.sum() == pytest.approx(1.0)


def test_arrays_are_frozen():
    f = StepCdf.point_mass(1.0)
    with pytest.raises(ValueError):
        f.jumps[0] = 2.0


def test_distinct_sorted_is_np_unique_bit_for_bit():
    """Also where the sort meets 0.0 and -0.0 in either order, at sizes
    from one to 20000."""
    rng = np.random.default_rng(3)
    for size in (1, 2, 5, 17, 100, 1000, 20000):
        for pool in ([0.0, -0.0], [0.0, -0.0, 1.0, -2.5], [0.1, 0.2, 0.30000000000000004, 0.3]):
            v = rng.choice(pool, size=size) * rng.choice([1.0, 1.0, 3.0], size=size)
            assert np.array_equal(distinct_sorted(v).view(np.int64), np.unique(v).view(np.int64)), (size, pool)
