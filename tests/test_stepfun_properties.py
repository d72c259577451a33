"""Property test: a StepCdf reads and inverts as one row of the row functions.

Hypothesis draws step CDFs on a shared grid, with repeated cumulative
values, and points and levels at, between, below and above the jumps
(±inf included).  ``StepCdf.evaluate``, ``left_limit`` and ``quantile``
must equal ``evaluate_grid``, ``evaluate_rows`` and ``quantile_rows``
bit for bit, and a NaN, 0 or 1 level and a NaN point must raise in both
forms.  The search is derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from idr import StepCdf  # noqa: E402
from idr.stepfun import evaluate_grid, evaluate_rows, quantile_rows  # noqa: E402

#: few values, so that a row repeats its cumulative probabilities
CUM = [0.0, 0.125, 0.25, 0.5, 0.5, 0.75, 1.0]


@st.composite
def step_rows(draw):
    """A grid, rows of cumulative probabilities on it (the last may be
    NaN, as a missing bound row is), points and levels."""
    m = draw(st.integers(1, 6))
    grid = np.array(sorted(draw(st.sets(st.integers(-20, 20), min_size=m, max_size=m)))) / 4
    cum = st.lists(st.sampled_from(CUM), min_size=m, max_size=m).map(lambda c: sorted(c)[:-1] + [1.0])
    rows = np.array(draw(st.lists(cum, min_size=1, max_size=4)))
    if draw(st.booleans()):
        rows = np.vstack([rows, np.full(m, np.nan)])
    near = np.concatenate([grid, (grid[1:] + grid[:-1]) / 2, [grid[0] - 1, grid[-1] + 1, -np.inf, np.inf]])
    points = np.array(draw(st.lists(st.one_of(st.sampled_from(near.tolist()), st.floats(allow_nan=False)),
                                    min_size=1, max_size=12)))
    steps = np.unique(rows[0])
    marks = np.concatenate([steps, (np.concatenate([[0.0], steps])[:-1] + steps) / 2, [0.5]])
    level = st.one_of(st.sampled_from(marks[(marks > 0) & (marks < 1)].tolist()),
                      st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    levels = np.array(draw(st.lists(level, min_size=1, max_size=8)))
    return grid, rows, points, levels


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(step_rows())
def test_step_cdf_is_one_row_of_the_row_functions(case):
    grid, rows, points, levels = case
    f = StepCdf(grid, rows[0])
    for side, read in (("right", f.evaluate), ("left", f.left_limit)):
        table = evaluate_grid(grid, rows, points, side=side)
        assert table.shape == (rows.shape[0], points.size)
        for k, z in enumerate(points):
            assert np.array_equal(bits(table[:, k]), bits(evaluate_rows(grid, rows, z, side=side)))
            assert type(read(float(z))) is float
            assert bits(read(float(z))) == bits(table[0, k])
        assert np.array_equal(bits(read(points)), bits(table[0]))
        assert np.array_equal(bits(read(points.reshape(-1, 1))), bits(table[0]).reshape(-1, 1))
    quantiles = f.quantile(levels)
    for a, q in zip(levels, quantiles):
        assert bits(q) == bits(f.quantile(float(a))) == bits(quantile_rows(grid, rows[:1], a)[0])
    for bad in (np.nan, 0.0, 1.0):
        if np.isnan(bad):  # a NaN point raises too, where it would read as lying above every jump
            for read in (f.evaluate, f.left_limit, lambda z: evaluate_grid(grid, rows, z),
                         lambda z: evaluate_rows(grid, rows, z), lambda z: evaluate_rows(grid, rows, z, side="left")):
                with pytest.raises(ValueError, match="must not be NaN"):
                    read(bad)
            with pytest.raises(ValueError, match="must not be NaN"):
                f.evaluate(np.append(points, bad))
        with pytest.raises(ValueError):
            f.quantile(bad)
        with pytest.raises(ValueError):
            f.quantile(np.append(levels, bad))
        with pytest.raises(ValueError):
            quantile_rows(grid, rows, bad)
