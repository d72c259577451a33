"""Proper scores on step CDFs: closed forms, mixture representations,
calibration diagnostics."""

import tracemalloc

import numpy as np
import pytest

from idr import (
    StepCdf,
    brier,
    brier_rows,
    brier_score,
    crps,
    crps_rows,
    elementary_probability_score,
    elementary_quantile_score,
    evaluate_rows,
    pit,
    pit_histogram,
    pit_rows,
    pinball,
    quantile_rows,
    quantile_score,
    quantile_score_rows,
    reliability_bins,
)
from idr.stepfun import CASE_BLOCK

from mixture_check import crps_mixture_check


def random_cdf(rng, max_atoms=8):
    k = rng.integers(1, max_atoms + 1)
    jumps = np.sort(rng.choice(100, size=k, replace=False)) / 10.0
    cum = np.sort(rng.uniform(0.05, 1.0, size=k))
    cum[-1] = 1.0
    return StepCdf(jumps, cum)


# ---------------------------------------------------------------------------
# crps
# ---------------------------------------------------------------------------

def test_crps_point_mass_is_absolute_error():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.normal(size=2)
        assert crps(StepCdf.point_mass(x), y) == pytest.approx(abs(x - y), abs=1e-14)


def test_crps_two_atom_examples():
    half = StepCdf([0.0, 1.0], [0.5, 1.0])
    assert crps(half, 0.0) == pytest.approx(0.25, abs=1e-15)
    spread = StepCdf([1.0, 3.0], [0.5, 1.0])
    assert crps(spread, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_crps_closed_form_matches_quadrature():
    rng = np.random.default_rng(8)
    for _ in range(60):
        f = random_cdf(rng)
        y = rng.uniform(-2, 12)
        integral = crps_rows(f.jumps, f.cum[None, :], [y])[0]
        assert crps(f, y) == pytest.approx(integral, abs=1e-8)


def test_crps_rows_matches_scalar_crps():
    rng = np.random.default_rng(14)
    thresholds = np.sort(rng.choice(50, size=12, replace=False)).astype(float)
    rows = np.sort(rng.uniform(0.01, 1.0, size=(30, 12)), axis=1)
    rows[:, -1] = 1.0
    ys = rng.uniform(-5, 55, size=30)
    batch = crps_rows(thresholds, rows, ys)
    for r, y, s in zip(rows, ys, batch):
        assert s == pytest.approx(crps(StepCdf(thresholds, r), y), abs=1e-12)
    # outcomes or thresholds further apart than the float range
    with pytest.raises(ValueError, match="overflows"):
        crps_rows(thresholds, rows[:2], [-1e308, 1e308])
    with pytest.raises(ValueError, match="overflows"):
        crps_rows([0.0, 1e308], [[0.5, 1.0]], [-1e308])


def test_crps_rows_holds_three_blocks_and_keeps_the_dense_bits():
    """crps_rows works through a (CASE_BLOCK, grid) block in place: it
    peaks at three buffers of the block's size (the grid's widths and
    numpy's own ufunc buffer aside), and its scores equal the dense
    formula's bit for bit."""
    rng = np.random.default_rng(15)
    thresholds = np.cumsum(rng.uniform(0.001, 0.01, size=4000)) - 20.0
    rows = np.sort(rng.uniform(size=(CASE_BLOCK, 4000)), axis=1)
    rows[:, -1] = 1.0
    ys = rng.uniform(-25, 25, size=CASE_BLOCK)
    tracemalloc.start()
    try:
        scores = crps_rows(thresholds, rows, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.05 * rows.nbytes, peak / rows.nbytes
    z, f = thresholds, rows[:, :-1]
    widths = np.diff(z)
    below = np.clip(ys[:, None] - z[:-1], 0.0, widths)
    dense = (below * f**2 + (widths - below) * (1.0 - f) ** 2).sum(axis=1)
    dense += np.clip(z[0] - ys, 0.0, None) + np.clip(ys - z[-1], 0.0, None)
    assert np.array_equal(scores.view(np.uint64), dense.view(np.uint64))


def test_crps_propriety_spot_check():
    """Scoring draws from F with F itself beats scoring them with G."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        f = random_cdf(rng)
        g = random_cdf(rng)
        sample = rng.choice(f.jumps, size=4000, p=f.masses())
        mean_f = np.mean([crps(f, y) for y in sample[:400]])
        mean_g = np.mean([crps(g, y) for y in sample[:400]])
        assert mean_f <= mean_g + 0.08


# ---------------------------------------------------------------------------
# quantile and elementary scores
# ---------------------------------------------------------------------------

def test_quantile_score_examples():
    f = StepCdf.point_mass(2.0)
    assert quantile_score(f, 0.5, 2.0) == 0.0
    assert quantile_score(f, 0.5, 4.0) == pytest.approx(1.0)
    g = StepCdf.point_mass(5.0)
    assert quantile_score(g, 0.9, 1.0) == pytest.approx(0.4)


def test_quantile_score_rejects_bad_alpha():
    with pytest.raises(ValueError):
        quantile_score(StepCdf.point_mass(0.0), 1.0, 0.0)


def test_elementary_quantile_score_branches():
    # quantile at 3: y <= theta < q pays 1 - alpha
    f = StepCdf.point_mass(3.0)
    assert elementary_quantile_score(f, 0.5, 2.0, 1.0) == pytest.approx(0.5)
    # theta below both y and the quantile pays nothing
    assert elementary_quantile_score(f, 0.5, 0.5, 1.0) == 0.0
    # q <= theta < y pays alpha
    g = StepCdf.point_mass(1.0)
    assert elementary_quantile_score(g, 0.5, 2.0, 4.0) == pytest.approx(0.5)


def test_elementary_probability_score_branches():
    f = StepCdf([10.0], [1.0])
    z = 1.0  # F(z) = 0 < c
    assert elementary_probability_score(f, z, 0.3, 0.5) == pytest.approx(0.7)
    assert elementary_probability_score(f, z, 0.3, 5.0) == 0.0
    g = StepCdf([0.0, 20.0], [0.9, 1.0])
    assert elementary_probability_score(g, 1.0, 0.3, 5.0) == pytest.approx(0.3)


def test_brier_score_values():
    f = StepCdf.point_mass(0.0)
    assert brier_score(f, 1.0, 0.5) == 0.0  # F=1 and the event happened
    g = StepCdf([0.0, 2.0], [0.5, 1.0])
    assert brier_score(g, 1.0, 99.0) == pytest.approx(0.25)
    h = StepCdf([0.0, 2.0], [0.2, 1.0])
    assert brier_score(h, 1.0, 0.5) == pytest.approx(0.64)


# ---------------------------------------------------------------------------
# pit
# ---------------------------------------------------------------------------

def test_pit_point_mass_passes_v_through():
    f = StepCdf.point_mass(3.0)
    for v in (0.0, 0.25, 1.0):
        assert pit(f, 3.0, v) == v


def test_pit_below_support_is_zero():
    f = StepCdf([1.0, 2.0], [0.5, 1.0])
    assert pit(f, 0.0, 0.7) == 0.0


def test_pit_interpolates_the_jump():
    f = StepCdf([1.0, 2.0], [0.5, 1.0])
    assert pit(f, 2.0, 0.5) == pytest.approx(0.75)


def test_pit_rejects_v_outside_unit_interval():
    with pytest.raises(ValueError):
        pit(StepCdf.point_mass(0.0), 0.0, 1.5)


def test_row_forms_reject_rows_that_do_not_fit_their_grid():
    """Rows must be a (cases, grid) matrix, one column per grid point."""
    grid = [0.0, 1.0, 2.0]
    for rows in ([[0.5, 1.0]], [[0.2, 0.5, 0.7, 1.0]], [0.5, 1.0, 1.0], [[[0.5, 1.0, 1.0]]]):
        calls = [
            lambda: evaluate_rows(grid, rows, 0.5),
            lambda: quantile_rows(grid, rows, 0.5),
            lambda: crps_rows(grid, rows, [0.0]),
            lambda: brier_rows(grid, rows, [0.0], 0.5),
            lambda: quantile_score_rows(grid, rows, [0.0], 0.5),
            lambda: pit_rows(grid, rows, [0.0], [0.5]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="do not fit a grid"):
                call()


def test_pit_and_brier_rows_reject_nan():
    grid, rows = [0.0, 1.0], [[0.5, 1.0]]
    with pytest.raises(ValueError, match="v must lie in"):
        pit_rows(grid, rows, [0.5], [np.nan])
    with pytest.raises(ValueError, match="z must not be NaN"):
        brier_rows(grid, rows, [0.5], np.nan)
    with pytest.raises(ValueError, match="z must not be NaN"):
        pit_rows(grid, rows, [np.nan], [0.5])


def test_every_score_rejects_a_nan_outcome():
    """A NaN outcome used to count as one above z in the Brier scores
    (0.25 here), give nan from the pinball scores and ``crps``, and an
    overflow message from ``crps_rows``; ``pit`` keeps its message."""
    grid, rows = [1.0, 2.0, 3.0], [[0.2, 0.5, 1.0]]
    f = StepCdf(grid, rows[0])
    calls = [
        lambda: brier(np.array([0.5]), [np.nan], 2.0),
        lambda: brier_rows(grid, rows, [np.nan], 2.0),
        lambda: brier_score(f, 2.0, np.nan),
        lambda: pinball(np.array([2.0]), [np.nan], 0.5),
        lambda: quantile_score_rows(grid, rows, [np.nan], 0.5),
        lambda: quantile_score(f, 0.5, np.nan),
        lambda: crps(f, np.nan),
        lambda: crps_rows(grid, rows, [np.nan]),
        lambda: crps_rows(grid, rows, np.nan),
        lambda: elementary_quantile_score(f, 0.5, 2.0, np.nan),
        lambda: elementary_probability_score(f, 2.0, 0.5, np.nan),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="outcomes y must not be NaN"):
            call()
    with pytest.raises(ValueError, match="z must not be NaN"):
        pit(f, np.nan, 0.5)


def test_row_scores_take_one_outcome_for_every_case():
    """``crps_rows`` used to fail inside numpy on a scalar outcome; every
    row form scores it as that outcome repeated, bit for bit."""
    grid, rows = [1.0, 2.0, 3.0], [[0.2, 0.5, 1.0], [0.5, 0.7, 1.0]]
    for y in (0.5, 2.5, 3.0):
        for score in (crps_rows, lambda g, r, ys: brier_rows(g, r, ys, 2.0),
                      lambda g, r, ys: quantile_score_rows(g, r, ys, 0.6),
                      lambda g, r, ys: pit_rows(g, r, ys, [0.3, 0.3])):
            assert np.array_equal(score(grid, rows, y).view(np.int64), score(grid, rows, [y, y]).view(np.int64))
    assert crps_rows(grid, rows, 2.5)[0] == pytest.approx(crps(StepCdf(grid, rows[0]), 2.5), rel=1e-14)


def test_quantile_score_rows_scores_each_level_against_its_rows_outcome():
    """An array of levels gives (cases, levels), each column the
    one-level call, with outcomes matched to rows, not to levels."""
    grid, rows, ys = [1.0, 2.0, 3.0], [[0.2, 0.5, 1.0], [0.5, 0.7, 1.0]], [0.0, 4.0]
    table = quantile_score_rows(grid, rows, ys, [0.1, 0.9])
    assert table.shape == (2, 2)
    for k, a in enumerate([0.1, 0.9]):
        assert np.array_equal(table[:, k], quantile_score_rows(grid, rows, ys, a))


def test_pit_of_true_model_is_uniform():
    """Kolmogorov-Smirnov check at the 1% level for draws scored with
    their own distribution."""
    rng = np.random.default_rng(3)
    n = 10_000
    f = StepCdf([0.0, 1.0, 2.5], [0.3, 0.65, 1.0])
    ys = rng.choice(f.jumps, size=n, p=f.masses())
    vs = rng.uniform(size=n)
    z = np.sort([pit(f, y, v) for y, v in zip(ys, vs)])
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(z - grid)), np.max(np.abs(z - grid + 1 / n)))
    assert ks < 1.63 / np.sqrt(n)


# ---------------------------------------------------------------------------
# mixture representations
# ---------------------------------------------------------------------------

def test_mixture_check_point_mass():
    res = crps_mixture_check(StepCdf.point_mass(2.0), 5.0, [1000])
    for residuals in res.values():
        assert residuals[0] < 1e-3


def test_mixture_residuals_shrink_under_refinement():
    rng = np.random.default_rng(42)
    totals = {}
    for _ in range(10):
        f = random_cdf(rng, max_atoms=4)
        y = rng.uniform(-1, 11)
        res = crps_mixture_check(f, y, [200, 800, 3200])
        for name, r in res.items():
            # individual cases can wobble by a grid cell, the trend holds
            assert r[-1] <= r[0] + 1e-3, (name, r)
            assert r[-1] < 5e-3
            totals[name] = totals.get(name, np.zeros(3)) + np.array(r)
    for name, agg in totals.items():
        assert agg[0] > agg[1] > agg[2], (name, agg)


def test_mixture_check_rejects_small_grids():
    with pytest.raises(ValueError):
        crps_mixture_check(StepCdf.point_mass(0.0), 0.0, [99])


# ---------------------------------------------------------------------------
# reliability_bins
# ---------------------------------------------------------------------------

def test_reliability_all_zero_forecasts():
    rows = reliability_bins([0.0] * 50, [0] * 50, 5)
    assert rows[0][3] == 50 and rows[0][2] == 0.0
    assert all(r[3] == 0 for r in rows[1:])
    assert all(np.isnan(r[1]) for r in rows[1:])


def test_reliability_counts_partition_the_input():
    rng = np.random.default_rng(31)
    p = rng.uniform(size=500)
    o = rng.integers(0, 2, size=500)
    rows = reliability_bins(p, o, 10)
    assert sum(r[3] for r in rows) == 500
    centers = [r[0] for r in rows]
    assert np.allclose(centers, np.arange(10) / 10 + 0.05)


def test_reliability_calibrated_forecasts():
    rng = np.random.default_rng(37)
    n = 10_000
    p = rng.uniform(size=n)
    o = (rng.uniform(size=n) < p).astype(float)
    for center, forecast, freq, count in reliability_bins(p, o, 10):
        assert count > 0
        assert abs(forecast - freq) < 0.05


def _reliability_by_masks(p, o, bins):
    """The table by one boolean mask per bin: the reference."""
    idx = np.minimum((p * bins).astype(int), bins - 1)
    rows = []
    for b in range(bins):
        sel = idx == b
        count = int(sel.sum())
        center = (b + 0.5) / bins
        if count == 0:
            rows.append((center, float("nan"), float("nan"), 0))
        else:
            rows.append((center, float(p[sel].mean()), float(o[sel].mean()), count))
    return rows


def test_reliability_equals_the_per_bin_loop():
    """Bit for bit, with empty bins and forecasts of exactly 0 and 1."""
    rng = np.random.default_rng(73)
    empty = 0
    for bins in (2, 3, 10, 64, 1000, 5000):
        n = int(rng.integers(1, 600))
        p = rng.uniform(size=n) ** 3
        p[rng.random(n) < 0.1] = 0.0
        p[rng.random(n) < 0.1] = 1.0
        o = rng.integers(0, 2, size=n).astype(float)
        got, want = reliability_bins(p, o, bins), _reliability_by_masks(p, o, bins)
        assert np.array_equal(np.array(got), np.array(want), equal_nan=True), bins
        empty += sum(r[3] == 0 for r in got)
    assert empty > 0


def test_reliability_and_pit_histogram_reject_nan():
    with pytest.raises(ValueError, match="probabilities must lie in"):
        reliability_bins([0.1, np.nan, 0.9], [0.0, 1.0, 1.0], 2)
    with pytest.raises(ValueError, match="pit values must lie in"):
        pit_histogram([0.1, np.nan, 0.9], 2)


def test_pit_histogram_counts_each_value_once():
    v = np.array([0.0, 0.05, 0.1, 0.5, 0.99, 1.0, 1.0])
    table = pit_histogram(v, 10)
    assert [k for _, _, k, _ in table] == [2, 1, 0, 0, 0, 1, 0, 0, 0, 3]
    assert [f for *_, f in table] == [k / 7 for _, _, k, _ in table]
    assert [lo for lo, *_ in table] == np.linspace(0.0, 1.0, 11)[:-1].tolist()
    assert [hi for _, hi, *_ in table] == np.linspace(0.0, 1.0, 11)[1:].tolist()
    assert pit_histogram([0.3], 1) == [(0.0, 1.0, 1, 1.0)]


def test_reliability_validation():
    with pytest.raises(ValueError):
        reliability_bins([0.5], [1.0], 1)
    with pytest.raises(ValueError):
        reliability_bins([1.5], [1.0], 5)
    with pytest.raises(ValueError):
        reliability_bins([0.5, 0.5], [1.0], 5)
