"""Proper scores and calibration diagnostics for step-function CDFs.

The row forms (``crps_rows``, ``brier_rows``, ``quantile_score_rows``,
``pit_rows``) score a batch of CDFs sharing one grid, given as a
(cases, grid) matrix, against one outcome per case; ``brier_score``,
``quantile_score`` and ``pit`` score one :class:`~idr.stepfun.StepCdf`
as a batch of one.  ``brier`` and ``pinball`` score forecast
probabilities and quantiles that come from elsewhere.  The CRPS is also
available in closed form for one step CDF, and the elementary quantile
and probability scores that its mixture representations integrate.
"""

from __future__ import annotations

import numpy as np

from .stepfun import CASE_BLOCK, StepCdf, check_span, evaluate_rows, grid_rows, quantile_rows

__all__ = [
    "crps",
    "crps_rows",
    "brier",
    "brier_rows",
    "brier_score",
    "pinball",
    "quantile_score_rows",
    "quantile_score",
    "pit_rows",
    "pit",
    "elementary_quantile_score",
    "elementary_probability_score",
    "pit_histogram",
    "reliability_bins",
]

def crps(cdf: StepCdf, y: float) -> float:
    """Continuous ranked probability score, exact closed form.

    For atoms t_k with masses p_k this is
    sum_k p_k |t_k - y| - 0.5 sum_{k,l} p_k p_l |t_k - t_l|.
    """
    t = cdf.jumps
    p = cdf.masses()
    term1 = float((p * np.abs(t - y)).sum())
    # atoms are sorted, so the pairwise sum telescopes via prefix sums
    pref_mass = np.concatenate(([0.0], np.cumsum(p)[:-1]))
    pref_moment = np.concatenate(([0.0], np.cumsum(p * t)[:-1]))
    pairwise = float((p * (t * pref_mass - pref_moment)).sum())
    return term1 - pairwise


def crps_rows(thresholds, rows, ys) -> np.ndarray:
    """CRPS for many step CDFs sharing one threshold grid.

    Parameters
    ----------
    thresholds : array_like, shape (m,)
        Common, strictly increasing jump points.
    rows : array_like, shape (cases, m)
        Cumulative probabilities per case; each row ends at 1.
    ys : array_like, shape (cases,)
        Outcomes.

    Returns
    -------
    numpy.ndarray, shape (cases,)

    Raises
    ------
    ValueError
        When ``rows`` do not fit the grid, or the outcomes and thresholds
        span more than the float range, so their differences overflow.
    """
    z, rows = grid_rows(thresholds, rows)
    ys = np.asarray(ys, dtype=float)
    check_span(np.concatenate([ys, z]), "outcomes and thresholds")
    widths = np.diff(z)
    out = np.empty(ys.size)
    for lo in range(0, ys.size, CASE_BLOCK):
        hi = lo + CASE_BLOCK
        f = rows[lo:hi, :-1]
        below = np.clip(ys[lo:hi, None] - z[:-1], 0.0, widths)  # segment length left of y
        left = below * f**2
        # (widths - below) * (1 - f)**2 in place, so that three (block, grid) arrays are held
        right = np.subtract(1.0, f)
        right **= 2
        right *= np.subtract(widths, below, out=below)
        out[lo:hi] = np.add(left, right, out=left).sum(axis=1)
    out += np.clip(z[0] - ys, 0.0, None) + np.clip(ys - z[-1], 0.0, None)
    return out


def finite_mean(values, weights=None) -> float:
    """Weighted mean of finite ``values`` (unit weights when omitted):
    ``(w * v).sum() / w.sum()``, bit for bit, where that sum is finite.
    Where it overflows, values and weights are first scaled by powers
    of two into [-1, 1], which is exact but for underflow, so the mean
    stays within the values' range."""
    v = np.asarray(values, dtype=float)
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):
        total = (w * v).sum()
        if np.isfinite(total):
            return float(total / w.sum())
        w, ev = np.ldexp(w, -np.frexp(w.max())[1]), np.frexp(np.abs(v).max())[1]
        mean = np.ldexp((w * np.ldexp(v, -ev)).sum() / w.sum(), ev)
    return float(np.clip(mean, v.min(), v.max()))


def pinball(q, y, alpha):
    """Pinball loss of quantile forecasts ``q`` at level ``alpha``."""
    return np.where(y <= q, (1.0 - alpha) * (q - y), alpha * (y - q))


def quantile_score_rows(thresholds, rows, ys, alpha: float) -> np.ndarray:
    """Pinball loss of each row's alpha-quantile against its outcome."""
    return pinball(quantile_rows(thresholds, rows, alpha), np.asarray(ys, dtype=float), alpha)


def quantile_score(cdf: StepCdf, alpha: float, y: float) -> float:
    """Pinball loss of the fitted alpha-quantile against outcome y."""
    return float(quantile_score_rows(cdf.jumps, cdf.cum[None, :], [y], alpha)[0])


def elementary_quantile_score(cdf: StepCdf, alpha: float, theta: float, y: float) -> float:
    """Elementary score for the alpha-quantile at location theta.

    Scores 1 - alpha when the outcome is at or below theta while the
    forecast quantile lies above it, alpha in the mirrored case, and 0
    otherwise.
    """
    q = cdf.quantile(alpha)
    if y <= theta < q:
        return 1.0 - alpha
    if q <= theta < y:
        return alpha
    return 0.0


def elementary_probability_score(cdf: StepCdf, z: float, c: float, y: float) -> float:
    """Elementary score for the exceedance forecast at threshold z."""
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie strictly between 0 and 1")
    f = cdf.evaluate(z)
    if f < c and y <= z:
        return 1.0 - c
    if f >= c and y > z:
        return c
    return 0.0


def brier(p, y, z):
    """Squared error of forecast probabilities ``p`` of {Y <= z}."""
    return (p - (np.asarray(y) <= z)) ** 2


def brier_rows(thresholds, rows, ys, z: float) -> np.ndarray:
    """Brier score of each row's probability of {Y <= z}, z not NaN."""
    return brier(evaluate_rows(thresholds, rows, z), ys, z)


def brier_score(cdf: StepCdf, z: float, y: float) -> float:
    """Squared error of the forecast probability of {Y <= z}."""
    return float(brier_rows(cdf.jumps, cdf.cum[None, :], [y], z)[0])


def pit_rows(thresholds, rows, ys, v) -> np.ndarray:
    """Randomized probability integral transform of each row.

    ``v`` in [0, 1] (one per row) interpolates across any probability
    mass at the outcome: F(y-) + v (F(y) - F(y-)).  Callers draw ``v``
    from their own seeded generator.
    """
    v = np.asarray(v, dtype=float)
    if not np.all((v >= 0.0) & (v <= 1.0)):  # NaN fails too
        raise ValueError("v must lie in [0, 1]")
    ys = np.asarray(ys, dtype=float)
    lo = evaluate_rows(thresholds, rows, ys, side="left")
    hi = evaluate_rows(thresholds, rows, ys)
    return lo + v * (hi - lo)


def pit(cdf: StepCdf, y: float, v: float) -> float:
    """Randomized PIT of one CDF; see :func:`pit_rows`."""
    return float(pit_rows(cdf.jumps, cdf.cum[None, :], [y], [v])[0])


def _bin_index(values: np.ndarray, bins: int, what: str) -> np.ndarray:
    """The equal-width bin on [0, 1] of each value, 1 in the last bin;
    a ValueError for values outside [0, 1] or NaN."""
    if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN fails too
        raise ValueError(f"{what} must lie in [0, 1]")
    return np.minimum((values * bins).astype(int), bins - 1)


def pit_histogram(values, bins: int):
    """Equal-width histogram of PIT values on [0, 1].

    Returns
    -------
    list of (bin_low, bin_high, count, frequency), one per bin
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0 or bins < 1:
        raise ValueError("need a non-empty 1-d array of pit values and at least 1 bin")
    counts = np.bincount(_bin_index(v, bins, "pit values"), minlength=bins)
    edges = np.linspace(0.0, 1.0, bins + 1)
    return [(float(edges[b]), float(edges[b + 1]), int(counts[b]), float(counts[b] / v.size)) for b in range(bins)]


def reliability_bins(probabilities, outcomes, bins: int):
    """Equal-width reliability table on [0, 1].

    Parameters
    ----------
    probabilities : array_like
        Forecast probabilities in [0, 1].
    outcomes : array_like
        Binary event indicators.
    bins : int
        Number of bins, at least 2.  Empty bins are emitted with
        count 0 and NaN forecast/frequency entries.

    Returns
    -------
    list of (bin_center, mean_forecast, event_frequency, count)
    """
    p = np.asarray(probabilities, dtype=float)
    o = np.asarray(outcomes, dtype=float)
    if p.shape != o.shape or p.ndim != 1:
        raise ValueError("probabilities and outcomes must be 1-d of equal length")
    if bins < 2:
        raise ValueError("need at least 2 bins")
    idx = _bin_index(p, bins, "probabilities")
    # a stable sort keeps each bin's cases in input order, as its mask would
    ends = np.cumsum(np.bincount(idx, minlength=bins))
    rows = []
    for b, sel in enumerate(np.split(np.argsort(idx, kind="stable"), ends[:-1])):
        center = (b + 0.5) / bins
        if sel.size == 0:
            rows.append((center, float("nan"), float("nan"), 0))
        else:
            rows.append((center, float(p[sel].mean()), float(o[sel].mean()), sel.size))
    return rows
