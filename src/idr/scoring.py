"""Proper scores and calibration diagnostics for step-function CDFs.

The row forms (``crps_rows``, ``brier_rows``, ``quantile_score_rows``,
``pit_rows``) score a batch of CDFs sharing one grid, given as a
(cases, grid) matrix, against one outcome per case; ``brier_score``,
``quantile_score`` and ``pit`` score one :class:`~idr.stepfun.StepCdf`
as a batch of one.  ``brier`` and ``pinball`` score forecast
probabilities and quantiles that come from elsewhere.  The CRPS is also
available in closed form, and through quadrature of its three mixture
representations (quantile scores over levels, elementary quantile
scores over levels and thresholds, elementary probability scores over
thresholds and probabilities), which serve as consistency checks.
"""

from __future__ import annotations

import numpy as np

from .stepfun import CASE_BLOCK, StepCdf, evaluate_rows, quantile_rows

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
    "crps_mixture_check",
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
        When the outcomes and thresholds span more than the float range,
        so that their differences would overflow.
    """
    z = np.asarray(thresholds, dtype=float)
    rows = np.asarray(rows, dtype=float)
    ys = np.asarray(ys, dtype=float)
    with np.errstate(over="ignore"):
        span = max(ys.max(), z[-1]) - min(ys.min(), z[0]) if ys.size else 0.0
    if not np.isfinite(span):
        raise ValueError("the span of the outcomes and thresholds overflows the float range")
    widths = np.diff(z)
    out = np.empty(ys.size)
    for lo in range(0, ys.size, CASE_BLOCK):
        hi = lo + CASE_BLOCK
        y = ys[lo:hi, None]
        f = rows[lo:hi, :-1]
        below = np.clip(y - z[:-1], 0.0, widths)  # segment length left of y
        out[lo:hi] = (below * f**2 + (widths - below) * (1.0 - f) ** 2).sum(axis=1)
    out += np.clip(z[0] - ys, 0.0, None) + np.clip(ys - z[-1], 0.0, None)
    return out


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
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
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
    """Brier score of each row's probability of {Y <= z}."""
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
    if np.any((v < 0.0) | (v > 1.0)):
        raise ValueError("v must lie in [0, 1]")
    ys = np.asarray(ys, dtype=float)
    lo = evaluate_rows(thresholds, rows, ys, side="left")
    hi = evaluate_rows(thresholds, rows, ys)
    return lo + v * (hi - lo)


def pit(cdf: StepCdf, y: float, v: float) -> float:
    """Randomized PIT of one CDF; see :func:`pit_rows`."""
    return float(pit_rows(cdf.jumps, cdf.cum[None, :], [y], [v])[0])


def _midpoints(n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _mixture_quantile(cdf: StepCdf, y: float, n: int) -> float:
    alphas = _midpoints(n)
    return 2.0 * float(pinball(cdf.quantile(alphas), y, alphas).mean())


def _mixture_quantile_theta(cdf: StepCdf, y: float, n: int, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    alphas = _midpoints(n)
    q = cdf.quantile(alphas)
    theta = _midpoints(n, lo, hi)

    def count(a, b):  # grid points theta in [a, b), per level
        return np.maximum(np.searchsorted(theta, b) - np.searchsorted(theta, a), 0)

    # 1 - alpha where y <= theta < q, alpha where q <= theta < y
    total = ((1.0 - alphas) * count(y, q) + alphas * count(q, y)).sum()
    return 2.0 * (hi - lo) * float(total) / (n * n)


def _mixture_probability(cdf: StepCdf, y: float, n: int, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    cs = _midpoints(n)
    z = _midpoints(n, lo, hi)
    k = np.searchsorted(cs, cdf.evaluate(z), side="right")  # levels c <= F(z)
    # 1 - c over the levels above F(z) where y <= z, c over the rest where y > z
    upper = np.concatenate(([0.0], np.cumsum((1.0 - cs)[::-1])))[::-1]
    lower = np.concatenate(([0.0], np.cumsum(cs)))
    total = np.where(y <= z, upper[k], lower[k]).sum()
    return 2.0 * (hi - lo) * float(total) / (n * n)


def crps_mixture_check(cdf: StepCdf, y: float, grid_sizes) -> dict[str, list[float]]:
    """Quadrature residuals of the CRPS mixture representations.

    Evaluates the CRPS as twice the integral of the quantile score over
    levels, twice the double integral of elementary quantile scores,
    and twice the double integral of elementary probability scores, on
    midpoint grids of the given sizes.  Returns, per representation,
    the absolute deviations from the closed form; these shrink as the
    grids refine.
    """
    sizes = [int(s) for s in grid_sizes]
    if any(s < 100 for s in sizes):
        raise ValueError("grid sizes must be at least 100")
    ref = crps(cdf, y)
    lo = min(float(cdf.jumps[0]), y)
    hi = max(float(cdf.jumps[-1]), y)
    res: dict[str, list[float]] = {"quantile": [], "quantile_theta": [], "probability": []}
    for n in sizes:
        res["quantile"].append(abs(_mixture_quantile(cdf, y, n) - ref))
        res["quantile_theta"].append(abs(_mixture_quantile_theta(cdf, y, n, lo, hi) - ref))
        res["probability"].append(abs(_mixture_probability(cdf, y, n, lo, hi) - ref))
    return res


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
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    if bins < 2:
        raise ValueError("need at least 2 bins")
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
