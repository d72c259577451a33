"""Quadrature of the CRPS mixture representations, a consistency check
of the closed form: twice the integral of the quantile score over
levels, twice the double integral of elementary quantile scores over
levels and thresholds, and twice the double integral of elementary
probability scores over thresholds and probabilities, each on midpoint
grids."""

import numpy as np

from idr import StepCdf, crps, pinball


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
