"""The synthetic gamma benchmark: its simulation law and the true
conditional distributions, which score the ideal forecaster.

scipy is imported only by the functions that evaluate the gamma law,
so that importing the package (and every CLI command) stays light.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "simulate_gamma",
    "gamma_parameters",
    "true_gamma_cdf",
    "true_gamma_quantile",
    "true_gamma_crps",
]


def gamma_parameters(x):
    """Shape and scale of the benchmark's conditional law given X=x,
    defined for finite x > 0."""
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x) & (x > 0)).all():
        raise ValueError("the gamma benchmark needs finite covariates x > 0")
    return np.sqrt(x), np.clip(x, 1.0, 6.0)


def simulate_gamma(n: int, seed: int):
    """Draw (X, Y) pairs of the synthetic benchmark.

    X is uniform on (0, 10) and Y given X is gamma with shape sqrt(X)
    and scale min(max(X, 1), 6).  Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, size=n)
    shape, scale = gamma_parameters(x)
    y = rng.gamma(shape, scale)
    return x, y


def true_gamma_cdf(x, z):
    """Conditional CDF of the benchmark at covariate x, threshold z."""
    from scipy import stats

    shape, scale = gamma_parameters(x)
    return stats.gamma.cdf(z, shape, scale=scale)


def true_gamma_quantile(x, alpha):
    """Conditional quantile of the benchmark."""
    from scipy import stats

    shape, scale = gamma_parameters(x)
    return stats.gamma.ppf(alpha, shape, scale=scale)


def true_gamma_crps(x, y):
    """CRPS of the true conditional law, in closed form (vectorized)."""
    from scipy import special, stats

    shape, scale = gamma_parameters(x)
    y = np.asarray(y, dtype=float)
    f1 = stats.gamma.cdf(y, shape, scale=scale)
    f2 = stats.gamma.cdf(y, shape + 1.0, scale=scale)
    inv_beta = np.exp(special.gammaln(shape + 0.5) - special.gammaln(shape) - special.gammaln(0.5))
    return y * (2.0 * f1 - 1.0) - shape * scale * (2.0 * f2 - 1.0) - scale * inv_beta
