"""Right-continuous step distribution functions.

The row functions act on many CDFs that share one jump grid, stored as
a (cases, grid) matrix of cumulative probabilities, and hold each rule
once: :func:`evaluate_grid` reads every row at shared points,
:func:`evaluate_rows` each row at its own point, and
:func:`quantile_rows` takes each row's quantiles.  :class:`StepCdf` is
one CDF, a one-row view: ``evaluate`` and ``left_limit`` call
:func:`evaluate_grid`, ``quantile`` calls :func:`quantile_rows`, and
``from_sample`` finds its jumps with :func:`distinct_sorted`.
:func:`check_grid`, :func:`check_cdf_rows`, :func:`check_weights` and
:func:`check_span` hold the input rules.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepCdf", "evaluate_grid", "evaluate_rows", "quantile_rows"]

#: Cases per block where a batch path works through (cases, grid)
#: matrices a block at a time, to bound its memory.
CASE_BLOCK = 256


class StepCdf:
    """A finite step CDF: jump points with cumulative probabilities.

    ``jumps`` is a grid and ``cum`` a CDF row on it (:func:`check_grid`,
    :func:`check_cdf_rows`).  Evaluation is right-continuous: F(z) is
    the cumulative probability at the largest jump <= z, and 0 before
    the first jump.
    """

    __slots__ = ("jumps", "cum")

    def __init__(self, jumps, cum, *, validate: bool = True):
        self.jumps, self.cum = np.array(jumps, dtype=float), np.array(cum, dtype=float)
        if validate:
            check_cdf_rows(check_grid(self.jumps, "jumps"), self.cum[None])
        self.jumps.setflags(write=False)
        self.cum.setflags(write=False)

    @classmethod
    def from_sample(cls, values, weights=None) -> "StepCdf":
        """Weighted empirical CDF of a sample; a ValueError if it is empty."""
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            raise ValueError("an empirical CDF needs a sample of at least one value")
        jumps = distinct_sorted(v)
        mass = np.bincount(np.searchsorted(jumps, v), weights=check_weights(weights, v.size), minlength=jumps.size)
        cum = np.cumsum(mass)
        cum /= cum[-1]
        cum[-1] = 1.0
        return cls(jumps, cum)

    @classmethod
    def point_mass(cls, value: float) -> "StepCdf":
        return cls([value], [1.0])

    def evaluate(self, z):
        """F(z), vectorized over ``z``: the one row of :func:`evaluate_grid`."""
        out = evaluate_grid(self.jumps, self.cum[None, :], z)[0]
        return float(out) if np.isscalar(z) else out

    def left_limit(self, z):
        """F(z-), the limit from below, vectorized over ``z``."""
        out = evaluate_grid(self.jumps, self.cum[None, :], z, side="left")[0]
        return float(out) if np.isscalar(z) else out

    def quantile(self, alpha):
        """Smallest jump with cumulative probability >= alpha, the one
        row of :func:`quantile_rows`; ``alpha`` a level or an array."""
        out = quantile_rows(self.jumps, self.cum[None, :], alpha)[0]
        return float(out) if np.isscalar(alpha) else out

    def masses(self) -> np.ndarray:
        """Probability mass at each jump."""
        return np.diff(self.cum, prepend=0.0)

    def __repr__(self):
        return f"StepCdf({self.jumps.tolist()}, {self.cum.tolist()})"


def distinct_sorted(values) -> np.ndarray:
    """The sorted distinct entries of a 1-d array; of ``0.0`` and
    ``-0.0`` the one the sort puts first.  Every grid is built here, so
    a fit's thresholds and its climatology's jumps hold the same zero."""
    ranked = np.sort(np.asarray(values, dtype=float).ravel())
    first = np.empty(ranked.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return ranked[first]


def grid_rows(grid, rows) -> tuple[np.ndarray, np.ndarray]:
    """``grid`` and ``rows`` as float arrays; a ValueError unless ``rows``
    is a (cases, grid) matrix, with one column per grid point."""
    grid = np.asarray(grid, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if grid.ndim != 1 or rows.ndim != 2 or rows.shape[1] != grid.size:
        raise ValueError(f"rows of shape {rows.shape} do not fit a grid of shape {grid.shape}")
    return grid, rows


def check_grid(grid, what: str) -> np.ndarray:
    """``grid`` as a float array; a ValueError, naming ``what`` it is,
    unless it is 1-d, nonempty, finite and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if not (grid.ndim == 1 and grid.size and np.isfinite(grid).all() and np.all(grid[1:] > grid[:-1])):
        raise ValueError(f"{what} must be a nonempty, finite, strictly increasing 1-d array")
    return grid


def check_cdf_rows(grid, rows) -> np.ndarray:
    """``rows`` as a float array; a ValueError unless they are rows on
    the checked ``grid`` (:func:`grid_rows`), each finite, nonnegative,
    nondecreasing and ending at exactly 1."""
    grid, rows = grid_rows(grid, rows)
    # a NaN fails every comparison, so rows that rise from 0 or more to 1 are finite
    if not (np.all(rows[:, 0] >= 0) and np.all(rows[:, 1:] >= rows[:, :-1]) and np.all(rows[:, -1] == 1)):
        raise ValueError("CDF rows must be finite, nonnegative and nondecreasing, and end at exactly 1")
    return rows


def check_weights(weights, n: int) -> np.ndarray:
    """``weights`` as a float array, ``n`` ones for None; a ValueError
    unless they are ``n`` finite, positive values with a finite sum, the
    smallest normal once the public chain solver scales the largest into [1, 2)."""
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights of shape {w.shape} do not give one entry to each of {n} values")
    if not (np.isfinite(w).all() and np.all(w > 0)):
        raise ValueError("weights must be finite and strictly positive")
    with np.errstate(over="ignore"):
        if not np.isfinite(w.sum()):
            raise ValueError("the sum of the weights overflows the float range")
    if n and np.ldexp(w.min(), 1 - np.frexp(w.max())[1]) < np.finfo(float).tiny:
        raise ValueError("the weights span more than the float range")
    return w


def check_span(values, what: str):
    """A ValueError, naming ``what`` they are, if ``values`` span more
    than the float range, so that their differences overflow."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.ptp(values)):
            raise ValueError(f"the span of the {what} overflows the float range")


def evaluate_rows(grid, rows, z, side: str = "right") -> np.ndarray:
    """F(z) of every row, or with ``side="left"`` the left limit F(z-);
    ``z`` is one threshold or one per row."""
    grid, rows = grid_rows(grid, rows)
    idx = np.broadcast_to(np.searchsorted(grid, _points(z), side=side), rows.shape[:1])
    return np.where(idx > 0, rows[np.arange(rows.shape[0]), np.maximum(idx - 1, 0)], 0.0)


def evaluate_grid(grid, rows, points, side: str = "right") -> np.ndarray:
    """F(z) of every row at every point z of ``points``, or with
    ``side="left"`` the left limit F(z-), 0 below the grid; an array of
    shape (cases, *points.shape)."""
    grid, rows = grid_rows(grid, rows)
    idx = np.searchsorted(grid, _points(points), side=side)
    out = np.take(rows, np.maximum(idx - 1, 0), axis=1)
    out[:, idx == 0] = 0.0
    return out


def _points(z) -> np.ndarray:
    """``z`` as a float array; a ValueError if a point is NaN, which
    would read as lying above every jump."""
    z = np.asarray(z, dtype=float)
    if np.isnan(z).any():
        raise ValueError("the points z must not be NaN")
    return z


def _levels(alpha) -> np.ndarray:
    """``alpha`` as a float array; a ValueError unless each level lies
    strictly between 0 and 1 (NaN does not)."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all((alpha > 0.0) & (alpha < 1.0)):
        raise ValueError("alpha must lie strictly between 0 and 1")
    return alpha


def quantile_rows(grid, rows, alpha) -> np.ndarray:
    """Smallest grid point at which each row reaches each level of
    ``alpha``, levels strictly between 0 and 1; an array of shape
    (cases, *alpha.shape)."""
    alpha = _levels(alpha)
    grid, rows = grid_rows(grid, rows)
    below = np.empty((rows.shape[0], alpha.size), dtype=np.intp)
    for k, a in enumerate(alpha.flat):  # one level at a time, so that one (cases, grid) mask is held
        below[:, k] = (rows < a).sum(axis=1)  # rows are nondecreasing
    return grid[np.minimum(below, grid.size - 1)].reshape(rows.shape[:1] + alpha.shape)
