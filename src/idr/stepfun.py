"""Right-continuous step distribution functions.

The row functions act on many CDFs that share one jump grid, stored as
a (cases, grid) matrix of cumulative probabilities, and hold each rule
once: :func:`evaluate_grid` reads every row at shared points,
:func:`evaluate_rows` each row at its own point, and
:func:`quantile_rows` takes each row's quantile.  :class:`StepCdf` is
one CDF; its ``evaluate`` and ``left_limit`` are one-row calls of
:func:`evaluate_grid`, and its ``quantile`` checks the levels as
:func:`quantile_rows` does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepCdf", "evaluate_grid", "evaluate_rows", "quantile_rows"]

#: Cases per block where a batch path works through (cases, grid)
#: matrices a block at a time, to bound its memory.
CASE_BLOCK = 256


class StepCdf:
    """A finite step CDF: jump points with cumulative probabilities.

    ``jumps`` is strictly increasing, ``cum`` is nondecreasing with
    final value exactly 1.  Evaluation is right-continuous: F(z) is the
    cumulative probability at the largest jump <= z, and 0 before the
    first jump.
    """

    __slots__ = ("jumps", "cum")

    def __init__(self, jumps, cum, *, validate: bool = True):
        jumps = np.array(jumps, dtype=float)
        cum = np.array(cum, dtype=float)
        if validate:
            if jumps.ndim != 1 or cum.ndim != 1 or jumps.size != cum.size:
                raise ValueError("jumps and cum must be 1-d arrays of equal length")
            if jumps.size == 0:
                raise ValueError("a step CDF needs at least one jump")
            if not np.isfinite(jumps).all() or not np.isfinite(cum).all():
                raise ValueError("jumps and cum must be finite")
            if jumps.size > 1 and not np.all(np.diff(jumps) > 0):
                raise ValueError("jumps must be strictly increasing")
            if np.any(np.diff(cum) < 0) or cum[0] < 0:
                raise ValueError("cum must be nondecreasing and nonnegative")
            if cum[-1] != 1.0:
                raise ValueError("cum must end at exactly 1")
        jumps.setflags(write=False)
        cum.setflags(write=False)
        self.jumps = jumps
        self.cum = cum

    @classmethod
    def from_sample(cls, values, weights=None) -> "StepCdf":
        """Weighted empirical CDF of a sample."""
        v = np.asarray(values, dtype=float)
        if weights is None:
            w = np.ones_like(v)
        else:
            w = np.asarray(weights, dtype=float)
            if not np.isfinite(w).all() or np.any(w <= 0):
                raise ValueError("weights must be finite and strictly positive")
        jumps, inverse = np.unique(v, return_inverse=True)
        mass = np.bincount(inverse, weights=w, minlength=jumps.size)
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
        """Smallest jump with cumulative probability >= alpha.

        ``alpha`` must lie strictly between 0 and 1 (scalar or array).
        """
        idx = np.searchsorted(self.cum, _levels(alpha), side="left")
        out = self.jumps[np.minimum(idx, self.jumps.size - 1)]
        return float(out) if np.isscalar(alpha) else out

    def masses(self) -> np.ndarray:
        """Probability mass at each jump."""
        return np.diff(self.cum, prepend=0.0)

    def __repr__(self):
        return f"StepCdf({self.jumps.tolist()}, {self.cum.tolist()})"


def distinct_sorted(values) -> np.ndarray:
    """The sorted distinct entries of a 1-d array, bit for bit as
    ``np.unique(values)`` gives them (of ``0.0`` and ``-0.0`` the one its
    sort puts first).  ``np.unique`` without ``return_inverse`` first asks
    ``np.ma.is_masked``, which imports ``numpy.ma`` (tens of ms a process)."""
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


def quantile_rows(grid, rows, alpha: float) -> np.ndarray:
    """Smallest grid point at which each row reaches ``alpha``, which
    must lie strictly between 0 and 1."""
    alpha = _levels(alpha)
    grid, rows = grid_rows(grid, rows)
    below = (rows < alpha).sum(axis=1)  # rows are nondecreasing
    return grid[np.minimum(below, grid.size - 1)]
