"""Right-continuous step distribution functions.

:class:`StepCdf` is one CDF.  The ``*_rows`` functions act on many CDFs
that share one jump grid, stored as a (cases, grid) matrix of
cumulative probabilities.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepCdf", "evaluate_rows", "quantile_rows"]

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
            if np.any(w <= 0):
                raise ValueError("weights must be strictly positive")
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
        """F(z), vectorized over ``z``."""
        idx = np.searchsorted(self.jumps, z, side="right")
        padded = np.concatenate(([0.0], self.cum))
        out = padded[idx]
        return float(out) if np.isscalar(z) else out

    def left_limit(self, z):
        """F(z-), the limit from below, vectorized over ``z``."""
        idx = np.searchsorted(self.jumps, z, side="left")
        padded = np.concatenate(([0.0], self.cum))
        out = padded[idx]
        return float(out) if np.isscalar(z) else out

    def quantile(self, alpha):
        """Smallest jump with cumulative probability >= alpha.

        ``alpha`` must lie strictly between 0 and 1 (scalar or array).
        """
        a = np.asarray(alpha, dtype=float)
        if np.any(a <= 0) or np.any(a >= 1):
            raise ValueError("alpha must lie strictly between 0 and 1")
        idx = np.searchsorted(self.cum, a, side="left")
        out = self.jumps[np.minimum(idx, self.jumps.size - 1)]
        return float(out) if np.isscalar(alpha) else out

    def masses(self) -> np.ndarray:
        """Probability mass at each jump."""
        return np.diff(self.cum, prepend=0.0)

    def __repr__(self):
        return f"StepCdf({self.jumps.tolist()}, {self.cum.tolist()})"


def evaluate_rows(grid, rows, z, side: str = "right") -> np.ndarray:
    """F(z) of every row, or with ``side="left"`` the left limit F(z-);
    ``z`` is one threshold or one per row."""
    rows = np.asarray(rows, dtype=float)
    idx = np.broadcast_to(np.searchsorted(grid, z, side=side), rows.shape[:1])
    return np.where(idx > 0, rows[np.arange(rows.shape[0]), np.maximum(idx - 1, 0)], 0.0)


def quantile_rows(grid, rows, alpha: float) -> np.ndarray:
    """Smallest grid point at which each row reaches ``alpha``, which
    must lie strictly between 0 and 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    grid = np.asarray(grid, dtype=float)
    below = (np.asarray(rows) < alpha).sum(axis=1)  # rows are nondecreasing
    return grid[np.minimum(below, grid.size - 1)]
