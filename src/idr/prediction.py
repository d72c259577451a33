"""Prediction at arbitrary covariate values from a fitted model.

A query order-equivalent to a training point reproduces its fitted CDF.
Otherwise the fitted CDFs of the direct predecessors give an upper
bound and those of the direct successors a lower bound; the prediction
averages the two, falls back to the available bound when only one side
exists, and to the climatological distribution when the query is
incomparable to every node.  Models over a single totally ordered
covariate additionally support linear interpolation between the
neighboring fitted CDFs.

:func:`predict_batch` is the one implementation of this rule: it takes
a covariate matrix and returns the centre and bound rows on the model
grid with a provenance per case.  It finds the neighbours of the whole
batch at once, by binary search on a chain and from (cases, nodes)
comparison masks on any other order.  :func:`predict_cdf`,
:func:`interpolate_total_order`, :func:`predict_rows` and the neighbour
lists :func:`direct_predecessors` and :func:`direct_successors` are
views of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fitting import IdrModel
from .orders import TOTAL, _canonical_keys
from .stepfun import StepCdf

__all__ = [
    "Provenance",
    "Prediction",
    "PredictionBatch",
    "direct_predecessors",
    "direct_successors",
    "predict_batch",
    "predict_cdf",
    "predict_rows",
    "interpolate_total_order",
]


class Provenance(enum.Enum):
    """How a prediction was assembled."""

    AT_TRAINING_POINT = "at_training_point"
    BOTH_BOUNDS = "both_bounds"
    ONLY_PREDECESSORS = "only_predecessors"
    ONLY_SUCCESSORS = "only_successors"
    CLIMATOLOGICAL = "climatological"
    INTERPOLATED = "interpolated"


#: Provenances from the weakest to the strongest support.
_PROVENANCE_ORDER = (
    Provenance.CLIMATOLOGICAL,
    Provenance.ONLY_SUCCESSORS,
    Provenance.ONLY_PREDECESSORS,
    Provenance.INTERPOLATED,
    Provenance.BOTH_BOUNDS,
    Provenance.AT_TRAINING_POINT,
)


@dataclass(frozen=True)
class Prediction:
    """Predictive CDF with its consistency bounds.

    ``lower``/``upper`` bracket any CDF that would keep the extended
    model monotone; they are present only when the corresponding side
    of the order relation holds training points.  ``bound_gap`` is the
    largest pointwise gap between the bounds, a rough measure of how
    much the order constraints pin the prediction down.
    ``bounds_heuristic`` marks bounds that were averaged across
    subsample members rather than derived from a single fit.
    """

    cdf: StepCdf
    lower: StepCdf | None
    upper: StepCdf | None
    provenance: Provenance
    bound_gap: float | None
    bounds_heuristic: bool = False

    def quantile(self, alpha):
        return self.cdf.quantile(alpha)


@dataclass(frozen=True)
class PredictionBatch:
    """Predictions for a batch of queries on one threshold grid.

    ``center``, ``lower`` and ``upper`` are (cases, grid) matrices of
    CDF values; a bound row is NaN where its side of the order holds no
    training point.  ``provenance`` has one entry per case.
    ``bounds_heuristic`` marks bounds averaged across subsample members.
    """

    grid: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    provenance: list[Provenance]
    bounds_heuristic: bool = False

    @property
    def bound_gap(self) -> np.ndarray:
        """Largest gap between the bounds per case; NaN without both."""
        return (self.upper - self.lower).max(axis=1)

    def prediction(self, i: int) -> Prediction:
        """Case ``i`` as a :class:`Prediction`."""
        lower, upper = (
            None if np.isnan(rows[i, 0]) else StepCdf(self.grid, rows[i], validate=False)
            for rows in (self.lower, self.upper)
        )
        gap = float((self.upper[i] - self.lower[i]).max())
        heuristic = self.bounds_heuristic and (lower is not None or upper is not None)
        cdf = StepCdf(self.grid, self.center[i], validate=False)
        return Prediction(cdf, lower, upper, self.provenance[i], None if np.isnan(gap) else gap, heuristic)


def _neighbors(model: IdrModel, x: np.ndarray):
    """See :meth:`OrderDag.query_neighbors`."""
    return model.dag.query_neighbors(_canonical_keys(model.spec, x))


def direct_predecessors(model: IdrModel, x) -> list[int]:
    """Nodes whose keys lie at-or-below ``x`` with nothing between.

    A query at a training point returns exactly that node.
    """
    _, pred, _ = _neighbors(model, _one_row(x))
    return np.nonzero(pred[0])[0].tolist()


def direct_successors(model: IdrModel, x) -> list[int]:
    """Nodes whose keys lie at-or-above ``x`` with nothing between."""
    _, _, succ = _neighbors(model, _one_row(x))
    return np.nonzero(succ[0])[0].tolist()


def _chain_neighbors(model: IdrModel, x: np.ndarray):
    """For a model over one total-order covariate: per query, the
    largest node at-or-below it (-1 if none) and the smallest node
    at-or-above it (n if none), equal at a training key.  None for
    any other model."""
    groups = model.spec.groups
    if len(groups) != 1 or groups[0].relation != TOTAL:
        return None
    col = x[:, groups[0].columns[0]]
    if not np.isfinite(col).all():
        raise ValueError("covariate entries must be finite (no NaN/inf)")
    keys = model.dag.cmp_matrix[:, 0]
    above = np.searchsorted(keys, col, side="left")
    exact = (above < keys.size) & (keys[np.minimum(above, keys.size - 1)] == col)
    return col, keys, np.where(exact, above, above - 1), above


def _bound_rows(model: IdrModel, x: np.ndarray):
    """Lower and upper bound rows (NaN where a side is empty) and the
    mask of queries at a training point."""
    cdf = model.cdf
    chain = _chain_neighbors(model, x)
    if chain is not None:
        _, _, below, above = chain
        upper = np.take(cdf, below, axis=0, mode="clip")
        lower = np.take(cdf, above, axis=0, mode="clip")
        upper[below < 0] = np.nan
        lower[above == cdf.shape[0]] = np.nan
        return lower, upper, below == above
    # at a training point both masks hold its node alone, so both bounds are its row
    exact, pred, succ = _neighbors(model, x)
    return _reduce_rows(np.maximum, cdf, succ), _reduce_rows(np.minimum, cdf, pred), exact


def _reduce_rows(ufunc, cdf: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per case, ``ufunc`` over the CDF rows of the nodes in its mask
    row; NaN where the row is empty."""
    out = np.full((mask.shape[0], cdf.shape[1]), np.nan)
    cases, nodes = np.nonzero(mask)
    if nodes.size:
        has, starts = np.unique(cases, return_index=True)
        out[has] = ufunc.reduceat(cdf[nodes], starts, axis=0)
    return out


def _interpolated(model: IdrModel, x: np.ndarray) -> PredictionBatch:
    chain = _chain_neighbors(model, x)
    if chain is None:
        raise ValueError("interpolation needs a model over a single total-order covariate")
    col, keys, below, above = chain
    # outside the keys both neighbours are the nearest end node
    lo, hi = np.maximum(below, 0), np.minimum(above, keys.size - 1)
    upper, lower = model.cdf[lo], model.cdf[hi]
    center = upper.copy()
    inside = lo != hi
    t = ((col[inside] - keys[lo[inside]]) / (keys[hi[inside]] - keys[lo[inside]]))[:, None]
    center[inside] = (1.0 - t) * upper[inside] + t * lower[inside]
    provenance = [Provenance.INTERPOLATED] * x.shape[0]
    return PredictionBatch(model.thresholds, center, lower, upper, provenance)


def predict_batch(model: IdrModel, covariates, interpolate: bool = False) -> PredictionBatch:
    """Predict at every row of a covariate matrix.

    The lower bound is the pointwise maximum over direct successors,
    the upper bound the pointwise minimum over direct predecessors; the
    prediction is their average, one of them when only one side exists,
    or the climatology when neither does.  Models over a single total
    order find the neighbours by binary search; other orders take them
    for all cases at once from the comparison masks of the DAG.

    With ``interpolate`` the prediction instead interpolates linearly
    between the neighbouring fitted CDFs of a single total-order
    covariate, bracketed by those two CDFs.  Queries below the smallest
    key take the first fitted CDF, queries above the largest the last.

    A 1-d ``covariates`` is read as one column.
    """
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] < model.spec.dimension:
        raise ValueError(f"covariates of shape {x.shape} do not fit the order spec")
    if interpolate:
        return _interpolated(model, x)
    lower, upper, exact = _bound_rows(model, x)
    has_lower, has_upper = ~np.isnan(lower[:, 0]), ~np.isnan(upper[:, 0])
    # at a training point both bounds are the node's row, and x + x halves to x exactly
    center = 0.5 * (lower + upper)
    center[~has_upper] = lower[~has_upper]
    center[~has_lower] = upper[~has_lower]
    center[~has_lower & ~has_upper] = model.climatology.evaluate(model.thresholds)
    # indices into _PROVENANCE_ORDER
    codes = np.select([exact, has_lower & has_upper, has_upper, has_lower], [5, 4, 2, 1], 0)
    return PredictionBatch(model.thresholds, center, lower, upper, [_PROVENANCE_ORDER[c] for c in codes])


def _one_row(x) -> np.ndarray:
    """A single covariate vector as a one-row matrix."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d covariate vector, got shape {v.shape}")
    return v[None, :]


def predict_cdf(model: IdrModel, x) -> Prediction:
    """Predict at one covariate vector: a batch of one."""
    return predict_batch(model, _one_row(x)).prediction(0)


def predict_rows(model: IdrModel, covariates) -> tuple[np.ndarray, list[Provenance]]:
    """The (cases, thresholds) centre matrix of :func:`predict_batch`
    and the per-case provenance."""
    batch = predict_batch(model, covariates)
    return batch.center, batch.provenance


def interpolate_total_order(model: IdrModel, x: float) -> Prediction:
    """Linear interpolation between neighboring fitted CDFs at one
    scalar covariate; see :func:`predict_batch`."""
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size != 1:
        raise ValueError("interpolation takes a single scalar covariate")
    return predict_batch(model, np.full((1, model.spec.dimension), arr[0]), interpolate=True).prediction(0)
