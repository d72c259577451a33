"""Prediction at arbitrary covariate values from a fitted model.

A query order-equivalent to a training point reproduces its fitted CDF.
Otherwise the fitted CDFs of the direct predecessors give an upper
bound and those of the direct successors a lower bound; the prediction
averages the two, falls back to the available bound when only one side
exists, and to the climatological distribution when the query is
incomparable to every node.  Models over a single totally ordered
covariate additionally support linear interpolation between the
neighboring fitted CDFs.

:func:`predict_batch` is the one implementation of this rule, for plain
and subagged models: it takes a covariate matrix and returns the centre
and bound rows on the model grid with a provenance per case, a block
of cases at a time.  The order layer's
:meth:`~idr.orders.OrderDag.query_neighbors` finds which cases sit at
a node and the neighbours of the others; this module only reduces
their fitted rows.  :func:`predict_cdf`, :func:`interpolate_total_order`,
:func:`predict_rows` and the neighbour lists :func:`direct_predecessors`
and :func:`direct_successors` are views of these two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fitting import IdrModel
from .stepfun import CASE_BLOCK, StepCdf
from .subagging import SubaggedModel

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

_SIDES = ("center", "lower", "upper")


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


def direct_predecessors(model: IdrModel, x) -> list[int]:
    """Nodes whose keys lie at-or-below ``x`` with nothing between.

    A query at a training point returns exactly that node.
    """
    _, (_, nodes), _ = model.dag.query_neighbors(_one_row(x))
    return nodes.tolist()


def direct_successors(model: IdrModel, x) -> list[int]:
    """Nodes whose keys lie at-or-above ``x`` with nothing between."""
    _, _, (_, nodes) = model.dag.query_neighbors(_one_row(x))
    return nodes.tolist()


def _reduce_rows(ufunc, cdf: np.ndarray, pairs, out: np.ndarray):
    """Per case, ``ufunc`` over the CDF rows of its nodes in the
    (cases, nodes) ``pairs``, written into ``out``; NaN where a case has
    no node."""
    cases, nodes = pairs
    if np.all(cases[1:] > cases[:-1]):
        # at most one node per case, as on a chain: copy its row, with no temporary rows
        node = np.full(out.shape[0], -1)
        node[cases] = nodes
        np.take(cdf, node, axis=0, mode="clip", out=out)
        out[node < 0] = np.nan
    else:
        out[...] = np.nan
        has, starts = np.unique(cases, return_index=True)
        out[has] = ufunc.reduceat(cdf[nodes], starts, axis=0)


def _block_rows(model: IdrModel, x: np.ndarray, out: dict) -> tuple[np.ndarray, ...]:
    """``out``'s centre, lower and upper rows for ``x``; a side it lacks is added."""
    for side in _SIDES:
        out.setdefault(side, np.empty((x.shape[0], model.thresholds.size)))
    return tuple(out[side] for side in _SIDES)


def _plain_block(model: IdrModel, x: np.ndarray, out: dict) -> np.ndarray:
    """Write a plain model's rows at the rows of ``x`` into ``out``
    (rows by side; a side it lacks is added); returns the provenance
    codes, indices into ``_PROVENANCE_ORDER``."""
    center, lower, upper = _block_rows(model, x, out)
    exact, pred, succ = model.dag.query_neighbors(x)
    # at a training point both pair lists hold its node alone, so both bounds are its row
    _reduce_rows(np.maximum, model.cdf, succ, lower)
    _reduce_rows(np.minimum, model.cdf, pred, upper)
    has_lower, has_upper = ~np.isnan(lower[:, 0]), ~np.isnan(upper[:, 0])
    # x + x halves to x exactly
    np.multiply(0.5, np.add(lower, upper, out=center), out=center)
    center[~has_upper] = lower[~has_upper]
    center[~has_lower] = upper[~has_lower]
    center[~has_lower & ~has_upper] = model.climatology.evaluate(model.thresholds)
    return np.select([exact, has_lower & has_upper, has_upper, has_lower], [5, 4, 2, 1], 0)


def _interpolated_block(model: IdrModel, x: np.ndarray, out: dict) -> np.ndarray:
    """Write into ``out`` the rows interpolated between the fitted CDFs
    of the nodes next to each row of ``x``, for a model over one
    total-order covariate; returns the provenance codes."""
    center, lower, upper = _block_rows(model, x, out)
    _, pred, succ = model.dag.query_neighbors(x)
    # outside the keys both neighbours are the nearest end node
    lo = np.zeros(x.shape[0], dtype=np.intp)
    hi = np.full(x.shape[0], model.n_nodes - 1)
    lo[pred[0]], hi[succ[0]] = pred[1], succ[1]
    np.take(model.cdf, lo, axis=0, out=upper)
    np.take(model.cdf, hi, axis=0, out=lower)
    center[...] = upper
    # a total key is its own comparison row
    keys, col = model.dag.cmp_matrix[:, 0], x[:, model.spec.total_column]
    inside = lo != hi
    t = ((col[inside] - keys[lo[inside]]) / (keys[hi[inside]] - keys[lo[inside]]))[:, None]
    center[inside] = (1.0 - t) * upper[inside] + t * lower[inside]
    return np.full(x.shape[0], 3)


def _pooled_block(model: SubaggedModel, x: np.ndarray, out: dict) -> np.ndarray:
    """Write into ``out`` (rows by side) the means over the members of
    their rows, read off on the union grid, NaN where any member's row
    is; returns the pooled provenance codes."""
    for total in out.values():
        total[...] = 0.0
    codes = []
    for member in model.members:
        rows = {}
        codes.append(_plain_block(member, x, rows))
        idx = np.searchsorted(member.thresholds, model.thresholds, side="right")
        first = np.count_nonzero(idx == 0)  # union grid points where the member's CDF is 0
        for side, total in out.items():
            total[:, first:] += np.take(rows[side], idx[first:] - 1, axis=1)
            total[np.isnan(rows[side][:, 0])] = np.nan
    for total in out.values():
        total /= len(model.members)
    codes = np.array(codes)  # both-bounds (4) where every member reports both bounds, else the weakest
    return np.where((codes >= 4).all(axis=0), 4, codes.min(axis=0))


def _predict(model, covariates, sides, interpolate: bool = False) -> PredictionBatch:
    """:func:`predict_batch` with only the rows named in ``sides`` built
    (the others are None), CASE_BLOCK cases at a time so that no
    temporary spans the batch."""
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    pooled = isinstance(model, SubaggedModel)
    if interpolate and (pooled or model.spec.total_column is None):
        raise ValueError("interpolation needs a plain model with one total-order covariate")
    block = _interpolated_block if interpolate else _pooled_block if pooled else _plain_block
    rows = {side: np.empty((x.shape[0], model.thresholds.size)) for side in sides}
    codes = np.empty(x.shape[0], dtype=np.intp)
    # at least one block, so that the order layer checks the shape of an empty batch too
    for lo in range(0, max(x.shape[0], 1), CASE_BLOCK):
        cut = slice(lo, lo + CASE_BLOCK)
        codes[cut] = block(model, x[cut], {s: rows[s][cut] for s in sides})
    provenance = [_PROVENANCE_ORDER[c] for c in codes]
    return PredictionBatch(model.thresholds, rows["center"], rows.get("lower"), rows.get("upper"), provenance,
                           bounds_heuristic=pooled)


def predict_batch(model: IdrModel | SubaggedModel, covariates, interpolate: bool = False) -> PredictionBatch:
    """Predict at every row of a covariate matrix.

    The lower bound is the pointwise maximum over direct successors,
    the upper bound the pointwise minimum over direct predecessors; the
    prediction is their average, one of them when only one side exists,
    or the climatology when neither does.  The neighbours come from
    :meth:`~idr.orders.OrderDag.query_neighbors`, which finds them by
    binary search under a single total order and by comparing each
    query with every node under any other order.

    A :class:`~idr.subagging.SubaggedModel` averages its members'
    rows on the union of their grids, a bound only where every member
    has it; the bounds are heuristic, as no single monotone fit stands
    behind them.  The provenance is the weakest member's, or
    both-bounds when every member reports both bounds.

    With ``interpolate`` the prediction of a plain model instead
    interpolates linearly between the neighbouring fitted CDFs of a
    single total-order covariate, bracketed by those two CDFs.  Queries
    below the smallest key take the first fitted CDF, queries above the
    largest the last.

    A 1-d ``covariates`` is read as one column.
    """
    return _predict(model, covariates, _SIDES, interpolate)


def _one_row(x) -> np.ndarray:
    """A single covariate vector as a one-row matrix."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d covariate vector, got shape {v.shape}")
    return v[None, :]


def predict_cdf(model: IdrModel | SubaggedModel, x) -> Prediction:
    """Predict at one covariate vector: a batch of one."""
    return predict_batch(model, _one_row(x)).prediction(0)


def predict_rows(model: IdrModel | SubaggedModel, covariates) -> tuple[np.ndarray, list[Provenance]]:
    """The (cases, thresholds) centre matrix of :func:`predict_batch`
    and the per-case provenance, without the bound matrices."""
    batch = _predict(model, covariates, ("center",))
    return batch.center, batch.provenance


def interpolate_total_order(model: IdrModel, x: float) -> Prediction:
    """Linear interpolation between neighboring fitted CDFs at one
    scalar covariate; see :func:`predict_batch`."""
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size != 1:
        raise ValueError("interpolation takes a single scalar covariate")
    return predict_batch(model, np.full((1, model.spec.dimension), arr[0]), interpolate=True).prediction(0)
