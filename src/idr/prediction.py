"""Prediction at arbitrary covariate values from a fitted model.

A query order-equivalent to a training point reproduces its fitted CDF.
Otherwise the fitted CDFs of the direct predecessors give an upper
bound and those of the direct successors a lower bound; the prediction
averages the two, falls back to the available bound when only one side
exists, and to the climatological distribution when the query is
incomparable to every node.  Models over a single totally ordered
covariate additionally support linear interpolation between the
neighboring fitted CDFs.

:func:`predict_blocks` is the one implementation of this rule and the
one loop over cases, for plain and subagged models: it yields the centre
and bound rows on the model grid, with a provenance per case, a block of
cases at a time.  :func:`predict_batch` and :func:`predict_rows` join its
blocks; the command line keeps only per-case values of each, as does
:func:`empirical_crps_loss`, the in-sample CRPS of any model.  The order
layer's :meth:`~idr.orders.OrderDag.query_neighbors` finds which cases
sit at a node and the neighbours of the others; this module only reduces
their fitted rows.  :func:`predict_cdf`, :func:`interpolate_total_order`
and the neighbour lists :func:`direct_predecessors` and
:func:`direct_successors` are views of these two.  A subagged model's
member rows are read off on the union grid by
:func:`~idr.stepfun.evaluate_grid`, the one place that reads step rows
at shared points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fitting import IdrModel, TrainingSet
from .scoring import crps_rows, finite_mean
from .stepfun import CASE_BLOCK, StepCdf, evaluate_grid
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
    "empirical_crps_loss",
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
    CDF values, or None where not asked of :func:`predict_blocks`; a
    bound row is NaN where its side of the order holds no training point.  ``provenance`` has one entry per case.
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


def _reduce_rows(ufunc, model: IdrModel, pairs, n: int) -> np.ndarray:
    """Per case of ``n``, ``ufunc`` over the fitted CDF rows of its nodes
    in the (cases, nodes) ``pairs``; NaN where a case has no node."""
    cases, nodes = pairs
    rows = model.node_row[nodes]
    # copy the row of each case's first node, then fold in its r-th node, if it has one
    starts = np.flatnonzero(np.diff(cases, prepend=-1))
    counts = np.diff(starts, append=cases.size)
    row = np.full(n, -1)
    row[cases[starts]] = rows[starts]
    out = np.take(model.rows, row, axis=0, mode="clip")
    out[row < 0] = np.nan
    for r in range(1, counts.max(initial=0)):
        more = starts[counts > r]
        at = cases[more]
        out[at] = ufunc(out[at], model.rows[rows[more + r]])
    return out


def _plain_block(model: IdrModel, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """A plain model's provenance codes at the rows of ``x``, indices
    into ``_PROVENANCE_ORDER``, and its rows there by side."""
    exact, pred, succ = model.dag.query_neighbors(x)
    # at a training point both pair lists hold its node alone, so both bounds are its row
    lower = _reduce_rows(np.maximum, model, succ, x.shape[0])
    upper = _reduce_rows(np.minimum, model, pred, x.shape[0])
    has_lower, has_upper = ~np.isnan(lower[:, 0]), ~np.isnan(upper[:, 0])
    # x + x halves to x exactly
    center = np.add(lower, upper)
    np.multiply(0.5, center, out=center)
    center[~has_upper] = lower[~has_upper]
    center[~has_lower] = upper[~has_lower]
    center[~has_lower & ~has_upper] = model.climatology.cum
    codes = np.select([exact, has_lower & has_upper, has_upper, has_lower], [5, 4, 2, 1], 0)
    return codes, {"center": center, "lower": lower, "upper": upper}


def _interpolated_block(model: IdrModel, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """The rows interpolated between the fitted CDFs of the nodes next
    to each row of ``x``, for a model over one total-order covariate,
    as :func:`_plain_block` gives them."""
    _, pred, succ = model.dag.query_neighbors(x)
    # outside the keys both neighbours are the nearest end node
    lo = np.zeros(x.shape[0], dtype=np.intp)
    hi = np.full(x.shape[0], model.n_nodes - 1)
    lo[pred[0]], hi[succ[0]] = pred[1], succ[1]
    upper, lower = model.rows[model.node_row[lo]], model.rows[model.node_row[hi]]
    center = upper.copy()
    # a total key is its own comparison row
    keys, col = model.dag.cmp_matrix[:, 0], x[:, model.spec.total_column]
    inside = lo != hi
    a, b = keys[lo[inside]], keys[hi[inside]]
    with np.errstate(over="ignore"):  # halving a, b and x where b - a overflows is exact: t is rounded as if it did not
        half = np.where(np.isinf(b - a), 0.5, 1.0)
    t = ((half * col[inside] - half * a) / (half * b - half * a))[:, None]
    center[inside] = (1.0 - t) * upper[inside] + t * lower[inside]
    return np.full(x.shape[0], 3), {"center": center, "lower": lower, "upper": upper}


def _pooled_block(model: SubaggedModel, x: np.ndarray, sides) -> tuple[np.ndarray, dict]:
    """The means over the members of their rows named in ``sides``, read
    off on the union grid, NaN where any member's row is, with the
    pooled provenance codes."""
    totals = {side: np.zeros((x.shape[0], model.thresholds.size)) for side in sides}
    codes = []
    for member in model.members:
        code, rows = _plain_block(member, x)
        codes.append(code)
        for side, total in totals.items():
            total += evaluate_grid(member.thresholds, rows[side], model.thresholds)
            total[np.isnan(rows[side][:, 0])] = np.nan
        del rows  # before the next member's rows are built
    for total in totals.values():
        total /= len(model.members)
    codes = np.array(codes)  # both-bounds (4) where every member reports both bounds, else the weakest
    return np.where((codes >= 4).all(axis=0), 4, codes.min(axis=0)), totals


def predict_blocks(model: IdrModel | SubaggedModel, covariates, sides=_SIDES, interpolate: bool = False):
    """:func:`predict_batch` a block of ``CASE_BLOCK`` cases at a time:
    yields ``(cases, batch)``, a slice of the rows of ``covariates`` and
    their :class:`PredictionBatch`, with None for the rows not named in
    ``sides``.  A caller that keeps per-case values holds one block."""
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    pooled = isinstance(model, SubaggedModel)
    if interpolate and (pooled or model.spec.total_column is None):
        raise ValueError("interpolation needs a plain model with one total-order covariate")
    if not set(sides) <= set(_SIDES):
        raise ValueError(f"sides must be among {_SIDES}, not {tuple(sides)}")
    block = _interpolated_block if interpolate else _plain_block
    # at least one block, so that the order layer checks the shape of an empty batch too
    for lo in range(0, max(x.shape[0], 1), CASE_BLOCK):
        cut = slice(lo, min(lo + CASE_BLOCK, x.shape[0]))
        codes, rows = _pooled_block(model, x[cut], sides) if pooled else block(model, x[cut])
        rows = {side: rows[side] for side in sides}  # the others go before the caller works on the block
        yield cut, PredictionBatch(model.thresholds, *map(rows.get, _SIDES), [_PROVENANCE_ORDER[c] for c in codes], pooled)
        del rows  # before the next block is built


def _joined(model, covariates, sides, interpolate: bool = False) -> PredictionBatch:
    """The blocks of :func:`predict_blocks` as one batch."""
    rows = {side: np.empty((len(np.asarray(covariates)), model.thresholds.size)) for side in sides}
    provenance = []
    for cut, batch in predict_blocks(model, covariates, sides, interpolate):
        for side, out in rows.items():
            out[cut] = getattr(batch, side)
        provenance += batch.provenance
        del batch  # before the next block is built
    return PredictionBatch(model.thresholds, *map(rows.get, _SIDES), provenance, isinstance(model, SubaggedModel))


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
    return _joined(model, covariates, _SIDES, interpolate)


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
    batch = _joined(model, covariates, ("center",))
    return batch.center, batch.provenance


def interpolate_total_order(model: IdrModel, x: float) -> Prediction:
    """Linear interpolation between neighboring fitted CDFs at one
    scalar covariate; see :func:`predict_batch`."""
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size != 1:
        raise ValueError("interpolation takes a single scalar covariate")
    return predict_batch(model, np.full((1, model.spec.dimension), arr[0]), interpolate=True).prediction(0)


def empirical_crps_loss(model: IdrModel | SubaggedModel, training: TrainingSet) -> float:
    """Weighted mean CRPS of the predictions of ``model`` at the rows of
    ``training``; at a plain model's own training set, the criterion its
    fit minimises.  Scored a block of :func:`predict_blocks` at a time."""
    scores = np.empty(training.n)
    for cut, batch in predict_blocks(model, training.covariates, ("center",)):
        scores[cut] = crps_rows(model.thresholds, batch.center, training.responses[cut])
    return finite_mean(scores, training.weights)
