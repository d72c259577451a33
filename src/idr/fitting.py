"""Model fitting: per-threshold antitonic regression over the DAG.

The fitted model stores, for every node of the comparability DAG and
every distinct training response, the conditional CDF value at that
response.  Each threshold column is the exact least-squares projection
of the node-level indicator means onto the antitonic cone, which makes
the assembled step CDFs the CRPS-optimal monotone assignment (scored by
:func:`idr.prediction.empirical_crps_loss`).  Each fitted value is a
weighted mean of indicators over one level set, so nodes share few
distinct CDF rows; the model keeps each row once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orders import OrderDag, OrderSpec, build_order_dag
from .solvers import _fit_sums
from .stepfun import StepCdf, check_cdf_rows, check_grid, check_span, check_weights

__all__ = ["TrainingSet", "make_training_set", "IdrModel", "distinct_rows", "fit_idr"]


@dataclass(frozen=True)
class TrainingSet:
    """Training data bound to its comparability DAG.

    ``node_ids`` assigns every raw sample to a DAG node (several rows
    can share one node when their covariates are order-equivalent).
    ``covariates`` keeps the raw rows so that subsample refits can
    rebuild their own DAGs.
    """

    dag: OrderDag
    responses: np.ndarray
    weights: np.ndarray
    covariates: np.ndarray

    @property
    def node_ids(self) -> np.ndarray:
        return self.dag.membership

    @property
    def n(self) -> int:
        return self.responses.size

    @property
    def spec(self) -> OrderSpec:
        return self.dag.spec


def make_training_set(spec: OrderSpec, covariates, responses, weights=None) -> TrainingSet:
    """Validate raw data and attach the comparability DAG.

    Parameters
    ----------
    spec : OrderSpec
    covariates : array_like, shape (n, d)
        Rows may also be 1-d for a single covariate column.
    responses : array_like, shape (n,)
    weights : array_like, optional
        As :func:`idr.stepfun.check_weights` takes them; unit weights when omitted.
    """
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(responses, dtype=float)
    if y.ndim != 1 or y.size != x.shape[0]:
        raise ValueError("responses must be 1-d with one entry per covariate row")
    if y.size == 0:
        raise ValueError("training set is empty")
    if not np.isfinite(y).all():
        raise ValueError("responses must be finite")
    check_span(y, "responses")
    w = check_weights(weights, y.size)
    return TrainingSet(build_order_dag(spec, x), y, w, x)


def distinct_rows(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the matrix ``cdf`` in lexicographic order,
    and the index of each row of ``cdf`` among them."""
    # np.unique(axis=0) gives the same rows but sorts them ten times slower
    order = np.lexsort(cdf.T[::-1])
    ranked = cdf[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    rows = ranked[first]
    del ranked
    index = np.empty_like(order)
    index[order] = np.cumsum(first) - 1
    return rows, index


class IdrModel:
    """Fitted conditional CDFs at the thresholds, the distinct training
    responses.  ``rows`` holds each distinct fitted CDF row once, in
    lexicographic order, and ``node_row`` the row of each node, as
    :func:`distinct_rows` gives them.  The climatology is a step CDF
    that jumps at the thresholds.  Immutable.

    The constructor freezes copies of its three arrays and raises a
    ValueError naming the rule a model breaks:

    - ``thresholds`` is a grid, at which the climatology jumps, and
      ``rows`` are CDF rows on it (:func:`idr.stepfun.check_grid`,
      :func:`idr.stepfun.check_cdf_rows`);
    - ``node_row`` has an integer dtype and one entry per DAG node, each
      the index of a row;
    - the rows are distinct, in lexicographic order, and each is the
      row of some node.
    """

    __slots__ = ("thresholds", "rows", "node_row", "dag", "climatology")

    def __init__(self, thresholds, rows, node_row, dag, climatology):
        t = self.thresholds = check_grid(np.array(thresholds, dtype=float), "thresholds")
        if not np.array_equal(climatology.jumps, t):
            raise ValueError("the climatology must jump at the model's thresholds")
        rows = self.rows = check_cdf_rows(t, rows) + 0.0  # a copy; -0.0 + 0.0 is 0.0, as a model file stores it
        node_row = np.array(node_row)
        if not (node_row.dtype.kind in "iu" and node_row.shape == (dag.n_nodes,) and np.all(node_row < len(rows))
                and np.all(node_row >= 0)):
            raise ValueError(f"node_row must hold one integer row index in [0, {len(rows)}) for each node")
        self.node_row = node_row.astype(np.intp, copy=False)
        differ = rows[1:] != rows[:-1]
        first, k = differ.argmax(axis=1), np.arange(len(rows) - 1)
        if not (differ.any(axis=1).all() and np.all(rows[k + 1, first] > rows[k, first])
                and np.bincount(self.node_row, minlength=len(rows)).all()):
            raise ValueError("rows must be distinct, in lexicographic order and each the row of some node")
        self.dag = dag
        self.climatology = climatology
        for a in (self.thresholds, self.rows, self.node_row):
            a.setflags(write=False)

    @property
    def cdf(self) -> np.ndarray:
        """The nodes x thresholds matrix ``rows[node_row]``, read-only;
        built on every access."""
        cdf = self.rows[self.node_row]
        cdf.setflags(write=False)
        return cdf

    @property
    def spec(self) -> OrderSpec:
        return self.dag.spec

    @property
    def n_nodes(self) -> int:
        return self.dag.n_nodes

    def node_cdf(self, node: int) -> StepCdf:
        """Fitted CDF of one node as a step function."""
        return StepCdf(self.thresholds, self.rows[self.node_row[node]], validate=False)


def fit_idr(training: TrainingSet) -> IdrModel:
    """Fit the CRPS-optimal antitonic model.

    The thresholds are the sorted distinct responses.  For each
    threshold, node-level weighted means of the indicators
    1{y <= threshold} are projected onto the antitonic cone of the DAG,
    so nodes with larger covariates receive pointwise smaller CDFs.  The
    solver divides nothing before the end: each fitted value is a level
    set's indicator sum over its weight, rounded once.

    Returns
    -------
    IdrModel
    """
    dag = training.dag
    y = training.responses
    climatology = StepCdf.from_sample(y, training.weights)
    thresholds = climatology.jumps

    # the indicator sums, cumulated in place: one nodes x thresholds matrix besides the fit
    sums = np.zeros((dag.n_nodes, thresholds.size))
    np.add.at(sums, (training.node_ids, np.searchsorted(thresholds, y)), training.weights)
    fitted = _fit_sums(dag, np.cumsum(sums, axis=1, out=sums))
    del sums
    return IdrModel(thresholds, *distinct_rows(fitted), dag, climatology)

