"""Model fitting: per-threshold antitonic regression over the DAG.

The fitted model stores, for every node of the comparability DAG and
every distinct training response, the conditional CDF value at that
response.  Each threshold column is the exact least-squares projection
of the node-level indicator means onto the antitonic cone, which makes
the assembled step CDFs the CRPS-optimal monotone assignment.  Each
fitted value is a weighted mean of indicators over one level set, so
nodes share few distinct CDF rows; the model keeps each row once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orders import OrderDag, OrderSpec, build_order_dag
from .scoring import check_span, crps_rows, finite_mean
from .solvers import antitonic_l2_fit
from .stepfun import CASE_BLOCK, StepCdf, distinct_sorted

__all__ = ["TrainingSet", "make_training_set", "IdrModel", "distinct_rows", "fit_idr", "empirical_crps_loss"]


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
        Strictly positive; unit weights when omitted.
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
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape:
            raise ValueError("weights must match responses in length")
        if not np.isfinite(w).all() or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        with np.errstate(over="ignore"):
            total = w.sum()
        if not np.isfinite(total):
            raise ValueError("the sum of the weights overflows the float range")
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

    The constructor raises a ValueError naming the rule a model breaks:

    - ``thresholds`` is 1-d, nonempty, finite and strictly increasing;
    - the climatology jumps at the thresholds;
    - ``rows`` is 2-d with one column per threshold;
    - its values are finite and nonnegative, each row is nondecreasing,
      and the last column is exactly 1;
    - ``node_row`` has an integer dtype and one entry per DAG node, each
      the index of a row;
    - the rows are distinct, in lexicographic order, and each is the
      row of some node.
    """

    __slots__ = ("thresholds", "rows", "node_row", "dag", "climatology")

    def __init__(self, thresholds, rows, node_row, dag, climatology):
        t = self.thresholds = np.asarray(thresholds, dtype=float)
        if not (t.ndim == 1 and t.size and np.isfinite(t).all() and np.all(t[1:] > t[:-1])):
            raise ValueError("thresholds must be a nonempty, finite, strictly increasing 1-d array")
        if not np.array_equal(climatology.jumps, t):
            raise ValueError("the climatology must jump at the model's thresholds")
        rows = self.rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != t.size:
            raise ValueError("rows must be a 2-d array with one column per threshold")
        # a NaN fails every comparison, so rows that rise from 0 or more to 1 are finite
        if not (np.all(rows[:, 0] >= 0) and np.all(rows[:, 1:] >= rows[:, :-1]) and np.all(rows[:, -1] == 1)):
            raise ValueError("rows must be finite, nonnegative and nondecreasing, and end at exactly 1")
        node_row = np.asarray(node_row)
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
    so nodes with larger covariates receive pointwise smaller CDFs.

    Returns
    -------
    IdrModel
    """
    dag = training.dag
    y = training.responses
    w = training.weights
    thresholds = distinct_sorted(y)

    pos = np.searchsorted(thresholds, y)
    mass = np.zeros((dag.n_nodes, thresholds.size))
    np.add.at(mass, (training.node_ids, pos), w)
    pooled = np.cumsum(mass.sum(axis=0))
    pooled /= pooled[-1]
    pooled[-1] = 1.0
    climatology = StepCdf(thresholds, pooled)

    # one nodes x thresholds matrix at a time besides the solver's output
    values = np.cumsum(mass, axis=1)
    del mass
    node_weight = values[:, -1].copy()
    values /= node_weight[:, None]
    fitted = antitonic_l2_fit(dag, values, node_weight)

    del values
    np.clip(fitted, 0.0, 1.0, out=fitted)
    np.maximum.accumulate(fitted, axis=1, out=fitted)
    return IdrModel(thresholds, *distinct_rows(fitted), dag, climatology)


def empirical_crps_loss(model: IdrModel, training: TrainingSet) -> float:
    """Weighted mean CRPS of the fitted CDFs at their own responses,
    scored CASE_BLOCK cases at a time, so that no (cases, thresholds)
    matrix is gathered."""
    node_row = model.node_row[training.node_ids]
    scores = np.empty(training.n)
    for lo in range(0, training.n, CASE_BLOCK):
        cut = slice(lo, lo + CASE_BLOCK)
        scores[cut] = crps_rows(model.thresholds, model.rows[node_row[cut]], training.responses[cut])
    return finite_mean(scores, training.weights)
