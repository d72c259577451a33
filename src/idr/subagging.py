"""Subsample aggregation: fit on subsets, pool the predicted CDFs.

Members are fitted on index subsets drawn without replacement
(independently per member) and aggregated by an equal-weight pointwise
mean of their predictive CDFs, which preserves the monotonicity of the
members.  A deterministic even/odd split is available as an
alternative to random subsampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import IdrModel, TrainingSet, fit_idr, make_training_set
from .prediction import _PROVENANCE_ORDER, Prediction, PredictionBatch, Provenance, _one_row, predict_batch

__all__ = [
    "SubaggedModel",
    "fit_subagged",
    "fit_even_odd",
    "predict_subagged",
    "predict_subagged_batch",
    "predict_subagged_rows",
]

_REPORTS_BOUNDS = (Provenance.AT_TRAINING_POINT, Provenance.BOTH_BOUNDS)


@dataclass(frozen=True)
class SubaggedModel:
    """Equal-weight ensemble of models fitted on subsamples."""

    members: tuple[IdrModel, ...]
    subsample_size: int
    seed: int
    split: str = "random"

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("a subagged model needs at least one member")
        first = self.members[0].spec
        if any(m.spec != first for m in self.members[1:]):
            raise ValueError("members must share the order spec")

    @property
    def spec(self):
        return self.members[0].spec


def _fit_members(training: TrainingSet, subsets) -> tuple[IdrModel, ...]:
    """One model per index subset of the training rows."""
    return tuple(
        fit_idr(make_training_set(training.spec, training.covariates[idx], training.responses[idx],
                                  training.weights[idx]))
        for idx in subsets
    )


def fit_subagged(training: TrainingSet, count: int, size: int, seed: int) -> SubaggedModel:
    """Fit ``count`` models on random subsets of ``size`` rows each.

    Subsets are drawn uniformly without replacement, independently per
    member, from a generator seeded with ``seed``; results are
    reproducible given the seed.
    """
    n = training.n
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 1 <= size <= n:
        raise ValueError(f"size must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    subsets = [rng.choice(n, size=size, replace=False) for _ in range(count)]
    return SubaggedModel(_fit_members(training, subsets), size, seed)


def fit_even_odd(training: TrainingSet, seed: int = 0) -> SubaggedModel:
    """Two members from the even- and odd-indexed rows."""
    if training.n < 2:
        raise ValueError("even/odd split needs at least two rows")
    members = _fit_members(training, (slice(0, None, 2), slice(1, None, 2)))
    return SubaggedModel(members, (training.n + 1) // 2, seed, split="even-odd")


def _aggregate_provenance(provs) -> Provenance:
    if all(p in _REPORTS_BOUNDS for p in provs):
        return Provenance.BOTH_BOUNDS
    return min(provs, key=_PROVENANCE_ORDER.index)


def _member_means(model: SubaggedModel, covariates, grid, sides):
    """Equal-weight means over members of the batch rows named in
    ``sides``, each read off on ``grid``, plus every member's
    provenance.  A case is NaN where any member's row is (a missing
    bound).  Members are predicted one at a time, so only the sums
    span the whole grid."""
    sums = [np.zeros((len(np.asarray(covariates)), grid.size)) for _ in sides]
    provenances = []
    for member in model.members:
        batch = predict_batch(member, covariates)
        idx = np.searchsorted(member.thresholds, grid, side="right")
        for total, side in zip(sums, sides):
            rows = getattr(batch, side)
            total += np.concatenate((np.zeros((rows.shape[0], 1)), rows), axis=1)[:, idx]
            total[np.isnan(rows[:, 0])] = np.nan
        provenances.append(batch.provenance)
    for total in sums:
        total /= len(model.members)
    return sums, provenances


def predict_subagged_batch(model: SubaggedModel, covariates) -> PredictionBatch:
    """Aggregate member predictions at every row of a covariate matrix.

    The CDF is the pointwise mean of the member CDFs on the union of
    their grids.  A bound is averaged the same way for the cases where
    every member provides it, and is marked heuristic, since no single
    monotone fit stands behind the averaged bracket.  The provenance is
    the weakest among the members, or both-bounds when every member
    reports both bounds.
    """
    grid = np.unique(np.concatenate([m.thresholds for m in model.members]))
    (center, lower, upper), provenances = _member_means(model, covariates, grid, ("center", "lower", "upper"))
    provenance = [_aggregate_provenance(ps) for ps in zip(*provenances)]
    return PredictionBatch(grid, center, lower, upper, provenance, bounds_heuristic=True)


def predict_subagged(model: SubaggedModel, x) -> Prediction:
    """Aggregate member predictions at one covariate vector: a batch of
    one of :func:`predict_subagged_batch`."""
    return predict_subagged_batch(model, _one_row(x)).prediction(0)


def predict_subagged_rows(model: SubaggedModel, covariates, grid) -> np.ndarray:
    """Aggregated CDF values of a query batch on a common grid: the
    centre of :func:`predict_subagged_batch`, read off on ``grid``."""
    (center,), _ = _member_means(model, covariates, np.asarray(grid, dtype=float), ("center",))
    return center
