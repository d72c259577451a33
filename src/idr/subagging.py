"""Subsample aggregation: fit on subsets, pool the predicted CDFs.

Members are fitted on index subsets drawn without replacement
(independently per member).  :func:`~idr.prediction.predict_batch`
aggregates them by an equal-weight pointwise mean of their predictive
CDFs, which preserves the monotonicity of the members.  A
deterministic even/odd split is available as an alternative to random
subsampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fitting import IdrModel, TrainingSet, fit_idr, make_training_set
from .stepfun import distinct_sorted

__all__ = [
    "SubaggedModel",
    "fit_subagged",
    "fit_even_odd",
]

#: How the members' training rows were drawn: random subsets, or the
#: even- and odd-indexed rows.
_SPLITS = ("random", "even-odd")


@dataclass(frozen=True)
class SubaggedModel:
    """Equal-weight ensemble of models fitted on subsamples.

    ``thresholds`` is the union of the members' grids, the grid its
    predictions live on; it is computed once, read-only."""

    members: tuple[IdrModel, ...]
    subsample_size: int
    seed: int
    split: str = "random"
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("a subagged model needs at least one member")
        if self.subsample_size < 1 or self.seed < 0:
            raise ValueError("a subagged model needs a subsample_size of at least 1 and a nonnegative seed")
        if self.split not in _SPLITS:
            raise ValueError(f"split must be one of {', '.join(_SPLITS)}, not {self.split!r}")
        first = self.members[0].spec
        if any(m.spec != first for m in self.members[1:]):
            raise ValueError("members must share the order spec")
        grid = distinct_sorted(np.concatenate([m.thresholds for m in self.members]))
        grid.setflags(write=False)
        object.__setattr__(self, "thresholds", grid)

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
