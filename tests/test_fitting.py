"""Model fitting on small worked examples and randomized invariants."""

import gc
import tracemalloc

import numpy as np
import pytest

from idr import (
    COMPONENTWISE,
    EMPIRICAL_ICX,
    TOTAL,
    IdrModel,
    OrderGroup,
    OrderSpec,
    TrainingSet,
    crps,
    distinct_rows,
    empirical_crps_loss,
    fit_idr,
    make_training_set,
)
from idr.oracles import simulate_gamma
from idr.scoring import crps_rows

from brute_force import cover_matrix

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))
CW2 = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))


def fit_chain(y, weights=None):
    x = np.arange(1, len(y) + 1, dtype=float)
    return fit_idr(make_training_set(TOTAL1, x, y, weights))


def test_worked_chain_fit():
    model = fit_chain([3.0, 1.0, 2.0])
    assert model.thresholds.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(model.cdf[0], [0.5, 2 / 3, 1.0])
    assert np.allclose(model.cdf[1], [0.5, 2 / 3, 1.0])
    assert np.allclose(model.cdf[2], [0.0, 2 / 3, 1.0])
    # pooled responses
    assert model.climatology.jumps.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(model.climatology.cum, [1 / 3, 2 / 3, 1.0])


def test_perfectly_ordered_data_gives_point_masses():
    model = fit_chain([1.0, 2.0, 3.0])
    expect = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(model.cdf, expect)
    for i in range(3):
        f = model.node_cdf(i)
        assert f.evaluate(float(i + 1)) == 1.0
        assert f.left_limit(float(i + 1)) == 0.0


def _edit_chain3(edit):
    """The arguments of the 3-node chain fitted to x = y = (1, 2, 3),
    whose rows are [0, 0, 1], [0, 1, 1] and [1, 1, 1] and whose
    ``node_row`` is [2, 1, 0], as ``edit(thresholds, rows, node_row)``
    returns them."""
    model = fit_chain([1.0, 2.0, 3.0])
    thresholds, rows, node_row = edit(model.thresholds.copy(), model.rows.copy(), model.node_row.copy())
    return thresholds, rows, node_row, model.dag, model.climatology


#: edits of the 3-node chain's arguments that each break one rule of a
#: valid model, with the message that names the rule
INVALID_MODELS = {
    "thresholds_falling": (lambda t, r, i: (t[::-1], r, i), "thresholds must be"),
    "thresholds_2d": (lambda t, r, i: (t[None, :], r, i), "thresholds must be"),
    "rows_one_column_short": (lambda t, r, i: (t, r[:, 1:], i), "one column per threshold"),
    "rows_halved": (lambda t, r, i: (t, r * 0.5, i), "end at exactly 1"),
    "row_falls": (lambda t, r, i: (t, np.array([[0.0, 0.5, 1.0], [0.0, 1.0, 1.0], [1.0, 0.5, 1.0]]), i),
                  "nondecreasing"),
    "row_negative": (lambda t, r, i: (t, np.array([[-0.5, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]), i),
                     "nonnegative"),
    "row_nan": (lambda t, r, i: (t, np.array([[0.0, np.nan, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]), i),
                "finite"),
    "node_row_past_the_rows": (lambda t, r, i: (t, r, np.array([0, 1, 7])), "node_row must hold"),
    "node_row_negative": (lambda t, r, i: (t, r, np.array([2, 1, -1])), "node_row must hold"),
    "node_row_fractional": (lambda t, r, i: (t, r, np.array([0.5, 1.0, 0.0])), "node_row must hold one integer"),
    "node_row_boolean": (lambda t, r, i: (t, r[1:], np.array([True, True, False])), "node_row must hold one integer"),
    "node_row_short": (lambda t, r, i: (t, r, i[:2]), "node_row must hold"),
    "rows_reversed": (lambda t, r, i: (t, r[::-1], 2 - i), "lexicographic order"),
    "row_repeated": (lambda t, r, i: (t, r[[0, 1, 1, 2]], np.array([3, 2, 0])), "distinct"),
    "row_unused": (lambda t, r, i: (t, np.insert(r, 1, [0.0, 0.5, 1.0], axis=0), np.array([3, 2, 0])),
                   "row of some node"),
}


@pytest.mark.parametrize("name", sorted(INVALID_MODELS))
def test_model_constructor_names_the_rule_a_model_breaks(name):
    edit, message = INVALID_MODELS[name]
    with pytest.raises(ValueError, match=message):
        IdrModel(*_edit_chain3(edit))


def test_model_constructor_takes_what_distinct_rows_gives():
    """The rows and ``node_row`` of any valid nodes x thresholds CDF
    matrix, through ``distinct_rows``; repeated, all-ones and the fitted
    rows alike, and a ``node_row`` of any integer dtype."""
    model = fit_chain([1.0, 2.0, 3.0])
    for cdf in (model.cdf, np.ones((3, 3)), model.cdf[[1, 1, 1]], model.cdf[[2, 0, 2]]):
        rows, node_row = distinct_rows(cdf)
        for dtype in (np.int32, np.uint8, np.int64):
            clone = IdrModel(model.thresholds, rows, node_row.astype(dtype), model.dag, model.climatology)
            assert np.array_equal(clone.cdf, cdf)
            assert clone.node_row.dtype == np.intp


def test_incomparable_covariates_give_point_masses():
    pts = [(0, 3), (1, 2), (2, 1), (3, 0)]
    ts = make_training_set(CW2, pts, [5.0, 2.0, 7.0, 1.0])
    model = fit_idr(ts)
    for i, y in zip(ts.node_ids, ts.responses):
        f = model.node_cdf(int(i))
        assert f.evaluate(y) == 1.0
        assert f.left_limit(y) == 0.0


def test_single_observation():
    ts = make_training_set(TOTAL1, [2.0], [4.5])
    model = fit_idr(ts)
    assert model.thresholds.tolist() == [4.5]
    assert model.cdf.tolist() == [[1.0]]


def test_duplicate_covariates_pool_their_responses():
    ts = make_training_set(TOTAL1, [1.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    model = fit_idr(ts)
    assert model.n_nodes == 2
    # node 0 carries both responses with equal weight
    assert np.allclose(model.cdf[0], [0.5, 1.0, 1.0])


def test_weights_shift_the_pooled_means():
    # responses run against the covariate order, so the first threshold
    # column (0, 1) gets pooled to its weighted mean
    m1 = fit_chain([1.0, 0.0], weights=[1.0, 1.0])
    m3 = fit_chain([1.0, 0.0], weights=[1.0, 3.0])
    assert np.allclose(m1.cdf[:, 0], [0.5, 0.5])
    assert np.allclose(m3.cdf[:, 0], [0.75, 0.75])


def test_scale_equivariance():
    rng = np.random.default_rng(13)
    y = rng.normal(size=20)
    x = rng.uniform(size=20)
    base = fit_idr(make_training_set(TOTAL1, x, y))
    a, b = 2.5, -1.0
    scaled = fit_idr(make_training_set(TOTAL1, x, a * y + b))
    assert np.allclose(scaled.thresholds, a * base.thresholds + b)
    assert np.allclose(scaled.cdf, base.cdf, atol=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(19)
    x = rng.integers(0, 5, size=(30, 2)).astype(float)
    y = rng.normal(size=30)
    base = fit_idr(make_training_set(CW2, x, y))
    perm = rng.permutation(30)
    shuffled = fit_idr(make_training_set(CW2, x[perm], y[perm]))
    assert np.array_equal(base.thresholds, shuffled.thresholds)
    assert np.allclose(base.cdf, shuffled.cdf, atol=1e-12)


def test_chain_under_a_partial_order_fits_as_its_total_order():
    """A chain found under a componentwise or icx order fits bit for bit
    like the same data on its chain positions.  Lexicographic node order
    extends the componentwise order, so there the positions are the
    identity; under icx they are not."""
    rng = np.random.default_rng(37)
    t = np.sort(rng.uniform(size=6))
    collinear = (CW2, np.c_[t, 2.0 * t + 1.0], list(range(6)))
    # tail sums (2, 1) < (3, 3) < (4, 4) < (5, 4) < (6, 6) < (8, 6)
    icx_keys = np.array([[1, 1], [0, 3], [0, 4], [1, 4], [0, 6], [2, 6]], dtype=float)
    icx = (OrderSpec((OrderGroup((0, 1), EMPIRICAL_ICX),)), icx_keys, [1, 2, 4, 0, 3, 5])
    for spec, keys, positions in (collinear, icx):
        rows = rng.integers(0, 6, size=50)
        y = np.round(rng.normal(size=50), 1)
        w = rng.uniform(0.5, 2.0, size=50)
        model = fit_idr(make_training_set(spec, keys[rows], y, w))
        assert model.dag.is_chain
        pos = model.dag.chain_positions
        assert pos.tolist() == positions
        ranked = fit_idr(make_training_set(TOTAL1, pos[model.dag.membership].astype(float), y, w))
        assert np.array_equal(model.thresholds, ranked.thresholds)
        assert np.array_equal(model.cdf, ranked.cdf[pos])


def test_rows_are_valid_cdfs_and_antitonic():
    rng = np.random.default_rng(23)
    icx = OrderSpec((OrderGroup((0, 1, 2), EMPIRICAL_ICX),))
    for _ in range(10):
        x = rng.integers(0, 4, size=(40, 3)).astype(float)
        y = rng.normal(size=40)
        model = fit_idr(make_training_set(icx, x, y))
        assert np.all(np.diff(model.cdf, axis=1) >= -1e-12)
        assert np.allclose(model.cdf[:, -1], 1.0, atol=1e-12)
        us, vs = np.nonzero(cover_matrix(model.dag))
        assert np.all(model.cdf[us] >= model.cdf[vs] - 1e-12)


def test_threshold_calibration_on_random_chains():
    """Averaging the indicator over points sharing a fitted value
    recovers that value."""
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = rng.integers(5, 40)
        x = rng.integers(0, 10, size=n).astype(float)
        y = rng.normal(size=n)
        ts = make_training_set(TOTAL1, x, y)
        model = fit_idr(ts)
        rows = model.cdf[ts.node_ids]
        for k, z in enumerate(model.thresholds):
            col = rows[:, k]
            ind = (y <= z).astype(float)
            for p in np.unique(col):
                sel = col == p
                assert abs(ind[sel].mean() - p) < 1e-9


def test_crps_loss_zero_for_point_masses():
    model_ts = make_training_set(TOTAL1, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    model = fit_idr(model_ts)
    assert empirical_crps_loss(model, model_ts) == pytest.approx(0.0, abs=1e-15)


def test_crps_loss_matches_scoring_module():
    ts = make_training_set(TOTAL1, [1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    model = fit_idr(ts)
    by_hand = np.mean([
        crps(model.node_cdf(int(i)), y) for i, y in zip(ts.node_ids, ts.responses)
    ])
    assert empirical_crps_loss(model, ts) == pytest.approx(by_hand, abs=1e-12)


def test_in_sample_crps_is_scored_a_block_at_a_time():
    """On a 2000-point gamma chain the in-sample CRPS peaks well below
    the dense 2000 x 2000 float64 matrix (32 MB) that gathering every
    case's fitted row at once needs, and gives that matrix's bits."""
    x, y = simulate_gamma(2000, 1)
    training = make_training_set(TOTAL1, x, y)
    model = fit_idr(training)
    gc.collect()
    tracemalloc.start()
    try:
        loss = empirical_crps_loss(model, training)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = training.n * model.thresholds.size * 8
    assert dense == 32e6
    assert peak < dense * 3 / 4, peak
    scores = crps_rows(model.thresholds, model.cdf[training.node_ids], y)
    assert loss == float((training.weights * scores).sum() / training.weights.sum())


def test_extra_comparable_column_does_not_hurt_in_sample():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = 25
        x1 = rng.uniform(size=n)
        x2 = rng.uniform(size=n)
        y = x1 + rng.normal(scale=0.3, size=n)
        spec1 = OrderSpec((OrderGroup((0,), COMPONENTWISE),))
        ts1 = make_training_set(spec1, x1[:, None], y)
        loss1 = empirical_crps_loss(fit_idr(ts1), ts1)
        ts2 = make_training_set(CW2, np.column_stack([x1, x2]), y)
        loss2 = empirical_crps_loss(fit_idr(ts2), ts2)
        assert loss2 <= loss1 + 1e-10


def test_node_ids_are_the_dag_membership():
    ts = make_training_set(CW2, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]], [1.0, 2.0, 3.0])
    assert ts.node_ids is ts.dag.membership and ts.node_ids.tolist() == [0, 1, 0]
    # a training set takes no node_ids of its own, and they cannot be set
    with pytest.raises(TypeError):
        TrainingSet(ts.dag, np.array([1, 0, 1]), ts.responses, ts.weights, ts.covariates)
    with pytest.raises(AttributeError):
        ts.node_ids = np.array([1, 0, 1])


def test_make_training_set_validation():
    with pytest.raises(ValueError):
        make_training_set(TOTAL1, np.empty((0, 1)), [])
    with pytest.raises(ValueError):
        make_training_set(TOTAL1, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        make_training_set(TOTAL1, [1.0], [np.nan])
    with pytest.raises(ValueError):
        make_training_set(TOTAL1, [1.0, 2.0], [1.0, 2.0], weights=[1.0, 0.0])
    # finite values whose span or sum is not
    with pytest.raises(ValueError, match="span of the responses"):
        make_training_set(TOTAL1, [1.0, 2.0, 3.0], [-1e308, 1e308, 0.0])
    with pytest.raises(ValueError, match="sum of the weights"):
        make_training_set(TOTAL1, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], weights=[1e308, 1e308, 1.0])
