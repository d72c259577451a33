"""Prediction at new covariates: neighbors, bound averaging, fallbacks."""

import tracemalloc

import numpy as np
import pytest

from idr import (
    COMPONENTWISE,
    TOTAL,
    OrderGroup,
    OrderSpec,
    Provenance,
    build_order_dag,
    direct_predecessors,
    direct_successors,
    fit_idr,
    fit_subagged,
    interpolate_total_order,
    make_training_set,
    predict_cdf,
    predict_rows,
)
from idr.stepfun import CASE_BLOCK

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))
CW2 = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))


@pytest.fixture(scope="module")
def chain_model():
    return fit_idr(make_training_set(TOTAL1, [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]))


def test_neighbors_at_training_point(chain_model):
    assert direct_predecessors(chain_model, [2.0]) == [1]
    assert direct_successors(chain_model, [2.0]) == [1]


def test_neighbors_between_chain_nodes(chain_model):
    assert direct_predecessors(chain_model, [2.5]) == [1]
    assert direct_successors(chain_model, [2.5]) == [2]


def test_neighbors_componentwise():
    model = fit_idr(make_training_set(CW2, [(0, 0), (1, 1)], [0.0, 1.0]))
    assert direct_predecessors(model, (0, 1)) == [0]
    assert direct_successors(model, (0, 1)) == [1]


def test_prediction_at_training_point_reproduces_fit(chain_model):
    for i, x in enumerate([1.0, 2.0, 3.0]):
        p = predict_cdf(chain_model, [x])
        assert p.provenance is Provenance.AT_TRAINING_POINT
        assert np.array_equal(p.cdf.jumps, chain_model.thresholds)
        assert np.array_equal(p.cdf.cum, chain_model.cdf[i])


def test_prediction_below_all_nodes_uses_first_fit(chain_model):
    p = predict_cdf(chain_model, [0.0])
    assert p.provenance is Provenance.ONLY_SUCCESSORS
    assert np.array_equal(p.cdf.cum, chain_model.cdf[0])
    assert p.bound_gap is None


def test_prediction_above_all_nodes_uses_last_fit(chain_model):
    p = predict_cdf(chain_model, [9.0])
    assert p.provenance is Provenance.ONLY_PREDECESSORS
    assert np.array_equal(p.cdf.cum, chain_model.cdf[2])


def test_prediction_between_nodes_averages_bounds(chain_model):
    p = predict_cdf(chain_model, [2.5])
    assert p.provenance is Provenance.BOTH_BOUNDS
    expect = 0.5 * (chain_model.cdf[1] + chain_model.cdf[2])
    assert np.allclose(p.cdf.cum, expect)
    # bounds come straight from the neighboring fitted rows
    assert np.array_equal(p.upper.cum, chain_model.cdf[1])
    assert np.array_equal(p.lower.cum, chain_model.cdf[2])
    assert p.bound_gap == pytest.approx(np.max(chain_model.cdf[1] - chain_model.cdf[2]))


def test_incomparable_query_gets_climatology():
    model = fit_idr(make_training_set(CW2, [(0, 0), (1, 1), (2, 2)], [1.0, 2.0, 3.0]))
    p = predict_cdf(model, (5.0, -1.0))
    assert p.provenance is Provenance.CLIMATOLOGICAL
    assert p.cdf.jumps.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(p.cdf.cum, [1 / 3, 2 / 3, 1.0])
    assert p.lower is None and p.upper is None


def test_order_equivalent_query_counts_as_training_point():
    spec = OrderSpec((OrderGroup((0, 1), "empirical_stochastic"),))
    model = fit_idr(make_training_set(spec, [(1, 2), (3, 4)], [0.0, 1.0]))
    p = predict_cdf(model, (2, 1))  # permutation of the first node
    assert p.provenance is Provenance.AT_TRAINING_POINT


def test_sandwich_and_monotone_queries():
    rng = np.random.default_rng(55)
    x = rng.integers(0, 6, size=(60, 2)).astype(float)
    y = x.sum(axis=1) + rng.normal(scale=0.5, size=60)
    model = fit_idr(make_training_set(CW2, x, y))
    preds = {}
    for _ in range(40):
        q = tuple(rng.uniform(-0.5, 6.5, size=2))
        p = predict_cdf(model, q)
        preds[q] = p
        if p.provenance is Provenance.BOTH_BOUNDS:
            lo = p.lower.evaluate(model.thresholds)
            hi = p.upper.evaluate(model.thresholds)
            mid = p.cdf.evaluate(model.thresholds)
            assert np.all(lo <= mid + 1e-12) and np.all(mid <= hi + 1e-12)
            assert p.bound_gap >= -1e-15
    solid = (Provenance.BOTH_BOUNDS, Provenance.AT_TRAINING_POINT)
    qs = list(preds)
    for a in qs:
        for b in qs:
            if all(u <= v for u, v in zip(a, b)) and preds[a].provenance in solid and preds[b].provenance in solid:
                z = model.thresholds
                assert np.all(preds[a].cdf.evaluate(z) >= preds[b].cdf.evaluate(z) - 1e-12)


def test_predict_rows_matches_pointwise_calls():
    rng = np.random.default_rng(58)
    x = rng.uniform(0, 10, size=80)
    y = x + rng.normal(size=80)
    model = fit_idr(make_training_set(TOTAL1, x, y))
    queries = rng.uniform(-1, 11, size=(50, 1))
    rows, prov = predict_rows(model, queries)
    for r, pv, q in zip(rows, prov, queries):
        p = predict_cdf(model, q)
        assert pv is p.provenance
        assert np.allclose(r, p.cdf.evaluate(model.thresholds), atol=1e-12)


def test_interpolation_endpoints_and_midpoint(chain_model):
    at_node = interpolate_total_order(chain_model, 2.0)
    assert np.array_equal(at_node.cdf.cum, chain_model.cdf[1])

    mid = interpolate_total_order(chain_model, 2.5)
    assert mid.provenance is Provenance.INTERPOLATED
    average = predict_cdf(chain_model, [2.5])
    assert np.allclose(mid.cdf.cum, average.cdf.cum, atol=1e-15)

    below = interpolate_total_order(chain_model, -3.0)
    above = interpolate_total_order(chain_model, 99.0)
    assert np.array_equal(below.cdf.cum, chain_model.cdf[0])
    assert np.array_equal(above.cdf.cum, chain_model.cdf[2])


def test_interpolation_weights_by_distance(chain_model):
    p = interpolate_total_order(chain_model, 2.25)
    expect = 0.75 * chain_model.cdf[1] + 0.25 * chain_model.cdf[2]
    assert np.allclose(p.cdf.cum, expect, atol=1e-15)


def test_interpolation_requires_total_order():
    model = fit_idr(make_training_set(CW2, [(0, 0), (1, 1)], [0.0, 1.0]))
    with pytest.raises(ValueError):
        interpolate_total_order(model, 0.5)
    # and a plain model
    pooled = fit_subagged(make_training_set(TOTAL1, [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]), count=2, size=2, seed=0)
    with pytest.raises(ValueError):
        interpolate_total_order(pooled, 0.5)


def test_dimension_mismatch_rejected():
    model = fit_idr(make_training_set(CW2, [(0, 0), (1, 1)], [0.0, 1.0]))
    with pytest.raises(ValueError):
        predict_cdf(model, [1.0])
    with pytest.raises(ValueError):
        predict_rows(model, np.empty((0, 1)))  # also when the batch is empty


def test_predict_rows_holds_the_output_and_a_few_blocks():
    """predict_rows works through the batch a block of cases at a time,
    so beside its output it holds a few (block, grid) arrays, however
    many blocks there are; here 8, on a plain and a subagged model."""
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 10, 800)
    training = make_training_set(TOTAL1, x, x + rng.normal(size=800))
    queries = rng.uniform(-1, 11, size=(8 * CASE_BLOCK, 1))
    for model in (fit_idr(training), fit_subagged(training, count=4, size=400, seed=1)):
        block = CASE_BLOCK * model.thresholds.size * 8
        tracemalloc.start()
        try:
            rows, _ = predict_rows(model, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (queries.shape[0], model.thresholds.size)
        assert peak < rows.nbytes + 6 * block, (peak - rows.nbytes) / block
