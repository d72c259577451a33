"""Prediction at new covariates: neighbors, bound averaging, fallbacks."""

import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import idr
from idr import (
    COMPONENTWISE,
    EMPIRICAL_ICX,
    TOTAL,
    OrderGroup,
    OrderSpec,
    Provenance,
    build_order_dag,
    direct_predecessors,
    direct_successors,
    empirical_crps_loss,
    fit_idr,
    fit_subagged,
    interpolate_total_order,
    make_training_set,
    predict_batch,
    predict_cdf,
    predict_rows,
)
from idr.oracles import simulate_gamma
from idr.prediction import predict_blocks
from idr.scoring import crps_rows, finite_mean
from idr.stepfun import CASE_BLOCK

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))
CW2 = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
ICX = OrderSpec((OrderGroup((0,), TOTAL), OrderGroup((1, 2, 3, 4), EMPIRICAL_ICX)))
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_prediction_quantile_rejects_levels_outside_the_open_unit_interval(chain_model):
    """The README model's prediction takes its levels as quantile_rows
    does: NaN raises as 0 and 1 do."""
    x = np.array([1.0, 2.0, 3.0, 4.0])
    model = fit_idr(make_training_set(TOTAL1, x, [0.8, 1.1, 2.4, 2.0]))
    for pred in (predict_cdf(model, [2.5]), predict_cdf(chain_model, [2.5])):
        assert pred.quantile(0.5) == pred.cdf.quantile(0.5)
        for bad in (np.nan, 0.0, 1.0):
            with pytest.raises(ValueError, match="alpha"):
                pred.quantile(bad)


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


def test_predict_blocks_cover_the_batch_a_block_at_a_time():
    """The blocks are consecutive CASE_BLOCK slices of the batch, hold
    only the rows named in ``sides``, and a bad argument raises before
    the first block, on a plain and a subagged model."""
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 10, 300)
    training = make_training_set(TOTAL1, x, x + rng.normal(size=300))
    queries = rng.uniform(-1, 11, size=(2 * CASE_BLOCK + 5, 1))
    for model in (fit_idr(training), fit_subagged(training, count=3, size=150, seed=2)):
        whole = predict_batch(model, queries)
        cuts = []
        for cut, batch in predict_blocks(model, queries, ("center", "upper")):
            cuts.append((cut.start, cut.stop))
            assert batch.lower is None
            assert np.array_equal(batch.center, whole.center[cut])
            assert np.array_equal(batch.upper, whole.upper[cut], equal_nan=True)
            assert batch.provenance == whole.provenance[cut]
        assert cuts == [(0, CASE_BLOCK), (CASE_BLOCK, 2 * CASE_BLOCK), (2 * CASE_BLOCK, 2 * CASE_BLOCK + 5)]
        with pytest.raises(ValueError, match="sides"):
            next(predict_blocks(model, queries, ("middle",)))
    with pytest.raises(ValueError, match="interpolation"):
        next(predict_blocks(model, queries, interpolate=True))  # the subagged model


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


def _rounded(q: Fraction) -> Fraction:
    """``q`` rounded once to a float, as if the exponent had no bound."""
    try:
        return Fraction(float(q))
    except OverflowError:
        return 2 * _rounded(q / 2)


def test_interpolation_weight_is_rounded_once_per_step_at_any_span():
    """Between keys lo and hi with responses 1 and 3, the interpolated
    P(Y <= 2) is 1 - t for t = (x - lo) / (hi - lo), each difference and
    then the quotient of the exact Fractions rounded once, as if the
    exponent had no bound: bit for bit the plain float quotient wherever
    hi - lo is finite, 1/2 halfway between -1e308 and 1e308 (the first
    case), and within 3 ulps of the exact t also where the keys span
    more than the float range."""
    big = np.finfo(float).max
    rng = np.random.default_rng(8)
    # fixed cases, then keys whose span overflows, spans of any size, and small same-sign spans
    lo = np.concatenate([[-1e308, -1e308, -1e308, -big, -1e300, 0.0, 1.0], -10.0 ** rng.uniform(307.96, 308.25, 30),
                         -10.0 ** rng.uniform(-5, 300, 30), rng.uniform(1, 2, 30)])
    hi = np.concatenate([[1e308, 1e308, 1e308, big, big, 5e-324 * 7, 2.0], 10.0 ** rng.uniform(307.96, 308.25, 30),
                         10.0 ** rng.uniform(-5, 300, 30), rng.uniform(2.5, 5, 30)])
    u = rng.uniform(size=90)
    x = np.concatenate([[0.0, 9e307, -9e307, 1.0, 5e-324, 5e-324 * 3, 1.25], (1 - u) * lo[7:] + u * hi[7:]])
    x = np.clip(x, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        wide = np.isinf(hi - lo)
        plain = (x - lo) / (hi - lo)
    assert wide.sum() >= 30
    for k in range(x.size):
        model = fit_idr(make_training_set(TOTAL1, [lo[k], hi[k]], [1.0, 3.0]))
        got = predict_batch(model, x[k:k + 1, None], interpolate=True).center[0, 0]
        a, b, c = Fraction(x[k]), Fraction(lo[k]), Fraction(hi[k])
        t = _rounded(a - b) / _rounded(c - b)
        assert got == float(1 - Fraction(float(t))), k
        error = abs(Fraction(got) - (1 - (a - b) / (c - b)))
        assert error <= 3 * Fraction(math.ulp(float(t))) + Fraction(math.ulp(got)), k
        assert wide[k] or got == 1.0 - plain[k], k
        assert k or got == 0.5, got


def test_in_sample_crps_at_its_own_rows_is_the_gathered_fit_bit_for_bit():
    """At a plain model's own training set each row is predicted by its
    node's fitted row, so empirical_crps_loss gives the bits of scoring
    the gathered rows rows[node_row[node_ids]]: on chain, tied-chain,
    componentwise (unit and integer weights) and icx fits."""
    assert idr.empirical_crps_loss is idr.prediction.empirical_crps_loss
    x, y = simulate_gamma(600, 4)
    tied = np.loadtxt(GOLDEN / "chain_tied_train.csv", delimiter=",", skiprows=1)
    cw = np.loadtxt(GOLDEN / "cw_weighted_train.csv", delimiter=",", skiprows=1)
    icx = np.loadtxt(GOLDEN / "icx_train.csv", delimiter=",", skiprows=1)
    cases = [(TOTAL1, x, y, None), (TOTAL1, tied[:, 0], tied[:, 1], None), (CW2, cw[:, :2], cw[:, 2], None),
             (CW2, cw[:, :2], cw[:, 2], cw[:, 3]), (ICX, icx[:, :5], icx[:, 5], None)]
    for spec, x, y, w in cases:
        training = make_training_set(spec, x, y, w)
        model = fit_idr(training)
        gathered = model.rows[model.node_row[training.node_ids]]
        want = finite_mean(crps_rows(model.thresholds, gathered, y), training.weights)
        assert empirical_crps_loss(model, training) == want, spec


def test_in_sample_crps_scores_any_model_at_any_training_set():
    """empirical_crps_loss(model, t) is the weighted mean of crps_rows over
    predict_rows(model, t.covariates) against t's responses, bit for bit,
    for a plain and a subagged model, at their own training set and at
    others of 50 and 600 weighted rows (three blocks)."""
    rng = np.random.default_rng(9)
    x, y = simulate_gamma(200, 1)
    own = make_training_set(TOTAL1, x, y)
    models = (fit_idr(own), fit_subagged(own, count=3, size=100, seed=1))
    others = []
    for n, seed in ((50, 2), (600, 3)):
        x, y = simulate_gamma(n, seed)
        others.append(make_training_set(TOTAL1, x, y, rng.integers(1, 4, size=n)))
    for model in models:
        for training in (own, *others):
            rows, _ = predict_rows(model, training.covariates)
            want = finite_mean(crps_rows(model.thresholds, rows, training.responses), training.weights)
            assert empirical_crps_loss(model, training) == want
