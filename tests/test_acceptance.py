"""Acceptance gate: ten numbered criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold, so a
verbose run reads as a checklist.  Tolerances and runtime budgets are
pinned in the assertions themselves.
"""

import json
import time

import numpy as np
import pytest

from idr import (
    COMPONENTWISE,
    EMPIRICAL_ICX,
    EMPIRICAL_STOCHASTIC,
    TOTAL,
    OrderGroup,
    OrderSpec,
    Provenance,
    Relation,
    StepCdf,
    compare,
    crps_mixture_check,
    crps_rows,
    empirical_crps_loss,
    fit_idr,
    fit_subagged,
    gini_mean_difference,
    make_training_set,
    model_from_json,
    model_to_json,
    predict_cdf,
    predict_rows,
)
from idr.oracles import simulate_gamma, true_gamma_crps

from brute_force import (
    brute_force_antitonic,
    exhaustive_partition_fit,
    isotonic_quantile_oracle,
    pinball_loss,
)

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))


def report(num, label):
    print(f"criterion {num:02d} ({label}): PASS")


def node_indicator_stats(ts, thresholds):
    """Per-node weighted indicator means and node weights, the raw
    inputs of every per-threshold projection."""
    n = ts.dag.n_nodes
    pos = np.searchsorted(thresholds, ts.responses)
    mass = np.zeros((n, thresholds.size))
    np.add.at(mass, (ts.node_ids, pos), ts.weights)
    cum = np.cumsum(mass, axis=1)
    return cum / cum[:, -1:], cum[:, -1].copy()


@pytest.fixture(scope="module")
def small_instances():
    """200 random weighted instances, n <= 8, over four order kinds."""
    rng = np.random.default_rng(1234)
    kinds = [
        OrderSpec((OrderGroup((0,), TOTAL),)),
        OrderSpec((OrderGroup((0, 1), COMPONENTWISE),)),
        OrderSpec((OrderGroup((0, 1, 2), COMPONENTWISE),)),
        OrderSpec((OrderGroup((0, 1, 2, 3), EMPIRICAL_ICX),)),
    ]
    levels = [6, 4, 3, 4]
    out = []
    for i in range(200):
        spec = kinds[i % 4]
        top = levels[i % 4]
        d = len(spec.groups[0].columns)
        n = int(rng.integers(2, 9))
        x = rng.integers(0, top, size=(n, d)).astype(float)
        y = rng.integers(0, 16, size=n) / 4.0  # dyadic responses
        w = rng.integers(1, 5, size=n) / 2.0
        ts = make_training_set(spec, x, y, w)
        out.append((ts, fit_idr(ts)))
    return out


def test_criterion_01_oracle_equivalence(small_instances):
    """Every per-threshold fitted vector matches the enumeration oracle
    within 1e-10; 200 instances complete inside 60 seconds."""
    start = time.monotonic()
    worst = 0.0
    for ts, model in small_instances:
        values, node_w = node_indicator_stats(ts, model.thresholds)
        for k in range(model.thresholds.size):
            oracle = brute_force_antitonic(ts.dag, values[:, k], node_w)
            worst = max(worst, float(np.max(np.abs(model.cdf[:, k] - oracle))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, worst
    assert elapsed < 60.0, elapsed
    report(1, f"oracle equivalence, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_brier_minimality(small_instances):
    """No enumerated order-consistent vector beats the fitted one on the
    weighted Brier sum at any threshold (tolerance 1e-10)."""
    for ts, model in small_instances:
        values, node_w = node_indicator_stats(ts, model.thresholds)
        ind = ts.responses[:, None] <= model.thresholds[None, :]
        w = ts.weights
        node = ts.node_ids
        for k in range(model.thresholds.size):
            _, candidates = exhaustive_partition_fit(
                ts.dag, values[:, k], node_w, return_candidates=True
            )
            fitted_sum = float(np.sum(w * (model.cdf[node, k] - ind[:, k]) ** 2))
            candidate_sums = np.sum(
                w[None, :] * (candidates[:, node] - ind[None, :, k]) ** 2, axis=1
            )
            assert fitted_sum <= float(candidate_sums.min()) + 1e-10
    report(2, "per-threshold Brier minimality")


def test_criterion_03_quantile_optimality(small_instances):
    """Fitted quantile vectors attain the oracle's pinball loss within
    1e-10 at every level of the alpha grid."""
    alphas = np.arange(1, 10) / 10.0
    worst = 0.0
    for ts, model in small_instances:
        y, w, node = ts.responses, ts.weights, ts.node_ids
        for alpha in alphas:
            fitted_q = np.array(
                [model.node_cdf(i).quantile(alpha) for i in range(model.n_nodes)]
            )
            oracle_q = isotonic_quantile_oracle(ts.dag, y, alpha, w)
            fitted_loss = pinball_loss(fitted_q[node], y, alpha, w)
            oracle_loss = pinball_loss(oracle_q[node], y, alpha, w)
            worst = max(worst, abs(fitted_loss - oracle_loss))
            assert abs(fitted_loss - oracle_loss) <= 1e-10
    report(3, f"quantile optimality, max loss gap {worst:.2e}")


def test_criterion_04_threshold_calibration(small_instances):
    """Grouping training points by fitted value at each threshold, the
    weighted indicator mean reproduces the fitted value to 1e-9."""
    checked = 0
    models = [(ts, model) for ts, model in small_instances]
    x, y = simulate_gamma(600, seed=20)
    models.append((make_training_set(TOTAL1, x, y), None))
    for ts, model in models:
        if model is None:
            model = fit_idr(ts)
        rows = model.cdf[ts.node_ids]
        ind = ts.responses[:, None] <= model.thresholds[None, :]
        for k in range(model.thresholds.size):
            col = rows[:, k]
            for p in np.unique(col):
                sel = col == p
                mean = np.average(ind[sel, k], weights=ts.weights[sel])
                assert abs(mean - p) <= 1e-9
                checked += 1
    assert checked > 1000
    report(4, f"threshold calibration on {checked} value groups")


def test_criterion_05_simulation_study():
    """Fit on 600 simulated pairs, score 10^4 fresh pairs: mean CRPS at
    most 1.20x the true-distribution CRPS, rows exactly noncrossing,
    under two minutes."""
    start = time.monotonic()
    x_train, y_train = simulate_gamma(600, seed=20)
    model = fit_idr(make_training_set(TOTAL1, x_train, y_train))
    # noncrossing: along the chain, each row dominates the next
    assert float(np.max(np.diff(model.cdf, axis=0))) <= 0.0

    x_test, y_test = simulate_gamma(10_000, seed=21)
    rows, _ = predict_rows(model, x_test[:, None])
    idr_crps = float(np.mean(crps_rows(model.thresholds, rows, y_test)))
    true_crps = float(np.mean(true_gamma_crps(x_test, y_test)))
    elapsed = time.monotonic() - start
    ratio = idr_crps / true_crps
    assert ratio <= 1.20, ratio
    assert elapsed < 120.0, elapsed
    report(5, f"simulation study, CRPS ratio {ratio:.4f}, {elapsed:.1f}s")


def test_criterion_06_subagging():
    """20 subsamples of 500 from n = 4000: aggregated CRPS within 1.05x
    of the full fit and a faster fitting wall-clock, under 5 minutes."""
    start = time.monotonic()
    x_train, y_train = simulate_gamma(4000, seed=30)
    ts = make_training_set(TOTAL1, x_train, y_train)

    # one small fit first keeps first-call costs out of the timed sections
    xw, yw = simulate_gamma(50, seed=99)
    fit_idr(make_training_set(TOTAL1, xw, yw))

    t0 = time.monotonic()
    full = fit_idr(ts)
    full_time = time.monotonic() - t0

    t0 = time.monotonic()
    bagged = fit_subagged(ts, count=20, size=500, seed=32)
    bagged_time = time.monotonic() - t0

    x_test, y_test = simulate_gamma(10_000, seed=31)
    rows, _ = predict_rows(full, x_test[:, None])
    full_crps = float(np.mean(crps_rows(full.thresholds, rows, y_test)))
    bag_rows, _ = predict_rows(bagged, x_test[:, None])
    bag_crps = float(np.mean(crps_rows(bagged.thresholds, bag_rows, y_test)))

    elapsed = time.monotonic() - start
    ratio = bag_crps / full_crps
    assert ratio <= 1.05, ratio
    assert bagged_time < full_time, (bagged_time, full_time)
    assert elapsed < 300.0, elapsed
    report(
        6,
        f"subagging, CRPS ratio {ratio:.4f}, fit {bagged_time:.2f}s vs {full_time:.2f}s, "
        f"total {elapsed:.0f}s",
    )


def test_criterion_07_crps_representations():
    """Mixture quadratures agree with the closed form within 1e-3 at
    grid 10^3 on 50 randomized cases and tighten in aggregate at 10^4."""
    rng = np.random.default_rng(42)
    cases = []
    while len(cases) < 50:
        k = int(rng.integers(2, 6))
        jumps = np.sort(rng.uniform(0, 1, size=k))
        if k > 1 and np.min(np.diff(jumps)) < 1e-3:
            continue
        cum = np.sort(rng.uniform(0.1, 1.0, size=k))
        cum[-1] = 1.0
        y = float(rng.uniform(-0.2, 1.2))
        cases.append((StepCdf(jumps, cum), y))

    coarse = {"quantile": [], "quantile_theta": [], "probability": []}
    fine = {"quantile": [], "quantile_theta": [], "probability": []}
    for f, y in cases:
        res = crps_mixture_check(f, y, [1000, 10_000])
        for name in coarse:
            coarse[name].append(res[name][0])
            fine[name].append(res[name][1])
            assert res[name][0] < 1e-3, (name, res[name])
    for name in coarse:
        assert max(fine[name]) < max(coarse[name])
        assert np.mean(fine[name]) < np.mean(coarse[name])
    worst = max(max(v) for v in coarse.values())
    report(7, f"CRPS representations, worst residual {worst:.2e} at grid 1e3")


def test_criterion_08_partial_order_laws():
    """10^4 random pairs (d <= 6): order characterizations and the
    mean-plus-Gini inequality hold without exception.

    Pairs live on a dyadic grid (multiples of 1/8) so that tail sums
    and stop-loss sums are exactly representable and both routes of
    each characterization can be compared with zero tolerance.
    """
    rng = np.random.default_rng(77)
    below = (Relation.LESS, Relation.EQUAL)
    hits = {"st": 0, "icx": 0}
    for _ in range(10_000):
        d = int(rng.integers(2, 7))
        u = rng.integers(0, 17, size=d) / 8.0
        style = rng.integers(0, 3)
        if style == 0:
            v = rng.integers(0, 17, size=d) / 8.0
        elif style == 1:
            bump = rng.integers(0, 7, size=d) * rng.integers(0, 2, size=d)
            v = rng.permutation(u) + bump / 8.0
        else:
            # mean-preserving transfer: widen the spread of u
            v = u.copy()
            i, j = np.argmin(u), np.argmax(u)
            delta = rng.integers(0, 5)
            v[i] -= delta / 8.0
            v[j] += delta / 8.0
        st_spec = OrderSpec((OrderGroup(tuple(range(d)), EMPIRICAL_STOCHASTIC),))
        icx_spec = OrderSpec((OrderGroup(tuple(range(d)), EMPIRICAL_ICX),))
        st = compare(st_spec, u, v) in below
        icx = compare(icx_spec, u, v) in below

        # sorted-componentwise characterization of the stochastic relation
        su, sv = np.sort(u), np.sort(v)
        assert st == bool(np.all(su <= sv))

        # stochastic dominance implies increasing convex dominance
        if st:
            hits["st"] += 1
            assert icx

        # stop-loss characterization of the increasing convex relation:
        # dominance of sum((x - t)+) at every knot and below the support
        knots = np.concatenate([su, sv, [min(su[0], sv[0]) - 1.0]])
        stop_u = np.maximum(u[None, :] - knots[:, None], 0.0).sum(axis=1)
        stop_v = np.maximum(v[None, :] - knots[:, None], 0.0).sum(axis=1)
        assert icx == bool(np.all(stop_u <= stop_v))

        if icx:
            hits["icx"] += 1
            coef = (d - 1) / (2 * (d + 1))
            lhs = u.mean() + coef * gini_mean_difference(u)
            rhs = v.mean() + coef * gini_mean_difference(v)
            assert lhs <= rhs + 1e-12

    assert hits["st"] > 500 and hits["icx"] > 1000
    report(8, f"partial-order laws, {hits['st']} st pairs, {hits['icx']} icx pairs")


def test_criterion_09_extra_column_never_hurts():
    """Appending a componentwise covariate column can only refine the
    constraint set, so the in-sample CRPS never increases (1e-10)."""
    rng = np.random.default_rng(55)
    for trial in range(100):
        n = int(rng.integers(8, 30))
        d = int(rng.integers(1, 3))
        x = rng.integers(0, 4, size=(n, d)).astype(float)
        extra = rng.integers(0, 4, size=(n, 1)).astype(float)
        y = x[:, 0] + rng.normal(scale=0.5, size=n)
        base_spec = OrderSpec((OrderGroup(tuple(range(d)), COMPONENTWISE),))
        wide_spec = OrderSpec((OrderGroup(tuple(range(d + 1)), COMPONENTWISE),))
        ts1 = make_training_set(base_spec, x, y)
        ts2 = make_training_set(wide_spec, np.hstack([x, extra]), y)
        loss1 = empirical_crps_loss(fit_idr(ts1), ts1)
        loss2 = empirical_crps_loss(fit_idr(ts2), ts2)
        assert loss2 <= loss1 + 1e-10, (trial, loss1, loss2)
    report(9, "extra comparable column never increases in-sample CRPS")


def test_criterion_10_prediction_contract():
    """Bound sandwich on every two-sided prediction, exact reproduction
    at training points, and an exact JSON round trip."""
    rng = np.random.default_rng(91)
    spec = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
    x = rng.integers(0, 6, size=(80, 2)).astype(float)
    y = x.sum(axis=1) + rng.normal(size=80)
    model = fit_idr(make_training_set(spec, x, y))
    clone = model_from_json(model_to_json(model))
    assert json.loads(model_to_json(model)) == json.loads(model_to_json(clone))

    both_bounds = 0
    for _ in range(200):
        q = rng.uniform(-0.5, 6.5, size=2)
        p = predict_cdf(model, q)
        if p.provenance is Provenance.BOTH_BOUNDS:
            both_bounds += 1
            lo = p.lower.evaluate(model.thresholds)
            hi = p.upper.evaluate(model.thresholds)
            mid = p.cdf.evaluate(model.thresholds)
            assert np.all(lo <= mid) and np.all(mid <= hi)
        c = predict_cdf(clone, q)
        assert c.provenance is p.provenance
        assert np.array_equal(c.cdf.jumps, p.cdf.jumps)
        assert np.array_equal(c.cdf.cum, p.cdf.cum)
    assert both_bounds > 20

    for i, xi in enumerate(x[:40]):
        p = predict_cdf(model, xi)
        assert p.provenance is Provenance.AT_TRAINING_POINT
        node = model.dag.membership[i]
        assert np.array_equal(p.cdf.cum, model.cdf[node])
        assert np.array_equal(p.cdf.jumps, model.thresholds)
    report(10, f"prediction contract, {both_bounds} two-sided queries checked")
