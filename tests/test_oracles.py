"""The brute-force references themselves: enumeration oracles, the
simulation law, and the closed-form gamma scores."""

import itertools

import numpy as np
import pytest
from scipy import integrate, stats

from idr import (
    COMPONENTWISE,
    TOTAL,
    OrderGroup,
    OrderSpec,
    build_order_dag,
    fit_idr,
    make_training_set,
)
from idr.oracles import (
    gamma_parameters,
    simulate_gamma,
    true_gamma_cdf,
    true_gamma_crps,
    true_gamma_quantile,
)

from brute_force import (
    brute_force_antitonic,
    exhaustive_partition_fit,
    isotonic_quantile_oracle,
    pinball_loss,
)

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))
CW2 = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))


def chain_dag(n):
    return build_order_dag(TOTAL1, np.arange(n, dtype=float)[:, None])


def antichain_dag(n):
    pts = np.column_stack([np.arange(n), -np.arange(n)]).astype(float)
    return build_order_dag(CW2, pts)


# ---------------------------------------------------------------------------
# max-min enumeration oracle
# ---------------------------------------------------------------------------

def test_bruteforce_chain_fixture():
    assert np.allclose(brute_force_antitonic(chain_dag(3), [0.0, 1.0, 0.0]), [0.5, 0.5, 0.0])


def test_bruteforce_antichain_unchanged():
    v = np.array([0.3, 0.9, 0.1, 0.6])
    assert np.allclose(brute_force_antitonic(antichain_dag(4), v), v)


def test_bruteforce_feasible_and_optimal_among_partitions():
    rng = np.random.default_rng(61)
    for _ in range(40):
        pts = rng.integers(0, 3, size=(rng.integers(2, 8), 2)).astype(float)
        dag = build_order_dag(CW2, pts)
        v = rng.uniform(size=dag.n_nodes)
        w = rng.uniform(0.3, 2.0, size=dag.n_nodes)
        eta = brute_force_antitonic(dag, v, w)
        strict = dag.reach & ~np.eye(dag.n_nodes, dtype=bool)
        us, vs = np.nonzero(strict)
        assert np.all(eta[us] >= eta[vs] - 1e-12)
        other = exhaustive_partition_fit(dag, v, w)
        assert np.allclose(eta, other, atol=1e-10)


def test_bruteforce_beats_every_enumerated_candidate():
    rng = np.random.default_rng(67)
    pts = rng.integers(0, 3, size=(6, 2)).astype(float)
    dag = build_order_dag(CW2, pts)
    v = rng.uniform(size=dag.n_nodes)
    w = rng.uniform(0.5, 1.5, size=dag.n_nodes)
    eta = brute_force_antitonic(dag, v, w)
    _, candidates = exhaustive_partition_fit(dag, v, w, return_candidates=True)
    best = min(np.sum(w * (c - v) ** 2) for c in candidates)
    assert np.sum(w * (eta - v) ** 2) <= best + 1e-10


def test_bruteforce_rejects_large_dags():
    with pytest.raises(ValueError):
        brute_force_antitonic(chain_dag(13), np.zeros(13))


# ---------------------------------------------------------------------------
# isotonic quantile oracle
# ---------------------------------------------------------------------------

def test_quantile_oracle_matches_fitted_quantiles_on_worked_chain():
    ts = make_training_set(TOTAL1, [1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    model = fit_idr(ts)
    dag = ts.dag
    q = isotonic_quantile_oracle(dag, ts.responses, 0.5)
    fitted = [model.node_cdf(i).quantile(0.5) for i in range(3)]
    assert np.array_equal(q, fitted)


def test_quantile_oracle_perfect_order_returns_responses():
    dag = chain_dag(4)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    for a in (0.2, 0.5, 0.8):
        assert np.array_equal(isotonic_quantile_oracle(dag, y, a), y)


def test_quantile_oracle_antichain_returns_own_values():
    dag = antichain_dag(4)
    y = np.array([4.0, 1.0, 3.0, 2.0])
    assert np.array_equal(isotonic_quantile_oracle(dag, y, 0.5), y)


def brute_quantile_search(dag, y_raw, alpha):
    """Literal minimization over all order-consistent candidate vectors.

    Candidate vectors are nondecreasing along the order: larger
    covariates may only receive larger quantiles.  Raw responses are
    charged to their nodes through the membership map.
    """
    cand = np.unique(y_raw)
    n = dag.n_nodes
    node = dag.membership
    strict = dag.reach & ~np.eye(n, dtype=bool)
    us, vs = np.nonzero(strict)
    best, best_loss = None, np.inf
    for combo in itertools.product(cand, repeat=n):
        q = np.array(combo)
        if np.any(q[us] > q[vs]):
            continue
        loss = sum(pinball_loss(q[node[i]], y_raw[i], alpha) for i in range(len(y_raw)))
        key = (loss, tuple(q))
        if best is None or key < (best_loss, tuple(best)):
            best, best_loss = q, loss
    return best, best_loss


def oracle_loss(dag, q, y_raw, alpha):
    return sum(pinball_loss(q[dag.membership[i]], y_raw[i], alpha) for i in range(len(y_raw)))


def test_quantile_oracle_against_literal_enumeration():
    rng = np.random.default_rng(71)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        dag = chain_dag(n) if trial % 2 else antichain_dag(n)
        # dyadic responses keep every mean exactly representable
        y = rng.integers(0, 8, size=n) / 4.0
        alpha = rng.choice([0.25, 0.5, 0.75])
        got = isotonic_quantile_oracle(dag, y, alpha)
        want, want_loss = brute_quantile_search(dag, y, alpha)
        assert oracle_loss(dag, got, y, alpha) == pytest.approx(want_loss, abs=1e-12)
        assert np.array_equal(got, want)


def test_quantile_oracle_on_componentwise_posets():
    rng = np.random.default_rng(73)
    for _ in range(15):
        pts = rng.integers(0, 3, size=(5, 2)).astype(float)
        dag = build_order_dag(CW2, pts)
        y = rng.integers(0, 6, size=5) / 2.0
        got = isotonic_quantile_oracle(dag, y, 0.5)
        want, want_loss = brute_quantile_search(dag, y, 0.5)
        assert oracle_loss(dag, got, y, 0.5) == pytest.approx(want_loss, abs=1e-12)
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# simulation law
# ---------------------------------------------------------------------------

def test_gamma_scale_clamps():
    assert gamma_parameters(np.array([0.5]))[1][0] == 1.0
    assert gamma_parameters(np.array([9.0]))[1][0] == 6.0
    shape, scale = gamma_parameters(np.array([4.0]))
    assert shape[0] == 2.0 and scale[0] == 4.0


def test_simulated_conditional_mean():
    rng = np.random.default_rng(0)
    shape, scale = gamma_parameters(np.array([4.0]))
    draws = rng.gamma(shape[0], scale[0], size=100_000)
    assert abs(draws.mean() - 8.0) / 8.0 < 0.01


def test_simulate_is_deterministic_and_in_range():
    x1, y1 = simulate_gamma(500, seed=4)
    x2, y2 = simulate_gamma(500, seed=4)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert np.all((x1 > 0) & (x1 < 10))
    assert np.all(y1 > 0)
    x3, _ = simulate_gamma(500, seed=5)
    assert not np.array_equal(x1, x3)


def test_true_cdf_and_quantile_are_consistent():
    rng = np.random.default_rng(2)
    for x in rng.uniform(0.2, 9.8, size=10):
        for a in (0.1, 0.5, 0.9):
            q = true_gamma_quantile(np.array([x]), a)[0]
            assert true_gamma_cdf(np.array([x]), q) == pytest.approx(a, abs=1e-9)


def test_true_gamma_crps_matches_quadrature():
    rng = np.random.default_rng(6)
    for _ in range(8):
        x = float(rng.uniform(0.3, 9.7))
        y = float(rng.uniform(0.1, 25.0))
        shape, scale = (float(v[0]) for v in gamma_parameters(np.array([x])))
        closed = true_gamma_crps(np.array([x]), np.array([y]))[0]

        def integrand(z):
            return (stats.gamma.cdf(z, shape, scale=scale) - (y <= z)) ** 2

        numeric = integrate.quad(integrand, 0, y)[0]
        numeric += integrate.quad(integrand, y, np.inf)[0]
        assert closed == pytest.approx(numeric, abs=1e-6)
