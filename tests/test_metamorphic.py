"""Metamorphic properties of the fit.

Each test changes the training data in a way whose effect on the fit
is known exactly, and checks the fit bit for bit on small seeded
posets of every relation:

- the order of the training rows does not matter;
- a duplicated row fits like that row with twice its weight;
- a strictly increasing map of the responses maps the thresholds and
  leaves every CDF row unchanged;
- a componentwise order on collinear points is the total order along
  the line, for the fit and for predictions on that line;
- on at most 12 nodes, every threshold column of the fit is the exact
  projection rounded once, bit for bit, under integer weights or those
  times 2**-60, and the brute-force projection to 1e-10 at 1e-300 or
  1e300 times them.

The weights are integers, so every sum the fit takes is exact in any
order of its terms.
"""

from fractions import Fraction

import numpy as np
import pytest

from idr import (
    COMPONENTWISE,
    EMPIRICAL_ICX,
    EMPIRICAL_STOCHASTIC,
    TOTAL,
    OrderGroup,
    OrderSpec,
    fit_idr,
    make_training_set,
    predict_batch,
)

from brute_force import brute_force_antitonic, exact_antitonic, exact_pav

SPECS = {
    "total": OrderSpec((OrderGroup((0,), TOTAL),)),
    "componentwise": OrderSpec((OrderGroup((0, 1), COMPONENTWISE),)),
    "stochastic": OrderSpec((OrderGroup((0, 1, 2), EMPIRICAL_STOCHASTIC),)),
    "icx": OrderSpec((OrderGroup((0, 1, 2), EMPIRICAL_ICX),)),
    "total_and_icx": OrderSpec((OrderGroup((2,), TOTAL), OrderGroup((0, 1), EMPIRICAL_ICX))),
}

CASES = [(name, seed) for name in SPECS for seed in range(3)]


def draw(name: str, seed: int, n: int = 30):
    """A small training set of ``n`` rows on an integer grid, so that
    covariates and responses tie and several rows share a node."""
    rng = np.random.default_rng([seed, list(SPECS).index(name)])
    spec = SPECS[name]
    x = rng.integers(0, 10 if spec.dimension == 1 else 4, size=(n, spec.dimension)).astype(float)
    y = np.round(x.mean(axis=1) + rng.normal(size=n), 1)
    w = rng.integers(1, 4, size=n).astype(float)
    return spec, x, y, w


def fit(spec, x, y, w=None):
    return fit_idr(make_training_set(spec, x, y, w))


def assert_same_rows(a, b):
    """Equal fitted CDF rows and climatology, bit for bit."""
    assert np.array_equal(a.cdf, b.cdf)
    assert np.array_equal(a.climatology.cum, b.climatology.cum)


def assert_same_fit(a, b):
    assert np.array_equal(a.dag.keys, b.dag.keys)
    assert np.array_equal(a.thresholds, b.thresholds)
    assert_same_rows(a, b)


@pytest.mark.parametrize("name, seed", CASES)
def test_fit_does_not_depend_on_row_order(name, seed):
    spec, x, y, w = draw(name, seed)
    model = fit(spec, x, y, w)
    assert model.n_nodes < len(y)  # some rows share a node
    perm = np.random.default_rng(seed).permutation(len(y))
    assert_same_fit(fit(spec, x[perm], y[perm], w[perm]), model)


@pytest.mark.parametrize("name, seed", CASES)
def test_duplicated_row_fits_like_doubled_weight(name, seed):
    spec, x, y, w = draw(name, seed)
    for i in (0, len(y) // 2, len(y) - 1):
        doubled = w.copy()
        doubled[i] *= 2
        duplicated = fit(spec, np.vstack([x, x[i]]), np.append(y, y[i]), np.append(w, w[i]))
        assert_same_fit(duplicated, fit(spec, x, y, doubled))


@pytest.mark.parametrize("name, seed", CASES)
def test_increasing_map_of_responses_maps_only_the_thresholds(name, seed):
    spec, x, y, w = draw(name, seed)
    model = fit(spec, x, y, w)
    for g in (np.exp, lambda v: 1e-9 * v, lambda v: v**3 - 1e4):
        assert np.all(np.diff(g(model.thresholds)) > 0)  # strictly increasing on these responses
        mapped = fit(spec, x, g(y), w)
        assert np.array_equal(mapped.dag.keys, model.dag.keys)
        assert np.array_equal(mapped.thresholds, g(model.thresholds))
        assert np.array_equal(mapped.climatology.jumps, g(model.thresholds))
        assert_same_rows(mapped, model)


@pytest.mark.parametrize("seed", range(3))
def test_componentwise_order_on_collinear_points_is_the_total_order(seed):
    """Points (t, 2t + 1) are componentwise ordered exactly as t is, so
    the two specs fit the same rows.  Predictions at collinear queries
    agree too: the total order finds neighbours by binary search, the
    componentwise one by comparing each query with every node."""
    spec, t, y, w = draw("total", seed)
    line = np.column_stack([t[:, 0], 2 * t[:, 0] + 1])
    total, cw = fit(spec, t, y, w), fit(SPECS["componentwise"], line, y, w)
    assert cw.dag.is_chain and cw.n_nodes == total.n_nodes < len(y)
    assert np.array_equal(cw.thresholds, total.thresholds)
    assert_same_rows(cw, total)
    # below, at, between and above the training points
    s = np.arange(-1.0, 11.0, 0.5)[:, None]
    a, b = predict_batch(total, s), predict_batch(cw, np.column_stack([s, 2 * s + 1]))
    assert a.provenance == b.provenance and len(set(a.provenance)) == 4
    for side in ("center", "lower", "upper"):
        assert np.array_equal(getattr(a, side), getattr(b, side), equal_nan=True)


@pytest.mark.parametrize("name, seed", CASES)
def test_fit_is_the_brute_force_projection_at_every_weight_scale(name, seed):
    """Twelve rows make at most 12 nodes.  At each threshold the fit
    projects the nodes' indicator means, weighted by the nodes' integer
    weights; scaling every weight by one factor leaves the projection
    as it is.  Under the weights times 2**-60 or 1, whose sums are
    exact, every fitted value is the exact projection rounded once, bit
    for bit; under 1e-300 or 1e300 times them it is within 1e-10."""
    spec, x, y, w = draw(name, seed, n=12)
    fits = {scale: fit(spec, x, y, w * scale) for scale in (2.0**-60, 1e-300, 1.0, 1e300)}
    dag, thresholds = fits[1.0].dag, fits[1.0].thresholds
    node_weight = np.bincount(dag.membership, weights=w, minlength=dag.n_nodes)
    units = node_weight.astype(int).tolist()
    for k, t in enumerate(thresholds):
        sums = np.bincount(dag.membership, weights=w * (y <= t), minlength=dag.n_nodes)
        oracle = brute_force_antitonic(dag, sums / node_weight, node_weight)
        exact = [float(v) for v in exact_projection(dag, [Fraction(int(c), u) for c, u in zip(sums, units)], units)]
        for scale, model in fits.items():
            assert np.array_equal(model.dag.keys, dag.keys) and np.array_equal(model.thresholds, thresholds)
            if scale in (2.0**-60, 1.0):
                assert model.cdf[:, k].tolist() == exact, (scale, t)
            else:
                assert np.allclose(model.cdf[:, k], oracle, rtol=0, atol=1e-10), (t, model.cdf[:, k], oracle)


def exact_projection(dag, values, weights):
    """The exact antitonic projection of one column, in Fractions: PAV
    along a chain, else the max-min formula."""
    if not dag.is_chain:
        return exact_antitonic(dag, values, weights)
    order = np.argsort(dag.chain_positions)
    out = [None] * dag.n_nodes
    for i, v in zip(order, exact_pav([values[i] for i in order], [weights[i] for i in order])):
        out[i] = v
    return out
