"""Exact antitonic least-squares solvers, cross-checked against brute force."""

import numpy as np
import pytest

from idr import (
    COMPONENTWISE,
    EMPIRICAL_ICX,
    TOTAL,
    OrderGroup,
    OrderSpec,
    antitonic_l2_fit,
    build_order_dag,
    fit_idr,
    make_training_set,
    pav_antitonic,
    solvers,
)

from idr.solvers import _PAV_BLOCK

from idr.oracles import simulate_gamma

from brute_force import (
    _closed_masks,
    brute_force_antitonic,
    cover_matrix,
    kkt_violation,
    pav_antitonic_columns,
    strict_pair_antitonic,
)


def test_pav_pools_violating_pair():
    assert np.allclose(pav_antitonic([0, 1, 0]), [0.5, 0.5, 0.0])


def test_pav_keeps_feasible_input():
    v = [1.0, 0.5, 0.0]
    assert pav_antitonic(v).tolist() == v


def test_pav_pools_everything():
    assert np.allclose(pav_antitonic([0, 1, 1]), [2 / 3, 2 / 3, 2 / 3])


def test_pav_weighted_mean_of_blocks():
    out = pav_antitonic([0.0, 1.0], weights=[1.0, 3.0])
    assert np.allclose(out, [0.75, 0.75])


def test_pav_rejects_bad_weights():
    with pytest.raises(ValueError):
        pav_antitonic([1, 2], weights=[1.0, 0.0])
    with pytest.raises(ValueError):
        pav_antitonic([1, 2], weights=[1.0, -2.0])
    with pytest.raises(ValueError):
        pav_antitonic([1, 2], weights=[1.0])


def test_pav_output_is_nonincreasing_projection():
    """Nonincreasing output, block means, and the variational inequality
    <v - fit, g - fit>_w <= 0 for feasible g."""
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = rng.integers(1, 30)
        v = rng.normal(size=n)
        w = rng.uniform(0.1, 3.0, size=n)
        fit = pav_antitonic(v, w)
        assert np.all(np.diff(fit) <= 1e-12)
        for _ in range(5):
            g = np.sort(rng.normal(size=n))[::-1]
            assert np.dot(w * (v - fit), g - fit) <= 1e-9


def chain_dag(n):
    return build_order_dag(OrderSpec((OrderGroup((0,), TOTAL),)), np.arange(n)[:, None])


def test_antichain_values_unchanged():
    spec = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
    dag = build_order_dag(spec, [(0, 3), (1, 2), (2, 1), (3, 0)])
    assert dag.edges() == []
    v = np.array([0.9, 0.1, 0.5, 0.7])
    assert antitonic_l2_fit(dag, v).tolist() == v.tolist()


def test_chain_agrees_with_pav():
    """The chain solver equals the one-column reference PAV bit for bit,
    with ties, non-unit weights and more columns than one solver pass."""
    rng = np.random.default_rng(31)
    cases = [(int(n), 1) for n in rng.integers(2, 40, size=25)]
    cases += [(n, m) for n in (1, 2, 37, 300) for m in (1, 3, _PAV_BLOCK + 7)]
    for n, m in cases:
        dag = chain_dag(n)
        v = rng.normal(size=(n, m))
        v[:, ::2] = np.round(v[:, ::2])  # tied values
        w = rng.uniform(0.5, 2.0, size=n) if n % 2 else rng.integers(1, 4, size=n).astype(float)
        want = pav_antitonic_columns(v, w)
        assert np.array_equal(antitonic_l2_fit(dag, v, w), want), (n, m)
        assert np.array_equal(antitonic_l2_fit(dag, v[:, 1 % m], w), want[:, 1 % m])
        assert np.array_equal(pav_antitonic(v[:, 0], w), want[:, 0])


def test_diamond_poset_matches_oracle():
    spec = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
    dag = build_order_dag(spec, [(0, 0), (0, 1), (1, 0), (1, 1)])
    v = np.array([0.0, 1.0, 0.0, 1.0])
    fit = antitonic_l2_fit(dag, v)
    oracle = brute_force_antitonic(dag, v)
    assert np.allclose(fit, oracle, atol=1e-10)
    assert np.allclose(fit, [0.5, 0.5, 0.5, 0.5])


def test_random_posets_match_oracle():
    rng = np.random.default_rng(77)
    spec2 = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
    icx3 = OrderSpec((OrderGroup((0, 1, 2), EMPIRICAL_ICX),))
    for trial in range(60):
        spec = spec2 if trial % 2 else icx3
        d = len(spec.groups[0].columns)
        pts = rng.integers(0, 4, size=(rng.integers(2, 9), d)).astype(float)
        dag = build_order_dag(spec, pts)
        v = rng.uniform(0, 1, size=dag.n_nodes)
        w = rng.uniform(0.2, 3.0, size=dag.n_nodes)
        fit = antitonic_l2_fit(dag, v, w)
        oracle = brute_force_antitonic(dag, v, w)
        assert np.allclose(fit, oracle, atol=1e-10), (trial, fit, oracle)


CW2 = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))


def random_poset(kind, rng):
    """Covariate rows of a random poset of up to ~200 points, and a
    response that increases with them."""
    n = int(rng.integers(120, 201))
    if kind == "cw_ties":
        spec, x = CW2, rng.integers(0, 12, size=(n, 2)).astype(float)
    elif kind == "cw_continuous":
        spec, x = OrderSpec((OrderGroup((0, 1, 2), COMPONENTWISE),)), rng.normal(size=(n, 3))
    elif kind == "icx":
        spec = OrderSpec((OrderGroup((0, 1, 2, 3), EMPIRICAL_ICX),))
        x = np.round(rng.uniform(0, 5, size=(n, 1)) + rng.normal(scale=0.6, size=(n, 4)), 1)
    else:  # total + icx
        spec = OrderSpec((OrderGroup((0,), TOTAL), OrderGroup((1, 2, 3), EMPIRICAL_ICX)))
        base = rng.uniform(0, 5, size=(n, 1))
        x = np.round(np.hstack([base + rng.normal(scale=0.3, size=(n, 1)),
                                base + rng.normal(scale=0.6, size=(n, 3))]), 1)
    y = x.mean(axis=1) + rng.normal(size=n)
    return build_order_dag(spec, x), y


def indicator_means(dag, y, w, thresholds):
    """Node x threshold weighted means of 1{y <= threshold}, and the node
    weights, as ``fit_idr`` builds them."""
    node_w = np.bincount(dag.membership, weights=w, minlength=dag.n_nodes)
    hits = (y[:, None] <= thresholds[None, :]) * w[:, None]
    sums = np.zeros((dag.n_nodes, thresholds.size))
    np.add.at(sums, dag.membership, hits)
    return sums / node_w[:, None], node_w


@pytest.mark.parametrize("kind", ["cw_ties", "cw_continuous", "icx", "total_icx"])
def test_poset_fit_matches_strict_pair_reference(kind):
    """The warm-started cover-edge solver equals the earlier strict-pair
    solver, which solves every column from scratch, bit for bit on
    random posets: on indicator-mean columns (row weights unit, integer
    or float) at 8 quantiles, and, in one trial per kind, at every
    distinct response, where neighbouring columns differ by one
    observation; and on random normal columns (node weights unit,
    integer or float)."""
    index = ["cw_ties", "cw_continuous", "icx", "total_icx"].index(kind)
    rng = np.random.default_rng(index)
    for trial in range(3):
        dag, y = random_poset(kind, rng)
        assert not dag.is_chain and dag.edges()
        n = dag.n_nodes
        weights = [np.ones(y.size), rng.integers(1, 5, size=y.size).astype(float),
                   rng.uniform(0.2, 3.0, size=y.size)][trial]
        grids = [np.quantile(y, np.linspace(0.05, 0.95, 8))] + [np.unique(y)] * (trial == index % 3)
        for thresholds in grids:
            values, node_w = indicator_means(dag, y, weights, thresholds)
            assert np.array_equal(antitonic_l2_fit(dag, values, node_w),
                                  strict_pair_antitonic(dag, values, node_w)), (kind, trial, thresholds.size)
        w = [np.ones(n), rng.integers(1, 5, size=n).astype(float), rng.uniform(0.2, 3.0, size=n)][trial]
        values = rng.normal(size=(n, 3))
        assert np.array_equal(antitonic_l2_fit(dag, values, w), strict_pair_antitonic(dag, values, w))
        assert np.array_equal(antitonic_l2_fit(dag, values[:, 0], w), strict_pair_antitonic(dag, values[:, 0], w))


def test_ties_across_carried_blocks_match_the_reference():
    """Two incomparable nodes meet at one value c: the second column moves
    one of them onto the other's value.  The warm start re-solves only
    the moved node's block; under float weights each node's own mean can
    differ from c by an ulp, while solving from scratch pools the two.
    Moved to within 1e-12 of c they pool too; 1e-10 away they do not.
    The fit must be the reference's, bit for bit, in every case."""
    dag = build_order_dag(CW2, [(0, 0), (0, 1), (1, 0), (2, 2)])
    assert dag.edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    rng = np.random.default_rng(5)
    for draw in range(2000):
        w = rng.uniform(0.2, 3.0, size=4)
        c = rng.uniform(0.2, 0.8)
        moved = c + [0.0, 0.0, 1e-12, -1e-12, 1e-10, -1e-10][draw % 6]
        values = np.array([[1.0, 1.0], [rng.uniform(0.0, 0.2), moved], [c, c], [0.0, 0.0]])
        assert np.array_equal(antitonic_l2_fit(dag, values, w), strict_pair_antitonic(dag, values, w)), draw


def test_ties_between_blocks_of_two_rounds_match_the_reference(monkeypatch):
    """Node 0 lies below node 1; node 2 is incomparable to both.  Nodes
    0 and 2 form one block in the first column, and the second moves
    both: the first round splits them, node 0 breaks its edge to node 1,
    and the second round pools nodes 0 and 1 at (nearly) node 2's value.
    The two rounds' blocks are one level set, which solving from scratch
    pools, and the merge solves them as one block again: the fit must be
    the reference's, bit for bit, under float weights."""
    dag = build_order_dag(CW2, [(0.0, 0.0), (0.0, 1.0), (1.0, -1.0)])
    assert dag.edges() == [(0, 1)]
    solved = []
    real = solvers._split
    monkeypatch.setattr(solvers, "_split", lambda idx, *args: solved.append(list(idx)) or real(idx, *args))
    rng = np.random.default_rng(11)
    for draw in range(500):
        w = rng.uniform(0.2, 3.0, size=3)
        c = rng.uniform(0.1, 0.45)
        # node 0's new value pools with node 1's 0.5 to c
        values = np.array([[0.9, (c * (w[0] + w[1]) - w[1] * 0.5) / w[0]], [0.5, 0.5], [0.9, c]])
        del solved[:]
        fit = antitonic_l2_fit(dag, values, w)
        assert solved == [[0, 1, 2], [0, 2], [0, 1], [0, 1, 2]], draw
        assert np.array_equal(fit, strict_pair_antitonic(dag, values, w)), draw


def test_warm_start_cuts_fewer_blocks_than_solving_each_column_alone(monkeypatch):
    """A 2-d componentwise ``fit_idr`` at n = 200, where every threshold
    column differs from the one before by one observation, needs under
    60% of the min-cuts that solving each column on its own needs, and
    gives the same bits.  Solving again only the blocks at broken edges
    needs fewer min-cuts than solving the whole region each round, as
    the fallback does when the local rounds are capped at none, and the
    bits are the same."""
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 10, size=(200, 2))
    y = x.mean(axis=1) + rng.normal(size=200)
    training = make_training_set(CW2, x, y)
    cuts = []
    real = solvers._best_lower_set
    monkeypatch.setattr(solvers, "_best_lower_set", lambda *args: cuts.append(1) or real(*args))
    warm = fit_idr(training).cdf
    n_warm = len(cuts)
    values, node_w = indicator_means(training.dag, y, training.weights, np.unique(y))
    cold = np.column_stack([antitonic_l2_fit(training.dag, col, node_w) for col in values.T])
    n_cold = len(cuts) - n_warm
    assert np.array_equal(warm, np.maximum.accumulate(np.clip(cold, 0.0, 1.0), axis=1))
    assert 0 < n_warm < 0.6 * n_cold, (n_warm, n_cold)
    monkeypatch.setattr(solvers, "_ROUNDS_PER_NODE", 0)
    del cuts[:]
    assert np.array_equal(fit_idr(training).cdf, warm)
    assert n_warm < 0.9 * len(cuts), (n_warm, len(cuts))


@pytest.mark.parametrize("rounds_per_node, regions", [
    (1, [[0], [0, 1, 5], [0, 5, 6], [0, 5, 6, 7], [0, 5, 6, 7, 8]]),
    (0, [[0], [0, 1, 5], [0, 1, 5, 6], [0, 1, 5, 6, 7], [0, 1, 5, 6, 7, 8]]),
], ids=["local", "growing"])
def test_rounds_re_solve_the_blocks_at_broken_edges(monkeypatch, rounds_per_node, regions):
    """Node 0 lies below two incomparable arms, nodes 1-4 straight up
    from it and nodes 5-8 straight right.  The second column drops it
    from the top of the fit to the bottom.  Solved alone, it breaks its
    cover edges into both arms, and the next round solves it with the
    two far-apart blocks at those edges.  From then on only the right
    arm's edges break: each round solves the blocks at the broken edge,
    and the left arm's block is not solved again.  With the local rounds
    capped at none, the fallback's growing region solves every block
    solved so far, each round.  Both fits are the reference's, bit for
    bit, under unit and float weights."""
    arm = np.arange(1.0, 5.0)
    dag = build_order_dag(CW2, [(0.0, 0.0)] + [(0.0, y) for y in arm] + [(x, 0.0) for x in arm])
    assert dag.edges() == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)]
    col = np.array([0.9, 0.3, 0.25, 0.2, 0.1, 0.85, 0.8, 0.7, 0.6])
    values = np.column_stack([col, np.r_[0.0, col[1:]]])
    monkeypatch.setattr(solvers, "_ROUNDS_PER_NODE", rounds_per_node)
    solved = []
    real = solvers._split
    monkeypatch.setattr(solvers, "_split", lambda idx, *args: solved.append(list(idx)) or real(idx, *args))
    fit = antitonic_l2_fit(dag, values)
    assert solved == [list(range(9))] + regions
    assert np.array_equal(fit, strict_pair_antitonic(dag, values))
    assert np.allclose(fit[:, 1], [0.59, 0.3, 0.25, 0.2, 0.1, 0.59, 0.59, 0.59, 0.59], rtol=0, atol=1e-12)
    w = np.random.default_rng(8).uniform(0.2, 3.0, size=9)
    assert np.array_equal(antitonic_l2_fit(dag, values, w), strict_pair_antitonic(dag, values, w))


def test_poset_fit_is_free_of_the_weight_scale():
    """A 40-row 2-d componentwise fit with integer weights 1-4 gives the
    same CDFs when every weight is multiplied by a tiny or a huge
    factor: bit for bit when the factor is a power of two.  So does the
    solver on a 30-point poset when the values are scaled instead."""
    rng = np.random.default_rng(3)
    x = rng.integers(0, 5, size=(40, 2)).astype(float)
    y = x.sum(axis=1) + rng.integers(0, 4, size=40)
    w = rng.integers(1, 5, size=40).astype(float)
    base = fit_idr(make_training_set(CW2, x, y, w)).cdf
    for scale in (1e-13, 1e-20, 1e-300, 1e-10, 1e300):
        cdf = fit_idr(make_training_set(CW2, x, y, w * scale)).cdf
        assert np.allclose(cdf, base, rtol=0, atol=1e-12), scale
    for scale in (2.0**-60, 2.0**-990, 2.0**40, 2.0**990):
        assert np.array_equal(fit_idr(make_training_set(CW2, x, y, w * scale)).cdf, base), scale
    rng = np.random.default_rng(0)
    dag = build_order_dag(CW2, rng.integers(0, 5, size=(30, 2)).astype(float))
    v = rng.uniform(size=dag.n_nodes)
    base = antitonic_l2_fit(dag, v)
    for scale in (1e-13, 1e-20, 1e-300, 1e-10, 1e300):
        assert np.allclose(antitonic_l2_fit(dag, v * scale) / scale, base, rtol=0, atol=1e-12), scale
    for scale in (2.0**-70, 2.0**-990, 2.0**40, 2.0**990):
        assert np.array_equal(antitonic_l2_fit(dag, v * scale) / scale, base), scale


def test_poset_taller_than_the_recursion_limit():
    """A 1500-point componentwise staircase plus one point incomparable
    to all of it.  A column rising along the staircase pools it into one
    block, and the max-flow's augmenting paths run down its whole
    length.  The fit is the reference's, bit for bit."""
    n = 1500
    staircase = np.repeat(np.arange(n, dtype=float)[:, None], 2, axis=1)
    dag = build_order_dag(CW2, np.vstack([[-1.0, 2.0 * n], staircase]))
    assert not dag.is_chain and dag.n_nodes == n + 1
    chain = np.arange(1, n + 1)  # node 0 is the isolated point
    covers = cover_matrix(dag)
    assert covers[chain[:-1], chain[1:]].all() and not covers[0].any() and not covers[:, 0].any()
    values = np.empty(n + 1)
    values[0] = 0.3
    values[chain] = np.linspace(0.0, 1.0, n)
    fit = antitonic_l2_fit(dag, values)
    assert fit[0] == 0.3
    want = pav_antitonic_columns(values[chain, None], np.ones(n))[:, 0]
    assert np.allclose(fit[chain], want, rtol=0, atol=1e-12)
    assert np.array_equal(fit, strict_pair_antitonic(dag, values))


def test_best_lower_set_is_the_least_maximiser():
    """On random posets of at most 10 nodes, with residuals drawn from a
    few halves so that gains tie and several lower sets maximise, the
    min-cut returns the least lower set of largest gain, checked against
    every lower set; None when no lower set gains more than the
    tolerance or the least maximiser is everything.  The sums are exact,
    so the tolerance cuts at zero gain."""
    rng = np.random.default_rng(21)
    specs = [CW2, OrderSpec((OrderGroup((0, 1, 2), EMPIRICAL_ICX),))]
    seen = {"none": 0, "set": 0, "tied": 0}
    for trial in range(400):
        spec = specs[trial % 2]
        points = rng.integers(0, 4, size=(rng.integers(2, 11), len(spec.groups[0].columns))).astype(float)
        dag = build_order_dag(spec, points)
        n = dag.n_nodes
        b = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=n)
        if trial % 3 == 0:
            b[0] -= b.sum()  # residuals about a block mean sum to zero
        masks = np.array(_closed_masks(cover_matrix(dag)))
        gains = ((masks[:, None] >> np.arange(n)) & 1) @ b
        winners = masks[gains == gains.max()]
        least = int(np.bitwise_and.reduce(winners))
        assert least in winners
        side = solvers._best_lower_set(dag.edges(), b)
        if gains.max() <= 1e-12 * (np.abs(b).sum() + 1.0) or least == (1 << n) - 1:
            assert side is None, trial
            seen["none"] += 1
        else:
            assert side == [bool(least >> i & 1) for i in range(n)], trial
            seen["set"] += 1
            seen["tied"] += winners.size > 1
    assert min(seen.values()) >= 40, seen


def certified_training_set(kind):
    """A seeded training set of 300 rows: a 2-d componentwise poset, a
    noisy point forecast (total) plus a 10-member ensemble (icx), or
    the gamma benchmark's chain."""
    rng = np.random.default_rng(["cw2", "icx", "chain"].index(kind))
    if kind == "chain":
        x, y = simulate_gamma(300, 1)
        return make_training_set(OrderSpec((OrderGroup((0,), TOTAL),)), x[:, None], y)
    if kind == "cw2":
        x = rng.uniform(0, 10, size=(300, 2))
        return make_training_set(CW2, x, x.mean(axis=1) + rng.gamma(2.0, size=300))
    s = rng.uniform(0, 10, size=300)
    x = np.column_stack([s + rng.normal(size=300)] + [rng.gamma(np.sqrt(s) + 0.1, 2.0) for _ in range(10)])
    spec = OrderSpec((OrderGroup((0,), TOTAL), OrderGroup(tuple(range(1, 11)), EMPIRICAL_ICX)))
    return make_training_set(spec, x, rng.gamma(np.sqrt(s) + 0.1, 2.0))


@pytest.mark.parametrize("kind", ["cw2", "icx", "chain"])
def test_fit_meets_the_optimality_conditions(kind):
    """Every threshold column of a ``fit_idr`` model at n = 300, where
    the strict-pair reference is slow, meets the Karush-Kuhn-Tucker
    conditions of the weighted L2 projection to 1e-12: antitonic on the
    cover edges, and on each level set a zero residual sum that a flow
    along its tight edges carries, found by the brute-force file's own
    max-flow (on the chain, the prefix sums of the residuals).  Moving
    one cell of the fit by 1e-6 breaks them.  So do the values
    themselves, which leave no residual but rise along some edge; a
    column's mean, which is antitonic and leaves a zero residual sum,
    but no flow carries its residuals; its maximum, whose residuals do
    not sum to zero; and a fitted column spread away
    from its mean, whose residuals only a flow across the edges where
    it drops would carry."""
    training = certified_training_set(kind)
    dag, y = training.dag, training.responses
    values, node_w = indicator_means(dag, y, training.weights, np.unique(y))
    fit = fit_idr(training).cdf
    assert kkt_violation(dag, values, fit, node_w) <= 1e-12
    rng = np.random.default_rng(2)
    moved = fit.copy()
    moved[rng.integers(fit.shape[0]), rng.integers(fit.shape[1])] += 1e-6
    assert kkt_violation(dag, values, moved, node_w) > 1e-12
    assert kkt_violation(dag, values, values, node_w) > 1e-6
    middle = values[:, values.shape[1] // 2]
    mean = np.full_like(middle, node_w @ middle / node_w.sum())
    assert kkt_violation(dag, middle, mean, node_w) > 1e-6
    assert kkt_violation(dag, middle, np.full_like(middle, middle.max()), node_w) > 1e-6
    assert kkt_violation(dag, *_spread(fit, node_w)) > 1e-6


def _spread(fit, weights):
    """The middle column of ``fit`` as the values, and that column moved
    half as far again from its weighted mean as the fit: antitonic, with
    a zero residual sum and, on a chain, nonnegative duals, but with
    nonzero duals where the fit drops."""
    column = fit[:, fit.shape[1] // 2]
    return column, column + 0.5 * (column - weights @ column / weights.sum()), weights


def test_a_2000_point_chain_fit_meets_the_optimality_conditions():
    """On a chain the certificate needs no flow, so it reaches fits that
    the flow check cannot: the ``simulate_gamma(2000, 1)`` fit meets the
    conditions to 1e-12, and moving one cell by 1e-6 or spreading a
    column away from its mean breaks them."""
    x, y = simulate_gamma(2000, 1)
    training = make_training_set(OrderSpec((OrderGroup((0,), TOTAL),)), x, y)
    values, node_w = indicator_means(training.dag, y, training.weights, np.unique(y))
    fit = fit_idr(training).cdf
    assert kkt_violation(training.dag, values, fit, node_w) <= 1e-12
    moved = fit.copy()
    moved[1000, 1000] += 1e-6
    assert kkt_violation(training.dag, values, moved, node_w) > 1e-12
    assert kkt_violation(training.dag, *_spread(fit, node_w)) > 1e-6


def test_fit_respects_all_order_constraints():
    rng = np.random.default_rng(101)
    spec = OrderSpec((OrderGroup((0, 1, 2), COMPONENTWISE),))
    for _ in range(20):
        pts = rng.integers(0, 3, size=(15, 3)).astype(float)
        dag = build_order_dag(spec, pts)
        fit = antitonic_l2_fit(dag, rng.uniform(size=dag.n_nodes))
        strict = dag.reach & ~np.eye(dag.n_nodes, dtype=bool)
        us, vs = np.nonzero(strict)
        assert np.all(fit[us] >= fit[vs] - 1e-12)


def test_l2_fit_rejects_bad_weights():
    dag = chain_dag(3)
    with pytest.raises(ValueError):
        antitonic_l2_fit(dag, [1, 2, 3], [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        antitonic_l2_fit(dag, [1, 2], None)  # length mismatch with the dag
