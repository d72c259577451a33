"""Order relations, canonical keys, and the comparability DAG."""

import gc
import json
import tracemalloc
import warnings

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
    build_order_dag,
    canonical_key,
    compare,
    fit_idr,
    gini_mean_difference,
    make_training_set,
    model_from_json,
    model_to_json,
    orders,
    direct_predecessors,
    direct_successors,
    predict_batch,
)

from idr.stepfun import CASE_BLOCK

from brute_force import cover_matrix, eager_dag_structure


def cw_spec(d):
    return OrderSpec((OrderGroup(tuple(range(d)), COMPONENTWISE),))


def group_spec(d, relation):
    return OrderSpec((OrderGroup(tuple(range(d)), relation),))


TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_componentwise_less():
    assert compare(cw_spec(2), (1, 2), (2, 3)) is Relation.LESS


def test_componentwise_incomparable():
    assert compare(cw_spec(2), (1, 3), (2, 2)) is Relation.INCOMPARABLE


def test_stochastic_sorts_before_comparing():
    # sorted: (1,3) vs (2,2), which are incomparable coordinatewise
    s = group_spec(2, EMPIRICAL_STOCHASTIC)
    assert compare(s, (3, 1), (2, 2)) is Relation.INCOMPARABLE


def test_icx_tail_sum_dominance():
    # tail sums (4,2) vs (4,3): dominated in every component
    s = group_spec(2, EMPIRICAL_ICX)
    assert compare(s, (2, 2), (1, 3)) is Relation.LESS


def test_exchangeable_permutations_are_equal():
    s = group_spec(3, EMPIRICAL_STOCHASTIC)
    assert compare(s, (3, 1, 2), (2, 3, 1)) is Relation.EQUAL
    s = group_spec(3, EMPIRICAL_ICX)
    assert compare(s, (3, 1, 2), (1, 2, 3)) is Relation.EQUAL


def test_total_order_on_scalars():
    assert compare(TOTAL1, (1,), (2,)) is Relation.LESS
    assert compare(TOTAL1, (2,), (1,)) is Relation.GREATER
    assert compare(TOTAL1, (1,), (1.0,)) is Relation.EQUAL


def test_mixed_groups_need_both_relations():
    spec = OrderSpec((OrderGroup((0,), TOTAL), OrderGroup((1, 2), EMPIRICAL_STOCHASTIC)))
    assert compare(spec, (1, 5, 3), (2, 6, 4)) is Relation.LESS
    # first group up, second group down: incomparable under the product
    assert compare(spec, (1, 5, 3), (2, 1, 1)) is Relation.INCOMPARABLE


def test_compare_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        compare(cw_spec(2), (1, 2), (1, 2, 3))


def test_compare_rejects_nan():
    with pytest.raises(ValueError):
        compare(cw_spec(2), (1, np.nan), (2, 3))


def test_icx_tail_sums_that_overflow_are_rejected():
    """1.5e308 + 1.5e308 overflows, so the tail sums cannot decide the
    relation, which for (1.5, 1.5) against (1.6, 1.0) is incomparable.
    The order layer says so with a ValueError, not a numpy warning."""
    s = group_spec(2, EMPIRICAL_ICX)
    assert compare(s, (1.5, 1.5), (1.6, 1.0)) is Relation.INCOMPARABLE
    dag = build_order_dag(s, [(1.0, 1.0), (2.0, 0.0)])
    calls = [
        lambda: compare(s, (1.5e308, 1.5e308), (1.6e308, 1.0e308)),
        lambda: compare(s, (-1.5e308, -1.5e308), (0.0, 0.0)),
        lambda: build_order_dag(s, [(1.0, 1.0), (1.5e308, 1.5e308)]),
        lambda: dag.query_neighbors(np.array([[1.5e308, 1.5e308]])),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="overflow"):
                call()


def test_spec_validation():
    with pytest.raises(ValueError):
        OrderSpec((OrderGroup((0, 1), TOTAL),))  # total groups are single-column
    with pytest.raises(ValueError):
        OrderSpec((OrderGroup((0,), COMPONENTWISE), OrderGroup((0,), TOTAL)))
    with pytest.raises(ValueError):
        OrderSpec((OrderGroup((), COMPONENTWISE),))
    with pytest.raises(ValueError):
        OrderSpec((OrderGroup((0,), "lexicographic"),))


def test_column_indices_are_integers_and_never_booleans():
    """numpy integers are read as Python ints, so the spec still
    serializes; a boolean or a float is not a column index."""
    group = OrderGroup((np.int64(1), np.intp(0)), COMPONENTWISE)
    assert group.columns == (1, 0) and all(type(c) is int for c in group.columns)
    doc = json.loads(model_to_json(fit_idr(make_training_set(OrderSpec((group,)), [[0, 1], [1, 2]], [0, 1]))))
    assert doc["order_spec"]["groups"] == [{"columns": [1, 0], "relation": COMPONENTWISE}]
    for columns in ((True,), (np.bool_(False),), (0.0,), ("0",), (0, None)):
        with pytest.raises(TypeError, match="integers"):
            OrderGroup(columns, TOTAL if len(columns) == 1 else COMPONENTWISE)


def test_column_names_are_strings():
    OrderSpec((OrderGroup((0,), TOTAL),), column_names=("x",))
    for names in ((5,), ("x", None), (b"x",)):
        with pytest.raises(TypeError, match="column_names"):
            OrderSpec((OrderGroup((0,), TOTAL),), column_names=names)


def test_canonical_key_sorts_exchangeable_groups_only():
    spec = OrderSpec((OrderGroup((0, 1), COMPONENTWISE), OrderGroup((2, 3), EMPIRICAL_ICX)))
    assert canonical_key(spec, (2, 1, 9, 4)) == (2.0, 1.0, 4.0, 9.0)


def test_key_equality_matches_mutual_order():
    rng = np.random.default_rng(7)
    spec = group_spec(3, EMPIRICAL_STOCHASTIC)
    for _ in range(200):
        u = rng.integers(0, 3, size=3).astype(float)
        v = rng.integers(0, 3, size=3).astype(float)
        keys_equal = canonical_key(spec, u) == canonical_key(spec, v)
        assert keys_equal == (compare(spec, u, v) is Relation.EQUAL)


def test_compare_is_antisymmetric_pairwise():
    rng = np.random.default_rng(11)
    spec = cw_spec(3)
    for _ in range(300):
        u = rng.integers(0, 4, size=3).astype(float)
        v = rng.integers(0, 4, size=3).astype(float)
        r, rt = compare(spec, u, v), compare(spec, v, u)
        if r is Relation.LESS:
            assert rt is Relation.GREATER
        elif r is Relation.GREATER:
            assert rt is Relation.LESS
        else:
            assert rt is r
        assert compare(spec, u, u) is Relation.EQUAL


@pytest.mark.parametrize("relation", [COMPONENTWISE, EMPIRICAL_STOCHASTIC, EMPIRICAL_ICX])
def test_compare_is_transitive(relation):
    rng = np.random.default_rng(23)
    spec = group_spec(3, relation)
    below = (Relation.LESS, Relation.EQUAL)
    hits = 0
    for _ in range(2000):
        u, v, w = rng.integers(0, 3, size=(3, 3)).astype(float)
        if compare(spec, u, v) in below and compare(spec, v, w) in below:
            hits += 1
            assert compare(spec, u, w) in below
    assert hits > 50  # the sampler actually exercised the premise


def test_componentwise_implies_stochastic():
    rng = np.random.default_rng(5)
    cw = cw_spec(4)
    st = group_spec(4, EMPIRICAL_STOCHASTIC)
    below = (Relation.LESS, Relation.EQUAL)
    hits = 0
    for _ in range(2000):
        u = rng.uniform(0, 1, size=4)
        v = u + rng.uniform(0, 1, size=4) * rng.integers(0, 2, size=4)
        if compare(cw, u, v) in below:
            hits += 1
            assert compare(st, u, v) in below
    assert hits > 100


def test_stochastic_implies_increasing_convex():
    rng = np.random.default_rng(6)
    st = group_spec(4, EMPIRICAL_STOCHASTIC)
    icx = group_spec(4, EMPIRICAL_ICX)
    below = (Relation.LESS, Relation.EQUAL)
    hits = 0
    for _ in range(3000):
        u = rng.integers(0, 4, size=4).astype(float)
        v = rng.integers(0, 4, size=4).astype(float)
        if compare(st, u, v) in below:
            hits += 1
            assert compare(icx, u, v) in below
    assert hits > 100


def test_stochastic_plus_componentwise_comparable_gives_componentwise():
    # when two vectors are coordinatewise comparable at all, the
    # stochastic relation decides the direction
    rng = np.random.default_rng(17)
    cw = cw_spec(3)
    st = group_spec(3, EMPIRICAL_STOCHASTIC)
    below = (Relation.LESS, Relation.EQUAL)
    hits = 0
    for _ in range(3000):
        u = rng.integers(0, 3, size=3).astype(float)
        v = rng.integers(0, 3, size=3).astype(float)
        if compare(st, u, v) in below and compare(cw, u, v) is not Relation.INCOMPARABLE:
            hits += 1
            assert compare(cw, u, v) in below
    assert hits > 100


def test_icx_mean_gini_monotonicity():
    # x below x' in increasing convex order pushes up the functional
    # mean + (d-1)/(2(d+1)) * gini
    rng = np.random.default_rng(29)
    d = 5
    icx = group_spec(d, EMPIRICAL_ICX)
    coef = (d - 1) / (2 * (d + 1))
    below = (Relation.LESS, Relation.EQUAL)
    hits = 0
    for _ in range(2000):
        u = rng.uniform(0, 2, size=d)
        v = rng.uniform(0, 2, size=d)
        if compare(icx, u, v) in below:
            hits += 1
            fu = u.mean() + coef * gini_mean_difference(u)
            fv = v.mean() + coef * gini_mean_difference(v)
            assert fu <= fv + 1e-12
    assert hits > 20


# ---------------------------------------------------------------------------
# gini_mean_difference
# ---------------------------------------------------------------------------

def test_gini_two_points():
    assert gini_mean_difference((1, 3)) == 2.0


def test_gini_constant_vector():
    assert gini_mean_difference((4.2, 4.2, 4.2)) == 0.0


def test_gini_permutation_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=6)
    assert gini_mean_difference(x) == pytest.approx(gini_mean_difference(x[::-1]), abs=1e-15)


def test_gini_holds_no_pairwise_matrix():
    """The pairwise form held two d x d float64 arrays, 256 MB at
    d = 4000; the sorted form needs a few d-vectors."""
    x = np.random.default_rng(5).normal(size=4000)
    gc.collect()
    tracemalloc.start()
    try:
        gini_mean_difference(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    y = x[:300]
    assert gini_mean_difference(y) == pytest.approx(np.abs(y[:, None] - y).sum() / (300 * 299), rel=1e-12)


def test_gini_needs_two_entries():
    with pytest.raises(ValueError):
        gini_mean_difference((1.0,))


# ---------------------------------------------------------------------------
# build_order_dag
# ---------------------------------------------------------------------------

def test_dag_total_order_chain():
    dag = build_order_dag(TOTAL1, [(1,), (2,), (3,)])
    assert dag.n_nodes == 3
    assert dag.edges() == [(0, 1), (1, 2)]
    assert dag.is_chain


def test_dag_incomparable_pair():
    dag = build_order_dag(cw_spec(2), [(1, 3), (2, 2)])
    assert dag.n_nodes == 2
    assert dag.edges() == []
    assert not dag.is_chain


def test_dag_merges_duplicates():
    dag = build_order_dag(TOTAL1, [(1,), (1,), (2,)])
    assert dag.n_nodes == 2
    assert dag.membership.tolist() == [0, 0, 1]


def test_dag_merges_order_equivalent_points():
    spec = group_spec(2, EMPIRICAL_STOCHASTIC)
    dag = build_order_dag(spec, [(1, 2), (2, 1), (0, 0)])
    assert dag.n_nodes == 2
    assert dag.membership.tolist() == [1, 1, 0]


def test_dag_node_order_is_lexicographic():
    dag = build_order_dag(cw_spec(2), [(2, 0), (1, 5), (1, 2)])
    assert np.array_equal(dag.keys, [(1.0, 2.0), (1.0, 5.0), (2.0, 0.0)])


def test_dag_reach_is_transitive_closure_of_covers():
    rng = np.random.default_rng(41)
    for _ in range(20):
        pts = rng.integers(0, 4, size=(12, 3)).astype(float)
        dag = build_order_dag(cw_spec(3), pts)
        n = dag.n_nodes
        covers = cover_matrix(dag)
        closure = covers | np.eye(n, dtype=bool)
        for _ in range(n):
            closure = closure | (closure.astype(np.uint8) @ closure.astype(np.uint8) > 0)
        assert np.array_equal(closure, dag.reach)
        # covers has no shortcuts
        strict = dag.reach & ~np.eye(n, dtype=bool)
        two_step = strict.astype(np.uint8) @ strict.astype(np.uint8) > 0
        assert not np.any(covers & two_step)


def test_cover_edges_counted_exactly_past_256_paths():
    """On about 300 nodes some pairs have 256 two-step paths between
    them; those pairs are not covers."""
    rng = np.random.default_rng(53)
    a = np.arange(300, dtype=float)
    pts = np.column_stack([a, a + rng.integers(-2, 3, size=300)])
    dag = build_order_dag(cw_spec(2), pts)
    strict = (dag.reach & ~np.eye(dag.n_nodes, dtype=bool)).astype(np.int64)
    exact = np.count_nonzero(strict & ((strict @ strict) == 0))
    assert len(dag.edges()) == exact


@pytest.mark.parametrize("relation", [COMPONENTWISE, EMPIRICAL_STOCHASTIC, EMPIRICAL_ICX])
def test_dag_reach_agrees_with_compare(relation):
    """Exhaustive pairwise cross-check of reach against compare."""
    rng = np.random.default_rng(43)
    spec = group_spec(3, relation)
    pts = rng.integers(0, 5, size=(50, 3)).astype(float)
    dag = build_order_dag(spec, pts)
    below, reach = (Relation.LESS, Relation.EQUAL), dag.reach
    for u in range(dag.n_nodes):
        for v in range(dag.n_nodes):
            expect = compare(spec, dag.keys[u], dag.keys[v]) in below
            assert reach[u, v] == expect


def test_dag_reads_1d_points_as_one_column():
    """A 1-d sequence is one point per entry, as make_training_set reads it."""
    for spec in (TOTAL1, cw_spec(1)):
        flat = build_order_dag(spec, [3.0, 1.0, 2.0, 1.0])
        column = build_order_dag(spec, [(3.0,), (1.0,), (2.0,), (1.0,)])
        assert flat.n_nodes == column.n_nodes == 3 and np.array_equal(flat.keys, column.keys)
        assert flat.membership.tolist() == column.membership.tolist() == [2, 0, 1, 0]


def test_dag_rejects_empty_input():
    with pytest.raises(ValueError):
        build_order_dag(TOTAL1, np.empty((0, 1)))


def test_query_neighbors_matches_compare():
    """Raw, unsorted icx queries: exact iff some node is EQUAL, and the
    neighbours are the maximal nodes below-or-equal and the minimal nodes
    above-or-equal, all decided by ``compare``."""
    rng = np.random.default_rng(47)
    spec = group_spec(3, EMPIRICAL_ICX)
    pts = rng.integers(0, 4, size=(25, 3)).astype(float)
    dag = build_order_dag(spec, pts)
    nodes = range(dag.n_nodes)
    less = [[compare(spec, a, b) is Relation.LESS for b in dag.keys] for a in dag.keys]
    queries = rng.integers(0, 4, size=(30, 3)).astype(float)
    exact, pred, succ = dag.query_neighbors(queries)
    for i, q in enumerate(queries):
        rel = [compare(spec, k, q) for k in dag.keys]
        lo = [u for u in nodes if rel[u] in (Relation.LESS, Relation.EQUAL)]
        hi = [u for u in nodes if rel[u] in (Relation.GREATER, Relation.EQUAL)]
        assert exact[i] == (Relation.EQUAL in rel)
        assert pred[1][pred[0] == i].tolist() == [u for u in lo if not any(less[u][v] for v in lo)]
        assert succ[1][succ[0] == i].tolist() == [u for u in hi if not any(less[v][u] for v in hi)]


# ---------------------------------------------------------------------------
# one build for every order: chains by one sort, edges on first use
# ---------------------------------------------------------------------------

TOTAL_ICX = OrderSpec((OrderGroup((0,), TOTAL), OrderGroup((1, 2, 3), EMPIRICAL_ICX)))


def _random_poset(kind, rng):
    """A spec and 1-40 points of one kind; small sets are often chains."""
    m = int(rng.integers(1, 41))
    if kind == "cw_ties":
        return cw_spec(2), rng.integers(0, 4, size=(m, 2)).astype(float)
    if kind == "st":
        return group_spec(3, EMPIRICAL_STOCHASTIC), rng.integers(0, 5, size=(m, 3)).astype(float)
    if kind == "icx":
        pts = rng.integers(0, 5, size=(m, 3)).astype(float)
        return group_spec(3, EMPIRICAL_ICX), pts if rng.random() < 0.5 else pts + rng.normal(size=(m, 3))
    if kind == "total_icx":
        return TOTAL_ICX, rng.integers(0, 4, size=(m, 4)).astype(float)
    if kind == "collinear":
        a = rng.integers(0, 10, size=m).astype(float)
        return cw_spec(2), np.column_stack([a, 2.0 * a + rng.integers(0, 2, size=m)])
    if kind == "total":
        return TOTAL1, rng.normal(size=(m, 1)).round(1)
    raise AssertionError(kind)


_POSET_KINDS = ("cw_ties", "st", "icx", "total_icx", "collinear", "total")


@pytest.mark.parametrize("kind", _POSET_KINDS)
def test_dag_structure_matches_eager_build(kind):
    """is_chain, chain_positions, reach and edges() equal the
    eager build's on random posets, chains and non-chains alike."""
    rng = np.random.default_rng(_POSET_KINDS.index(kind))
    chains = reordered = 0
    for _ in range(60):
        spec, pts = _random_poset(kind, rng)
        dag = build_order_dag(spec, pts)
        is_chain, positions, reach, covers = eager_dag_structure(dag)
        assert dag.is_chain == is_chain
        if is_chain:
            assert dag.chain_positions.dtype == positions.dtype
            assert np.array_equal(dag.chain_positions, positions)
            chains += 1
            reordered += not np.array_equal(positions, np.arange(dag.n_nodes))
        else:
            assert dag.chain_positions is None
        assert np.array_equal(cover_matrix(dag), covers)
        assert np.array_equal(dag.reach, reach)
        us, vs = np.nonzero(covers)
        assert dag.edges() == list(zip(us.tolist(), vs.tolist()))
    assert chains > 0
    if kind == "icx":
        # the tail sums sort the nodes differently from their keys
        assert reordered > 0


def test_icx_chain_positions_follow_the_tail_sums():
    # keys in node order (0, 10) < (1, 2) < (2, 5); tail sums (10, 10), (3, 2), (7, 5)
    dag = build_order_dag(group_spec(2, EMPIRICAL_ICX), [(2.0, 5.0), (10.0, 0.0), (1.0, 2.0)])
    assert np.array_equal(dag.keys, [(0.0, 10.0), (1.0, 2.0), (2.0, 5.0)])
    assert dag.is_chain and dag.chain_positions.tolist() == [2, 0, 1]
    assert dag.edges() == [(1, 2), (2, 0)]


def test_icx_keys_with_equal_tail_sums_share_a_node():
    """Distinct icx keys whose tail sums round alike are order-equivalent
    (``compare`` calls them EQUAL): one node, one CDF row, and each key
    predicts as a training point."""
    spec = group_spec(2, EMPIRICAL_ICX)
    pts = [(0.0, 1e16), (1.0, 1e16)]
    assert compare(spec, *pts) is Relation.EQUAL
    dag = build_order_dag(spec, pts)
    assert dag.n_nodes == 1 and np.array_equal(dag.keys, [(0.0, 1e16)]) and dag.is_chain
    assert dag.membership.tolist() == [0, 0]
    model = fit_idr(make_training_set(spec, pts, [0.0, 1.0]))
    assert model.cdf.tolist() == [[0.5, 1.0]]
    batch = predict_batch(model, np.array(pts))
    assert batch.provenance == [Provenance.AT_TRAINING_POINT] * 2
    assert batch.center.tolist() == [[0.5, 1.0]] * 2
    assert direct_predecessors(model, pts[1]) == direct_successors(model, pts[1]) == [0]
    # the class keeps its least key; a third, ordered key stays its own node
    dag = build_order_dag(spec, [(1.0, 1e16), (5.0, 3e16), (0.0, 1e16)])
    assert np.array_equal(dag.keys, [(0.0, 1e16), (5.0, 3e16)]) and dag.membership.tolist() == [0, 1, 0]
    assert dag.edges() == [(0, 1)]
    assert np.array_equal(model_from_json(model_to_json(model)).dag.keys, [(0.0, 1e16)])
    # many classes: two points share a node iff compare calls them EQUAL,
    # and a node's key is the least key of its points
    rng = np.random.default_rng(9)
    spec = group_spec(3, EMPIRICAL_ICX)
    for _ in range(20):
        pts = rng.integers(0, 3, size=(12, 3)).astype(float)
        pts[:, 0] += 1e16 * rng.integers(1, 3, size=12)
        dag = build_order_dag(spec, pts)
        node = dag.membership
        for i in range(12):
            same = [compare(spec, pts[i], pts[j]) is Relation.EQUAL for j in range(12)]
            assert (node == node[i]).tolist() == same
        keys = [canonical_key(spec, p) for p in pts]
        assert np.array_equal(dag.keys, [min(k for k, m in zip(keys, node) if m == i) for i in range(dag.n_nodes)])
        # every point, the node's own key or not, predicts as that node
        model = fit_idr(make_training_set(spec, pts, np.arange(12.0) % 3))
        batch = predict_batch(model, pts)
        assert batch.provenance == [Provenance.AT_TRAINING_POINT] * 12
        assert np.array_equal(batch.center, model.cdf[node])


def test_dag_of_a_single_node():
    for spec, pts in ((TOTAL1, [(2.0,), (2.0,)]), (group_spec(3, EMPIRICAL_ICX), [(1.0, 3.0, 2.0)]),
                      (TOTAL_ICX, [(0.0, 1.0, 2.0, 3.0)])):
        dag = build_order_dag(spec, pts)
        is_chain, positions, reach, covers = eager_dag_structure(dag)
        assert dag.n_nodes == 1 and dag.is_chain and is_chain
        assert dag.chain_positions.tolist() == positions.tolist() == [0]
        assert np.array_equal(dag.reach, reach) and np.array_equal(cover_matrix(dag), covers)
        assert dag.edges() == []


def test_dag_arrays_are_read_only(monkeypatch):
    """The arrays are read-only and the edges built once: the non-chain
    compares all pairs on its first edges() call only, the chain never."""
    all_leq, calls = orders._all_leq, []

    def counted(*args):
        calls.append(args)
        return all_leq(*args)

    monkeypatch.setattr(orders, "_all_leq", counted)
    for spec, pts in ((TOTAL1, [(1.0,), (3.0,), (2.0,)]), (cw_spec(2), [(1.0, 3.0), (2.0, 2.0), (3.0, 3.0)])):
        dag = build_order_dag(spec, pts)
        assert dag.edges() == dag.edges()
        for a in (dag.keys, dag.membership, dag.cmp_matrix):
            with pytest.raises(ValueError):
                a[0] = a[0]
    assert len(calls) == 1


def _total_chain_training(n, rng):
    """n distinct covariates on one total-order column, five responses."""
    x = rng.permutation(n).astype(float)
    y = rng.integers(0, 5, size=n).astype(float)
    return TOTAL1, x[:, None], y


def test_total_chain_builds_no_square_matrix():
    """Building the training DAG, counting its cover edges and loading a
    model of a total chain trace far less memory than one n x n boolean
    matrix."""
    n = 4000
    spec, x, y = _total_chain_training(n, np.random.default_rng(59))
    tracemalloc.start()
    try:
        training = make_training_set(spec, x, y)
        edges = len(training.dag.edges())
        _, build_peak = tracemalloc.get_traced_memory()
        text = model_to_json(fit_idr(training))
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        model = model_from_json(text)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert training.dag.is_chain and model.dag.n_nodes == n and edges == n - 1
    assert build_peak < n * n
    assert load_peak - base < n * n


def test_scalar_poset_query_allocates_far_less_than_a_square_matrix():
    """One query at the centre of a 2000-node 2-d componentwise poset,
    whose down- and up-sets hold about a quarter of the nodes each,
    traces far less memory than one n x n float32 matrix once the DAG's
    edges are built.  Its neighbour masks are the ones the cover edges
    give: a node of a down-set is maximal in it iff none of its upper
    covers is in it, and the mirror holds for an up-set."""
    n = 2000
    dag = build_order_dag(cw_spec(2), np.random.default_rng(67).uniform(0, 10, size=(n, 2)))
    dag.edges()
    key = np.array([[5.0, 5.0]])
    tracemalloc.start()
    try:
        exact, pred, succ = dag.query_neighbors(key)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n  # a quarter of one n x n float32 matrix
    # a componentwise key is its own comparison row
    below, above = np.all(dag.cmp_matrix <= key, axis=1), np.all(dag.cmp_matrix >= key, axis=1)
    covers = cover_matrix(dag)
    pred_mask, succ_mask = np.zeros((2, n), dtype=bool)
    pred_mask[pred[1]] = succ_mask[succ[1]] = True
    assert not exact[0] and set(pred[0]) == set(succ[0]) == {0}
    assert np.array_equal(pred_mask, below & ~(covers & below).any(axis=1))
    assert np.array_equal(succ_mask, above & ~(covers.T & above).any(axis=1))


def test_poset_query_block_allocates_less_than_a_square_matrix():
    """One block of CASE_BLOCK queries on a 2000-node 2-d componentwise
    DAG, with its edges built, traces less memory than n x n bytes: the
    neighbours come from the edges, eight cases to a byte, and no
    (nodes, nodes) array is made."""
    n = 2000
    rng = np.random.default_rng(71)
    dag = build_order_dag(cw_spec(2), rng.uniform(0, 10, size=(n, 2)))
    dag.edges()
    queries = rng.uniform(-1, 11, size=(CASE_BLOCK, 2))
    tracemalloc.start()
    try:
        dag.query_neighbors(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_cover_edges_hold_far_less_than_a_square_matrix():
    """Once built, the cover edges of a 2000-node 2-d componentwise DAG
    hold far less memory than one n x n boolean matrix: they are kept as
    index arrays only, and the square matrices that build them are gone."""
    n = 2000
    dag = build_order_dag(cw_spec(2), np.random.default_rng(67).uniform(0, 10, size=(n, 2)))
    tracemalloc.start()
    try:
        edges = len(dag.edges())
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert edges > n
    assert held < n * n // 4


def test_total_chain_never_compares_all_pairs(monkeypatch):
    """A total chain fits, round-trips and predicts without the
    all-pairs comparison or the transitive reduction."""
    def refuse(*args, **kwargs):
        raise AssertionError("a total chain needs no all-pairs matrix")

    monkeypatch.setattr(orders, "_all_leq", refuse)
    spec, x, y = _total_chain_training(300, np.random.default_rng(61))
    model = fit_idr(make_training_set(spec, x, y))
    loaded = model_from_json(model_to_json(model))
    assert np.array_equal(loaded.cdf, model.cdf)
    queries = np.linspace(-10.0, 310.0, 57)[:, None]
    for interpolate in (False, True):
        a = predict_batch(model, queries, interpolate)
        b = predict_batch(loaded, queries, interpolate)
        assert np.array_equal(a.center, b.center) and a.provenance == b.provenance
