"""The batch prediction path against the per-query reference.

The reference below is the per-query prediction rule as it was coded
before prediction moved onto one batch path: neighbour sets of one
query, bounds from their fitted rows, and a per-query average over
subsample members.  The batch must reproduce it bit for bit, with the
same provenance and bound gap.  The reference compares one key at a
time against the comparison matrix, so it shares no code with the
batched masks under test.
"""

import numpy as np
import pytest

from idr import (
    COMPONENTWISE,
    EMPIRICAL_ICX,
    EMPIRICAL_STOCHASTIC,
    TOTAL,
    IdrModel,
    OrderGroup,
    OrderSpec,
    Prediction,
    Provenance,
    StepCdf,
    build_order_dag,
    direct_predecessors,
    direct_successors,
    fit_idr,
    fit_subagged,
    interpolate_total_order,
    make_training_set,
    predict_batch,
    predict_cdf,
    predict_rows,
)
from idr.orders import _comparison_matrix, canonical_key
from idr.stepfun import CASE_BLOCK

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))
CW2 = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
ICX = OrderSpec((OrderGroup((0,), TOTAL), OrderGroup((1, 2, 3), EMPIRICAL_ICX)))

_REPORTS_BOUNDS = (Provenance.AT_TRAINING_POINT, Provenance.BOTH_BOUNDS)
_RANK = [
    Provenance.CLIMATOLOGICAL,
    Provenance.ONLY_SUCCESSORS,
    Provenance.ONLY_PREDECESSORS,
    Provenance.INTERPOLATED,
    Provenance.BOTH_BOUNDS,
    Provenance.AT_TRAINING_POINT,
]


# ---------------------------------------------------------------------------
# per-query reference
# ---------------------------------------------------------------------------

def ref_neighbor_sets(model, key):
    dag = model.dag
    q = _comparison_matrix(dag.spec.key_groups(), np.asarray(key, dtype=float)[None, :])[0]
    below = np.all(dag.cmp_matrix <= q, axis=1)
    above = np.all(dag.cmp_matrix >= q, axis=1)
    reach = dag.reach
    pred = np.zeros(dag.n_nodes, dtype=bool)
    succ = np.zeros(dag.n_nodes, dtype=bool)
    if below.any():
        idx = np.nonzero(below)[0]
        strict = reach[np.ix_(idx, idx)] & ~np.eye(idx.size, dtype=bool)
        pred[idx[~strict.any(axis=1)]] = True
    if above.any():
        idx = np.nonzero(above)[0]
        strict = reach[np.ix_(idx, idx)] & ~np.eye(idx.size, dtype=bool)
        succ[idx[~strict.any(axis=0)]] = True
    return np.nonzero(pred)[0], np.nonzero(succ)[0]


def ref_prediction_from_rows(model, pred, succ):
    grid = model.thresholds
    upper_row = model.cdf[pred].min(axis=0) if len(pred) else None
    lower_row = model.cdf[succ].max(axis=0) if len(succ) else None
    if upper_row is not None and lower_row is not None:
        center = 0.5 * (lower_row + upper_row)
        gap = float((upper_row - lower_row).max())
        return Prediction(StepCdf(grid, center, validate=False), StepCdf(grid, lower_row, validate=False),
                          StepCdf(grid, upper_row, validate=False), Provenance.BOTH_BOUNDS, gap)
    if upper_row is not None:
        up = StepCdf(grid, upper_row, validate=False)
        return Prediction(up, None, up, Provenance.ONLY_PREDECESSORS, None)
    if lower_row is not None:
        lo = StepCdf(grid, lower_row, validate=False)
        return Prediction(lo, lo, None, Provenance.ONLY_SUCCESSORS, None)
    return Prediction(model.climatology, None, None, Provenance.CLIMATOLOGICAL, None)


def ref_node(model, key):
    """The node whose key is exactly ``key``, or -1: a scan of the keys."""
    return next((i for i, k in enumerate(model.dag.keys) if k == tuple(key)), -1)


def ref_predict_cdf(model, x):
    key = np.array(canonical_key(model.spec, x), dtype=float)
    node = ref_node(model, key)
    if node >= 0:
        row = model.node_cdf(node)
        return Prediction(row, row, row, Provenance.AT_TRAINING_POINT, 0.0)
    return ref_prediction_from_rows(model, *ref_neighbor_sets(model, key))


def ref_interpolate(model, xv):
    keys = np.array([k[0] for k in model.dag.keys])
    grid = model.thresholds

    def make(row_lo, row_hi, center):
        return Prediction(StepCdf(grid, center, validate=False), StepCdf(grid, row_lo, validate=False),
                          StepCdf(grid, row_hi, validate=False), Provenance.INTERPOLATED,
                          float((row_hi - row_lo).max()))

    pos = np.searchsorted(keys, xv)
    if pos < keys.size and keys[pos] == xv:
        return make(model.cdf[pos], model.cdf[pos], model.cdf[pos])
    if pos == 0 or pos == keys.size:
        row = model.cdf[min(pos, keys.size - 1)]
        return make(row, row, row)
    t = (xv - keys[pos - 1]) / (keys[pos] - keys[pos - 1])
    center = (1.0 - t) * model.cdf[pos - 1] + t * model.cdf[pos]
    return make(model.cdf[pos], model.cdf[pos - 1], center)


def ref_predict_pooled(model, x):
    parts = [ref_predict_cdf(m, x) for m in model.members]
    grid = np.unique(np.concatenate([p.cdf.jumps for p in parts]))
    k = len(parts)
    center = sum(p.cdf.evaluate(grid) for p in parts) / k
    lower = upper = gap = None
    if all(p.lower is not None for p in parts):
        lower = StepCdf(grid, sum(p.lower.evaluate(grid) for p in parts) / k, validate=False)
    if all(p.upper is not None for p in parts):
        upper = StepCdf(grid, sum(p.upper.evaluate(grid) for p in parts) / k, validate=False)
    if lower is not None and upper is not None:
        gap = float((upper.cum - lower.cum).max())
    provs = [p.provenance for p in parts]
    if all(p in _REPORTS_BOUNDS for p in provs):
        prov = Provenance.BOTH_BOUNDS
    else:
        prov = min(provs, key=_RANK.index)
    heuristic = lower is not None or upper is not None
    return Prediction(StepCdf(grid, center, validate=False), lower, upper, prov, gap, heuristic)


# ---------------------------------------------------------------------------
# models and queries
# ---------------------------------------------------------------------------

def chain_case():
    rng = np.random.default_rng(101)
    x = rng.uniform(0, 10, size=40)
    model = fit_idr(make_training_set(TOTAL1, x, x + rng.normal(size=40)))
    # at keys, between keys, below all, above all
    q = np.concatenate([x[:6], rng.uniform(0, 10, size=12), [-3.0, x.min() - 1e-9, x.max() + 1e-9, 20.0]])
    return model, q[:, None]


def cw_case():
    rng = np.random.default_rng(102)
    x = rng.integers(0, 6, size=(50, 2)).astype(float)
    model = fit_idr(make_training_set(CW2, x, x.sum(axis=1) + rng.normal(size=50)))
    extra = [[-1.0, -1.0], [9.0, 9.0], [-1.0, 9.0], [9.0, -1.0], [2.5, 2.5], [0.5, 4.5]]
    return model, np.vstack([x[:6], rng.uniform(-0.5, 6.5, size=(14, 2)), extra])


def icx_rows(rng, n):
    base = rng.uniform(0, 5, size=n)
    return np.column_stack([base + rng.normal(scale=0.3, size=n),
                            base[:, None] + rng.normal(scale=0.6, size=(n, 3))])


def icx_queries(rng, x):
    # members permuted (same key), fresh rows, below, above, incomparable
    permuted = x[:4][:, [0, 3, 1, 2]]
    extra = [[-9.0] * 4, [30.0] * 4, [30.0, -9.0, -9.0, -9.0], [-9.0, 30.0, 30.0, 30.0]]
    return np.vstack([permuted, icx_rows(rng, 12), extra])


def icx_case():
    rng = np.random.default_rng(103)
    x = icx_rows(rng, 40)
    model = fit_idr(make_training_set(ICX, x, x[:, 0] + rng.normal(size=40)))
    return model, icx_queries(rng, x)


def subagged_case():
    rng = np.random.default_rng(104)
    x = icx_rows(rng, 60)
    ts = make_training_set(ICX, x, x[:, 0] + rng.normal(size=60))
    return fit_subagged(ts, count=4, size=25, seed=9), icx_queries(rng, x)


def random_poset_case(kind, seed):
    """A random poset of up to ~150 nodes with random CDF rows.  The rows
    are not antitonic, as in a hand-edited model file, so only the exact
    neighbour rule reproduces the reference."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 160))
    if kind == "cw_ties":
        spec, x = CW2, rng.integers(0, 16, size=(n, 2)).astype(float)
    elif kind == "cw_continuous":
        spec, x = OrderSpec((OrderGroup((0, 1, 2), COMPONENTWISE),)), rng.normal(size=(n, 3))
    elif kind == "icx":
        spec, x = ICX, np.round(icx_rows(rng, n), 1)
    else:  # a componentwise pair next to an exchangeable pair
        spec = OrderSpec((OrderGroup((0, 2), COMPONENTWISE), OrderGroup((1, 3), EMPIRICAL_STOCHASTIC)))
        x = rng.integers(0, 6, size=(n, 4)).astype(float)
    dag = build_order_dag(spec, x)
    m = int(rng.integers(2, 40))
    cdf = np.sort(rng.uniform(size=(dag.n_nodes, m)), axis=1)
    cdf[:, -1] = 1.0
    climatology = StepCdf(np.arange(m, dtype=float), cdf.mean(axis=0))
    model = IdrModel(np.arange(m, dtype=float), cdf, dag, climatology)
    # exchangeable groups of x reversed give order-equivalent queries
    permuted = x[:5].copy()
    for g in spec.groups:
        if g.relation in (EMPIRICAL_ICX, EMPIRICAL_STOCHASTIC):
            permuted[:, list(g.columns)] = permuted[:, list(g.columns)[::-1]]
    lo, hi = x.min() - 1.0, x.max() + 1.0
    incomparable = np.full(x.shape[1], lo)
    incomparable[spec.groups[0].columns[0]] = hi
    queries = np.vstack([x[:5], permuted, x[5:25] + rng.normal(scale=0.5, size=(20, x.shape[1])),
                         np.full(x.shape[1], lo), np.full(x.shape[1], hi), incomparable])
    return model, queries


RANDOM_CASES = [
    pytest.param(lambda kind=kind, seed=seed: random_poset_case(kind, seed), id=f"{kind}-{seed}")
    for kind in ("cw_ties", "cw_continuous", "icx", "cw_and_st") for seed in (1, 2, 3)
]


def same(a, b):
    """Bitwise equality of two optional step CDFs."""
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a.jumps, b.jumps) and np.array_equal(a.cum, b.cum)


def assert_same_prediction(got, want):
    assert got.provenance is want.provenance
    assert same(got.cdf, want.cdf)
    assert same(got.lower, want.lower)
    assert same(got.upper, want.upper)
    assert got.bound_gap == want.bound_gap  # None or bit-equal floats
    assert got.bounds_heuristic == want.bounds_heuristic


def assert_blocks_agree(model, queries, batch):
    """Two blocks of cases plus one, each a query of ``batch``, give
    that query's rows and provenance, in predict_batch and predict_rows."""
    idx = np.resize(np.arange(len(queries)), 2 * CASE_BLOCK + 1)
    big = predict_batch(model, queries[idx])
    for name in ("center", "lower", "upper"):
        assert np.array_equal(getattr(big, name), getattr(batch, name)[idx], equal_nan=True)
    assert big.provenance == [batch.provenance[i] for i in idx]
    rows, provs = predict_rows(model, queries[idx])
    assert np.array_equal(rows, batch.center[idx]) and provs == big.provenance


def assert_batch_row(batch, i, want):
    """Row ``i`` of a batch agrees with a reference Prediction."""
    assert batch.provenance[i] is want.provenance
    assert np.array_equal(batch.center[i], want.cdf.evaluate(batch.grid))
    for rows, ref in ((batch.lower, want.lower), (batch.upper, want.upper)):
        if ref is None:
            assert np.isnan(rows[i]).all()
        else:
            assert np.array_equal(rows[i], ref.evaluate(batch.grid))
    gap = batch.bound_gap[i]
    assert np.isnan(gap) if want.bound_gap is None else gap == want.bound_gap


@pytest.mark.parametrize("case", [chain_case, cw_case, icx_case, *RANDOM_CASES])
def test_batch_matches_per_query_reference(case):
    model, queries = case()
    batch = predict_batch(model, queries)
    rows, provs = predict_rows(model, queries)
    assert np.array_equal(rows, batch.center) and provs == batch.provenance
    seen = set()
    for i, q in enumerate(queries):
        want = ref_predict_cdf(model, q)
        seen.add(want.provenance)
        assert_batch_row(batch, i, want)
        assert_same_prediction(predict_cdf(model, q), want)
        key = np.array(canonical_key(model.spec, q))
        node = ref_node(model, key)
        pred, succ = ([node], [node]) if node >= 0 else (a.tolist() for a in ref_neighbor_sets(model, key))
        assert direct_predecessors(model, q) == pred and direct_successors(model, q) == succ
    # every kind of query the rule distinguishes is exercised
    kinds = {Provenance.AT_TRAINING_POINT, Provenance.BOTH_BOUNDS, Provenance.ONLY_PREDECESSORS,
             Provenance.ONLY_SUCCESSORS}
    if case is not chain_case:
        kinds.add(Provenance.CLIMATOLOGICAL)
    assert kinds <= seen
    assert_blocks_agree(model, queries, batch)
    empty = predict_batch(model, queries[:0])
    assert empty.center.shape == empty.lower.shape == empty.upper.shape == (0, model.thresholds.size)
    assert empty.provenance == []
    if case is not chain_case:
        # more queries than one chunk of the query masks (2**22 broadcast elements)
        reps = 2**22 // model.dag.cmp_matrix.size // len(queries) + 2
        big = predict_batch(model, np.tile(queries, (reps, 1)))
        for name in ("center", "lower", "upper"):
            assert np.array_equal(getattr(big, name), np.tile(getattr(batch, name), (reps, 1)), equal_nan=True)
        assert big.provenance == batch.provenance * reps


def test_interpolation_matches_per_query_reference():
    model, queries = chain_case()
    batch = predict_batch(model, queries, interpolate=True)
    for i, q in enumerate(queries[:, 0]):
        want = ref_interpolate(model, q)
        assert_batch_row(batch, i, want)
        assert_same_prediction(interpolate_total_order(model, q), want)


def test_subagged_batch_matches_per_query_reference():
    model, queries = subagged_case()
    batch = predict_batch(model, queries)
    assert np.array_equal(batch.grid, model.thresholds)
    rows, provs = predict_rows(model, queries)
    assert np.array_equal(rows, batch.center) and provs == batch.provenance
    seen = set()
    for i, q in enumerate(queries):
        want = ref_predict_pooled(model, q)
        seen.add(want.provenance)
        assert_batch_row(batch, i, want)
        assert_same_prediction(predict_cdf(model, q), want)
    assert_blocks_agree(model, queries, batch)
    assert {Provenance.BOTH_BOUNDS, Provenance.ONLY_PREDECESSORS, Provenance.ONLY_SUCCESSORS,
            Provenance.CLIMATOLOGICAL} <= seen
