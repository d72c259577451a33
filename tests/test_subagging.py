import numpy as np
import pytest

from idr import (
    COMPONENTWISE,
    TOTAL,
    OrderGroup,
    OrderSpec,
    Provenance,
    SubaggedModel,
    fit_even_odd,
    fit_idr,
    fit_subagged,
    make_training_set,
    predict_cdf,
    predict_rows,
)

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))
CW2 = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))


def training(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, size=n)
    y = x + rng.normal(size=n)
    return make_training_set(TOTAL1, x, y)


def test_degenerate_subagging_equals_plain_fit():
    ts = training()
    single = fit_subagged(ts, count=1, size=ts.n, seed=5)
    full = fit_idr(ts)
    member = single.members[0]
    assert np.array_equal(member.thresholds, full.thresholds)
    assert np.array_equal(member.cdf, full.cdf)
    q = [3.3]
    assert np.array_equal(predict_cdf(single, q).cdf.cum, predict_cdf(full, q).cdf.cum)


def test_identical_members_aggregate_to_themselves():
    ts = training()
    member = fit_idr(ts)
    twins = SubaggedModel((member, member), subsample_size=ts.n, seed=0)
    p = predict_cdf(twins, [4.2])
    base = predict_cdf(member, [4.2])
    assert np.allclose(p.cdf.evaluate(base.cdf.jumps), base.cdf.cum)


def test_two_member_average_is_the_mean():
    a = fit_idr(make_training_set(TOTAL1, [1.0, 2.0], [0.0, 1.0]))
    b = fit_idr(make_training_set(TOTAL1, [1.0, 2.0], [0.5, 1.5]))
    model = SubaggedModel((a, b), subsample_size=2, seed=0)
    p = predict_cdf(model, [1.0])
    for z in p.cdf.jumps:
        va = predict_cdf(a, [1.0]).cdf.evaluate(float(z))
        vb = predict_cdf(b, [1.0]).cdf.evaluate(float(z))
        assert p.cdf.evaluate(float(z)) == pytest.approx(0.5 * (va + vb), abs=1e-15)


def test_same_seed_reproduces_the_aggregate():
    ts = training(3)
    m1 = fit_subagged(ts, count=5, size=30, seed=11)
    m2 = fit_subagged(ts, count=5, size=30, seed=11)
    for a, b in zip(m1.members, m2.members):
        assert np.array_equal(a.thresholds, b.thresholds)
        assert np.array_equal(a.cdf, b.cdf)
    m3 = fit_subagged(ts, count=5, size=30, seed=12)
    assert any(
        a.thresholds.size != b.thresholds.size or not np.array_equal(a.cdf, b.cdf)
        for a, b in zip(m1.members, m3.members)
    )


def test_size_and_count_validation():
    ts = training()
    with pytest.raises(ValueError):
        fit_subagged(ts, count=0, size=10, seed=0)
    with pytest.raises(ValueError):
        fit_subagged(ts, count=2, size=ts.n + 1, seed=0)
    with pytest.raises(ValueError):
        fit_subagged(ts, count=2, size=0, seed=0)


def test_even_odd_split_members():
    ts = training(9, n=10)
    model = fit_even_odd(ts)
    assert model.split == "even-odd"
    assert len(model.members) == 2
    even = fit_idr(make_training_set(TOTAL1, ts.covariates[0::2], ts.responses[0::2]))
    assert np.array_equal(model.members[0].cdf, even.cdf)


def test_aggregate_is_valid_cdf_and_antitonic():
    ts = training(17, n=120)
    model = fit_subagged(ts, count=6, size=60, seed=2)
    rng = np.random.default_rng(4)
    qs = np.sort(rng.uniform(0, 10, size=12))
    grid = np.unique(np.concatenate([m.thresholds for m in model.members]))
    assert np.array_equal(model.thresholds, grid)
    rows, _ = predict_rows(model, qs[:, None])
    assert np.all(np.diff(rows, axis=1) >= -1e-12)
    assert np.allclose(rows[:, -1], 1.0)
    # larger covariates get pointwise smaller CDFs
    assert np.all(np.diff(rows, axis=0) <= 1e-12)


def test_subagged_rows_match_pointwise_aggregation():
    ts = training(23, n=80)
    model = fit_subagged(ts, count=4, size=40, seed=7)
    grid = np.unique(np.concatenate([m.thresholds for m in model.members]))
    qs = np.array([[0.5], [5.0], [9.5]])
    assert np.array_equal(model.thresholds, grid)
    rows, _ = predict_rows(model, qs)
    for q, row in zip(qs, rows):
        p = predict_cdf(model, q)
        assert np.allclose(row, p.cdf.evaluate(grid), atol=1e-12)


def test_aggregated_jumps_refine_the_single_fit():
    rng = np.random.default_rng(31)
    n = 800
    x = rng.uniform(0, 10, size=n)
    y = x + rng.normal(size=n)
    ts = make_training_set(TOTAL1, x, y)
    full = fit_idr(ts)
    model = fit_subagged(ts, count=10, size=200, seed=3)
    q = [5.0]
    agg = predict_cdf(model, q)
    single = predict_cdf(full, q)
    agg_jumps = np.count_nonzero(np.diff(agg.cdf.evaluate(agg.cdf.jumps)) > 0) + 1
    single_jumps = np.count_nonzero(np.diff(single.cdf.evaluate(single.cdf.jumps)) > 0) + 1
    assert agg_jumps > single_jumps


def test_provenance_aggregation_and_heuristic_bounds():
    ts = training(41)
    model = fit_subagged(ts, count=4, size=30, seed=19)
    inside = predict_cdf(model, [5.0])
    assert inside.provenance in (Provenance.BOTH_BOUNDS, Provenance.AT_TRAINING_POINT)
    assert inside.bounds_heuristic
    assert inside.lower is not None and inside.upper is not None
    assert inside.bound_gap >= 0
    low = predict_cdf(model, [-50.0])
    assert low.provenance is Provenance.ONLY_SUCCESSORS
    assert low.upper is None


def test_members_must_share_the_spec():
    a = fit_idr(make_training_set(TOTAL1, [1.0, 2.0], [0.0, 1.0]))
    b = fit_idr(make_training_set(CW2, [(0, 0), (1, 1)], [0.0, 1.0]))
    with pytest.raises(ValueError):
        SubaggedModel((a, b), subsample_size=2, seed=0)
    with pytest.raises(ValueError):
        SubaggedModel((), subsample_size=2, seed=0)


def test_members_must_name_the_columns_alike():
    """``OrderSpec`` equality ignores ``column_names``, but a file-based
    caller reads the columns member 0 names for every member."""
    x, y = [1.0, 2.0], [0.0, 1.0]
    a, b = (fit_idr(make_training_set(OrderSpec(TOTAL1.groups, column_names=(name,)), x, y)) for name in "xz")
    assert a.spec == b.spec
    with pytest.raises(ValueError, match="column names"):
        SubaggedModel((a, b), subsample_size=2, seed=0)
    assert SubaggedModel((a, a), subsample_size=2, seed=0).spec.column_names == ("x",)
