import json

import numpy as np
import pytest

from idr import (
    COMPONENTWISE,
    EMPIRICAL_ICX,
    TOTAL,
    OrderGroup,
    OrderSpec,
    Provenance,
    SubaggedModel,
    fit_even_odd,
    fit_idr,
    fit_subagged,
    load_model,
    make_training_set,
    model_from_json,
    model_to_json,
    predict_batch,
    predict_cdf,
    save_model,
)

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    spec = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),), column_names=("a", "b"))
    x = rng.integers(0, 5, size=(40, 2)).astype(float)
    y = rng.normal(size=40)
    return fit_idr(make_training_set(spec, x, y)), x


def test_serialization_is_deterministic():
    m1, _ = small_model()
    m2, _ = small_model()
    s1, s2 = model_to_json(m1), model_to_json(m2)
    assert s1 == s2
    # canonical layout: sorted keys, no whitespace
    assert s1 == json.dumps(json.loads(s1), sort_keys=True, separators=(",", ":"))


def test_round_trip_preserves_predictions_exactly():
    model, x = small_model(3)
    clone = model_from_json(model_to_json(model))
    assert np.array_equal(clone.thresholds, model.thresholds)
    assert np.array_equal(clone.cdf, model.cdf)
    assert clone.spec == model.spec
    rng = np.random.default_rng(5)
    queries = np.vstack([x[:5], rng.uniform(-1, 6, size=(10, 2))])
    for q in queries:
        a = predict_cdf(model, q)
        b = predict_cdf(clone, q)
        assert a.provenance is b.provenance
        assert np.array_equal(a.cdf.jumps, b.cdf.jumps)
        assert np.array_equal(a.cdf.cum, b.cdf.cum)


def test_subagged_round_trip():
    rng = np.random.default_rng(7)
    ts = make_training_set(TOTAL1, rng.uniform(0, 10, 80), rng.normal(size=80))
    model = fit_subagged(ts, count=3, size=40, seed=9)
    blob = model_to_json(model)
    assert blob == model_to_json(model)
    clone = model_from_json(blob)
    assert isinstance(clone, SubaggedModel)
    assert clone.subsample_size == 40 and clone.seed == 9 and clone.split == "random"
    for q in ([0.5], [5.0], [11.0]):
        a, b = predict_cdf(model, q), predict_cdf(clone, q)
        assert np.array_equal(a.cdf.jumps, b.cdf.jumps)
        assert np.array_equal(a.cdf.cum, b.cdf.cum)
        assert a.provenance is b.provenance


def _random_fit(kind, seed):
    """A seeded fit of one order shape, with tied responses and weights."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    y = np.round(rng.gamma(2.0, 2.0, size=n), int(rng.integers(0, 3)))
    w = rng.choice([1.0, 0.5, 3.0], size=n) if seed % 2 else None
    if kind == "chain":
        x, spec = rng.uniform(0, 10, size=n), TOTAL1
    elif kind == "componentwise":
        x = rng.integers(0, 6, size=(n, 2)).astype(float)
        spec = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
    else:
        x = rng.normal(size=(n, 4))
        spec = OrderSpec((OrderGroup((0,), TOTAL), OrderGroup((1, 2, 3), EMPIRICAL_ICX)))
    training = make_training_set(spec, x, y, w)
    if kind == "subagged":
        return fit_subagged(training, 3, max(1, n // 2), seed) if n > 1 else fit_idr(training)
    if kind == "even_odd" and n > 1:
        return fit_even_odd(training, seed)
    return fit_idr(training)


@pytest.mark.parametrize("kind", ["chain", "componentwise", "icx", "subagged", "even_odd"])
def test_round_trip_rebuilds_the_cdf_bit_for_bit(kind):
    for seed in range(25):
        model = _random_fit(kind, seed)
        clone = model_from_json(model_to_json(model))
        pairs = zip(model.members, clone.members) if isinstance(model, SubaggedModel) else [(model, clone)]
        for a, b in pairs:
            assert a.cdf.shape == b.cdf.shape
            assert np.array_equal(a.cdf.view(np.int64), b.cdf.view(np.int64)), (kind, seed)


def test_distinct_rows_are_stored_once_in_lexicographic_order():
    model, _ = small_model(4)
    doc = json.loads(model_to_json(model))
    want, inverse = np.unique(model.cdf, axis=0, return_inverse=True)
    assert len(want) < model.n_nodes
    assert doc["node_row"] == inverse.reshape(-1).tolist()
    table = doc["cdf_rows"]
    assert len(table["jump_index"]) == len(table["jump_value"]) == len(want)
    for row, at, values in zip(want, table["jump_index"], table["jump_value"]):
        assert at == np.flatnonzero(np.diff(row, prepend=0.0)).tolist()
        assert values == row[at].tolist()


def test_save_and_load_files(tmp_path):
    model, _ = small_model(11)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert np.array_equal(clone.cdf, model.cdf)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["version"] == "2.0"


def v1_document(model) -> dict:
    """``model`` as a format 1.0 document, which stores the dense CDF."""
    doc = json.loads(model_to_json(model))
    del doc["cdf_rows"], doc["node_row"]
    doc["cdf_matrix"] = model.cdf.tolist()
    doc["version"] = "1.0"
    return doc


def test_rejects_other_major_versions():
    model, _ = small_model()
    v1, v2 = v1_document(model), json.loads(model_to_json(model))
    for doc in (v1, v2):
        doc["version"] = "3.0"
        with pytest.raises(ValueError, match="version"):
            model_from_json(json.dumps(doc))
    # every minor of a readable major loads, each through its own layout
    for doc, versions in ((v1, ("1.0", "1.9")), (v2, ("2.0", "2.7"))):
        for version in versions:
            doc["version"] = version
            assert np.array_equal(model_from_json(json.dumps(doc)).cdf, model.cdf)


def test_rejects_shuffled_node_keys():
    model, _ = small_model()
    doc = json.loads(model_to_json(model))
    doc["node_keys"] = doc["node_keys"][::-1]
    doc["node_row"] = doc["node_row"][::-1]
    with pytest.raises(ValueError, match="canonical"):
        model_from_json(json.dumps(doc))


def test_every_key_of_an_order_equivalence_class_predicts_at_its_node_after_a_round_trip():
    """A model file keeps one key per node; an icx key whose tail sums
    round like the stored one's is still at that training point."""
    spec = OrderSpec((OrderGroup((0, 1), EMPIRICAL_ICX),))
    pts = np.array([(0.0, 1e16), (1.0, 1e16)])
    loaded = model_from_json(model_to_json(fit_idr(make_training_set(spec, pts, [0.0, 1.0]))))
    assert loaded.dag.keys == [(0.0, 1e16)]
    batch = predict_batch(loaded, pts)
    assert batch.provenance == [Provenance.AT_TRAINING_POINT] * 2
    assert batch.center.tolist() == [[0.5, 1.0]] * 2


def test_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        model_from_json("{}")
    with pytest.raises(json.JSONDecodeError):
        model_from_json("not json")


def _set_cdf_entry(doc, row, col, value):
    doc["cdf_matrix"][row][col] = value


MALFORMED = {
    "cdf_one_row_short": lambda doc: doc["cdf_matrix"].pop(),
    "cdf_one_by_one": lambda doc: doc.update(cdf_matrix=[[1.0]]),
    "cdf_one_column_short": lambda doc: [row.pop(0) for row in doc["cdf_matrix"]],
    "cdf_ragged": lambda doc: doc["cdf_matrix"][0].pop(0),
    "cdf_entry_above_one": lambda doc: _set_cdf_entry(doc, 0, 0, 5.0),
    "cdf_entry_negative": lambda doc: _set_cdf_entry(doc, 0, 0, -0.25),
    "cdf_entry_nan": lambda doc: _set_cdf_entry(doc, 0, 0, float("nan")),
    "cdf_row_all_zero": lambda doc: doc["cdf_matrix"].__setitem__(1, [0.0] * len(doc["thresholds"])),
    "cdf_row_decreasing": lambda doc: doc["cdf_matrix"].__setitem__(
        1, [0.75, 0.25] + [1.0] * (len(doc["thresholds"]) - 2)),
    "cdf_row_ends_below_one": lambda doc: _set_cdf_entry(doc, 2, -1, 0.999),
    "thresholds_reversed": lambda doc: doc["thresholds"].reverse(),
    "thresholds_tied": lambda doc: doc["thresholds"].__setitem__(1, doc["thresholds"][0]),
    "thresholds_infinite": lambda doc: doc["thresholds"].__setitem__(-1, float("inf")),
    "thresholds_empty": lambda doc: doc.update(thresholds=[], cdf_matrix=[[] for _ in doc["cdf_matrix"]]),
}


def _assert_rejected(doc):
    """``doc`` fails to load, plain and as the member of a subagged file."""
    with pytest.raises(ValueError):
        model_from_json(json.dumps(doc))
    sub = {"type": "subagged", "members": [doc], "subsample_size": 40, "seed": 1, "version": doc["version"]}
    with pytest.raises(ValueError):
        model_from_json(json.dumps(sub))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_rejects_malformed_thresholds_and_cdf_matrix(name):
    model, _ = small_model()
    doc = v1_document(model)
    model_from_json(json.dumps(doc))
    MALFORMED[name](doc)
    _assert_rejected(doc)


def _longest_row(doc) -> int:
    """Index of a stored 2.0 row with the most jumps (at least two)."""
    lengths = [len(r) for r in doc["cdf_rows"]["jump_index"]]
    assert max(lengths) >= 2
    return lengths.index(max(lengths))


def _edit_jumps(field, edit):
    def apply(doc):
        row = doc["cdf_rows"][field][_longest_row(doc)]
        edit(row, len(doc["thresholds"]))
    return apply


MALFORMED_V2 = {
    "node_row_short": lambda doc: doc["node_row"].pop(),
    "node_row_long": lambda doc: doc["node_row"].append(0),
    "node_row_past_the_rows": lambda doc: doc["node_row"].__setitem__(0, len(doc["cdf_rows"]["jump_index"])),
    "node_row_negative": lambda doc: doc["node_row"].__setitem__(0, -1),
    "node_row_not_integer": lambda doc: doc["node_row"].__setitem__(0, 0.5),
    "node_row_nested": lambda doc: doc.update(node_row=[[r] for r in doc["node_row"]]),
    "jump_index_unsorted": _edit_jumps("jump_index", lambda row, m: row.reverse()),
    "jump_index_repeated": _edit_jumps("jump_index", lambda row, m: row.__setitem__(1, row[0])),
    "jump_index_at_m": _edit_jumps("jump_index", lambda row, m: row.__setitem__(-1, m)),
    "jump_index_negative": _edit_jumps("jump_index", lambda row, m: row.__setitem__(0, -1)),
    "jump_index_not_integer": _edit_jumps("jump_index", lambda row, m: row.__setitem__(0, float(row[0]))),
    "jump_value_not_increasing": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, row[1])),
    "jump_value_decreasing": _edit_jumps("jump_value", lambda row, m: row.reverse()),
    "jump_value_zero": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, 0.0)),
    "jump_value_above_one": _edit_jumps("jump_value", lambda row, m: row.__setitem__(-1, 1.5)),
    "jump_value_last_below_one": _edit_jumps("jump_value", lambda row, m: row.__setitem__(-1, 0.999)),
    "jump_value_nan": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, float("nan"))),
    "jump_value_infinite": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, float("inf"))),
    "jump_value_one_short": _edit_jumps("jump_value", lambda row, m: row.pop(0)),
    "row_without_jumps": lambda doc: [doc["cdf_rows"][f].__setitem__(0, []) for f in ("jump_index", "jump_value")],
    "no_rows": lambda doc: doc.update(cdf_rows={"jump_index": [], "jump_value": []}),
    "rows_not_lists": lambda doc: doc["cdf_rows"].update(jump_index=[0], jump_value=[1.0]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_V2))
def test_rejects_malformed_cdf_rows(name):
    model, _ = small_model()
    doc = json.loads(model_to_json(model))
    MALFORMED_V2[name](doc)
    _assert_rejected(doc)
