import bisect
import gc
import json
import tracemalloc
from pathlib import Path

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
    StepCdf,
    save_model,
)
from idr.oracles import simulate_gamma
from idr.serialize import FORMAT_VERSION
from model_files import in_full, listed_as_changes, listed_in_full, member_docs, reverse_rows, row_jumps

TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))
GOLDEN = Path(__file__).resolve().parent / "golden"


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


RELATIONS = ("chain", "componentwise", "stochastic", "icx")


def _random_fit(kind, seed):
    """A seeded fit of one order shape, with tied responses and weights;
    subagged and even/odd fits take each order shape in turn."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    y = np.round(rng.gamma(2.0, 2.0, size=n), int(rng.integers(0, 3)))
    w = rng.choice([1.0, 0.5, 3.0], size=n) if seed % 2 else None
    shape = RELATIONS[seed % len(RELATIONS)] if kind in ("subagged", "even_odd") else kind
    if shape == "chain":
        x, spec = rng.uniform(0, 10, size=n), TOTAL1
    elif shape == "componentwise":
        x = rng.integers(0, 6, size=(n, 2)).astype(float)
        spec = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
    elif shape == "stochastic":
        x = rng.integers(0, 4, size=(n, 3)).astype(float)
        spec = OrderSpec((OrderGroup((0, 1, 2), EMPIRICAL_STOCHASTIC),))
    else:
        x = rng.normal(size=(n, 4))
        spec = OrderSpec((OrderGroup((0,), TOTAL), OrderGroup((1, 2, 3), EMPIRICAL_ICX)))
    training = make_training_set(spec, x, y, w)
    if kind == "subagged":
        return fit_subagged(training, 3, max(1, n // 2), seed) if n > 1 else fit_idr(training)
    if kind == "even_odd" and n > 1:
        return fit_even_odd(training, seed)
    return fit_idr(training)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _members(model):
    return model.members if isinstance(model, SubaggedModel) else (model,)


def _assert_canonical_rows(model):
    """Each member holds distinct rows in strictly increasing
    lexicographic order, each the row of some node."""
    for m in _members(model):
        rows, node_row = m.rows, m.node_row
        assert rows.shape[1] == m.thresholds.size and node_row.shape == (m.n_nodes,)
        differ = rows[1:] != rows[:-1]
        assert differ.any(axis=1).all()
        k, first = np.arange(len(rows) - 1), differ.argmax(axis=1)
        assert np.all(rows[k + 1, first] > rows[k, first])
        assert np.array_equal(np.unique(node_row), np.arange(len(rows)))


def v3_document(model) -> dict:
    """``model`` as a format 3.0 document."""
    return listed_in_full(json.loads(model_to_json(model)))


def _assert_round_trip(model) -> str:
    """The clone of ``model``, and the model read from its 3.0 document,
    hold its rows bit for bit; the clone writes the same bytes, which
    list the rows as the 3.0 document does, as changes.  Returns them."""
    blob = model_to_json(model)
    clone = model_from_json(blob)
    assert model_to_json(clone) == blob
    v3 = v3_document(model)
    assert listed_as_changes(v3) == json.loads(blob)
    for other in (clone, model_from_json(json.dumps(v3))):
        for a, b in zip(_members(model), _members(other), strict=True):
            assert np.array_equal(_bits(a.rows), _bits(b.rows))
            assert np.array_equal(a.node_row, b.node_row)
            assert np.array_equal(_bits(a.thresholds), _bits(b.thresholds))
            assert np.array_equal(_bits(a.climatology.jumps), _bits(b.climatology.jumps))
            assert np.array_equal(_bits(a.climatology.cum), _bits(b.climatology.cum))
    _assert_canonical_rows(clone)
    return blob


def _file_cdf(doc, version) -> np.ndarray:
    """The dense nodes x thresholds CDF of one member of a model file of
    any format, each row held at its jump value up to its next jump."""
    m = len(doc["thresholds"])
    if "cdf_matrix" in doc:
        return np.array(doc["cdf_matrix"], dtype=float)
    table = doc["cdf_rows"]
    rows = np.zeros((len(table["jump_index"]), m))
    for row, jumps in zip(rows, row_jumps(table, version)):
        at = sorted(jumps)
        values = [jumps[j] for j in at]
        if "values" in table:  # 3.x and 4.x: indices into the value table
            values = [table["values"][i] for i in values]
        for start, stop, value in zip(at, at[1:] + [m], values):
            row[start:stop] = value
    return rows[doc["node_row"]]


@pytest.mark.parametrize("kind", RELATIONS + ("subagged", "even_odd"))
def test_round_trip_rebuilds_the_cdf_bit_for_bit(kind):
    """The rows, the thresholds and the climatology come back bit for
    bit, the clone writes the same bytes as the model, and the dense
    ``cdf`` is the one the file describes.  A 4.0 row is decoded here by
    its own loop: each threshold keeps the jump value of the row before
    until the row lists it again, -1 for no jump."""
    for seed in range(25):
        model = _random_fit(kind, seed)
        _assert_canonical_rows(model)
        doc = json.loads(_assert_round_trip(model))
        assert doc["version"] == "4.0"
        for m, member in zip(_members(model), member_docs(doc), strict=True):
            rows, carried = [], [-1] * len(member["thresholds"])
            for at, index in zip(member["cdf_rows"]["jump_index"], member["cdf_rows"]["jump_value"]):
                for j, i in zip(at, index):
                    assert carried[j] != i
                    carried[j] = i
                value, row = 0.0, []
                for i in carried:
                    value = value if i == -1 else member["cdf_rows"]["values"][i]
                    row.append(value)
                rows.append(row)
            assert np.array_equal(_bits(m.cdf), _bits(np.array(rows)[member["node_row"]])), (kind, seed)


@pytest.mark.parametrize("path", sorted(GOLDEN.rglob("*_model.json")), ids=lambda p: str(p.relative_to(GOLDEN)))
def test_golden_model_files_load_their_rows_and_round_trip(path):
    """Every golden model file, of every format, loads with the dense
    ``cdf`` the file describes, and writes the bytes of the golden file
    of the current format of the same name: its own, for a 4.0 file."""
    text = path.read_text()
    doc = json.loads(text)
    model = model_from_json(text)
    for m, member in zip(_members(model), member_docs(doc), strict=True):
        assert np.array_equal(m.cdf, _file_cdf(member, doc["version"]))
        assert not m.cdf.flags.writeable
    blob = _assert_round_trip(model)
    assert blob + "\n" == (GOLDEN / path.name).read_text()
    assert (doc["version"] == FORMAT_VERSION) == (path.parent == GOLDEN)


def test_a_loaded_model_holds_its_distinct_rows_not_the_dense_matrix(tmp_path):
    """A 2000-point gamma chain has 2000 nodes and thresholds but a few
    hundred distinct CDF rows; neither the loaded model nor the load
    comes near the dense 2000 x 2000 float64 matrix (32 MB)."""
    x, y = simulate_gamma(2000, 1)
    path = tmp_path / "model.json"
    save_model(fit_idr(make_training_set(TOTAL1, x, y)), path)
    gc.collect()
    tracemalloc.start()
    try:
        model = load_model(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = model.n_nodes * model.thresholds.size * 8
    assert dense == 32e6
    assert held < dense / 3, held
    assert peak < dense / 2, peak


def test_signed_zero_responses_round_trip_bit_for_bit():
    """Responses holding both 0.0 and -0.0 give the threshold np.unique
    gives, and the file keeps its sign."""
    rng = np.random.default_rng(1)
    y = rng.choice([0.0, -0.0, 1.0, 2.5], size=300)
    training = make_training_set(TOTAL1, rng.uniform(0, 10, size=y.size), y)
    for model in (fit_idr(training), fit_subagged(training, 3, 100, 2)):
        clone = model_from_json(model_to_json(model))
        assert np.array_equal(_bits(model.thresholds), _bits(np.unique(y)))
        assert np.array_equal(_bits(clone.thresholds), _bits(model.thresholds))


def test_distinct_rows_are_stored_once_in_lexicographic_order():
    """The first row lists all its jumps; each later row lists the
    thresholds where its jump value (none counting as -1) differs from
    the row before's, and only those."""
    model, _ = small_model(4)
    doc = json.loads(model_to_json(model))
    want, inverse = np.unique(model.cdf, axis=0, return_inverse=True)
    assert len(want) < model.n_nodes
    assert doc["node_row"] == inverse.reshape(-1).tolist()
    table = doc["cdf_rows"]
    assert len(table["jump_index"]) == len(table["jump_value"]) == len(want)
    before = np.full(want.shape[1], -1)
    for row, at, index in zip(want, table["jump_index"], table["jump_value"]):
        jumps = np.diff(row, prepend=0.0) > 0
        carried = np.where(jumps, np.searchsorted(table["values"], row), -1)
        assert row[jumps].tolist() == [table["values"][i] for i in carried[jumps]]
        assert at == np.flatnonzero(carried != before).tolist()
        assert index == carried[at].tolist()
        before = carried
    assert sum(map(len, table["jump_index"])) < np.count_nonzero(np.diff(want, axis=1, prepend=0.0))


def test_each_jump_value_and_the_threshold_grid_are_stored_once():
    model, _ = small_model(4)
    doc = json.loads(model_to_json(model))
    table = doc["cdf_rows"]
    used = sorted({i for row in table["jump_value"] for i in row} - {-1})
    assert used == list(range(len(table["values"])))
    jumps = np.diff(model.cdf, axis=1, prepend=0.0) > 0
    assert table["values"] == np.unique(model.cdf[jumps]).tolist()
    assert sum(i != -1 for row in table["jump_value"] for i in row) > len(table["values"])
    assert doc["climatology"] == {"cum": model.climatology.cum.tolist()}


def test_model_rejects_a_climatology_off_the_threshold_grid():
    """So every model the writer meets stores its climatology as ``cum``."""
    model, _ = small_model(4)
    with pytest.raises(ValueError, match="climatology"):
        IdrModel(model.thresholds, model.rows, model.node_row, model.dag,
                 StepCdf(model.thresholds + 0.5, model.climatology.cum))


def test_save_and_load_files(tmp_path):
    model, _ = small_model(11)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert np.array_equal(clone.cdf, model.cdf)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["version"] == "4.0" == FORMAT_VERSION


def v1_document(model) -> dict:
    """``model`` as a format 1.0 document, which stores the dense CDF
    and the climatology's jumps."""
    doc = json.loads(model_to_json(model))
    del doc["cdf_rows"], doc["node_row"]
    doc["cdf_matrix"] = model.cdf.tolist()
    doc["climatology"]["jumps"] = doc["thresholds"]
    doc["version"] = "1.0"
    return doc


def v2_document(model) -> dict:
    """``model`` as a format 2.0 document, which stores the jump values
    themselves and the climatology's jumps."""
    doc = v3_document(model)
    rows = doc["cdf_rows"]
    table = rows.pop("values")
    rows["jump_value"] = [[table[i] for i in row] for row in rows["jump_value"]]
    doc["climatology"]["jumps"] = doc["thresholds"]
    doc["version"] = "2.0"
    return doc


def test_rejects_other_major_versions():
    model, _ = small_model()
    v1, v2, v3, v4 = v1_document(model), v2_document(model), v3_document(model), json.loads(model_to_json(model))
    for doc in (v1, v2, v3, v4):
        for version in ("0.9", "5.0"):
            doc["version"] = version
            with pytest.raises(ValueError, match="version"):
                model_from_json(json.dumps(doc))
    # every minor of a readable major loads, each through its own layout
    for doc, versions in ((v1, ("1.0", "1.9")), (v2, ("2.0", "2.7")), (v3, ("3.0", "3.1")), (v4, ("4.0", "4.2"))):
        for version in versions:
            doc["version"] = version
            loaded = model_from_json(json.dumps(doc))
            assert np.array_equal(loaded.cdf, model.cdf)
            assert np.array_equal(loaded.climatology.jumps, model.climatology.jumps)
            assert np.array_equal(loaded.climatology.cum, model.climatology.cum)


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
    assert np.array_equal(loaded.dag.keys, [(0.0, 1e16)])
    batch = predict_batch(loaded, pts)
    assert batch.provenance == [Provenance.AT_TRAINING_POINT] * 2
    assert batch.center.tolist() == [[0.5, 1.0]] * 2


@pytest.mark.parametrize("names", ["ab", "", []], ids=["string", "empty_string", "empty_list"])
def test_column_names_are_null_or_a_nonempty_list_of_strings(names):
    """A string is not read as one name per character, nor an empty one
    or an empty list as no names."""
    model, _ = small_model()
    doc = json.loads(model_to_json(model))
    doc["order_spec"]["column_names"] = None
    assert model_from_json(json.dumps(doc)).spec.column_names is None
    doc["order_spec"]["column_names"] = names
    with pytest.raises(ValueError, match="column_names"):
        model_from_json(json.dumps(doc))


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
    "thresholds_a_string": lambda doc: doc["thresholds"].__setitem__(0, repr(doc["thresholds"][0])),
    "thresholds_past_the_float_range": lambda doc: doc["thresholds"].__setitem__(-1, 10**400),
    "cdf_entry_boolean": lambda doc: _set_cdf_entry(doc, 0, -1, True),
    "cdf_entry_null": lambda doc: _set_cdf_entry(doc, 0, 0, None),
    "climatology_jumps_off_the_thresholds": lambda doc: doc["climatology"].update(
        jumps=[t + 0.5 for t in doc["thresholds"]]),
    "climatology_cum_a_string": lambda doc: doc["climatology"]["cum"].__setitem__(-1, "1"),
}


def _assert_rejected(doc, match=None):
    """``doc`` fails to load, plain and as the member of a subagged file."""
    with pytest.raises(ValueError, match=match):
        model_from_json(json.dumps(doc))
    sub = {"type": "subagged", "members": [doc], "subsample_size": 40, "seed": 1, "version": doc["version"]}
    with pytest.raises(ValueError, match=match):
        model_from_json(json.dumps(sub))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_rejects_malformed_thresholds_and_cdf_matrix(name):
    model, _ = small_model()
    doc = v1_document(model)
    model_from_json(json.dumps(doc))
    MALFORMED[name](doc)
    _assert_rejected(doc)


def _longest_row(doc) -> int:
    """Index of a stored row with the most jumps (at least two); in a
    4.x document the first row, the one it lists in full."""
    lengths = [len(r) for r in doc["cdf_rows"]["jump_index"]]
    row = 0 if doc["version"].startswith("4.") else lengths.index(max(lengths))
    assert lengths[row] >= 2
    return row


def _edit_jumps(field, edit):
    def apply(doc):
        row = doc["cdf_rows"][field][_longest_row(doc)]
        edit(row, len(doc["thresholds"]))
    return apply


def _repeat_first_row(doc):
    """A copy of the first row is added last, as the row of one node."""
    for field in ("jump_index", "jump_value"):
        doc["cdf_rows"][field].append(list(doc["cdf_rows"][field][0]))
    doc["node_row"][doc["node_row"].index(0)] = len(doc["cdf_rows"]["jump_index"]) - 1


#: rows that every writer has listed distinct, in lexicographic order
#: and each the row of some node, listed otherwise
ROWS_NOT_CANONICAL = {
    "rows_reversed": in_full(reverse_rows),
    "row_repeated": in_full(_repeat_first_row),
    "row_unused": lambda doc: doc.update(node_row=[min(r, len(doc["cdf_rows"]["jump_index"]) - 2)
                                                   for r in doc["node_row"]]),
}


#: faults of the rows that read alike in the 2.x, 3.x and 4.x layouts
MALFORMED_ROWS = {
    **ROWS_NOT_CANONICAL,
    "node_row_short": lambda doc: doc["node_row"].pop(),
    "node_row_long": lambda doc: doc["node_row"].append(0),
    "node_row_past_the_rows": lambda doc: doc["node_row"].__setitem__(0, len(doc["cdf_rows"]["jump_index"])),
    "node_row_negative": lambda doc: doc["node_row"].__setitem__(0, -1),
    "node_row_not_integer": lambda doc: doc["node_row"].__setitem__(0, 0.5),
    "node_row_nested": lambda doc: doc.update(node_row=[[r] for r in doc["node_row"]]),
    "node_row_boolean": lambda doc: doc["node_row"].__setitem__(doc["node_row"].index(1), True),
    "node_row_past_the_int64_range": lambda doc: doc["node_row"].__setitem__(0, 10**400),
    "jump_index_boolean": _edit_jumps("jump_index", lambda row, m: row.__setitem__(-1, True)),
    "jump_value_a_string": _edit_jumps("jump_value", lambda row, m: row.__setitem__(-1, "1")),
    "jump_index_unsorted": _edit_jumps("jump_index", lambda row, m: row.reverse()),
    "jump_index_repeated": _edit_jumps("jump_index", lambda row, m: row.__setitem__(1, row[0])),
    "jump_index_at_m": _edit_jumps("jump_index", lambda row, m: row.__setitem__(-1, m)),
    "jump_index_negative": _edit_jumps("jump_index", lambda row, m: row.__setitem__(0, -1)),
    "jump_index_not_integer": _edit_jumps("jump_index", lambda row, m: row.__setitem__(0, float(row[0]))),
    "jump_value_one_short": _edit_jumps("jump_value", lambda row, m: row.pop(0)),
    "row_without_jumps": lambda doc: [doc["cdf_rows"][f].__setitem__(0, []) for f in ("jump_index", "jump_value")],
    "no_rows": lambda doc: doc.update(cdf_rows={"jump_index": [], "jump_value": []}),
    "rows_not_lists": lambda doc: doc["cdf_rows"].update(jump_index=[0], jump_value=[1.0]),
}


MALFORMED_V2 = {
    **MALFORMED_ROWS,
    "climatology_jumps_off_the_thresholds": lambda doc: doc["climatology"].update(
        jumps=[t + 0.5 for t in doc["thresholds"]]),
    "jump_value_not_increasing": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, row[1])),
    "jump_value_decreasing": _edit_jumps("jump_value", lambda row, m: row.reverse()),
    "jump_value_zero": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, 0.0)),
    "jump_value_above_one": _edit_jumps("jump_value", lambda row, m: row.__setitem__(-1, 1.5)),
    "jump_value_last_below_one": _edit_jumps("jump_value", lambda row, m: row.__setitem__(-1, 0.999)),
    "jump_value_nan": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, float("nan"))),
    "jump_value_infinite": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, float("inf"))),
}


def _document(model, version) -> dict:
    """``model`` as a document of format ``version``, 2.0, 3.0 or 4.0."""
    if version == "4.0":
        return json.loads(model_to_json(model))
    return v3_document(model) if version == "3.0" else v2_document(model)


@pytest.mark.parametrize("name", sorted(MALFORMED_V2))
def test_rejects_malformed_cdf_rows(name):
    """Each fault on a 2.0 document; a fault of the rows that reads
    alike in every layout also on a 3.0 and a 4.0 document."""
    model, _ = small_model()
    for version in ("2.0", "3.0", "4.0") if name in MALFORMED_ROWS else ("2.0",):
        doc = _document(model, version)
        model_from_json(json.dumps(doc))
        MALFORMED_V2[name](doc)
        _assert_rejected(doc)


def _edit_values(edit):
    def apply(doc):
        values = doc["cdf_rows"]["values"]
        assert len(values) >= 3
        edit(values)
    return apply


def _drop_last_jump(doc):
    row = _longest_row(doc)
    for field in ("jump_index", "jump_value"):
        doc["cdf_rows"][field][row].pop()


MALFORMED_V3 = {
    **ROWS_NOT_CANONICAL,
    "index_negative": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, -1)),
    "index_past_the_table": lambda doc: doc["cdf_rows"]["jump_value"][_longest_row(doc)].__setitem__(
        -1, len(doc["cdf_rows"]["values"])),
    "index_not_integer": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, float(row[0]))),
    "index_boolean": _edit_jumps("jump_value", lambda row, m: row.__setitem__(0, True)),
    "index_a_value": _edit_jumps("jump_value", lambda row, m: row.__setitem__(-1, 1.0)),
    "index_repeated": _edit_jumps("jump_value", lambda row, m: row.__setitem__(1, row[0])),
    "index_decreasing": _edit_jumps("jump_value", lambda row, m: row.reverse()),
    "row_ends_before_one": _drop_last_jump,
    "values_unsorted": _edit_values(lambda v: v.__setitem__(slice(0, 2), v[1::-1])),
    "values_repeated": _edit_values(lambda v: v.__setitem__(1, v[0])),
    "values_zero": _edit_values(lambda v: v.__setitem__(0, 0.0)),
    "values_negative": _edit_values(lambda v: v.__setitem__(0, -0.25)),
    "values_above_one": _edit_values(lambda v: v.__setitem__(-1, 1.5)),
    "values_end_below_one": _edit_values(lambda v: v.__setitem__(-1, 0.999)),
    "values_nan": _edit_values(lambda v: v.__setitem__(0, float("nan"))),
    "values_infinite": _edit_values(lambda v: v.__setitem__(-1, float("inf"))),
    "values_empty": lambda doc: doc["cdf_rows"].update(values=[]),
    "values_not_numbers": lambda doc: doc["cdf_rows"].update(values=["1.0"]),
    "values_nested": lambda doc: doc["cdf_rows"].update(values=[[v] for v in doc["cdf_rows"]["values"]]),
    "climatology_cum_short": lambda doc: doc["climatology"]["cum"].pop(0),
    "climatology_cum_long": lambda doc: doc["climatology"]["cum"].insert(0, 0.0),
    "climatology_cum_past_the_float_range": lambda doc: doc["climatology"]["cum"].__setitem__(0, 10**400),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_V3))
def test_rejects_malformed_value_table(name):
    """Each fault on a 3.0 document and on a 4.0 one, whose first row is
    listed as in 3.0."""
    model, _ = small_model()
    for version in ("3.0", "4.0"):
        doc = _document(model, version)
        model_from_json(json.dumps(doc))
        MALFORMED_V3[name](doc)
        _assert_rejected(doc)


def _edit_changes(field, edit):
    """``edit`` one list of the first later row that lists two changes."""
    def apply(doc):
        row = next(r for r, at in enumerate(doc["cdf_rows"]["jump_index"]) if r and len(at) >= 2)
        edit(doc["cdf_rows"][field][row], len(doc["thresholds"]), len(doc["cdf_rows"]["values"]))
    return apply


def _insert(doc, row, at, index):
    """Row ``row`` also lists ``index`` at threshold ``at``."""
    table = doc["cdf_rows"]
    k = bisect.bisect(table["jump_index"][row], at)
    table["jump_index"][row].insert(k, at)
    table["jump_value"][row].insert(k, index)


def _insert_where(where, index):
    """Insert the entry ``index(before, at)`` at the first threshold ``at``
    of a later row that it does not list, such that ``where(before, row,
    at, last)`` holds, ``before`` and ``row`` being the jumps that the row
    before and the row carry and ``last`` the index of the table's 1.
    The next row that lists ``at``, if any, must list another entry, so
    that it still changes what it carries."""
    def apply(doc):
        table, last = doc["cdf_rows"], len(doc["cdf_rows"]["values"]) - 1
        rows = row_jumps(table, doc["version"])
        for r in range(1, len(rows)):
            for at in sorted(set(range(len(doc["thresholds"]))) - set(table["jump_index"][r])):
                if not where(rows[r - 1], rows[r], at, last):
                    continue
                new = index(rows[r - 1], at)
                later = [dict(zip(a, v))[at] for a, v in zip(table["jump_index"][r + 1:], table["jump_value"][r + 1:])
                         if at in a]
                if later[:1] != [new]:
                    return _insert(doc, r, at, new)
        raise AssertionError("no such threshold")
    return apply


_CHANGES = "change the jump value"
_RISE = "jump to strictly increasing values"

#: 4.0 faults, each with the message that rejects it
MALFORMED_V4 = {
    "change_index_unsorted": (_edit_changes("jump_index", lambda row, m, t: row.reverse()), "jump_index"),
    "change_index_repeated": (_edit_changes("jump_index", lambda row, m, t: row.__setitem__(1, row[0])),
                              "jump_index"),
    "change_index_at_m": (_edit_changes("jump_index", lambda row, m, t: row.__setitem__(-1, m)), "jump_index"),
    "change_index_negative": (_edit_changes("jump_index", lambda row, m, t: row.__setitem__(0, -1)), "jump_index"),
    "change_value_past_the_table": (_edit_changes("jump_value", lambda row, m, t: row.__setitem__(0, t)),
                                    "jump_value must hold indices"),
    "change_value_below_minus_one": (_edit_changes("jump_value", lambda row, m, t: row.__setitem__(0, -2)),
                                     "jump_value must hold indices"),
    "minus_one_in_the_first_row": (lambda doc: _insert(doc, 0, min(
        set(range(len(doc["thresholds"]))) - set(doc["cdf_rows"]["jump_index"][0])), -1), _CHANGES),
    "minus_one_where_the_row_before_had_no_jump": (
        _insert_where(lambda before, row, at, last: at not in before, lambda before, at: -1), _CHANGES),
    "entry_repeats_the_carried_one": (
        _insert_where(lambda before, row, at, last: at in before, lambda before, at: before[at]), _CHANGES),
    "carried_row_falls": (
        _insert_where(lambda before, row, at, last: at not in before and at > max(row), lambda before, at: 0), _RISE),
    # a valid model's rule, which the model constructor checks
    "carried_row_ends_below_one": (
        _insert_where(lambda before, row, at, last: before.get(at) == last, lambda before, at: -1),
        "end at exactly 1"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_V4))
def test_rejects_malformed_changes(name):
    """A 4.0 row lists sorted thresholds, each with a table index or -1,
    and each entry changes the jump its row carries from the row before;
    the rows so carried rise strictly at each jump, and the model they
    make ends each row at 1."""
    model, _ = small_model()
    doc = json.loads(model_to_json(model))
    edit, message = MALFORMED_V4[name]
    edit(doc)
    _assert_rejected(doc, message)
