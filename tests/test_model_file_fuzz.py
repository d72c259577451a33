"""Fuzz of the model reader on the golden model files.

Hypothesis picks one of the twelve golden model files (plain and
subagged, formats 1.0, 2.0, 3.0 and 4.0), one field of it, one leaf of that
field, and replaces the leaf by a value of the wrong kind.  Loading
must give a model or raise one of the exceptions the command line turns
into exit 3, never another.  A string in place of one of the file's
lists must raise one of them, as no list of a model file reads a string.
The other way round, every model the constructors accept, built from a
random CDF matrix through ``distinct_rows``, saves as a file that loads
as the same model bit for bit.  The searches are derandomized, so every
run draws the same examples.
"""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from idr import (  # noqa: E402
    COMPONENTWISE,
    TOTAL,
    IdrModel,
    OrderGroup,
    OrderSpec,
    StepCdf,
    SubaggedModel,
    build_order_dag,
    distinct_rows,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = sorted(GOLDEN.glob("*_model.json")) + sorted(GOLDEN.glob("v*/*_model.json"))
DOCS = [json.loads(path.read_text()) for path in FILES]

#: one JSON value of each kind that a leaf may wrongly hold; the last
#: is an integer literal past the float range
REPLACEMENTS = [True, False, None, "1", 1.5, -1, [], 10**400]

#: strings that replace a list
LIST_REPLACEMENTS = ["", "xy"]


def items(value, path=()):
    """The path and value of ``value`` and of every value inside it."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from items(item, path + (key,))
    yield path, value


def fields(doc, keep) -> dict:
    """The paths of the values of ``doc`` that ``keep`` accepts, by
    field: paths that differ only in list positions belong to one field,
    so rare fields are drawn as often as large ones."""
    out = {}
    for path, value in items(doc):
        if keep(value):
            out.setdefault(re.sub(r"\d+", "*", "/".join(map(str, path))), []).append(path)
    return out


FIELDS = [fields(doc, lambda value: not isinstance(value, (dict, list))) for doc in DOCS]
LISTS = [fields(doc, lambda value: isinstance(value, list)) for doc in DOCS]


def test_every_golden_model_file_is_fuzzed():
    """Plain and subagged files of the current format and of 1.0, 2.0 and 3.0."""
    assert len(FILES) >= 12
    assert {(doc["type"], doc["version"]) for doc in DOCS} >= {
        (kind, version) for kind in ("idr", "subagged") for version in ("1.0", "2.0", "3.0", "4.0")}


def replace_one(data, targets, replacements) -> str:
    """A golden model file with one drawn target path replaced by a
    drawn replacement, as JSON."""
    i = data.draw(st.integers(0, len(DOCS) - 1), label="file")
    field = data.draw(st.sampled_from(sorted(targets[i])), label="field")
    path = data.draw(st.sampled_from(targets[i][field]), label="path")
    doc = copy.deepcopy(DOCS[i])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(st.sampled_from(replacements), label="value")
    return json.dumps(doc)


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(st.data())
def test_one_wrong_leaf_loads_or_is_a_validation_error(data):
    try:
        model_from_json(replace_one(data, FIELDS, REPLACEMENTS))
    except (ValueError, KeyError, TypeError):
        pass


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.data())
def test_a_string_where_a_list_goes_is_a_validation_error(data):
    with pytest.raises((ValueError, KeyError, TypeError)):
        model_from_json(replace_one(data, LISTS, LIST_REPLACEMENTS))


@st.composite
def cdf_rows(draw, m):
    """A valid CDF row on ``m`` thresholds: the running sums of drawn
    masses over their total, or all ones."""
    if draw(st.booleans()):
        return np.ones(m)
    mass = draw(st.lists(st.floats(0, 10), min_size=m, max_size=m).filter(any))
    row = np.cumsum(mass)
    row /= row[-1]
    return row


@st.composite
def valid_models(draw):
    """A model of 1 to 8 nodes on a chain or a 2-d componentwise order,
    each node taking one of a few drawn rows, so rows repeat."""
    if draw(st.booleans()):
        spec, points = OrderSpec((OrderGroup((0,), TOTAL),)), np.arange(draw(st.integers(1, 8)), dtype=float)
    else:
        spec = OrderSpec((OrderGroup((0, 1), COMPONENTWISE),))
        points = np.array(draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                        min_size=1, max_size=8, unique=True)), dtype=float)
    dag = build_order_dag(spec, points)
    m = draw(st.integers(1, 6))
    thresholds = np.sort(draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m, unique=True)))
    pool = [draw(cdf_rows(m)) for _ in range(draw(st.integers(1, 4)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=dag.n_nodes, max_size=dag.n_nodes))
    return IdrModel(thresholds, *distinct_rows(np.array(pool)[picks]), dag,
                    StepCdf(thresholds, pool[draw(st.integers(0, len(pool) - 1))]))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _assert_same_model(a, b):
    assert a.spec == b.spec and a.spec.column_names == b.spec.column_names
    assert np.array_equal(_bits(a.dag.keys), _bits(b.dag.keys))
    assert np.array_equal(_bits(a.thresholds), _bits(b.thresholds))
    assert np.array_equal(_bits(a.rows), _bits(b.rows))
    assert np.array_equal(a.node_row, b.node_row)
    assert np.array_equal(_bits(a.climatology.cum), _bits(b.climatology.cum))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.lists(valid_models(), min_size=1, max_size=3), st.booleans())
def test_every_model_the_constructors_accept_round_trips(tmp_path_factory, models, subagged):
    """A plain model, or a subagged one of members that share a spec,
    comes back from its file bit for bit and writes the same bytes."""
    model = models[0]
    if subagged:
        model = SubaggedModel(tuple(m for m in models if m.spec == model.spec), 5, 2)
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    save_model(model, path)
    clone = load_model(path)
    assert type(clone) is type(model)
    assert model_to_json(clone) == model_to_json(model)
    for a, b in zip(getattr(model, "members", [model]), getattr(clone, "members", [clone]), strict=True):
        _assert_same_model(a, b)
