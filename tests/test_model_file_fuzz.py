"""Fuzz of the model reader on the golden model files.

Hypothesis picks one of the twelve golden model files (plain and
subagged, formats 1.0, 2.0, 3.0 and 4.0), one field of it, one leaf of that
field, and replaces the leaf by a value of the wrong kind.  Loading
must give a model or raise one of the exceptions the command line turns
into exit 3, never another.  A string in place of one of the file's
lists must raise one of them, as no list of a model file reads a string.
The search is derandomized, so every run draws the same examples.
"""

import copy
import json
import re
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from idr import model_from_json  # noqa: E402

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
