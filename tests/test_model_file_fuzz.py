"""Fuzz of the model reader on the golden model files.

Hypothesis picks one of the nine golden model files (plain and
subagged, formats 1.0, 2.0 and 3.0), one field of it, one leaf of that
field, and replaces the leaf by a value of the wrong kind.  Loading
must give a model or raise one of the exceptions the command line turns
into exit 3, never another.  The search is derandomized, so every run
draws the same examples.
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


def leaves(value, path=()):
    """The path of every leaf (a value that is no list or object)."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from leaves(item, path + (key,))
    else:
        yield path


def fields(doc) -> dict:
    """The leaf paths of ``doc`` by field: paths that differ only in list
    positions belong to one field, so rare fields are drawn as often as
    large ones."""
    out = {}
    for path in leaves(doc):
        out.setdefault(re.sub(r"\d+", "*", "/".join(map(str, path))), []).append(path)
    return out


FIELDS = [fields(doc) for doc in DOCS]


def test_every_golden_model_file_is_fuzzed():
    """Plain and subagged files of the current format and of 1.0 and 2.0."""
    assert len(FILES) >= 9
    assert {(doc["type"], doc["version"]) for doc in DOCS} >= {
        (kind, version) for kind in ("idr", "subagged") for version in ("1.0", "2.0", "3.0")}


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(st.data())
def test_one_wrong_leaf_loads_or_is_a_validation_error(data):
    i = data.draw(st.integers(0, len(DOCS) - 1), label="file")
    field = data.draw(st.sampled_from(sorted(FIELDS[i])), label="field")
    path = data.draw(st.sampled_from(FIELDS[i][field]), label="leaf")
    doc = copy.deepcopy(DOCS[i])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    try:
        model_from_json(json.dumps(doc))
    except (ValueError, KeyError, TypeError):
        pass
