"""Versioned JSON persistence for fitted models.

The layout is deliberately plain: order specification, node keys,
thresholds, the fitted CDFs and the pooled fallback distribution, all
as JSON arrays.  Serialization is canonical (sorted keys, no spaces),
so the same model always produces the same bytes.

Format 3.0 stores every number once.  A fitted CDF value is a weighted
mean of threshold indicators over one level set, so a model holds few
distinct values: each member keeps them as one sorted table,
``cdf_rows.values``.  The model's distinct CDF rows,
:attr:`~idr.fitting.IdrModel.rows`, are listed in lexicographic order,
each by the threshold indices where it jumps (``cdf_rows.jump_index``)
and the table indices of its values after those jumps
(``cdf_rows.jump_value``); ``node_row`` gives the row of every node
(``IdrModel.node_row``).  Format 4.0 lists the first row so, and each
later row only where its jumps differ from the row before: the new
table index, or -1 where the row before jumped and this one does not.
On a chain, rows next in lexicographic order are neighbours along it
and repeat most of each other's jumps; on other orders fewer, and a
small poset model can take a few percent more bytes than as 3.0.  A
loaded model holds the same rows; its dense
``cdf`` is a view built from them on access.  The climatology jumps at
the thresholds, so only its ``cum`` is stored.  The seed-1 model of the
benchmark's ``gamma-chain-cli`` workload takes 40,846 bytes as 4.0,
86,626 as 3.0 and 187,934 as 2.0; a 4000-point gamma chain 0.35 MB as
4.0, 1.4 MB as 3.0 and 3.0 MB as 2.0.

Files are written as 4.0.  Format 3.0 listed every row's jumps in full;
2.0 stored the jump values themselves and the climatology's jumps; 1.x
stored the dense nodes x thresholds ``cdf_matrix``.  All four majors
load.  A 2.x, 3.x or 4.x row is read by carrying the jumps of the row
before (4.x) or of no row (2.x, 3.x) and setting those it lists; each
listed entry must change what is carried, so a model has one encoding.
The rows must be in the order every writer used: distinct, in
lexicographic order and each the row of some node.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .fitting import IdrModel, distinct_rows
from .orders import OrderGroup, OrderSpec, build_order_dag
from .stepfun import StepCdf, distinct_sorted
from .subagging import SubaggedModel

__all__ = ["model_to_json", "model_from_json", "save_model", "load_model"]

FORMAT_VERSION = "4.0"

#: Format majors this module reads: 1.x carries a dense ``cdf_matrix``,
#: 2.x its rows with the jump values themselves, 3.x each row's jumps in full.
_READABLE_MAJORS = ("1", "2", "3", "4")


def _spec_payload(spec: OrderSpec) -> dict:
    return {
        "groups": [
            {"columns": list(g.columns), "relation": g.relation} for g in spec.groups
        ],
        "column_names": list(spec.column_names) if spec.column_names else None,
    }


def _spec_from_payload(payload: dict) -> OrderSpec:
    groups = tuple(
        OrderGroup(tuple(g["columns"]), g["relation"]) for g in payload["groups"]
    )
    names = payload.get("column_names")
    if names is not None and not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
        raise ValueError("column_names must be null or a nonempty list of strings")
    return OrderSpec(groups, None if names is None else tuple(names))


def _model_payload(model: IdrModel) -> dict:
    # the rows are distinct and in lexicographic order, so the bytes are canonical
    rows = model.rows
    carried = np.where(np.diff(rows, axis=1, prepend=0.0) > 0, rows, 0.0)  # jump values, 0 for none
    changed = np.empty(rows.shape, dtype=bool)
    changed[0] = carried[0] > 0
    np.not_equal(carried[1:], carried[:-1], out=changed[1:])
    row_of_change, at = np.nonzero(changed)
    cuts = np.cumsum(np.count_nonzero(changed, axis=1))[:-1]
    values = carried[row_of_change, at]
    table = distinct_sorted(values[values > 0])
    index = np.where(values > 0, np.searchsorted(table, values), -1)
    return {
        "type": "idr",
        "order_spec": _spec_payload(model.dag.spec),
        "node_keys": model.dag.keys.tolist(),
        "thresholds": model.thresholds.tolist(),
        "cdf_rows": {
            "jump_index": [a.tolist() for a in np.split(at, cuts)],
            "jump_value": [a.tolist() for a in np.split(index, cuts)],
            "values": table.tolist(),
        },
        "node_row": model.node_row.tolist(),
        "climatology": {"cum": model.climatology.cum.tolist()},
    }


def _numbers(value, what: str, depth: int = 1, integers: bool = False) -> tuple[np.ndarray, list[int]]:
    """The entries of ``value``, JSON lists nested ``depth`` deep (0 for
    one number) and none empty, as one flat float64 (int64 if
    ``integers``) array, with the length of each innermost list; a
    ValueError naming ``what`` for a boolean, string, null or overflow."""
    flat, counts = [value], [1]
    for _ in range(depth):
        if not (set(map(type, flat)) <= {list} and all(flat)):
            break
        counts = list(map(len, flat))
        flat = list(chain.from_iterable(flat))
    else:  # every level was a nonempty list; one type test at C speed, as one per entry is slow
        if set(map(type, flat)) <= ({int} if integers else {int, float}):
            try:
                return np.fromiter(flat, np.int64 if integers else np.float64, len(flat)), counts
            except OverflowError:
                pass
    noun, dtype = ("integer", "int64") if integers else ("number", "float64")
    shape = ("a single {}", "a nonempty list of {}s", "a nonempty list of nonempty lists of {}s")[depth]
    raise ValueError(f"{what} must be {shape.format(noun)} within the {dtype} range")


def _table_values(table: dict, index: np.ndarray) -> np.ndarray:
    """The jump values of a 3.x or 4.x member: its value table read at
    ``index``, and 0 (no jump) at an index of -1."""
    values, _ = _numbers(table["values"], "cdf_rows values")
    if not (np.isfinite(values).all() and values[0] > 0 and values[-1] == 1.0 and np.all(np.diff(values) > 0)):
        raise ValueError("cdf_rows values must be a nonempty, finite, strictly increasing list in (0, 1] "
                         "that ends at 1")
    if not (index.min() >= -1 and index.max() < values.size):
        raise ValueError(f"cdf_rows jump_value must hold indices into cdf_rows values, in [0, {values.size}), "
                         f"or -1 where a row stops jumping")
    return np.concatenate(([0.0], values))[index + 1]


def _rows_from_table(payload: dict, n_nodes: int, m: int, major: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows and the row of each node of a 2.x, 3.x or 4.x
    member.  A row carries the jump values of the row before (4.x) or of
    no row (2.x, 3.x) and sets those its entries list; each entry must
    change what it carries."""
    table = payload["cdf_rows"]
    if not isinstance(table, dict):
        raise ValueError("cdf_rows must be an object")
    at, counts = _numbers(table["jump_index"], "cdf_rows jump_index", 2, integers=True)
    values, value_counts = _numbers(table["jump_value"], "cdf_rows jump_value", 2, integers=major != "2")
    if counts != value_counts:
        raise ValueError("cdf_rows needs one jump_value per jump_index, row by row")
    ends = np.cumsum(counts) - 1
    inner = np.ones(at.size - 1, dtype=bool)  # consecutive entries of one row
    inner[ends[:-1]] = False
    if not (at.min() >= 0 and at.max() < m and np.all(np.diff(at)[inner] > 0)):
        raise ValueError(f"cdf_rows jump_index rows must be strictly increasing integers in [0, {m})")
    if major == "2":
        if not (np.isfinite(values).all() and values.min() > 0.0 and values.max() <= 1.0):
            raise ValueError("cdf_rows jump_value entries must be finite and in (0, 1]")
    else:
        values = _table_values(table, values)
    node_row, _ = _numbers(payload["node_row"], "node_row", integers=True)
    if not (node_row.size == n_nodes and node_row.min() >= 0 and node_row.max() < len(counts)):
        raise ValueError(f"node_row must hold one row index in [0, {len(counts)}) for each of the {n_nodes} nodes")
    # entry[r, j] is 1 + the entry that set row r's jump value at threshold j, 0 for none
    row_of_entry = np.repeat(np.arange(len(counts)), counts)
    entry = np.zeros((len(counts), m), dtype=np.min_scalar_type(at.size))
    entry[row_of_entry, at] = np.arange(1, at.size + 1)
    jumps, before = np.concatenate(([0.0], values)), 0
    if major == "4":
        np.maximum.accumulate(entry, axis=0, out=entry)
        before = np.where(row_of_entry > 0, entry[row_of_entry - 1, at], 0)
    if np.any(jumps[before] == values):
        raise ValueError("cdf_rows jump_value entries must each change the jump value their row carries")
    rows = jumps[entry]
    del entry
    count = np.count_nonzero(rows)
    # rows are nondecreasing, so carrying each jump value forward rebuilds them exactly
    np.maximum.accumulate(rows, axis=1, out=rows)
    if not (np.all(rows[:, -1] == 1.0)
            and np.count_nonzero(rows[:, 0]) + np.count_nonzero(rows[:, 1:] > rows[:, :-1]) == count):
        raise ValueError("cdf_rows rows must jump to strictly increasing values and end at 1")
    differ = rows[1:] != rows[:-1]
    first, k = differ.argmax(axis=1), np.arange(len(rows) - 1)
    if not (differ.any(axis=1).all() and np.all(rows[k + 1, first] > rows[k, first])
            and np.bincount(node_row, minlength=len(rows)).all()):
        raise ValueError("cdf_rows must be distinct rows in lexicographic order, each the row of some node")
    return rows, node_row


def _rows_from_matrix(payload: dict, n_nodes: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows and the row of each node of a 1.x member's
    dense CDF, checked."""
    cdf, widths = _numbers(payload["cdf_matrix"], "cdf_matrix", 2)
    if len(widths) != n_nodes or set(widths) != {m}:
        raise ValueError(f"cdf_matrix must be nodes x thresholds, {n_nodes} rows of {m} values")
    cdf = cdf.reshape(n_nodes, m)
    if not (np.isfinite(cdf).all() and cdf.min() >= 0.0 and cdf.max() <= 1.0
            and np.all(cdf[:, 1:] >= cdf[:, :-1]) and np.all(cdf[:, -1] == 1.0)):
        raise ValueError("every cdf_matrix row must be finite, within [0, 1], nondecreasing and end at 1")
    return distinct_rows(cdf)


def _model_from_payload(payload: dict, major: str) -> IdrModel:
    spec = _spec_from_payload(payload["order_spec"])
    keys, widths = _numbers(payload["node_keys"], "node_keys", 2)
    if len(set(widths)) != 1:
        raise ValueError("node_keys must be a rectangular array")
    keys = keys.reshape(len(widths), -1)
    dag = build_order_dag(spec, keys, points_are_keys=True)
    if dag.n_nodes < len(widths):
        raise ValueError("node_keys hold order-equivalent keys; each node must have one")
    if not np.array_equal(dag.keys, keys):
        raise ValueError("node_keys are not in canonical order")
    thresholds, _ = _numbers(payload["thresholds"], "thresholds")
    if not np.isfinite(thresholds).all() or np.any(np.diff(thresholds) <= 0):
        raise ValueError("thresholds must be finite and strictly increasing")
    if major == "1":
        rows, node_row = _rows_from_matrix(payload, dag.n_nodes, thresholds.size)
    else:
        rows, node_row = _rows_from_table(payload, dag.n_nodes, thresholds.size, major)
    clim = payload["climatology"]
    jumps = thresholds if major in ("3", "4") else _numbers(clim["jumps"], "climatology jumps")[0]
    cum, _ = _numbers(clim["cum"], "climatology cum")
    if cum.size != jumps.size:
        raise ValueError(f"climatology cum must hold one value for each of its {jumps.size} jumps")
    return IdrModel(thresholds, rows, node_row, dag, StepCdf(jumps, cum))


def model_to_json(model) -> str:
    """Serialize a fitted model (plain or subagged) to a JSON string."""
    if isinstance(model, IdrModel):
        payload = _model_payload(model)
    elif isinstance(model, SubaggedModel):
        payload = {
            "type": "subagged",
            "members": [_model_payload(m) for m in model.members],
            "subsample_size": model.subsample_size,
            "seed": model.seed,
            "split": model.split,
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload["version"] = FORMAT_VERSION
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _format_major(payload: dict) -> str:
    version = payload.get("version")
    if not isinstance(version, str) or "." not in version:
        raise ValueError("model file lacks a valid version field")
    major = version.split(".", 1)[0]
    if major not in _READABLE_MAJORS:
        raise ValueError(f"unsupported model format version {version!r}")
    return major


def model_from_json(text: str):
    """Rebuild a model from :func:`model_to_json` output of any readable
    format version."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("model file must contain a JSON object")
    major = _format_major(payload)
    kind = payload.get("type")
    if kind == "idr":
        return _model_from_payload(payload, major)
    if kind == "subagged":
        members = tuple(_model_from_payload(m, major) for m in payload["members"])
        size, seed = (_numbers(payload[f], f, 0, integers=True)[0].item() for f in ("subsample_size", "seed"))
        return SubaggedModel(members, size, seed, payload.get("split", "random"))
    raise ValueError(f"unknown model type {kind!r}")


def save_model(model, path):
    """Write a model to ``path`` as canonical JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path):
    """Read a model written by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
