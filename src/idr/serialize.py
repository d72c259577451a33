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
benchmark's ``gamma-chain-cli`` workload takes 40,846 bytes as 4.0 (and
5.0), 86,626 as 3.0 and 187,934 as 2.0; a 4000-point gamma chain 0.35 MB as
4.0, 1.4 MB as 3.0 and 3.0 MB as 2.0.

Format 5.0 stores a subagged model's order spec, node keys and
thresholds once.  Members drawn from one training set share many rows,
so the file holds, at its top level, the ``order_spec``, the distinct
node keys of all members in lexicographic order (``node_keys``) and the
union of their grids (``thresholds``), each distinct bit for bit: where
two entries differ only in the sign of a zero, both are kept, -0.0
first, so that each member reloads with its own bits.  Each member
lists its ``node_keys`` and ``thresholds`` as strictly increasing
indices into those tables, carries no ``order_spec``, and keeps its
``cdf_rows``, ``node_row`` and ``climatology`` as in 4.0; every table
entry is used by some member, so the model has one encoding.  A plain
model is stored as in 4.0.  The seed-1 model of the benchmark's
``icx-subagg-cli`` workload takes 148,458 bytes as 5.0 and 175,920 as
4.0.  With few members on a large training set the members share few
rows, and an index can cost more than the repeats it saves.

Files are written as 5.0.  Format 4.0 repeated the order spec, node keys
and thresholds in every member; 3.0 listed every row's jumps in full;
2.0 stored the jump values themselves and the climatology's jumps; 1.x
stored the dense nodes x thresholds ``cdf_matrix``.  All five majors
load.  A 2.x, 3.x, 4.x or 5.x row is read by carrying the jumps of the
row before (4.x and 5.x) or of no row (2.x, 3.x) and setting those it
lists; each listed entry must change what is carried, and each jump must
rise, so a model has one encoding.

The reader checks only the rules of its encoding: the types and ranges
of the stored numbers, the jumps of each row, the node keys and the
shared tables of a subagged model with the indices into them.  The
model types check the model: :class:`~idr.fitting.IdrModel` that its
rows are valid CDFs, distinct, in lexicographic order and each the row
of some node, and that ``node_row`` indexes them;
:class:`~idr.stepfun.StepCdf` the climatology;
:class:`~idr.subagging.SubaggedModel` its members.  So every path that
makes a model meets one definition of a valid model, and every model
the constructors accept saves as a file that loads.
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

FORMAT_VERSION = "5.0"

#: Format majors this module reads: 1.x carries a dense ``cdf_matrix``,
#: 2.x its rows with the jump values themselves, 3.x each row's jumps in
#: full, 4.x each later row as its changes, 5.x a subagged model's spec,
#: keys and thresholds once.
_READABLE_MAJORS = ("1", "2", "3", "4", "5")


def _spec_payload(spec: OrderSpec) -> dict:
    return {
        "groups": [
            {"columns": list(g.columns), "relation": g.relation} for g in spec.groups
        ],
        "column_names": list(spec.column_names) if spec.column_names else None,
    }


def _field(obj, name: str, where: str = ""):
    """``obj[name]``, where ``obj`` is the object at ``where`` (a path
    such as ``"members[2]."``) in a model file; a ValueError that names
    the field if it is missing, or the object if it is none."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where[:-1] or 'the model file'} must be an object")
    if name not in obj:
        raise ValueError(f"the model file lacks the field {where}{name}")
    return obj[name]


def _spec_from_payload(payload: dict, where: str) -> OrderSpec:
    """The ``order_spec`` of the object at ``where``."""
    payload, where = _field(payload, "order_spec", where), f"{where}order_spec."
    groups = tuple(
        OrderGroup(tuple(_field(g, "columns", f"{where}groups[{i}].")), _field(g, "relation", f"{where}groups[{i}]."))
        for i, g in enumerate(_field(payload, "groups", where))
    )
    names = payload.get("column_names")
    if names is not None and not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
        raise ValueError("column_names must be null or a nonempty list of strings")
    return OrderSpec(groups, None if names is None else tuple(names))


def _rows_payload(model: IdrModel) -> dict:
    """The fields of a model that a subagged 5.x member keeps as its own:
    its rows, the row of each node and the climatology."""
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
        "cdf_rows": {
            "jump_index": [a.tolist() for a in np.split(at, cuts)],
            "jump_value": [a.tolist() for a in np.split(index, cuts)],
            "values": table.tolist(),
        },
        "node_row": model.node_row.tolist(),
        "climatology": {"cum": model.climatology.cum.tolist()},
    }


def _model_payload(model: IdrModel) -> dict:
    return {
        "type": "idr",
        "order_spec": _spec_payload(model.dag.spec),
        "node_keys": model.dag.keys.tolist(),
        "thresholds": model.thresholds.tolist(),
        **_rows_payload(model),
    }


def _shared(tables: list) -> tuple[np.ndarray, list]:
    """The distinct rows of the 2-d float arrays ``tables`` in
    lexicographic order, each zero kept with its sign: of two rows that
    differ only there, the one with -0.0 comes first.  Also the indices
    of each array's rows among them."""
    stacked = np.concatenate(tables)
    # a column of -1 for each sign bit tells -0.0 from 0.0 and puts it first
    rows, index = distinct_rows(np.hstack([stacked, 0.0 - np.signbit(stacked)]))
    return rows[:, :stacked.shape[1]], np.split(index, np.cumsum([len(t) for t in tables])[:-1])


def _subagged_payload(model: SubaggedModel) -> dict:
    """A subagged model with its order spec, its members' distinct node
    keys and the union of their grids stored once; each member lists the
    indices of its own keys and thresholds in those tables."""
    keys, key_index = _shared([m.dag.keys for m in model.members])
    grid, grid_index = _shared([m.thresholds[:, None] for m in model.members])
    members = [
        {"node_keys": k.tolist(), "thresholds": t.tolist(), **_rows_payload(m)}
        for m, k, t in zip(model.members, key_index, grid_index)
    ]
    return {
        "type": "subagged",
        "order_spec": _spec_payload(model.spec),
        "node_keys": keys.tolist(),
        "thresholds": grid[:, 0].tolist(),
        "members": members,
        "subsample_size": model.subsample_size,
        "seed": model.seed,
        "split": model.split,
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


def _table_values(table: dict, index: np.ndarray, where: str) -> np.ndarray:
    """The jump values of a 3.x, 4.x or 5.x member: its value table read
    at ``index``, and 0 (no jump) at an index of -1."""
    values, _ = _numbers(_field(table, "values", where), "cdf_rows values")
    if not (np.isfinite(values).all() and values[0] > 0 and values[-1] == 1.0 and np.all(np.diff(values) > 0)):
        raise ValueError("cdf_rows values must be a nonempty, finite, strictly increasing list in (0, 1] "
                         "that ends at 1")
    if not (index.min() >= -1 and index.max() < values.size):
        raise ValueError(f"cdf_rows jump_value must hold indices into cdf_rows values, in [0, {values.size}), "
                         f"or -1 where a row stops jumping")
    return np.concatenate(([0.0], values))[index + 1]


def _rows_from_table(payload: dict, m: int, major: int, where: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the row of each node of a 2.x, 3.x, 4.x or 5.x member,
    as stored.  A row carries the jump values of the row before (4.x and
    5.x) or of no row (2.x, 3.x) and sets those its entries list; each
    entry must change what it carries, and each jump must rise."""
    table, in_table = _field(payload, "cdf_rows", where), f"{where}cdf_rows."
    at, counts = _numbers(_field(table, "jump_index", in_table), "cdf_rows jump_index", 2, integers=True)
    values, value_counts = _numbers(_field(table, "jump_value", in_table), "cdf_rows jump_value", 2,
                                    integers=major != 2)
    if counts != value_counts:
        raise ValueError("cdf_rows needs one jump_value per jump_index, row by row")
    ends = np.cumsum(counts) - 1
    inner = np.ones(at.size - 1, dtype=bool)  # consecutive entries of one row
    inner[ends[:-1]] = False
    if not (at.min() >= 0 and at.max() < m and np.all(np.diff(at)[inner] > 0)):
        raise ValueError(f"cdf_rows jump_index rows must be strictly increasing integers in [0, {m})")
    if major == 2:
        if not (np.isfinite(values).all() and values.min() > 0.0 and values.max() <= 1.0):
            raise ValueError("cdf_rows jump_value entries must be finite and in (0, 1]")
    else:
        values = _table_values(table, values, in_table)
    # entry[r, j] is 1 + the entry that set row r's jump value at threshold j, 0 for none
    row_of_entry = np.repeat(np.arange(len(counts)), counts)
    entry = np.zeros((len(counts), m), dtype=np.min_scalar_type(at.size))
    entry[row_of_entry, at] = np.arange(1, at.size + 1)
    jumps, before = np.concatenate(([0.0], values)), 0
    if major >= 4:
        np.maximum.accumulate(entry, axis=0, out=entry)
        before = np.where(row_of_entry > 0, entry[row_of_entry - 1, at], 0)
    if np.any(jumps[before] == values):
        raise ValueError("cdf_rows jump_value entries must each change the jump value their row carries")
    rows = jumps[entry]
    del entry
    count = np.count_nonzero(rows)
    # rows are nondecreasing, so carrying each jump value forward rebuilds them exactly
    np.maximum.accumulate(rows, axis=1, out=rows)
    if np.count_nonzero(rows[:, 0]) + np.count_nonzero(rows[:, 1:] > rows[:, :-1]) != count:
        raise ValueError("cdf_rows rows must jump to strictly increasing values")
    return rows, _numbers(_field(payload, "node_row", where), "node_row", integers=True)[0]


def _rows_from_matrix(payload: dict, n_nodes: int, m: int, where: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows and the row of each node of a 1.x member's
    dense CDF."""
    cdf, widths = _numbers(_field(payload, "cdf_matrix", where), "cdf_matrix", 2)
    if len(widths) != n_nodes or set(widths) != {m}:
        raise ValueError(f"cdf_matrix must be nodes x thresholds, {n_nodes} rows of {m} values")
    return distinct_rows(cdf.reshape(n_nodes, m))


def _keys(value) -> np.ndarray:
    """The stored ``node_keys``, a rectangular (keys, key width) array."""
    keys, widths = _numbers(value, "node_keys", 2)
    if len(set(widths)) != 1:
        raise ValueError("node_keys must be a rectangular array")
    return keys.reshape(len(widths), -1)


def _model_from_payload(payload: dict, major: int, spec: OrderSpec, keys: np.ndarray,
                        thresholds: np.ndarray, where: str) -> IdrModel:
    """A model of the order ``spec`` with nodes named by ``keys``, on
    ``thresholds``; its rows and climatology as ``payload``, the object
    at ``where`` in the file, stores them."""
    dag = build_order_dag(spec, keys, points_are_keys=True)
    if dag.n_nodes < len(keys):
        raise ValueError("node_keys hold order-equivalent keys; each node must have one")
    if not np.array_equal(dag.keys, keys):
        raise ValueError("node_keys are not in canonical order")
    if major == 1:
        rows, node_row = _rows_from_matrix(payload, dag.n_nodes, thresholds.size, where)
    else:
        rows, node_row = _rows_from_table(payload, thresholds.size, major, where)
    clim, in_clim = _field(payload, "climatology", where), f"{where}climatology."
    jumps = thresholds if major >= 3 else _numbers(_field(clim, "jumps", in_clim), "climatology jumps")[0]
    cum, _ = _numbers(_field(clim, "cum", in_clim), "climatology cum")
    return IdrModel(thresholds, rows, node_row, dag, StepCdf(jumps, cum))


def _plain_model(payload: dict, major: int, where: str = "") -> IdrModel:
    """A model that stores its own order spec, node keys and thresholds:
    a plain one, or a subagged member before 5.0, at ``where`` in the
    file."""
    keys, grid = _field(payload, "node_keys", where), _field(payload, "thresholds", where)
    return _model_from_payload(payload, major, _spec_from_payload(payload, where), _keys(keys),
                               _numbers(grid, "thresholds")[0], where)


def _indices(value, size: int, what: str) -> np.ndarray:
    """A member's list of indices into a shared table of ``size`` entries."""
    index, _ = _numbers(value, f"member {what}", integers=True)
    if not (index[0] >= 0 and index[-1] < size and np.all(index[1:] > index[:-1])):
        raise ValueError(f"member {what} must be strictly increasing indices into {what}, in [0, {size})")
    return index


def _shared_table(table: np.ndarray, what: str) -> np.ndarray:
    """``table``, the 2-d node keys or the grid as a column; a ValueError
    unless its rows are as :func:`_shared` lists them."""
    if not np.array_equal(_shared([table])[1][0], np.arange(len(table))):
        raise ValueError(f"{what} must be distinct and in lexicographic order, -0.0 before 0.0")
    return table


def _shared_members(payload: dict, major: int) -> tuple[IdrModel, ...]:
    """The members of a 5.x subagged document, each with its node keys
    and thresholds gathered from the document's shared tables."""
    spec = _spec_from_payload(payload, "")
    keys = _shared_table(_keys(_field(payload, "node_keys")), "node_keys")
    grid = _shared_table(_numbers(_field(payload, "thresholds"), "thresholds")[0][:, None], "thresholds")[:, 0]
    members = _field(payload, "members")
    if any("order_spec" in m for m in members):
        raise ValueError("members must not carry an order_spec; the subagged model stores it once")
    picks, key_used, grid_used = [], np.zeros(len(keys), dtype=bool), np.zeros(grid.size, dtype=bool)
    for i, m in enumerate(members):
        k = _indices(_field(m, "node_keys", f"members[{i}]."), len(keys), "node_keys")
        t = _indices(_field(m, "thresholds", f"members[{i}]."), grid.size, "thresholds")
        key_used[k] = grid_used[t] = True
        picks.append((k, t))
    for what, used in (("node_keys", key_used), ("thresholds", grid_used)):
        if not used.all():
            raise ValueError(f"every entry of {what} must be used by some member")
    return tuple(_model_from_payload(m, major, spec, keys[k], grid[t], f"members[{i}].")
                 for i, (m, (k, t)) in enumerate(zip(members, picks)))


def model_to_json(model) -> str:
    """Serialize a fitted model (plain or subagged) to a JSON string."""
    if isinstance(model, IdrModel):
        payload = _model_payload(model)
    elif isinstance(model, SubaggedModel):
        payload = _subagged_payload(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload["version"] = FORMAT_VERSION
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _format_major(payload: dict) -> int:
    version = payload.get("version")
    if not isinstance(version, str) or "." not in version:
        raise ValueError("model file lacks a valid version field")
    major = version.split(".", 1)[0]
    if major not in _READABLE_MAJORS:
        raise ValueError(f"unsupported model format version {version!r}")
    return int(major)


def model_from_json(text: str):
    """Rebuild a model from :func:`model_to_json` output of any readable
    format version."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("model file must contain a JSON object")
    major = _format_major(payload)
    kind = _field(payload, "type")
    if kind == "idr":
        return _plain_model(payload, major)
    if kind == "subagged":
        if major >= 5:
            members = _shared_members(payload, major)
        else:
            members = tuple(_plain_model(m, major, f"members[{i}].") for i, m in enumerate(_field(payload, "members")))
        size, seed = (_numbers(_field(payload, f), f, 0, integers=True)[0].item() for f in ("subsample_size", "seed"))
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
