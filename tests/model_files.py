"""Model-file layouts rewritten in plain Python, for the tests: the rows
of a 3.x document, which lists each row's jumps in full, and of a 4.x
or 5.x one, which lists each row after the first where it differs from
the row before; and a subagged 5.x document, which stores its members'
order spec, node keys and thresholds once, where 4.0 repeats them in
every member."""

import copy
import math


def member_docs(doc) -> list:
    """The member payloads of a plain or subagged document."""
    return doc["members"] if "members" in doc else [doc]


def major(version: str) -> int:
    return int(version.split(".")[0])


def row_jumps(table, version) -> list[dict]:
    """Each stored row of a 2.x, 3.x, 4.x or 5.x ``cdf_rows`` as a dict
    from the threshold index of each of its jumps to the entry stored for
    it.  A 4.x or 5.x row takes the jumps of the row before and sets those
    it lists, where -1 drops one; an earlier format lists all its jumps."""
    rows, jumps = [], {}
    for at, values in zip(table["jump_index"], table["jump_value"]):
        if major(version) < 4:
            jumps = {}
        jumps = {j: v for j, v in {**jumps, **dict(zip(at, values))}.items() if v != -1}
        rows.append(jumps)
    return rows


def listed_per_member(doc) -> dict:
    """A 5.0 document as format 4.0 stores it: every member of a
    subagged one as a plain model, with the order spec and its own node
    keys and thresholds, read from the shared tables at its indices."""
    doc = copy.deepcopy(doc)
    if doc["type"] == "subagged":
        spec, keys, grid = doc.pop("order_spec"), doc.pop("node_keys"), doc.pop("thresholds")
        for member in doc["members"]:
            member["type"], member["order_spec"] = "idr", copy.deepcopy(spec)
            member["node_keys"] = [keys[i] for i in member["node_keys"]]
            member["thresholds"] = [grid[i] for i in member["thresholds"]]
    doc["version"] = "4.0"
    return doc


def _signed(values) -> tuple:
    """``values`` and their signs: two lists that differ only in the sign
    of a zero are told apart, and the one with -0.0 sorts first."""
    return tuple(values), tuple(math.copysign(1.0, x) for x in values)


def shared_tables(doc) -> dict:
    """A 4.0 document as format 5.0 stores it: a subagged one keeps the
    order spec of its members, the distinct node keys of all of them
    and the union of their thresholds once, sorted, each zero kept with
    its sign and -0.0 before 0.0; each member lists the positions of its
    own keys and thresholds in those tables."""
    doc = copy.deepcopy(doc)
    if doc["type"] == "subagged":
        members = doc["members"]
        keys = sorted({_signed(k) for m in members for k in m["node_keys"]})
        grid = sorted({_signed([t]) for m in members for t in m["thresholds"]})
        key_at = {k: i for i, k in enumerate(keys)}
        grid_at = {t: i for i, t in enumerate(grid)}
        doc["order_spec"] = members[0]["order_spec"]
        for member in members:
            del member["type"], member["order_spec"]
            member["node_keys"] = [key_at[_signed(k)] for k in member["node_keys"]]
            member["thresholds"] = [grid_at[_signed([t])] for t in member["thresholds"]]
        doc["node_keys"] = [list(k) for k, _ in keys]
        doc["thresholds"] = [t for (t,), _ in grid]
    doc["version"] = "5.0"
    return doc


def listed_in_full(doc) -> dict:
    """A 3.x, 4.x or 5.x document as format 3.0 stores it."""
    doc = listed_per_member(doc) if major(doc["version"]) >= 5 else copy.deepcopy(doc)
    for member in member_docs(doc):
        table = member["cdf_rows"]
        rows = row_jumps(table, doc["version"])
        table["jump_index"] = [sorted(row) for row in rows]
        table["jump_value"] = [[row[j] for j in sorted(row)] for row in rows]
    doc["version"] = "3.0"
    return doc


def listed_as_changes(doc) -> dict:
    """A 3.0 document as format 4.0 stores it: the first row as in 3.0,
    each later row where its jumps differ from the row before, with -1
    where it stops jumping."""
    doc = copy.deepcopy(doc)
    for member in member_docs(doc):
        table, before = member["cdf_rows"], {}
        index, value = [], []
        for row in row_jumps(table, "3.0"):
            changed = sorted(j for j in row.keys() | before.keys() if row.get(j, -1) != before.get(j, -1))
            index.append(changed)
            value.append([row.get(j, -1) for j in changed])
            before = row
        table["jump_index"], table["jump_value"] = index, value
    doc["version"] = "4.0"
    return doc


def in_full(edit):
    """``edit``, written for rows listed in full; a 4.x or 5.x document
    is edited in its 3.0 form, then listed as changes again (and its
    tables shared, for 5.x)."""
    def apply(doc):
        if major(doc["version"]) < 4:
            return edit(doc)
        full = listed_in_full(doc)
        edit(full)
        changes = listed_as_changes(full)
        if major(doc["version"]) >= 5:
            changes = shared_tables(changes)
        version = doc["version"]
        doc.clear()
        doc.update(changes, version=version)
    return apply


def reverse_rows(doc):
    """List the rows in reverse order, each node keeping its row."""
    count = len(doc["cdf_rows"]["jump_index"])
    for field in ("jump_index", "jump_value"):
        doc["cdf_rows"][field].reverse()
    doc["node_row"] = [count - 1 - r for r in doc["node_row"]]
