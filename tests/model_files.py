"""Model-file layouts rewritten in plain Python, for the tests: the rows
of a 3.x document, which lists each row's jumps in full, and of a 4.x
one, which lists each row after the first where it differs from the row
before."""

import copy


def member_docs(doc) -> list:
    """The member payloads of a plain or subagged document."""
    return doc["members"] if "members" in doc else [doc]


def row_jumps(table, version) -> list[dict]:
    """Each stored row of a 2.x, 3.x or 4.x ``cdf_rows`` as a dict from
    the threshold index of each of its jumps to the entry stored for it.
    A 4.x row takes the jumps of the row before and sets those it lists,
    where -1 drops one; an earlier format lists all its jumps."""
    rows, jumps = [], {}
    for at, values in zip(table["jump_index"], table["jump_value"]):
        if not version.startswith("4."):
            jumps = {}
        jumps = {j: v for j, v in {**jumps, **dict(zip(at, values))}.items() if v != -1}
        rows.append(jumps)
    return rows


def listed_in_full(doc) -> dict:
    """A 3.x or 4.x document as format 3.0 stores it."""
    doc = copy.deepcopy(doc)
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
    """``edit``, written for rows listed in full; a 4.x document is
    edited in its 3.0 form, then listed as changes again."""
    def apply(doc):
        if not doc["version"].startswith("4."):
            return edit(doc)
        full = listed_in_full(doc)
        edit(full)
        doc.update(listed_as_changes(full), version=doc["version"])
    return apply


def reverse_rows(doc):
    """List the rows in reverse order, each node keeping its row."""
    count = len(doc["cdf_rows"]["jump_index"])
    for field in ("jump_index", "jump_value"):
        doc["cdf_rows"][field].reverse()
    doc["node_row"] = [count - 1 - r for r in doc["node_row"]]
