"""Weighted least-squares projection onto antitonic cones.

A fit hands the solver for its order's shape each node's weighted
indicator sums and weight (:func:`_fit_sums`), and each fitted value is
a level set's sum over its weight, rounded once.  On a chain,
pool-adjacent-violators pools the sums over all columns at once, in
floats, exactly for integer weights.  On a general partial order a
block is split recursively into the least lower set with the largest
positive residual mass and the rest, until no lower set gains.  That
lower set is a maximum-weight closure, found by shortest augmenting
paths (Edmonds & Karp) on a network built as plain lists, whose
uncuttable arcs are the block's cover edges only.  The node sums and
weights are Python ints, scaled by a power of two, so every residual,
capacity, gain and comparison of two means is exact: the correctly
rounded value of the exact projection.

Neighbouring threshold columns differ in few nodes (one observation's
indicator), so each poset column starts from the blocks of the one
before.  The blocks that hold a changed node are solved again, on the
cover edges among them.  Where the new means break a cover edge (its
lower end now below its upper end), the next round solves again only
the blocks at the two ends of the broken edges.  Every other block
keeps its sums and its proof that no lower subset gains.  Once no edge
is broken, the column is feasible and every block optimal, so it is the
exact projection; :func:`_refit` says why the loop stops.  The first
column is the same loop with every node changed.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .stepfun import check_weights

__all__ = ["pav_antitonic", "antitonic_l2_fit"]


#: Columns per chain PAV pass: bounds its (nodes x columns) stacks.
_PAV_BLOCK = 256


def _pav_chain(sums: np.ndarray, weights: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Antitonic PAV of every column of ``sums`` (nodes x columns) over
    the node ``weights``, along the chain that visits the rows in
    ``order``.  Each step pushes the next node onto every column's stack,
    then pools the top two blocks wherever their means violate.  Each
    fitted value is a block's sum S over its weight W, rounded once.
    For integer weights (or integers times one power of two, the unit)
    totalling below 2**26 units, every S and W is exact, and two distinct
    means differ by 1 / (W1 * W2) > 2**-52 or more, over one ulp in
    [0, 1], so the fit is the exact PAV, correctly rounded."""
    n, m = sums.shape
    out = np.empty((n, m))
    for c0 in range(0, m, _PAV_BLOCK):
        block = sums[:, c0:c0 + _PAV_BLOCK]
        b = block.shape[1]
        # one stack per column, entry (stack row r, column c) at r * b + c
        ssum = np.zeros(n * b)
        wsum = np.ones(n * b)
        first = np.empty(n * b, dtype=np.intp)
        top = np.arange(b) - b
        for i, node in enumerate(order):
            top += b
            ssum[top] = block[node]
            wsum[top] = weights[node]
            first[top] = i
            t = top[top >= b]
            while t.size:
                below = t - b
                pool = ssum[below] / wsum[below] < ssum[t] / wsum[t]
                if not pool.any():
                    break
                t, below = t[pool], below[pool]
                ssum[below] += ssum[t]
                wsum[below] += wsum[t]
                top[below % b] = below
                t = below[below >= b]
        # block means; chain position p takes the last block starting at or before p
        ssum /= wsum
        first = first.reshape(n, b)
        first[np.arange(n)[:, None] > top // b] = n
        flat = np.zeros((n + 1, b), dtype=np.intp)
        flat[first, np.arange(b)] = np.arange(n * b).reshape(n, b)
        np.maximum.accumulate(flat, axis=0, out=flat)
        out[order, c0:c0 + b] = ssum[flat[:n]]
    return out


def _pav_values(values: np.ndarray, weights: np.ndarray, order: np.ndarray) -> np.ndarray:
    """:func:`_pav_chain` of the products of ``values`` and ``weights``,
    each scaled exactly by a power of two to a largest magnitude in
    [1, 2), so that no sum overflows, and the fit scaled back."""
    top = int(np.frexp(weights.max())[1]) if weights.size else 1
    shift = 1 - int(np.frexp(max(values.max(initial=0.0), -values.min(initial=0.0)))[1])
    values = np.ldexp(values, shift) if shift else values
    weights = np.ldexp(weights, 1 - top) if top != 1 else weights
    out = _pav_chain(weights[:, None] * values, weights, order)
    return np.ldexp(out, -shift, out=out) if shift else out


def _checked(values, weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated values (one entry or row per node) and node weights."""
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise ValueError("values must have one entry or row per node")
    w = check_weights(weights, n)
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    return v, w


def pav_antitonic(values, weights=None) -> np.ndarray:
    """Project ``values`` onto the nonincreasing cone along a chain.

    Entries are indexed from the least to the greatest element of the
    chain, so the output is nonincreasing.  Each output entry is the
    weighted mean of a contiguous pooled block of the input, pooled as
    products fl(w_i * v_i): the exact PAV, rounded once, where these and
    their sums are exact and distinct means round apart (0/1 values or
    multiples of 1/16 under integer weights), else a few ulps off it.

    Parameters
    ----------
    values : array_like
    weights : array_like, optional
        As :func:`idr.stepfun.check_weights` takes them; unit weights when omitted.

    Returns
    -------
    numpy.ndarray
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be 1-d")
    v, w = _checked(v, weights, v.size)
    return _pav_values(v[:, None], w, np.arange(v.size))[:, 0]


def _shift(a: np.ndarray) -> int:
    """The least k >= 0 that makes every entry of ``a`` times 2**k an
    integer."""
    return max([x.as_integer_ratio()[1].bit_length() - 1 for x in a.tolist()], default=0)


def _ints(a: np.ndarray, shift: int) -> list[int]:
    """The entries of ``a`` times 2**shift as Python ints, exactly; each
    must be an integer (see :func:`_shift`)."""
    return [num << (shift + 1 - den.bit_length()) for num, den in map(float.as_integer_ratio, a.tolist())]


def _min_cut(s, t, adj, head, cap) -> tuple[int, list[bool]]:
    """Max-flow along shortest augmenting paths: arc e runs to ``head[e]``
    with residual capacity ``cap[e]``, an int (updated in place), its
    reverse is ``e ^ 1``, and ``adj[u]`` lists the arcs leaving node u.
    Each pass searches from ``s`` breadth-first, level by level, over
    arcs with capacity left, up to the first level with arcs into ``t``,
    then pushes along the path to each in turn.  Returns the flow and the
    nodes that the last pass, which found no path, reached."""
    flow = 0
    while True:
        via = [-1] * len(adj)  # the arc that first reached each node
        via[s] = len(head)
        level, ends = [s], []
        while level and not ends:
            nxt = []
            for u in level:
                for e in adj[u]:
                    v = head[e]
                    if via[v] < 0 and cap[e]:
                        if v == t:
                            ends.append(e)
                        else:
                            via[v] = e
                            nxt.append(v)
            level = nxt
        if not ends:
            return flow, [e >= 0 for e in via]
        for e in ends:
            path = [e]
            while head[e ^ 1] != s:
                e = via[head[e ^ 1]]
                path.append(e)
            f = min([cap[e] for e in path])
            for e in path:
                cap[e] -= f
                cap[e ^ 1] += f
            flow += f


def _best_lower_set(edges, b: list[int]):
    """The least lower set D that maximizes sum(b[D]), given cover edges
    as (lower, upper) pairs (D holds the lower end whenever it holds the
    upper), as a list of booleans, if that sum is above 0; else None.
    Where ``b`` sums to 0, as a block's residuals do, D is then neither
    empty nor everything.

    Solved as a max-weight closure problem: cutting a positive node's
    source arc excludes it, cutting a negative node's sink arc includes
    it, and an arc from each upper end to its lower end, with more
    capacity than any cut, forces closure.  The network is built as
    lists: arc 2j runs from the upper to the lower end of edge j and arc
    2j + 1 back, then come the terminal arcs by node.  The capacities are
    ints, so the flow is exact, and the breadth-first search that finds
    no augmenting path reaches the source side of the least min-cut,
    which is D, whatever paths the flow took.
    """
    pos = sum([x for x in b if x > 0])
    if not pos:
        return None
    n, m = len(b), 2 * len(edges)
    s, t = n, n + 1
    head = [v for edge in edges for v in edge]
    cap = [pos + 1, 0] * len(edges)
    adj, out_s = [], []
    for u, x in enumerate(b):
        if x > 0:
            adj.append([m + 1])
            out_s.append(m)
            head += (u, s)
            cap += (x, 0)
        elif x < 0:
            adj.append([m])
            head += (t, u)
            cap += (-x, 0)
        else:
            adj.append([])
            continue
        m += 2
    adj += (out_s, [])  # the search stops at t
    for e, (lo, hi) in zip(range(0, m, 2), edges):
        adj[hi].append(e)
        adj[lo].append(e + 1)
    flow, reached = _min_cut(s, t, adj, head, cap)
    return reached[:n] if flow < pos else None


def _split(idx, edges, w, col, level, frac, block, members):
    """Fit ``col`` (node sums, ints) on the nodes ``idx`` (ascending)
    under the cover ``edges``, (lower, upper) pairs numbered within
    ``idx``: cut a block into its best lower set and the rest until no
    lower set gains.  A block of sum S and weight W has the residuals
    W * col[i] - w[i] * S, its mean times W * w[i] away from node i's.
    Writes each final block's mean S / W into ``level``, (S, W) into
    ``frac``, its least node into ``block`` and its nodes into
    ``members``."""
    stack = [(idx, edges)]
    while stack:
        idx, edges = stack.pop()
        s = sum([col[i] for i in idx])
        t = sum([w[i] for i in idx])
        side = _best_lower_set(edges, [t * col[i] - w[i] * s for i in idx]) if len(idx) > 1 else None
        if side is not None:
            # side is a lower set: an edge stays inside iff its upper end
            # is in it, and outside iff its lower end is not
            rank = list(accumulate(side))
            stack.append(([g for g, d in zip(idx, side) if d],
                          [(rank[a] - 1, rank[c] - 1) for a, c in edges if side[c]]))
            stack.append(([g for g, d in zip(idx, side) if not d],
                          [(a - rank[a], c - rank[c]) for a, c in edges if not side[a]]))
            continue
        mean = s / t
        for i in idx:
            level[i] = mean
            frac[i] = (s, t)
            block[i] = idx[0]
        members[idx[0]] = idx


def _within(nodes, ups):
    """The cover edges with both ends among ``nodes`` (ascending), in the
    order of ``dag.edges()``, as (lower, upper) pairs numbered
    within them."""
    local = [-1] * len(ups)
    for i, g in enumerate(nodes):
        local[g] = i
    return [(i, local[v]) for i, u in enumerate(nodes) for v in ups[u] if local[v] >= 0]


def _refit(region, col, w, ups, downs, level, frac, block, members):
    """Re-solve one column, starting from the blocks whose nodes are
    ``region`` (ascending).

    The region is solved on the cover edges among its nodes.  Each round
    then checks the cover edges from the nodes it solved to the rest:
    where one is broken (S_u * W_v < S_v * W_u, its lower end's mean
    below its upper end's), the next round solves again only the blocks
    at the two ends of the broken edges, together.  The loop stops only
    when no edge is broken: the column is then feasible and every block
    has zero residual sum and no gaining lower subset, which is the
    optimality test of the exact projection.  A level set may end split
    between blocks; they share one exact mean, so one rounded value.

    The loop stops.  Every block is the projection of its values onto
    its own cone (antitonic along its cover edges).  A round replaces
    the fit on the blocks it joins, their projection onto the product
    of those cones, by the projection onto a smaller cone, one that also
    holds the broken edge, which the old fit violates; so the squared
    error on them rises strictly, the error of the whole column rises
    with it, and no partition repeats.
    """
    while True:
        _split(region, _within(region, ups), w, col, level, frac, block, members)
        inside = set(region)
        ends = set()
        for u in region:
            s, t = frac[u]
            for v in ups[u]:
                if v not in inside and s * frac[v][1] < frac[v][0] * t:
                    ends.add(block[v])
                    ends.add(block[u])
            for v in downs[u]:
                if v not in inside and frac[v][0] * t < s * frac[v][1]:
                    ends.add(block[v])
                    ends.add(block[u])
        if not ends:
            return
        region = sorted(i for b in ends for i in members[b])


def _changes(cells: np.ndarray):
    """The columns and rows of the entries of ``cells`` that differ from
    the one before them in their row, after every entry of the first
    column, in column order; and those entries."""
    k, i = np.nonzero((cells[:, 1:] != cells[:, :-1]).T)
    n = cells.shape[0] if cells.shape[1] else 0  # no first column, no entries
    cols = np.concatenate([np.zeros(n, dtype=np.intp), k + 1])
    nodes = np.concatenate([np.arange(n), i])
    return cols, nodes, cells[nodes, cols]


def _poset_fit(dag, m: int, cols: np.ndarray, nodes: np.ndarray, sums: list[int], weights: list[int]) -> np.ndarray:
    """The exact projection on a poset of ``m`` columns of node sums over
    node weights, all ints.  The sums come as they change
    (:func:`_changes`): node ``nodes[j]`` takes ``sums[j]`` in column
    ``cols[j]`` and keeps it until it next changes.

    The columns are solved in turn, each starting from the blocks of the
    one before (:func:`_refit`).  Each fitted value is a block's sum over
    its weight, rounded once."""
    n = dag.n_nodes
    ups, downs = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, c in dag.edges():
        ups[a].append(c)
        downs[c].append(a)
    out = np.empty((n, m))
    col = [0] * n  # the node sums of the column being solved
    level = [0.0] * n  # the fit of the column before
    frac = [(0, 1)] * n  # the sum and weight of each node's block
    block = [0] * n  # each node's block, named by its least node
    members = {0: list(range(n))}  # the nodes of each block, by its name
    stops = np.searchsorted(cols, np.arange(m + 1)).tolist()
    nodes = nodes.tolist()
    for k in range(m):
        changed = nodes[stops[k]:stops[k + 1]]
        if changed:
            for i, x in zip(changed, sums[stops[k]:stops[k + 1]]):
                col[i] = x
            region = sorted(i for b in {block[i] for i in changed} for i in members[b])
            _refit(region, col, weights, ups, downs, level, frac, block, members)
        out[:, k] = level
    return out


def _fit_sums(dag, sums: np.ndarray) -> np.ndarray:
    """The fit of a model's threshold columns from each node's cumulative
    weighted indicator sums (nodes x thresholds; the last column holds
    the node weights).  On a chain a block's sum is at most its weight,
    added in the same order, so each value is in [0, 1] and the last 1;
    with fractional weights a row can end a rounding against the order
    of the thresholds, which its running maximum repairs.  On any other
    order :func:`_poset_fit` gives the exact projection."""
    weights = sums[:, -1]
    if dag.is_chain:
        fitted = _pav_chain(sums, weights, np.argsort(dag.chain_positions))
        return np.maximum.accumulate(fitted, axis=1, out=fitted)
    cols, nodes, x = _changes(sums)
    shift = max(_shift(x), _shift(weights))
    return _poset_fit(dag, sums.shape[1], cols, nodes, _ints(x, shift), _ints(weights, shift))


def antitonic_l2_fit(dag, values, weights=None) -> np.ndarray:
    """Exact weighted L2 projection onto the antitonic cone of a DAG.

    For each column of ``values``, minimizes sum_i w_i (eta_i - values_i)^2
    subject to eta_u >= eta_v whenever node u is below node v in ``dag``;
    the result is shaped like ``values``.

    On a chain every column runs through one vectorised PAV, in floats,
    of the rounded products w_i * v_i: exact, as :func:`pav_antitonic`
    is, only where these and their sums are exact and distinct means
    round apart (a model fit pools its exact sums, :func:`_fit_sums`).
    On any other order the solver takes the exact products w_i * v_i of
    the floats it is given, and each fitted value is the exact mean of
    its level set, rounded once; the module docstring says how.

    Parameters
    ----------
    dag : OrderDag
    values : array_like, shape (n_nodes,) or (n_nodes, n_columns)
    weights : array_like, shape (n_nodes,), optional
        As :func:`idr.stepfun.check_weights` takes them; unit weights
        when omitted.  Only their ratios matter.
    """
    n = dag.n_nodes
    v, w = _checked(values, weights, n)
    cols = v.reshape(n, -1)
    if dag.is_chain:
        return _pav_values(cols, w, np.argsort(dag.chain_positions)).reshape(v.shape)
    k, i, x = _changes(cols)
    shift, u = _shift(x), _ints(w, _shift(w))
    sums = [u[a] * b for a, b in zip(i.tolist(), _ints(x, shift))]
    return _poset_fit(dag, cols.shape[1], k, i, sums, [x << shift for x in u]).reshape(v.shape)
