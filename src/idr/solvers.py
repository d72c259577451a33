"""Weighted least-squares projection onto antitonic cones.

:func:`antitonic_l2_fit` projects every threshold column of a fit with
the solver for the order's shape.  On a chain it runs
pool-adjacent-violators over all columns at once.  On a general partial
order it splits a block recursively: the block is cut into the lower
set with the largest positive residual mass and the rest, until no
lower set gains.  That lower set is a maximum-weight closure, found by
shortest augmenting paths (Edmonds & Karp) on a network built as plain
lists, whose infinite arcs are the block's cover edges only: a final
block is a level set, so it is order-convex and its covers close it like
the full order.  The final blocks are the level sets of the fit.

Neighbouring threshold columns differ in few nodes (one observation's
indicator), so each poset column starts from the blocks of the one
before.  The blocks that hold a changed node are solved again, on the
cover edges among them.  Where the new values break a cover edge (its
lower end now below its upper end), the next round solves again only
the blocks at the two ends of the broken edges.  Every other block
keeps its data, its mean and the proof that no lower subset gains, so
its value carries over bit for bit.  Once no edge is broken, the column
is feasible and every block optimal, so it is the exact projection;
:func:`_refit` says why the loop stops.  A level set can end cut between
blocks of different solves at (nearly) the same value; solving it as
one block merges it and takes its mean afresh over its nodes in
ascending order, as the recursion from scratch does.  The first column
is the same loop with every node changed.  Both solvers return the
unique projection onto the cone of vectors nonincreasing along the
order.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate

import numpy as np

from .stepfun import check_weights

__all__ = ["pav_antitonic", "antitonic_l2_fit"]


#: Columns per chain PAV pass: bounds its (nodes x columns) stacks.
_PAV_BLOCK = 256


def _pav_chain(values: np.ndarray, weights: np.ndarray, order: np.ndarray, shift: int) -> np.ndarray:
    """Antitonic PAV of every column of ``values`` along the chain that
    visits the rows in ``order``, times 2**-shift.  Each step pushes the
    next row onto every column's stack, then pools the top two blocks
    wherever they violate, so each column gets the one-column loop's
    float operations, in order."""
    n, m = values.shape
    out = np.empty((n, m))
    for c0 in range(0, m, _PAV_BLOCK):
        v = values[:, c0:c0 + _PAV_BLOCK]
        b = v.shape[1]
        # one stack per column, entry (stack row r, column c) at r * b + c
        sums = np.zeros(n * b)
        wsum = np.ones(n * b)
        first = np.empty(n * b, dtype=np.intp)
        top = np.arange(b) - b
        for i, node in enumerate(order):
            top += b
            sums[top] = weights[node] * v[node]
            wsum[top] = weights[node]
            first[top] = i
            t = top[top >= b]
            while t.size:
                below = t - b
                pool = sums[below] / wsum[below] < sums[t] / wsum[t]
                if not pool.any():
                    break
                t, below = t[pool], below[pool]
                sums[below] += sums[t]
                wsum[below] += wsum[t]
                top[below % b] = below
                t = below[below >= b]
        # block means; chain position p takes the last block starting at or before p
        sums /= wsum
        first = first.reshape(n, b)
        first[np.arange(n)[:, None] > top // b] = n
        flat = np.zeros((n + 1, b), dtype=np.intp)
        flat[first, np.arange(b)] = np.arange(n * b).reshape(n, b)
        np.maximum.accumulate(flat, axis=0, out=flat)
        out[order, c0:c0 + b] = sums[flat[:n]]
    return np.ldexp(out, -shift, out=out) if shift else out


def _checked(values, weights, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Validated values (one entry or row per node) and node weights,
    each scaled exactly by a power of two to a largest magnitude in
    [1, 2), so that no sum overflows and the poset tolerances are free
    of the scale; and ``shift``: the fit is 2**-shift times that of the
    scaled values, and 0 for a fit's values, which end at 1 (no copy)."""
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise ValueError("values must have one entry or row per node")
    w = check_weights(weights, n)
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    top = int(np.frexp(w.max())[1]) if n else 1
    shift = 1 - int(np.frexp(max(v.max(initial=0.0), -v.min(initial=0.0)))[1])
    return (np.ldexp(v, shift) if shift else v), (np.ldexp(w, 1 - top) if top != 1 else w), shift


def pav_antitonic(values, weights=None) -> np.ndarray:
    """Project ``values`` onto the nonincreasing cone along a chain.

    Entries are indexed from the least to the greatest element of the
    chain, so the output is nonincreasing.  Each output entry is the
    weighted mean of a contiguous pooled block of the input.

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
    v, w, shift = _checked(v, weights, v.size)
    return _pav_chain(v[:, None], w, np.arange(v.size), shift)[:, 0]


def _min_cut(s, t, adj, head, cap, eps) -> tuple[float, list[bool]]:
    """Max-flow along shortest augmenting paths: arc e runs to ``head[e]``
    with residual capacity ``cap[e]`` (updated in place), its reverse is
    ``e ^ 1``, and ``adj[u]`` lists the arcs leaving node u.  Each pass
    searches from ``s`` breadth-first, level by level, over arcs with more
    than ``eps`` left, up to the first level with arcs into ``t``, then
    pushes along the path to each in turn.  Returns the flow and the nodes
    that the last pass, which found no path, reached."""
    flow = 0.0
    while True:
        via = [-1] * len(adj)  # the arc that first reached each node
        via[s] = len(head)
        level, ends = [s], []
        while level and not ends:
            nxt = []
            for u in level:
                for e in adj[u]:
                    v = head[e]
                    if via[v] < 0 and cap[e] > eps:
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
            if f > eps:
                for e in path:
                    cap[e] -= f
                    cap[e ^ 1] += f
                flow += f


def _best_lower_set(edges, b: np.ndarray):
    """The lower set D that maximizes sum(b[D]), given cover edges as
    (lower, upper) pairs (D holds the lower end whenever it holds the
    upper), as a list of booleans, if it gains more than the tolerance
    and is neither empty nor everything; else None.

    Solved as a max-weight closure problem: cutting a positive node's
    source arc excludes it, cutting a negative node's sink arc includes
    it, and an infinite arc from each upper end to its lower end forces
    closure.  The network is built as lists: arc 2j runs from the upper
    to the lower end of edge j and arc 2j + 1 back, then come the
    terminal arcs by node; each node lists its terminal arc first and
    then its edge arcs in edge order.  That order fixes the augmenting
    paths, and with them the bits of the flow.  The paths are shortest
    ones (Edmonds & Karp); the breadth-first search that finds none
    reaches the source side of the minimal min-cut, which is D.
    """
    pos = float(b[b > 0].sum())
    if pos == 0.0:
        return None
    inf = float(np.abs(b).sum()) + 1.0
    n, m = b.size, 2 * len(edges)
    s, t = n, n + 1
    head = [v for edge in edges for v in edge]
    cap = [inf, 0.0] * len(edges)
    adj, out_s = [], []
    for u, x in enumerate(b.tolist()):
        if x > 0:
            adj.append([m + 1])
            out_s.append(m)
            head += (u, s)
            cap += (x, 0.0)
        elif x < 0:
            adj.append([m])
            head += (t, u)
            cap += (-x, 0.0)
        else:
            adj.append([])
            continue
        m += 2
    adj += (out_s, [])  # the search stops at t
    for e, (lo, hi) in zip(range(0, m, 2), edges):
        adj[hi].append(e)
        adj[lo].append(e + 1)
    flow, reached = _min_cut(s, t, adj, head, cap, 1e-14 * inf)
    side = reached[:n]
    return side if pos - flow > 1e-12 * inf and any(side) and not all(side) else None


def _split(idx, edges, w, col, level, block, members):
    """Fit ``col`` on the nodes ``idx`` (ascending) under the cover
    ``edges``, (lower, upper) pairs numbered within ``idx``: cut a block
    into its best lower set and the rest until no lower set gains more
    than the tolerance.  Writes each final block's mean into ``level``,
    its least node into ``block`` and its nodes into ``members``."""
    stack = [(idx, edges)]
    while stack:
        idx, edges = stack.pop()
        at = np.array(idx)
        ww = w[at]
        vv = col[at]
        mu = float((ww * vv).sum() / ww.sum())
        side = _best_lower_set(edges, ww * (vv - mu)) if len(idx) > 1 else None
        if side is not None:
            # side is a lower set: an edge stays inside iff its upper end
            # is in it, and outside iff its lower end is not
            rank = list(accumulate(side))
            stack.append(([g for g, d in zip(idx, side) if d],
                          [(rank[a] - 1, rank[c] - 1) for a, c in edges if side[c]]))
            stack.append(([g for g, d in zip(idx, side) if not d],
                          [(a - rank[a], c - rank[c]) for a, c in edges if not side[a]]))
            continue
        for i in idx:
            level[i] = mu
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


#: Local rounds of :func:`_refit`, per node, before it falls back to
#: solving a growing region.
_ROUNDS_PER_NODE = 1


def _refit(region, col, near, w, ups, downs, level, block, members):
    """Re-solve one column, starting from the blocks whose nodes are
    ``region`` (ascending); returns the new fit as an array.

    The region is solved on the cover edges among its nodes.  Each round
    then checks the cover edges from the nodes it solved to the rest:
    where the new values break one, the next round solves again only the
    blocks at the two ends of the broken edges, together.  Every other
    block keeps its mean and its proof that no lower subset gains.  The
    loop stops only when no edge is broken: the column is then feasible
    and every block has zero residual sum and no gaining lower subset,
    which is the optimality test of the exact projection.

    The loop stops.  Every block is the projection of its values onto
    its own cone (antitonic along its cover edges).  A round replaces
    the fit on the blocks it joins, their projection onto the product
    of those cones, by the projection onto a smaller cone, one that also
    holds the broken edge, which the old fit violates; so the squared
    error on them rises strictly, the error of the whole column rises
    with it, and no partition repeats.  Rounding weakens that argument,
    so after ``_ROUNDS_PER_NODE`` rounds per node the loop falls back to
    solving the whole region solved so far in this column, joined by the
    blocks at each broken edge.  A solved region satisfies its own edges,
    so every edge it breaks leads out of it: the region grows each round
    and the fallback stops after at most one round per node.

    Then each run of nearly equal values that holds blocks from more than
    one solve (or kept from the column before), one level set cut apart,
    is solved as one block: it stays one unless a cut gains.  The run is
    order-convex, as any value between two of its values would be in it,
    and no value outside it comes near, so this breaks no edge.  A run
    whose values are all exactly 1 (or +0) is left as its blocks: each
    block's mean is already that value bit for bit, and no cut gains.
    """
    n = len(level)
    src = np.full(n, -1)  # the round that last solved each node
    rnd = 0
    while True:
        if rnd >= n * _ROUNDS_PER_NODE:
            region = sorted(set(np.flatnonzero(src >= 0).tolist()).union(region))
        _split(region, _within(region, ups), w, col, level, block, members)
        inside = set(region)
        src[region] = rnd
        ends = set()
        for u in region:
            for v in ups[u]:
                if level[u] < level[v] and v not in inside:
                    ends.add(block[v])
                    ends.add(block[u])
            for v in downs[u]:
                if level[v] < level[u] and v not in inside:
                    ends.add(block[v])
                    ends.add(block[u])
        if not ends:
            break
        region = sorted(i for b in ends for i in members[b])
        rnd += 1
    lv = np.array(level)
    order = lv.argsort()
    sorted_lv, source = lv[order], src[order]
    gap = sorted_lv[1:] - sorted_lv[:-1] > near
    # neighbours in sorted order from different solves, with no gap between
    joined = (source[1:] != source[:-1]) > gap
    if joined.any():
        # runs are stretches of the sorted order between gaps
        stops = (np.flatnonzero(gap) + 1).tolist() + [n]
        order = order.tolist()
        for r in sorted({bisect(stops, p) for p in np.flatnonzero(joined).tolist()}):
            group = sorted(order[stops[r - 1] if r else 0:stops[r]])
            run = col[group]
            if run[0] in (0.0, 1.0) and np.all(run == run[0]) and not np.signbit(run).any():
                continue  # every block already holds this exact mean, and no residual is left to cut
            _split(group, _within(group, ups), w, col, level, block, members)
        lv = np.array(level)
    return lv


def antitonic_l2_fit(dag, values, weights=None) -> np.ndarray:
    """Exact weighted L2 projection onto the antitonic cone of a DAG.

    For each column of ``values``, minimizes sum_i w_i (eta_i - values_i)^2
    subject to eta_u >= eta_v whenever node u is below node v in ``dag``;
    the result is shaped like ``values``.

    On a chain every column runs through one vectorised PAV.  On any
    other order the columns are solved in turn, each starting from the
    blocks (level sets) of the one before: only the blocks that hold a
    node whose value changed are re-solved, by the recursive min-cut on
    their own cover edges.  Where the new values break a cover edge, the
    blocks at its two ends are solved again together, until no edge is
    broken, and a level set left split between blocks of different
    solves is merged and its mean taken afresh.  Every other block keeps
    its data, mean and optimality, so every column is the exact
    projection; the tests check it bit for bit against solving each
    column from scratch.  The first column is solved with every node
    changed.

    Parameters
    ----------
    dag : OrderDag
    values : array_like, shape (n_nodes,) or (n_nodes, n_columns)
    weights : array_like, shape (n_nodes,), optional
        As :func:`idr.stepfun.check_weights` takes them; unit weights
        when omitted.  Only their ratios matter (see :func:`_checked`).
    """
    n = dag.n_nodes
    v, w, shift = _checked(values, weights, n)
    cols = v.reshape(n, -1)
    if dag.is_chain:
        return _pav_chain(cols, w, np.argsort(dag.chain_positions), shift).reshape(v.shape)

    ups, downs = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, c in dag.edges():
        ups[a].append(c)
        downs[c].append(a)
    # far above the rounding of a block mean; whether a run of nearly
    # equal values is one level is then the recursion's call
    near = (2.0 ** -30 * np.maximum(cols.max(axis=0), -cols.min(axis=0))).tolist()
    out = np.empty_like(cols)
    level = [0.0] * n  # the fit of the column before
    block = [0] * n  # each node's block, named by its least node
    members = {0: list(range(n))}  # the nodes of each block, by its name
    changed = [[] for _ in range(cols.shape[1])]
    changed[0] = range(n)  # before the first column, every node
    for k, i in zip(*(a.tolist() for a in np.nonzero((cols[:, 1:] != cols[:, :-1]).T))):
        changed[k + 1].append(i)
    for k, nodes in enumerate(changed):
        if nodes:
            region = sorted(i for b in {block[i] for i in nodes} for i in members[b])
            out[:, k] = _refit(region, cols[:, k], near[k], w, ups, downs, level, block, members)
        else:
            out[:, k] = out[:, k - 1]
    return np.ldexp(out, -shift, out=out).reshape(v.shape)
