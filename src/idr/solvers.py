"""Weighted least-squares projection onto antitonic cones.

:func:`antitonic_l2_fit` projects every threshold column of a fit with
the solver for the order's shape.  On a chain it runs
pool-adjacent-violators over all columns at once.  On a general partial
order it splits a block recursively: the block is cut into the lower
set with the largest positive residual mass and the rest, until no
lower set gains.  That lower set is a maximum-weight closure, found by
a Dinic max-flow whose infinite edges are the block's cover edges only:
every block is order-convex, so its covers close it like the full
order.  The final blocks are the level sets of the fit.

Neighbouring threshold columns differ in few nodes (one observation's
indicator), so each poset column starts from the blocks of the one
before.  Only the region of blocks that hold a changed node is solved
again, on the cover edges inside it; the other blocks keep their data,
their mean and the proof that no lower subset gains, so their values
carry over bit for bit.  A block outside whose cover edge the new
values break joins the region, which is solved again; once no edge is
broken, the column is feasible and every block optimal, so it is the
exact projection.  A level set can end cut between a new block and a
kept one at (nearly) the same value; solving it as one block merges it
and takes its mean afresh over its nodes in ascending order, as the
recursion from scratch does.  The first column is the same loop with
every node changed.  Both solvers return the unique projection onto the
cone of vectors nonincreasing along the order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pav_antitonic", "antitonic_l2_fit"]


#: Columns per chain PAV pass: bounds its (nodes x columns) stacks.
_PAV_BLOCK = 256


def _pav_chain(values: np.ndarray, weights: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Antitonic PAV of every column of ``values`` along the chain that
    visits the rows in ``order``.  Each step pushes the next row onto every
    column's stack, then pools the top two blocks wherever they violate, so
    each column gets the one-column loop's float operations, in order."""
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
    return out


def _checked(values, weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated values (one entry or row per node) and node weights."""
    v = np.asarray(values, dtype=float)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != n or w.shape != (n,):
        raise ValueError("values and weights must have one entry per node")
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be finite and strictly positive")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    return v, w


def pav_antitonic(values, weights=None) -> np.ndarray:
    """Project ``values`` onto the nonincreasing cone along a chain.

    Entries are indexed from the least to the greatest element of the
    chain, so the output is nonincreasing.  Each output entry is the
    weighted mean of a contiguous pooled block of the input.

    Parameters
    ----------
    values : array_like
    weights : array_like, optional
        Strictly positive; unit weights when omitted.

    Returns
    -------
    numpy.ndarray
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be 1-d")
    v, w = _checked(v, weights, v.size)
    return _pav_chain(v[:, None], w, np.arange(v.size))[:, 0]


def _levels(root, stop, n, adj, start, head, cap, eps, back) -> list[int]:
    """BFS levels (-1: unreached) from ``root`` along residual arcs, or against them if ``back``."""
    level, queue = [-1] * n, [root]
    level[root] = 0
    for u in queue:
        if level[stop] >= 0:  # the rest lie on no shortest path to stop
            break
        for e in adj[start[u]:start[u + 1]]:
            v = head[e]
            if level[v] < 0 and cap[e ^ back] > eps:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _max_flow(n, s, t, adj, start, head, cap, eps) -> tuple[float, list[int]]:
    """Dinic max-flow on a CSR network: the arcs leaving node u are
    ``adj[start[u]:start[u + 1]]``, arc e runs to ``head[e]``, its reverse
    is ``e ^ 1``; ``cap`` holds residual capacities, updated in place.
    Returns the flow and the final levels from ``s``, >= 0 exactly on the
    source side of the minimal min-cut.  A phase labels nodes by distance
    to ``t``, so the path search from ``s`` (on a list: a path can be as
    long as the poset is tall) meets dead ends only past saturated arcs."""
    flow = 0.0
    while True:
        dist = _levels(t, s, n, adj, start, head, cap, eps, 1)
        if dist[s] < 0:
            return flow, _levels(s, t, n, adj, start, head, cap, eps, 0)
        it, path, u = start[:], [], s
        while True:
            if u == t:
                f = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= f
                    cap[e ^ 1] += f
                flow += f
                # resume at the tail of the first arc the push saturated
                j = next(j for j, e in enumerate(path) if cap[e] <= eps)
                u = head[path[j] ^ 1]
                del path[j:]
                continue
            k, end, down = it[u], start[u + 1], dist[u] - 1
            while k < end and not (dist[head[adj[k]]] == down and cap[adj[k]] > eps):
                k += 1
            it[u] = k
            if k < end:
                path.append(adj[k])
                u = head[adj[k]]
            elif path:  # dead end: retreat along the path
                u = head[path.pop() ^ 1]
                it[u] += 1
            else:
                break


def _best_lower_set(lower: np.ndarray, upper: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize sum(b[D]) over the sets D that hold ``lower[j]``
    whenever they hold ``upper[j]``: the lower sets, given cover edges.

    Returns the gain and the maximizing set (as a mask).  Solved as a
    max-weight closure problem: cutting a positive node's source edge
    excludes it, cutting a negative node's sink edge includes it, and an
    infinite edge from each upper end to its lower end forces closure.
    """
    n = b.size
    s, t = n, n + 1
    pos = float(b[b > 0].sum())
    if pos == 0.0:
        return 0.0, np.zeros(n, dtype=bool)
    inf = float(np.abs(b).sum()) + 1.0
    term = np.flatnonzero(b)
    into = b[term] > 0
    # row j holds the ends of edge j; arc 2j runs along it, arc 2j + 1 back
    arcs = np.empty((term.size + lower.size, 2), dtype=np.intp)
    arcs[:term.size, 0] = np.where(into, s, term)
    arcs[:term.size, 1] = np.where(into, term, t)
    arcs[term.size:] = np.column_stack([upper, lower])
    cap = np.zeros(arcs.shape)
    cap[:term.size, 0] = np.abs(b[term])
    cap[term.size:, 0] = inf
    tails = arcs.ravel()
    adj = np.argsort(tails, kind="stable")
    start = np.searchsorted(tails[adj], np.arange(n + 3))
    cut, level = _max_flow(n + 2, s, t, adj.tolist(), start.tolist(), arcs[:, ::-1].ravel().tolist(),
                           cap.ravel().tolist(), 1e-14 * inf)
    return pos - cut, np.array(level[:n]) >= 0


def _split(idx, lower, upper, w, col, level, block):
    """Fit ``col`` on the nodes ``idx`` (ascending) under the cover edges
    ``lower[j]`` -> ``upper[j]``, numbered within ``idx``: cut a block
    into its best lower set and the rest until no lower set gains more
    than the tolerance.  Writes each final block's mean into ``level``
    and its least node into ``block``."""
    stack = [(idx, lower, upper)]
    while stack:
        idx, lo, hi = stack.pop()
        ww = w[idx]
        vv = col[idx]
        mu = float((ww * vv).sum() / ww.sum())
        if idx.size > 1:
            b = ww * (vv - mu)
            gain, mask = _best_lower_set(lo, hi, b)
            if gain > 1e-12 * (1.0 + float(np.abs(b).sum())) and mask.any() and not mask.all():
                # mask is a lower set: an edge stays inside iff its upper
                # end is in it, and outside iff its lower end is not
                rank = np.cumsum(mask)
                for side, keep, local in ((mask, mask[hi], rank - 1), (~mask, ~mask[lo], np.arange(idx.size) - rank)):
                    stack.append((idx[side], local[lo[keep]], local[hi[keep]]))
                continue
        level[idx] = mu
        block[idx] = idx[0]


def _within(nodes: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """The nodes of a mask, and the cover edges with both ends among
    them, numbered within them."""
    rank = np.cumsum(nodes) - 1
    inner = nodes[lower] & nodes[upper]
    return np.flatnonzero(nodes), rank[lower[inner]], rank[upper[inner]]


def _blocks_of(nodes, block: np.ndarray) -> np.ndarray:
    """Mask of the blocks that hold any of ``nodes``."""
    hit = np.zeros(block.size, dtype=bool)
    hit[block[nodes]] = True
    return hit[block]


def _refit(region, col, w, lower, upper, level, block):
    """Re-solve one column on the blocks in ``region``; the blocks outside
    keep their values.

    The region is solved on its own cover edges.  Where its new values
    break a cover edge to a block outside, that block joins the region,
    which is solved again.  Then each run of nearly equal values that
    holds blocks from both sides, one level set cut apart, is solved as
    one block: it stays one unless a cut gains.  The run is order-convex,
    as any value between two of its values would be in it, and no value
    outside it comes near, so this breaks no edge.
    """
    while True:
        _split(*_within(region, lower, upper), w, col, level, block)
        broken = (level[lower] < level[upper]) & (region[lower] != region[upper])
        if not broken.any():
            break
        region |= _blocks_of(np.concatenate([lower[broken], upper[broken]]), block)
    # far above the rounding of a block mean; whether a run is one level
    # is then the recursion's call
    near = 2.0 ** -30 * float(np.abs(col).max())
    order = np.argsort(level, kind="stable")
    run = np.concatenate([[0], np.cumsum(np.diff(level[order]) > near)])
    inside = region[order]
    for r in np.flatnonzero((np.bincount(run, inside) > 0) & (np.bincount(run, ~inside) > 0)):
        group = np.zeros(level.size, dtype=bool)
        group[order[run == r]] = True
        _split(*_within(group, lower, upper), w, col, level, block)


def antitonic_l2_fit(dag, values, weights=None) -> np.ndarray:
    """Exact weighted L2 projection onto the antitonic cone of a DAG.

    For each column of ``values``, minimizes sum_i w_i (eta_i - values_i)^2
    subject to eta_u >= eta_v whenever node u is below node v in ``dag``;
    the result is shaped like ``values``.

    On a chain every column runs through one vectorised PAV.  On any
    other order the columns are solved in turn, each starting from the
    blocks (level sets) of the one before: only the blocks that hold a
    node whose value changed are re-solved, by the recursive min-cut on
    their own cover edges.  A block outside that the new values break a
    cover edge to joins them and they are solved again, and a level set
    left split between new and kept blocks is merged and its mean taken
    afresh.  Kept blocks keep their data, mean and optimality, so every
    column is the exact projection; the tests check it bit for bit
    against solving each column from scratch.  The first column is
    solved with every node changed.

    Parameters
    ----------
    dag : OrderDag
    values : array_like, shape (n_nodes,) or (n_nodes, n_columns)
    weights : array_like, shape (n_nodes,), optional
        Strictly positive; unit weights when omitted.  Only their ratios
        matter: on a poset they are scaled by the power of two that puts
        the largest in [1, 2), which is exact and frees the tolerances of
        their scale.
    """
    n = dag.n_nodes
    v, w = _checked(values, weights, n)
    cols = v.reshape(n, -1)
    if dag.is_chain:
        return _pav_chain(cols, w, np.argsort(dag.chain_positions)).reshape(v.shape)

    # the tolerances have an absolute floor: put the largest weight and the
    # largest |value| in [1, 2), by powers of two, which is exact
    w = np.ldexp(w, 1 - np.frexp(w.max())[1])
    shift = 1 - int(np.frexp(max(cols.max(initial=0.0), -cols.min(initial=0.0)))[1])
    if shift:
        cols = np.ldexp(cols, shift)
    lower, upper = np.nonzero(dag.covers)
    out = np.empty_like(cols)
    level = np.empty(n)  # the fit of the column before
    block = np.zeros(n, dtype=np.intp)  # each node's block, named by its least node
    changed = np.ones(n, dtype=bool)  # before the first column, every node
    for k in range(cols.shape[1]):
        if k:
            changed = cols[:, k] != cols[:, k - 1]
        if changed.any():
            _refit(_blocks_of(changed, block), cols[:, k], w, lower, upper, level, block)
        out[:, k] = level
    return np.ldexp(out, -shift, out=out).reshape(v.shape)
