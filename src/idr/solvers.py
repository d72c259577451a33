"""Weighted least-squares projection onto antitonic cones.

:func:`antitonic_l2_fit` projects every threshold column of a fit with
the solver for the order's shape: on a chain, pool-adjacent-violators
over all columns at once; on a general partial order, per column, a
recursive partitioning that splits on the lower set with the largest
positive residual mass, found by a min-cut.  Both return the unique
projection onto the cone of vectors nonincreasing along the order.
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


class _Dinic:
    """Max-flow on a small dense graph, float capacities."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, c: float):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def _augment(self, u: int, t: int, f: float, level: list[int], it: list[int], eps: float) -> float:
        if u == t:
            return f
        while it[u] < len(self.head[u]):
            e = self.head[u][it[u]]
            v = self.to[e]
            if self.cap[e] > eps and level[v] == level[u] + 1:
                d = self._augment(v, t, min(f, self.cap[e]), level, it, eps)
                if d > eps:
                    self.cap[e] -= d
                    self.cap[e ^ 1] += d
                    return d
            it[u] += 1
        return 0.0

    def max_flow(self, s: int, t: int, eps: float) -> float:
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > eps and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, float("inf"), level, it, eps)
                if pushed <= eps:
                    break
                flow += pushed

    def source_side(self, s: int, eps: float) -> np.ndarray:
        seen = np.zeros(self.n, dtype=bool)
        seen[s] = True
        queue = [s]
        for u in queue:
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > eps and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def _best_lower_set(strict: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize sum(b[D]) over lower sets D of the strict order.

    Returns the gain and the maximizing set (as a mask).  Solved as a
    max-weight closure problem: cutting a positive node's source edge
    excludes it, cutting a negative node's sink edge includes it, and
    infinite edges from each node to its predecessors force closure.
    """
    n = b.size
    s, t = n, n + 1
    pos = float(b[b > 0].sum())
    if pos == 0.0:
        return 0.0, np.zeros(n, dtype=bool)
    inf = float(np.abs(b).sum()) + 1.0
    eps = 1e-14 * inf
    net = _Dinic(n + 2)
    for i in range(n):
        if b[i] > 0:
            net.add_edge(s, i, float(b[i]))
        elif b[i] < 0:
            net.add_edge(i, t, float(-b[i]))
    below, above = np.nonzero(strict)
    for u, v in zip(below.tolist(), above.tolist()):
        # u is below v: including v forces u in
        net.add_edge(v, u, inf)
    cut = net.max_flow(s, t, eps)
    gain = pos - cut
    mask = net.source_side(s, eps)[:n]
    return gain, mask


def antitonic_l2_fit(dag, values, weights=None) -> np.ndarray:
    """Exact weighted L2 projection onto the antitonic cone of a DAG.

    For each column of ``values``, minimizes sum_i w_i (eta_i - values_i)^2
    subject to eta_u >= eta_v whenever node u is below node v in ``dag``;
    the result is shaped like ``values``.

    Parameters
    ----------
    dag : OrderDag
    values : array_like, shape (n_nodes,) or (n_nodes, n_columns)
    weights : array_like, shape (n_nodes,), optional
        Strictly positive; unit weights when omitted.
    """
    n = dag.n_nodes
    v, w = _checked(values, weights, n)
    cols = v.reshape(n, -1)
    if dag.is_chain:
        return _pav_chain(cols, w, np.argsort(dag.chain_positions)).reshape(v.shape)

    strict = dag.reach & ~np.eye(n, dtype=bool)
    out = np.empty_like(cols)
    for k in range(cols.shape[1]):
        stack = [np.arange(n)]
        while stack:
            idx = stack.pop()
            ww = w[idx]
            vv = cols[idx, k]
            mu = float((ww * vv).sum() / ww.sum())
            if idx.size == 1:
                out[idx, k] = mu
                continue
            b = ww * (vv - mu)
            gain, mask = _best_lower_set(strict[np.ix_(idx, idx)], b)
            tol = 1e-12 * (1.0 + float(np.abs(b).sum()))
            if gain <= tol or not mask.any() or mask.all():
                out[idx, k] = mu
                continue
            stack.append(idx[mask])
            stack.append(idx[~mask])
    return out.reshape(v.shape)
