"""Brute-force references for the solvers.

These implementations trade speed for transparency: the antitonic fit
is recovered from a max-min formula over lower sets and cross-checked
by direct minimization over all order-consistent level-set partitions;
isotonic quantile vectors come from exhaustive dynamic programming over
nested upper sets.  Node counts are capped so enumeration stays exact.
The chain PAV is the classic one-column stack loop, which the
vectorised solver must match bit for bit.  The poset reference is the
earlier min-cut solver, with a recursive Dinic max-flow and an infinite
edge on every strict pair; the cover-edge solver must match it bit for
bit.  The DAG reference is the earlier eager build, which made the
reach and cover matrices of every order up front and found chains by
testing every pair.  The optimality certificate checks a fit of any
size against the Karush-Kuhn-Tucker conditions of the projection, so it
needs no second solver: on a chain the edge duals are prefix sums, and
on any other order they are flows of the same max-flow.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_NODE_LIMIT = 12


def pav_antitonic_columns(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Column-by-column antitonic PAV of a (chain positions x columns)
    matrix, rows ordered from the least chain element up."""
    n, m = values.shape
    out = np.empty_like(values)
    sums = np.empty(n)
    wsum = np.empty(n)
    last = np.empty(n, dtype=np.int64)
    for k in range(m):
        top = -1
        for i in range(n):
            top += 1
            sums[top] = weights[i] * values[i, k]
            wsum[top] = weights[i]
            last[top] = i
            while top > 0 and sums[top - 1] / wsum[top - 1] < sums[top] / wsum[top]:
                sums[top - 1] += sums[top]
                wsum[top - 1] += wsum[top]
                last[top - 1] = last[top]
                top -= 1
        start = 0
        for b in range(top + 1):
            mean = sums[b] / wsum[b]
            for i in range(start, last[b] + 1):
                out[i, k] = mean
            start = last[b] + 1
    return out


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


def strict_pair_antitonic(dag, values, weights=None) -> np.ndarray:
    """Antitonic L2 fit of every column of ``values`` on a poset by the
    recursive min-cut split, closing each block under all its strict
    pairs."""
    n = dag.n_nodes
    v = np.asarray(values, dtype=float)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    # the solver's exact power-of-two rescaling: the largest weight in [1, 2)
    w = np.ldexp(w, 1 - np.frexp(w.max())[1])
    cols = v.reshape(n, -1)
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


def cover_matrix(dag) -> np.ndarray:
    """The n x n boolean matrix of ``dag.edges()``: [u, v] iff node u is
    covered by node v."""
    out = np.zeros((dag.n_nodes, dag.n_nodes), dtype=bool)
    lower, upper = np.array(dag.edges(), dtype=np.intp).reshape(-1, 2).T
    out[lower, upper] = True
    return out


def eager_dag_structure(dag):
    """``(is_chain, chain_positions, reach, covers)`` of ``dag`` as the
    eager build made them: the upper triangle and its first
    superdiagonal for a single total-order group; otherwise all pairs
    compared, covers as the strict pairs without a two-step path, a
    chain when every pair is comparable, and positions counted as
    strict predecessors."""
    n = dag.n_nodes
    groups = dag.spec.groups
    if len(groups) == 1 and groups[0].relation == "total":
        reach = np.triu(np.ones((n, n), dtype=bool))
        covers = np.zeros((n, n), dtype=bool)
        covers[np.arange(n - 1), np.arange(1, n)] = True
        return True, np.arange(n, dtype=np.intp), reach, covers
    c = dag.cmp_matrix
    reach = np.all(c[:, None, :] <= c[None, :, :], axis=2)
    strict = reach & ~np.eye(n, dtype=bool)
    paths = strict.astype(np.int64) @ strict.astype(np.int64)
    covers = strict & (paths == 0)
    is_chain = bool(np.all(strict | strict.T | np.eye(n, dtype=bool)))
    positions = strict.sum(axis=0).astype(np.intp) if is_chain else None
    return is_chain, positions, reach, covers


def kkt_violation(dag, values, fit, weights=None) -> float:
    """The largest violation of the optimality (Karush-Kuhn-Tucker)
    conditions that make ``fit`` the weighted L2 antitonic projection of
    ``values`` on ``dag``, over every column.  Residual masses are divided
    by the total weight, so each violation is on the scale of the values.

    On the cover edges of :func:`eager_dag_structure`, as (lower, upper)
    pairs, ``fit`` is the projection iff:

    - it is antitonic: the fit never rises from a lower to an upper end;
    - on each connected component of the tight edges, those whose two
      ends are fitted equal, the residuals ``w * (values - fit)`` sum to
      zero;
    - on each such component, a flow along the tight edges, from upper
      to lower end, carries the positive residuals to the negative ones:
      the flow on an edge is its dual, and it may be nonzero only where
      the edge is tight.

    The flows come from this file's own max-flow.  A component whose
    nodes and residuals an earlier column had is not solved again.  A
    chain needs no flow: see :func:`_chain_kkt_violation`.
    """
    n = dag.n_nodes
    v = np.asarray(values, dtype=float).reshape(n, -1)
    eta = np.asarray(fit, dtype=float).reshape(n, -1)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    total = float(w.sum())
    if dag.chain_positions is not None:
        return _chain_kkt_violation(dag.chain_positions, v, eta, w, total)
    lower, upper = np.nonzero(eager_dag_structure(dag)[3])
    worst = float(np.max(eta[upper] - eta[lower], initial=0.0))
    m = eta.shape[1]
    r = (w[:, None] * (v - eta)).ravel()
    # cell i * m + k is node i in column k; a tight edge joins two cells
    edge, k = np.nonzero(eta[lower] == eta[upper])
    lo, hi = lower[edge] * m + k, upper[edge] * m + k
    # label the cells of each component alike: propagate the least label
    # across the tight edges, jumping to the label's own label
    label = np.arange(n * m)
    while True:
        new = label.copy()
        least = np.minimum(label[lo], label[hi])
        np.minimum.at(new, lo, least)
        np.minimum.at(new, hi, least)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    sums = np.bincount(label, weights=r, minlength=n * m)
    worst = max(worst, float(np.abs(sums).max(initial=0.0)) / total)
    # the components with a tight edge and a nonzero residual, each
    # with its cells and its tight edges
    cells = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[cells], prepend=-1))
    stops = np.append(starts[1:], n * m)
    roots = label[cells[starts]]
    edges = np.argsort(label[lo], kind="stable")
    first, last = (np.searchsorted(label[lo][edges], roots, side=side) for side in ("left", "right"))
    loaded = np.add.reduceat(np.abs(r[cells]), starts) > 0
    done = {}
    for j in np.flatnonzero((stops - starts > 1) & loaded).tolist():
        at = cells[starts[j]:stops[j]]
        res = r[at]
        key = (tuple((at // m).tolist()), res.tobytes())
        if key not in done:
            local = dict(zip(at.tolist(), range(at.size)))
            pos, neg = float(res[res > 0].sum()), float(-res[res < 0].sum())
            s, t = at.size, at.size + 1
            net = _Dinic(at.size + 2)
            for i, x in enumerate(res.tolist()):
                if x > 0:
                    net.add_edge(s, i, x)
                elif x < 0:
                    net.add_edge(i, t, -x)
            for e in edges[first[j]:last[j]].tolist():
                net.add_edge(local[int(hi[e])], local[int(lo[e])], pos + neg)
            done[key] = max(pos, neg) - net.max_flow(s, t, 1e-18 * total)
        worst = max(worst, done[key] / total)
    return worst


def _chain_kkt_violation(positions, v, eta, w, total) -> float:
    """:func:`kkt_violation` on a chain.  Its cover edges join each node
    to the next one up, and the duals are forced: the dual of the edge
    above a node is the prefix sum of ``w * (fit - values)`` from the
    least node up to it.  ``fit`` is the projection iff it is antitonic,
    these duals are nonnegative and zero wherever the fit drops
    strictly, and their sum over all nodes, the dual above the top one,
    is zero."""
    order = np.argsort(positions)
    dual = eta[order] - v[order]
    dual *= w[order, None]
    np.cumsum(dual, axis=0, out=dual)
    drop = eta[order[:-1]] - eta[order[1:]]
    return max(float(np.max(-drop, initial=0.0)),
               float(np.max(-dual[:-1], initial=0.0)) / total,
               float(np.max(np.abs(dual[:-1][drop > 0]), initial=0.0)) / total,
               float(np.max(np.abs(dual[-1]))) / total)


def _check_size(n: int):
    if n > _NODE_LIMIT:
        raise ValueError(f"oracle supports at most {_NODE_LIMIT} nodes, got {n}")


def _strict_matrix(dag) -> np.ndarray:
    n = dag.n_nodes
    return dag.reach & ~np.eye(n, dtype=bool)


def _closed_masks(constraint: np.ndarray) -> list[int]:
    """Masks closed under the constraint: i in mask forces j in mask
    whenever constraint[j, i]."""
    n = constraint.shape[0]
    need = [0] * n
    for i in range(n):
        m = 0
        for j in np.nonzero(constraint[:, i])[0]:
            m |= 1 << int(j)
        need[i] = m
    out = []
    for mask in range(1 << n):
        rest = mask
        ok = True
        while rest:
            low = rest & -rest
            if need[low.bit_length() - 1] & ~mask:
                ok = False
                break
            rest ^= low
        if ok:
            out.append(mask)
    return out


@lru_cache(maxsize=64)
def _pair_structure(strict_bytes: bytes, n: int, kind: str):
    """Pairs (S, S') of nested closed sets, with their set differences.

    ``kind`` selects lower sets (closed under predecessors) or upper
    sets (closed under successors).  Returns index arrays aligned so
    that vectorized per-pair values can be grouped by the outer set.
    """
    strict = np.frombuffer(strict_bytes, dtype=bool).reshape(n, n)
    # strict[u, v] says u precedes v; a lower set pulls in predecessors
    # (column masks), an upper set pulls in successors (row masks)
    masks = _closed_masks(strict.T if kind == "upper" else strict)
    index = {m: i for i, m in enumerate(masks)}
    is_closed = np.zeros(1 << n, dtype=bool)
    is_closed[masks] = True
    outer, inner, diff = [], [], []
    for m in masks:
        if m == 0:
            continue
        sub = (m - 1) & m
        while True:
            if is_closed[sub]:
                outer.append(index[m])
                inner.append(index[sub])
                diff.append(m & ~sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    outer = np.array(outer, dtype=np.intp)
    inner = np.array(inner, dtype=np.intp)
    diff = np.array(diff, dtype=np.int64)
    order = np.argsort(outer, kind="stable")
    outer, inner, diff = outer[order], inner[order], diff[order]
    starts = np.searchsorted(outer, np.arange(len(masks)))
    # expansion of each pair's difference set into (node, pair) entries
    exp_node, exp_pair = [], []
    for p, d in enumerate(diff.tolist()):
        while d:
            low = d & -d
            exp_node.append(low.bit_length() - 1)
            exp_pair.append(p)
            d ^= low
    bits = ((np.array(masks)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    diff_count = np.array([int(d).bit_count() for d in diff.tolist()], dtype=np.int64)
    return {
        "masks": np.array(masks, dtype=np.int64),
        "bits": bits,
        "outer": outer,
        "inner": inner,
        "diff": diff,
        "diff_count": diff_count,
        "starts": starts,
        "exp_node": np.array(exp_node, dtype=np.intp),
        "exp_pair": np.array(exp_pair, dtype=np.intp),
    }


def _mask_sums(vals: np.ndarray, n: int) -> np.ndarray:
    """Subset sums over all 2^n masks (bit i of the mask picks vals[i])."""
    out = np.zeros(1)
    for i in range(n):
        out = np.concatenate((out, out + vals[i]))
    return out


def brute_force_antitonic(dag, values, weights=None) -> np.ndarray:
    """Reference antitonic least-squares fit by exhaustive max-min.

    Each entry is the largest, over lower sets containing the node, of
    the smallest weighted mean over differences with smaller lower sets
    that still contain the node.  Agrees with direct minimization over
    all order-consistent partitions (see
    :func:`exhaustive_partition_fit`).
    """
    n = dag.n_nodes
    _check_size(n)
    a = np.asarray(values, dtype=float)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if a.shape != (n,) or w.shape != (n,):
        raise ValueError("values and weights must have one entry per node")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    strict = _strict_matrix(dag)
    st = _pair_structure(strict.tobytes(), n, "lower")
    wsum = _mask_sums(w, n)
    wasum = _mask_sums(w * a, n)
    masks = st["masks"]
    outer_mask = masks[st["outer"]]
    inner_mask = masks[st["inner"]]
    v = (wasum[outer_mask] - wasum[inner_mask]) / (wsum[outer_mask] - wsum[inner_mask])

    k = len(masks)
    per_node = np.full((n, k), np.inf)
    np.minimum.at(per_node, (st["exp_node"], st["outer"][st["exp_pair"]]), v[st["exp_pair"]])
    contains = st["bits"].T.astype(bool)  # (n, masks)
    per_node[~contains] = -np.inf
    return per_node.max(axis=1)


@lru_cache(maxsize=16)
def _partition_labels(n: int) -> np.ndarray:
    """All set partitions of n items as restricted growth strings."""
    out: list[list[int]] = []
    labels = [0] * n

    def grow(i: int, top: int):
        if i == n:
            out.append(labels.copy())
            return
        for v in range(top + 2):
            labels[i] = v
            grow(i + 1, max(top, v))

    grow(1 if n > 0 else 0, 0)
    return np.array(out, dtype=np.int64)


def exhaustive_partition_fit(dag, values, weights=None, return_candidates: bool = False):
    """Antitonic least squares by trying every level-set partition.

    Every partition of the nodes induces the assignment that gives each
    block its weighted mean; assignments violating the order are
    dropped and the feasible one with the smallest weighted squared
    error is returned.  With ``return_candidates`` the full feasible
    assignment matrix comes back too (used to bound per-threshold
    scores from below in tests).
    """
    n = dag.n_nodes
    if n > 8:
        raise ValueError("partition enumeration supports at most 8 nodes")
    a = np.asarray(values, dtype=float)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    labels = _partition_labels(n)
    same = labels[:, :, None] == labels[:, None, :]  # (P, n, n)
    eta = (same @ (w * a)) / (same @ w)
    lo, hi = np.nonzero(_strict_matrix(dag))
    if lo.size:
        feasible = np.all(eta[:, lo] >= eta[:, hi], axis=1)
    else:
        feasible = np.ones(eta.shape[0], dtype=bool)
    sse = ((eta - a) ** 2 * w).sum(axis=1)
    sse[~feasible] = np.inf
    best = int(np.argmin(sse))
    if return_candidates:
        return eta[best], eta[feasible]
    return eta[best]


def pinball_loss(q, y, alpha: float, weights=None) -> float:
    """Total weighted pinball loss of quantile predictions ``q``."""
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    loss = np.where(y <= q, (1.0 - alpha) * (q - y), alpha * (y - q))
    return float((w * loss).sum())


def isotonic_quantile_oracle(dag, responses, alpha: float, weights=None) -> np.ndarray:
    """Pinball-optimal isotonic quantile vector by exhaustive search.

    ``responses`` is aligned with the raw points behind ``dag`` (its
    ``membership``).  Candidate values are the distinct responses; the
    search runs over all chains of nested upper sets, so the result is
    exactly order-consistent (nondecreasing along the order).  Among
    the minimizers, the pointwise smallest vector is returned, matching
    lower sample quantiles on every pooled block.  Tie detection uses
    exact float comparison, so the smallest-vector guarantee holds when
    the loss sums are exactly representable (integer or dyadic data);
    the minimal loss itself is found regardless.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    n = dag.n_nodes
    _check_size(n)
    y = np.asarray(responses, dtype=float)
    node = np.asarray(dag.membership, dtype=np.intp)
    if y.shape != node.shape:
        raise ValueError("responses must align with the dag's raw points")
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)

    cand = np.unique(y)
    k = cand.size
    # pointcost[j, i]: pinball cost of assigning value cand[j] to node i
    per_raw = np.where(
        y[None, :] <= cand[:, None],
        (1.0 - alpha) * (cand[:, None] - y[None, :]),
        alpha * (y[None, :] - cand[:, None]),
    ) * w[None, :]
    pointcost = np.zeros((k, n))
    for j in range(k):
        pointcost[j] = np.bincount(node, weights=per_raw[j], minlength=n)

    strict = _strict_matrix(dag)
    st = _pair_structure(strict.tobytes(), n, "upper")
    masks = st["masks"]
    outer, inner = st["outer"], st["inner"]
    diff, diff_count = st["diff"], st["diff_count"]
    starts = st["starts"]
    # cost of assigning cand[j] to an arbitrary node subset, all 2^n masks
    cost_full = np.zeros((1, k))
    for i in range(n):
        cost_full = np.concatenate((cost_full, cost_full + pointcost[:, i]))
    sizes = st["bits"].sum(axis=1)

    # h[j][U]: optimal cost over upper set U using values cand[j:];
    # s[j][U]: smallest node-value total among those optima
    nmask = len(masks)
    h = np.empty((k, nmask))
    s = np.empty((k, nmask))
    h[k - 1] = cost_full[masks, k - 1]
    s[k - 1] = cand[k - 1] * sizes
    choice = np.empty((k - 1, nmask), dtype=np.intp) if k > 1 else None
    pair_index = np.arange(len(outer))
    stay = len(outer)  # sentinel: keep U intact, no node takes cand[j]
    for j in range(k - 2, -1, -1):
        pair_cost = cost_full[diff, j] + h[j + 1][inner]
        pair_sum = cand[j] * diff_count + s[j + 1][inner]
        best_cost = np.minimum.reduceat(pair_cost, starts)
        tied = pair_cost == best_cost[outer]
        best_sum = np.minimum.reduceat(np.where(tied, pair_sum, np.inf), starts)
        pick = tied & (pair_sum == best_sum[outer])
        first = np.minimum.reduceat(np.where(pick, pair_index, stay), starts)
        # levels may be skipped: U' = U is not among the enumerated
        # pairs, so fold it in as an explicit alternative
        stay_cost, stay_sum = h[j + 1], s[j + 1]
        use_stay = (stay_cost < best_cost) | ((stay_cost == best_cost) & (stay_sum < best_sum))
        h[j] = np.where(use_stay, stay_cost, best_cost)
        s[j] = np.where(use_stay, stay_sum, best_sum)
        first = np.where(use_stay, stay, first)
        # the empty set has no split pairs and reduceat misreads its
        # group, so pin its true values by hand
        h[j, 0] = 0.0
        s[j, 0] = 0.0
        first[0] = stay
        choice[j] = first
    full = nmask - 1

    out = np.empty(n)
    u = full
    for j in range(k - 1):
        p = int(choice[j][u])
        if p == stay:
            continue
        d = int(diff[p])
        while d:
            low = d & -d
            out[low.bit_length() - 1] = cand[j]
            d ^= low
        u = inner[p]
    rest = int(masks[u])
    while rest:
        low = rest & -rest
        out[low.bit_length() - 1] = cand[k - 1]
        rest ^= low
    return out
