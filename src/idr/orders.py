"""Partial orders on covariate vectors and their comparability DAG.

A covariate vector is compared group by group: each group of columns
carries one relation (componentwise, empirical stochastic, empirical
increasing convex, or total on a single column), and two vectors are
ordered only if every group agrees.  Order-equivalent vectors share a
canonical key, which replaces exchangeable groups by their order
statistics; keys with equal comparison vectors become one node of an
OrderDag.  :meth:`OrderDag.query_neighbors` places new covariate
vectors: at a node or not, and between which nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "COMPONENTWISE",
    "EMPIRICAL_STOCHASTIC",
    "EMPIRICAL_ICX",
    "TOTAL",
    "Relation",
    "OrderGroup",
    "OrderSpec",
    "OrderDag",
    "canonical_key",
    "compare",
    "gini_mean_difference",
    "build_order_dag",
]

COMPONENTWISE = "componentwise"
EMPIRICAL_STOCHASTIC = "empirical_stochastic"
EMPIRICAL_ICX = "empirical_icx"
TOTAL = "total"

_RELATIONS = (COMPONENTWISE, EMPIRICAL_STOCHASTIC, EMPIRICAL_ICX, TOTAL)

#: Groups whose entries are exchangeable; their canonical form is sorted.
_EXCHANGEABLE = (EMPIRICAL_STOCHASTIC, EMPIRICAL_ICX)


class Relation(enum.Enum):
    """Outcome of comparing two covariate vectors."""

    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderGroup:
    """One block of columns sharing a single order relation."""

    columns: tuple[int, ...]
    relation: str

    def __post_init__(self):
        if len(self.columns) == 0:
            raise ValueError("order group has no columns")
        if any(c < 0 for c in self.columns):
            raise ValueError("column indices must be nonnegative")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column inside a group")
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.relation == TOTAL and len(self.columns) != 1:
            raise ValueError("a total-order group must have exactly one column")


@dataclass(frozen=True)
class OrderSpec:
    """Declaration of the partial order: disjoint column groups, one
    relation each, combined by conjunction (all groups must agree).

    ``column_names`` is optional metadata mapping raw column positions
    to names; it is carried through serialization for file-based use
    and ignored by the order itself.
    """

    groups: tuple[OrderGroup, ...]
    column_names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.groups) == 0:
            raise ValueError("order spec needs at least one group")
        seen: set[int] = set()
        for g in self.groups:
            overlap = seen.intersection(g.columns)
            if overlap:
                raise ValueError(f"columns {sorted(overlap)} appear in more than one group")
            seen.update(g.columns)
        if self.column_names is not None and max(seen) >= len(self.column_names):
            raise ValueError("column_names does not cover all referenced columns")

    @property
    def dimension(self) -> int:
        """Smallest raw vector length the spec can be applied to."""
        return 1 + max(max(g.columns) for g in self.groups)

    @property
    def total_column(self) -> int | None:
        """The raw column of a spec that is one total-order group, else None."""
        g = self.groups[0]
        return g.columns[0] if len(self.groups) == 1 and g.relation == TOTAL else None

    def key_groups(self) -> tuple[OrderGroup, ...]:
        """The same groups re-indexed against the canonical key layout
        (groups concatenated in declaration order)."""
        out = []
        offset = 0
        for g in self.groups:
            out.append(OrderGroup(tuple(range(offset, offset + len(g.columns))), g.relation))
            offset += len(g.columns)
        return tuple(out)


def _canonical_keys(spec: OrderSpec, x: np.ndarray) -> np.ndarray:
    """Canonical keys of the rows of a 2-d covariate matrix, one per row
    (key layout); see :func:`canonical_key`."""
    if x.ndim != 2 or x.shape[1] < spec.dimension:
        raise ValueError(f"covariates of shape {x.shape} do not fit the order spec ({spec.dimension} columns)")
    parts = []
    for g in spec.groups:
        sub = x[:, list(g.columns)]
        if not np.isfinite(sub).all():
            raise ValueError("covariate entries must be finite (no NaN/inf)")
        parts.append(np.sort(sub, axis=1) if g.relation in _EXCHANGEABLE else sub)
    return np.concatenate(parts, axis=1)


def canonical_key(spec: OrderSpec, x) -> tuple[float, ...]:
    """Canonical representative of ``x`` under ``spec``.

    Exchangeable groups (empirical stochastic / increasing convex) are
    replaced by their sorted order statistics; componentwise and total
    groups are kept as given.  Two vectors get the same key exactly
    when each is below-or-equal the other.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d covariate vector, got shape {v.shape}")
    return tuple(_canonical_keys(spec, v[None, :])[0].tolist())


def _group_transform(sub: np.ndarray, relation: str) -> np.ndarray:
    """Map a group's entries to a vector whose componentwise order
    reproduces the group relation."""
    if relation in (COMPONENTWISE, TOTAL):
        return sub
    s = np.sort(sub, axis=-1)
    if relation == EMPIRICAL_STOCHASTIC:
        return s
    # increasing convex: all upper tail sums of the order statistics
    return np.cumsum(s[..., ::-1], axis=-1)[..., ::-1]


def _comparison_matrix(groups: tuple[OrderGroup, ...], rows: np.ndarray) -> np.ndarray:
    """Stack per-group transforms of ``rows`` (2-d, key layout, finite);
    a ValueError where icx tail sums overflow."""
    with np.errstate(over="ignore"):
        parts = [_group_transform(rows[:, list(g.columns)], g.relation) for g in groups]
    out = np.concatenate(parts, axis=1)
    if not np.isfinite(out).all():
        raise ValueError("the tail sums of an icx group overflow the float range")
    return out


def compare(spec: OrderSpec, u, v) -> Relation:
    """Compare two covariate vectors under the spec.

    Returns ``Relation.EQUAL`` when each is below-or-equal the other,
    ``LESS``/``GREATER`` for strict order, ``INCOMPARABLE`` otherwise.
    """
    au = np.asarray(u, dtype=float)
    av = np.asarray(v, dtype=float)
    if au.shape != av.shape:
        raise ValueError(f"cannot compare vectors of shapes {au.shape} and {av.shape}")
    keys = np.array([canonical_key(spec, au), canonical_key(spec, av)])
    cu, cv = _comparison_matrix(spec.key_groups(), keys)
    le, ge = bool(np.all(cu <= cv)), bool(np.all(cu >= cv))
    if le and ge:
        return Relation.EQUAL
    if le:
        return Relation.LESS
    if ge:
        return Relation.GREATER
    return Relation.INCOMPARABLE


def gini_mean_difference(x) -> float:
    """Mean absolute difference over all ordered pairs of entries.

    Parameters
    ----------
    x : array_like
        Vector with at least two entries.

    Returns
    -------
    float
        (1 / (d (d - 1))) * sum_{i,j} |x_i - x_j|.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("gini_mean_difference needs a vector of length >= 2")
    d = v.size
    return float(np.abs(v[:, None] - v[None, :]).sum() / (d * (d - 1)))


class OrderDag:
    """Materialized comparability structure of a point set.

    Nodes are the order-equivalence classes of the canonical keys:
    distinct keys with equal rows of ``cmp_matrix`` (icx keys whose tail
    sums round alike) share one node, whose key in ``keys`` is the least
    of them.  Nodes are sorted lexicographically by that key; as rows of
    ``cmp_matrix`` (total keys unchanged) their order is componentwise.
    ``reach[u, v]`` is True iff key_u is below-or-equal key_v (the
    diagonal is True); ``covers`` is the transitive reduction of the
    strict part.  On a chain, ``chain_positions`` gives each node's
    place from the least element up; it is None on any other order.
    Every array is read-only; ``reach`` and ``covers`` are built on
    first read and cached, so a chain that only needs its positions
    never holds an n x n matrix.
    """

    __slots__ = ("spec", "keys", "membership", "cmp_matrix", "chain_positions", "_reach", "_covers")

    def __init__(self, spec, keys, membership, cmp_matrix, chain_positions):
        self.spec = spec
        self.keys = keys
        self.membership = membership
        self.cmp_matrix = cmp_matrix
        self.chain_positions = chain_positions
        self._reach = self._covers = None
        for a in (membership, cmp_matrix, chain_positions):
            if a is not None:
                a.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.keys)

    @property
    def is_chain(self) -> bool:
        """True iff every two nodes are comparable."""
        return self.chain_positions is not None

    @property
    def reach(self) -> np.ndarray:
        """Boolean matrix: reach[u, v] iff key_u is <= key_v."""
        if self._reach is None:
            self._reach = _all_leq(self.cmp_matrix, self.cmp_matrix)
            self._reach.setflags(write=False)
        return self._reach

    @property
    def covers(self) -> np.ndarray:
        """Boolean matrix of covering edges (transitive reduction)."""
        if self._covers is None:
            n = self.n_nodes
            if self.is_chain:
                covers = np.zeros((n, n), dtype=bool)
                covers[self._chain_covers()] = True
            else:
                covers = _transitive_reduction(self.reach & ~np.eye(n, dtype=bool))
            covers.setflags(write=False)
            self._covers = covers
        return self._covers

    def _chain_covers(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) arrays of a chain's covering edges, by lower node."""
        pos = self.chain_positions
        lower = np.flatnonzero(pos < pos.size - 1)
        return lower, np.argsort(pos)[pos[lower] + 1]

    def edges(self) -> list[tuple[int, int]]:
        """Covering edges as sorted (lower node, upper node) pairs."""
        us, vs = self._chain_covers() if self.is_chain else np.nonzero(self.covers)
        return list(zip(us.tolist(), vs.tolist()))

    def query_masks(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(cases, nodes) masks of the nodes below-or-equal and
        above-or-equal each row of ``keys``.

        ``keys`` must already be canonical keys (key layout), one per row.
        """
        q = _comparison_matrix(self.spec.key_groups(), np.asarray(keys, dtype=float))
        # node <= query is -query <= -node; negation is exact
        return _all_leq(-q, -self.cmp_matrix), _all_leq(q, self.cmp_matrix)

    def query_neighbors(self, x):
        """``(exact, pred, succ)`` for queries ``x``, one covariate vector
        per row in the raw layout (as given to :func:`build_order_dag`).

        ``exact[i]`` is True iff query ``i`` is order-equivalent to a
        node.  ``pred`` and ``succ`` are ``(cases, nodes)`` index pairs,
        sorted by case and then node, of the direct predecessors (maximal
        nodes below-or-equal a query) and direct successors (minimal nodes
        above-or-equal it); at a node both hold that node alone.  One
        total-order group is searched by bisection over the node keys;
        any other order compares each query with every node.
        """
        keys = _canonical_keys(self.spec, np.asarray(x, dtype=float))
        if self.spec.total_column is None:
            below, above = self.query_masks(keys)
            exact = (below & above).any(axis=1)
            return exact, np.nonzero(_maximal(below, self.reach)), np.nonzero(_maximal(above, self.reach.T))
        # a total key is its own comparison row, and the nodes ascend
        q, nodes = keys[:, 0], self.cmp_matrix[:, 0]
        above = np.searchsorted(nodes, q, side="left")
        exact = nodes[np.minimum(above, nodes.size - 1)] == q
        below = np.where(exact, above, above - 1)
        has_below, has_above = np.flatnonzero(below >= 0), np.flatnonzero(above < nodes.size)
        return exact, (has_below, below[has_below]), (has_above, above[has_above])


def _all_leq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j] iff a[i] <= b[j] in every column, in chunks of rows of
    ``a`` that bound the broadcast buffer."""
    out = np.empty((a.shape[0], b.shape[0]), dtype=bool)
    step = max(1, int(2**22 // max(1, b.size)))
    for lo in range(0, a.shape[0], step):
        out[lo:lo + step] = np.all(a[lo:lo + step, None, :] <= b[None, :, :], axis=2)
    return out


def _unreached(mask: np.ndarray, strict: np.ndarray) -> np.ndarray:
    """out[i, v] iff mask[i, v] and no u with mask[i, u] has strict[u, v],
    for 0/1 float32 matrices.  The product sums 0/1 terms, so in float32
    (BLAS) it is positive exactly when such a u exists; an 8-bit integer
    product would wrap at 256."""
    reached = (mask @ strict) > 0
    return (mask > 0) & ~reached


def _maximal(mask: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """out[i, v] iff mask[i, v] and no u != v with mask[i, u] has
    reach[v, u].  Only the nodes that some row of ``mask`` holds can
    matter, so the product runs on them alone: a scalar query costs the
    square of its down- (or up-) set, not of the whole DAG."""
    held = np.flatnonzero(mask.any(axis=0))
    strict = reach[held][:, held]
    np.fill_diagonal(strict, False)
    out = np.zeros_like(mask)
    out[:, held] = _unreached(mask[:, held].astype(np.float32), strict.T.astype(np.float32))
    return out


def _transitive_reduction(strict: np.ndarray) -> np.ndarray:
    # strict is transitively closed, so u covers v iff there is no
    # two-step path u -> w -> v
    as_float = strict.astype(np.float32)
    return _unreached(as_float, as_float)


def build_order_dag(spec: OrderSpec, points, *, points_are_keys: bool = False) -> OrderDag:
    """Build the comparability DAG of a point set.

    Points with equal comparison rows are order-equivalent and collapse
    into a single node, named by the least of their canonical keys;
    ``membership`` maps each input row to its node.  Node order is
    lexicographic on the nodes' keys, which for a single total-order
    column is simply ascending covariate order.

    Parameters
    ----------
    spec : OrderSpec
    points : array_like
        Sequence of covariate vectors (rows).
    points_are_keys : bool
        When True the rows are already canonical keys (key layout), as
        stored in a serialized model.
    """
    rows = np.atleast_2d(np.asarray(points, dtype=float))
    if rows.shape[0] == 0:
        raise ValueError("build_order_dag needs at least one point")
    keys = _canonical_keys(OrderSpec(spec.key_groups()) if points_are_keys else spec, rows)
    cmp_rows = _comparison_matrix(spec.key_groups(), keys)
    # sorted by comparison row, then by key: each run of equal comparison
    # rows is one node, and the stable sort puts its least key first
    order = np.lexsort(np.concatenate([cmp_rows, keys], axis=1).T[::-1])
    ranked = cmp_rows[order]
    starts = np.concatenate([[True], np.any(ranked[1:] != ranked[:-1], axis=1)])
    first = order[starts]
    # node i is the by_key[i]-th class in comparison order
    by_key = np.lexsort(keys[first].T[::-1])
    membership = np.empty(rows.shape[0], dtype=np.intp)
    membership[order] = np.argsort(by_key)[np.cumsum(starts) - 1]
    ranked = ranked[starts]
    # lexicographic order extends the componentwise one, so the nodes
    # form a chain iff each row is <= the next once the rows are sorted
    chain_positions = by_key if np.all(ranked[:-1] <= ranked[1:]) else None
    nodes = first[by_key]
    return OrderDag(spec, list(map(tuple, keys[nodes].tolist())), membership, cmp_rows[nodes], chain_positions)
