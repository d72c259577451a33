"""Partial orders on covariate vectors and their comparability DAG.

A covariate vector is compared group by group: each group of columns
carries one relation (componentwise, empirical stochastic, empirical
increasing convex, or total on a single column), and two vectors are
ordered only if every group agrees.  Order-equivalent vectors share a
canonical key, which replaces exchangeable groups by their order
statistics; keys with equal comparison vectors become one node of an
OrderDag, which keeps its cover edges as index pairs.
:meth:`OrderDag.query_neighbors` places new covariate vectors: at a
node or not, and between which nodes.
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
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in self.columns):
            raise TypeError(f"column indices must be integers, not {self.columns!r}")
        object.__setattr__(self, "columns", tuple(map(int, self.columns)))
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
        if self.column_names is not None and not all(isinstance(n, str) for n in self.column_names):
            raise TypeError(f"column_names must be strings, not {self.column_names!r}")
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
    """Map a group's entries, sorted if exchangeable, to a vector whose
    componentwise order reproduces the group relation."""
    if relation == EMPIRICAL_ICX:
        # all upper tail sums of the order statistics
        return np.cumsum(sub[..., ::-1], axis=-1)[..., ::-1]
    return sub


def _comparison_matrix(groups: tuple[OrderGroup, ...], rows: np.ndarray) -> np.ndarray:
    """Stack per-group transforms of ``rows``, which must be canonical
    keys (2-d, key layout, finite, each exchangeable group already
    sorted); a ValueError where icx tail sums overflow."""
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
    # sorted, each pair's |x_i - x_j| is a difference of order statistics: O(d) memory
    return float(2.0 * (np.arange(1 - d, d, 2) @ np.sort(v)) / (d * (d - 1)))


class OrderDag:
    """Materialized comparability structure of a point set.

    Nodes are the order-equivalence classes of the canonical keys:
    distinct keys with equal rows of ``cmp_matrix`` (icx keys whose tail
    sums round alike) share one node, whose key in ``keys`` is the least
    of them; ``keys`` is the (nodes, key width) array that a model file
    stores as ``node_keys``.  Nodes are sorted lexicographically by that
    key; as rows of ``cmp_matrix`` (total keys unchanged) their order is
    componentwise.  On a chain, ``chain_positions`` gives each node's
    place from the least element up; it is None on any other order.
    The one relation kept is the cover edges (the transitive reduction
    of the strict order), as index arrays that :meth:`edges` lists,
    built on first use and cached.  Every array is read-only, and none
    is n x n: ``reach`` is compared afresh on each access.
    """

    __slots__ = ("spec", "keys", "membership", "cmp_matrix", "chain_positions", "_edges")

    def __init__(self, spec, keys, membership, cmp_matrix, chain_positions):
        self.spec = spec
        self.keys = keys
        self.membership = membership
        self.cmp_matrix = cmp_matrix
        self.chain_positions = chain_positions
        self._edges = None
        for a in (keys, membership, cmp_matrix, chain_positions):
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
        """Boolean matrix, not kept: reach[u, v] iff key_u is <= key_v."""
        return _all_leq(self.cmp_matrix, self.cmp_matrix)

    def _cover_ends(self) -> tuple[np.ndarray, ...]:
        """Cover edges as index arrays (lower, upper) sorted by lower node,
        then (upper, lower) sorted by upper node: on a chain from
        ``chain_positions``, on any other order the strict pairs without
        a two-step path."""
        if self._edges is None:
            if self.is_chain:
                pos = self.chain_positions
                lower = np.flatnonzero(pos < pos.size - 1)
                upper = np.argsort(pos)[pos[lower] + 1]
            else:
                strict = self.reach
                np.fill_diagonal(strict, False)
                # float32 (BLAS) sums 0/1 terms exactly; 8-bit ints would wrap at 256
                paths = strict.astype(np.float32)
                lower, upper = np.nonzero(strict & (paths @ paths == 0))
            by_upper = np.argsort(upper, kind="stable")
            self._edges = lower, upper, upper[by_upper], lower[by_upper]
            for a in self._edges:
                a.setflags(write=False)
        return self._edges

    def edges(self) -> list[tuple[int, int]]:
        """Cover edges as sorted (lower node, upper node) pairs."""
        return list(zip(*(a.tolist() for a in self._cover_ends()[:2])))

    def query_neighbors(self, x):
        """``(exact, pred, succ)`` for queries ``x``, one covariate vector
        per row in the raw layout (as given to :func:`build_order_dag`).

        ``exact[i]`` is True iff query ``i`` is order-equivalent to a
        node.  ``pred`` and ``succ`` are ``(cases, nodes)`` index pairs,
        sorted by case and then node, of the direct predecessors (maximal
        nodes below-or-equal a query) and direct successors (minimal nodes
        above-or-equal it); at a node both hold that node alone.  One
        total-order group is searched by bisection over the node keys.
        Any other order compares each query with every node; a node of
        the down-set is maximal iff none of its upper covers is in it,
        and the up-set mirrors this, on the edges (built at first use).
        """
        keys = _canonical_keys(self.spec, np.asarray(x, dtype=float))
        if self.spec.total_column is None:
            q = _comparison_matrix(self.spec.key_groups(), keys)
            # node <= query is -query <= -node; negation is exact
            below, above = _all_leq(-q, -self.cmp_matrix), _all_leq(q, self.cmp_matrix)
            exact = (below & above).any(axis=1)
            lower, upper, upper_asc, lower_by_upper = self._cover_ends()
            pred, succ = _without_covers(below, lower, upper), _without_covers(above, upper_asc, lower_by_upper)
            return exact, np.nonzero(pred), np.nonzero(succ)
        # a total key is its own comparison row, and the nodes ascend
        q, nodes = keys[:, 0], self.cmp_matrix[:, 0]
        above = np.searchsorted(nodes, q, side="left")
        exact = nodes[np.minimum(above, nodes.size - 1)] == q
        below = np.where(exact, above, above - 1)
        has_below, has_above = np.flatnonzero(below >= 0), np.flatnonzero(above < nodes.size)
        return exact, (has_below, below[has_below]), (has_above, above[has_above])


def _all_leq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j] iff a[i] <= b[j] in every column, one column at a time."""
    out = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    for c in range(a.shape[1]):
        out &= a[:, c, None] <= b[None, :, c]
    return out


def _without_covers(mask: np.ndarray, ends: np.ndarray, covers: np.ndarray) -> np.ndarray:
    """out[i, v] iff mask[i, v] and no cover of v is in mask[i], where
    edge e, sorted by ``ends``, joins ``ends[e]`` to its cover
    ``covers[e]``.  Eight cases are packed to a byte, and each node ors
    its covers' bytes over its run of edges."""
    packed = np.packbits(mask.T, axis=1)
    hit = np.zeros_like(packed)
    starts = np.flatnonzero(np.diff(ends, prepend=-1))
    hit[ends[starts]] = np.bitwise_or.reduceat(packed[covers], starts, axis=0)
    return mask & ~np.unpackbits(hit, axis=1, count=mask.shape[0]).T.view(bool)


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
        Sequence of covariate vectors (rows); a 1-d sequence is one
        column, one point per entry.
    points_are_keys : bool
        When True the rows are already canonical keys (key layout), as
        stored in a serialized model.
    """
    rows = np.asarray(points, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
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
    return OrderDag(spec, keys[nodes], membership, cmp_rows[nodes], chain_positions)
