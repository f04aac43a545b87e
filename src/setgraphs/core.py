"""Implicit construction of the subset intersection graph G(n).

The graph on ground set {a_1, ..., a_n} has one vertex per non-empty subset
and an edge between two distinct subsets whenever they intersect. A subset is
encoded as an n-bit integer mask (bit j-1 set iff a_j is in the subset), so
adjacency is a single AND. The graph is never stored unless explicitly
materialized; the canonical vertex order is (cardinality ascending, mask
ascending), which fixes the v_{s,i} labels used everywhere.

`Graph` is the one type for a graph held as explicit adjacency bit rows:
`materialize` returns G(n) as one, and the exact oracles take any Graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .config import DEFAULT_CAPS, CapExceeded, Caps


class VertexLabel(NamedTuple):
    """Label v_{s,i}: cardinality s, 1-based rank i within the cardinality class."""

    s: int
    i: int


def check_ground_size(n: int, cap: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"ground-set size must be a positive integer, got {n!r}")
    if n > cap:
        raise CapExceeded(f"ground-set size {n} exceeds cap {cap}")


def is_valid_mask(n: int, m: int) -> bool:
    """True iff m encodes a non-empty subset of an n-element ground set."""
    return isinstance(m, int) and 0 < m < (1 << n)


def check_mask(n: int, m: int) -> None:
    if not is_valid_mask(n, m):
        raise ValueError(f"invalid subset mask {m!r} for ground-set size {n}")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of_elements(elements) -> int:
    """Mask of a subset given 1-based element indices, e.g. [1, 3] -> 0b101."""
    m = 0
    for e in elements:
        if e < 1:
            raise ValueError(f"element indices are 1-based, got {e}")
        m |= 1 << (e - 1)
    return m


def elements_of_mask(m: int) -> tuple[int, ...]:
    """1-based element indices of a mask, ascending."""
    return tuple(p + 1 for p in _bit_positions(m))


def subset_str(m: int) -> str:
    """Render a mask as '{a1,a3}'."""
    return "{" + ",".join(f"a{e}" for e in elements_of_mask(m)) + "}"


def adjacent(u: int, v: int) -> bool:
    """Edge predicate: distinct masks with non-empty intersection."""
    return u != v and (u & v) != 0


def vertex_count(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of vertices, 2^n - 1 (always odd)."""
    check_ground_size(n, caps.count_max_n)
    return (1 << n) - 1


@lru_cache(maxsize=32)
def canonical_masks(n: int) -> tuple[int, ...]:
    """All masks in canonical vertex order: cardinality ascending, mask ascending."""
    return tuple(sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)))


def class_offset(n: int, s: int) -> int:
    """Canonical index of the first vertex of cardinality s."""
    return sum(comb(n, t) for t in range(1, s))


def label_of_mask(n: int, m: int) -> VertexLabel:
    """Label v_{s,i} of a mask; inverse of mask_of_label."""
    check_mask(n, m)
    s = m.bit_count()
    # colex rank: masks of equal cardinality sort numerically
    rank = 0
    for j, p in enumerate(_bit_positions(m), start=1):
        rank += comb(p, j)
    return VertexLabel(s, rank + 1)


def mask_of_label(n: int, label: VertexLabel) -> int:
    """Mask of a label v_{s,i}; inverse of label_of_mask."""
    s, i = label
    if not 1 <= s <= n:
        raise ValueError(f"cardinality {s} out of range for n={n}")
    if not 1 <= i <= comb(n, s):
        raise ValueError(f"index {i} out of range: class s={s} has {comb(n, s)} vertices")
    rank = i - 1
    m = 0
    for j in range(s, 0, -1):
        # largest position p with C(p, j) <= rank
        p = j - 1
        while comb(p + 1, j) <= rank:
            p += 1
        m |= 1 << p
        rank -= comb(p, j)
    return m


def canonical_index(n: int, m: int) -> int:
    """0-based position of a mask in the canonical vertex order."""
    s, i = label_of_mask(n, m)
    return class_offset(n, s) + i - 1


def _bit_positions(m: int) -> Iterator[int]:
    """0-based positions of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def check_rows(rows) -> None:
    """Raise ValueError on adjacency rows that cannot be a simple undirected graph.

    Three necessary conditions, each O(V) big-int operations: no row holds
    its own bit; the rows added as integers (bit v of row u weighs 2^v) equal
    the degrees weighted by 2^u, as they do when each column sum equals its
    row sum; and exactly half of all set bits lie above the diagonal, as
    they do when each edge is stored once in each direction. The last one
    catches directed cycles such as 0 -> 1 -> 2 -> 3 -> 0, whose in-degrees
    all equal their out-degrees. Asymmetric rows that meet all three pass;
    only an O(|E|) scan would catch every such case.
    """
    if any(row >> u & 1 for u, row in enumerate(rows)):
        raise ValueError("rows are not irreflexive: a row holds its own bit")
    if sum(rows) != sum(row.bit_count() << u for u, row in enumerate(rows)):
        raise ValueError("rows are not symmetric: column sums differ from row sums")
    upper = sum((row >> u).bit_count() for u, row in enumerate(rows))
    if 2 * upper != sum(map(int.bit_count, rows)):
        raise ValueError("rows are not symmetric: bits above the diagonal are not half")


def _submasks(m: int) -> Iterator[int]:
    """Non-empty submasks of m, descending from m itself."""
    sub = m
    while sub:
        yield sub
        sub = (sub - 1) & m


@dataclass(frozen=True)
class Graph:
    """Explicit graph as adjacency bit rows: bit v of rows[u] set iff u ~ v.

    Rows are meant to be symmetric and irreflexive. `materialize` builds
    them so for G(n), in the canonical vertex order; the constructors below
    build small textbook graphs for the oracle tests. `validate` checks any
    rows in O(V^2), `check_rows` in O(V) big-int operations.
    """

    rows: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        """Ground-set size of G(n) for these rows: G(n) has 2^n - 1 of them."""
        return len(self.rows).bit_length()

    @property
    def masks(self) -> tuple[int, ...]:
        """Vertex masks of G(n), in the canonical order of the rows."""
        return canonical_masks(self.n)

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * num_vertices
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(tuple(rows))

    @classmethod
    def complete(cls, m: int) -> "Graph":
        full = (1 << m) - 1
        return cls(tuple(full & ~(1 << u) for u in range(m)))

    @classmethod
    def path(cls, m: int) -> "Graph":
        return cls.from_edges(m, [(u, u + 1) for u in range(m - 1)])

    @classmethod
    def edgeless(cls, m: int) -> "Graph":
        return cls((0,) * m)

    def validate(self) -> None:
        """Full symmetry/irreflexivity check; O(V^2), for tests."""
        for u, row in enumerate(self.rows):
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            if row >> self.num_vertices:
                raise ValueError(f"row {u} has bits beyond the vertex range")
            for v in _bit_positions(row):
                if not self.rows[v] >> u & 1:
                    raise ValueError(f"asymmetric pair ({u}, {v})")

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as index pairs (u, v), u < v, ascending."""
        for u, row in enumerate(self.rows):
            for off in _bit_positions(row >> (u + 1)):
                yield u, u + 1 + off

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(tuple(rows))


def _complement_rows(g: Graph) -> list[int]:
    """Complement rows: bit w of row u is set iff w != u and u, w are not adjacent."""
    full = (1 << g.num_vertices) - 1
    return [full & ~row & ~(1 << u) for u, row in enumerate(g.rows)]


def materialize(n: int, *, caps: Caps = DEFAULT_CAPS) -> Graph:
    """Build explicit adjacency rows; guarded because memory grows as V^2/8."""
    check_ground_size(n, caps.count_max_n)
    if n > caps.materialize_max_n:
        v = (1 << n) - 1
        mib = v * v / 8 / 2**20
        raise CapExceeded(
            f"materialize(n={n}) needs about {mib:.0f} MiB of adjacency bits; "
            f"cap is n <= {caps.materialize_max_n}"
        )
    masks = canonical_masks(n)
    v = len(masks)
    nbytes = (v + 7) // 8
    # star[e] = bit vector of vertices whose subset contains element e
    stars = [bytearray(nbytes) for _ in range(n)]
    for idx, m in enumerate(masks):
        for e in _bit_positions(m):
            stars[e][idx >> 3] |= 1 << (idx & 7)
    star_ints = [int.from_bytes(bytes(s), "little") for s in stars]
    rows = []
    for idx, m in enumerate(masks):
        row = 0
        for e in _bit_positions(m):
            row |= star_ints[e]
        rows.append(row & ~(1 << idx))  # no self-loop
    return Graph(tuple(rows))


def _meeting_runs(n: int, u: int) -> Iterator[tuple[int, int]]:
    """Half-open runs [lo, hi), ascending, of the masks v with u < v < 2^n that meet u.

    The masks disjoint from u are the submasks of full & ~u, about 3^n of
    them over all u against the 4^n/2 pairs. Those above u are the ones with
    a bit above u's top bit (every v in (u, 2^b), b = u.bit_length(), shares
    that bit with u); the gaps between them, walked in ascending submask
    order, are the runs. The walk is its own, not `_submasks`: it starts at
    the first submask above u, where a walk over every submask of full & ~u
    would add about 3^n/2 steps over all u.
    """
    free = full_mask(n) & ~u
    top = 1 << n
    lo = u + 1
    d = (1 << u.bit_length()) & free  # 0 when u's top bit is n - 1
    while d:  # the ascending walk wraps to 0 after the last submask
        if d > lo:
            yield lo, d
        lo = d + 1
        d = (d - free) & free
    if lo < top:
        yield lo, top


@dataclass(frozen=True)
class ExtensionMap:
    """Vertex classification for the step from G(n) to G(n+1).

    Every vertex of G(n+1) is either an erstwhile vertex (its mask avoids the
    new element), the replica of an erstwhile vertex (mask with the new
    element added), or the new singleton {a_{n+1}}. Each erstwhile vertex is
    adjacent to its own replica, and the replicas together with the new
    singleton induce a complete subgraph of order 2^n.
    """

    n: int
    erstwhile: tuple[int, ...] = field(repr=False)
    replicas: tuple[int, ...] = field(repr=False)
    new_singleton: int = 0

    def classify(self, m: int) -> str:
        """'erstwhile', 'replica', or 'new' for a mask of G(n+1)."""
        check_mask(self.n + 1, m)
        if m == self.new_singleton:
            return "new"
        return "replica" if m & self.new_singleton else "erstwhile"


def extension_map(n: int, *, caps: Caps = DEFAULT_CAPS) -> ExtensionMap:
    """Classify the vertices of G(n+1) relative to G(n)."""
    check_ground_size(n + 1, caps.count_max_n)
    check_ground_size(n, caps.count_max_n)
    old = canonical_masks(n)
    new_bit = 1 << n
    return ExtensionMap(
        n=n,
        erstwhile=old,
        replicas=tuple(m | new_bit for m in old),
        new_singleton=new_bit,
    )
