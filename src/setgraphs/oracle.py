"""Exact algorithms on small explicit graphs, used as independent ground truth.

Every search here is deterministic (fixed pivot and branch order) and accepts
arbitrary symmetric adjacency rows, so each can be unit-tested on textbook
graphs before it adjudicates any claim about subset intersection graphs.
Instances are capped at sizes where bespoke branch-and-bound finishes in
seconds; there are no heuristic fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .config import CapExceeded
from .core import MaterializedGraph, _bit_positions

ENUM_TRIANGLES_MAX_VERTICES = 1 << 13
CLIQUE_MAX_VERTICES = 63
CHROMATIC_MAX_VERTICES = 16
SEARCH_MAX_VERTICES = 31


@dataclass(frozen=True)
class SmallGraph:
    """Explicit graph: vertex count plus one adjacency bit row per vertex."""

    num_vertices: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.num_vertices:
            raise ValueError("row count must equal vertex count")

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> "SmallGraph":
        rows = [0] * num_vertices
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(num_vertices, tuple(rows))

    @classmethod
    def complete(cls, m: int) -> "SmallGraph":
        full = (1 << m) - 1
        return cls(m, tuple(full & ~(1 << u) for u in range(m)))

    @classmethod
    def path(cls, m: int) -> "SmallGraph":
        return cls.from_edges(m, [(u, u + 1) for u in range(m - 1)])

    @classmethod
    def edgeless(cls, m: int) -> "SmallGraph":
        return cls(m, (0,) * m)

    @classmethod
    def from_materialized(cls, g: MaterializedGraph) -> "SmallGraph":
        return cls(g.num_vertices, g.rows)

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
        for u, row in enumerate(self.rows):
            for v in _bit_positions(row >> (u + 1)):
                yield u, u + 1 + v

    def without_edge(self, u: int, v: int) -> "SmallGraph":
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return SmallGraph(self.num_vertices, tuple(rows))

    def relabeled(self, perm: list[int]) -> "SmallGraph":
        """Graph with vertex u renamed perm[u]."""
        rows = [0] * self.num_vertices
        for u, row in enumerate(self.rows):
            for v in _bit_positions(row):
                rows[perm[u]] |= 1 << perm[v]
        return SmallGraph(self.num_vertices, tuple(rows))


def _check_cap(g: SmallGraph, cap: int, what: str) -> None:
    if g.num_vertices > cap:
        raise CapExceeded(f"{what} handles at most {cap} vertices, got {g.num_vertices}")


def enum_triangles(g: SmallGraph) -> list[tuple[int, int, int]]:
    """All triangles as ordered index triples u < v < w."""
    _check_cap(g, ENUM_TRIANGLES_MAX_VERTICES, "enum_triangles")
    out = []
    for u, row in enumerate(g.rows):
        suc_u = row >> (u + 1) << (u + 1)
        for v in _bit_positions(suc_u):
            common = suc_u & g.rows[v] & ~((1 << (v + 1)) - 1)
            for w in _bit_positions(common):
                out.append((u, v, w))
    return out


def max_cliques_exact(g: SmallGraph) -> list[tuple[int, ...]]:
    """All maximum cliques via Bron-Kerbosch with pivoting.

    Returns sorted vertex tuples in lexicographic order. The pivot is the
    vertex of P|X with the most candidates in P (smallest index on ties), so
    the enumeration order is reproducible.
    """
    _check_cap(g, CLIQUE_MAX_VERTICES, "max_cliques_exact")
    rows = g.rows
    best_size = 0
    best: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        nonlocal best_size, best
        if not p and not x:
            size = r.bit_count()
            if size > best_size:
                best_size, best[:] = size, [r]
            elif size == best_size:
                best.append(r)
            return
        pivot, hits = -1, -1
        for u in _bit_positions(p | x):
            c = (p & rows[u]).bit_count()
            if c > hits:
                hits, pivot = c, u
        for v in _bit_positions(p & ~rows[pivot]):
            vb = 1 << v
            expand(r | vb, p & rows[v], x & rows[v])
            p &= ~vb
            x |= vb

    if g.num_vertices:
        expand(0, (1 << g.num_vertices) - 1, 0)
    return sorted(tuple(_bit_positions(c)) for c in best)


def chromatic_exact(g: SmallGraph) -> int:
    """Exact chromatic number by backtracking, starting from the clique bound."""
    _check_cap(g, CHROMATIC_MAX_VERTICES, "chromatic_exact")
    v_count = g.num_vertices
    if v_count == 0:
        return 0
    lower = len(max_cliques_exact(g)[0])
    order = sorted(range(v_count), key=lambda u: (-g.rows[u].bit_count(), u))
    colors = [-1] * v_count

    def colorable(k: int, i: int, used: int) -> bool:
        if i == v_count:
            return True
        u = order[i]
        forbidden = 0
        for w in _bit_positions(g.rows[u]):
            if colors[w] >= 0:
                forbidden |= 1 << colors[w]
        # trying at most one fresh color breaks color-class symmetry
        for c in range(min(used + 1, k)):
            if not forbidden >> c & 1:
                colors[u] = c
                if colorable(k, i + 1, max(used, c + 1)):
                    return True
                colors[u] = -1
        return False

    k = lower
    while not colorable(k, 0, 0):
        k += 1
    return k


def mis_exact(g: SmallGraph) -> int:
    """Maximum independent set size by branch and bound."""
    _check_cap(g, SEARCH_MAX_VERTICES, "mis_exact")
    rows = g.rows
    best = 0

    def rec(p: int, size: int) -> None:
        nonlocal best
        if size + p.bit_count() <= best:
            return
        if not p:
            best = max(best, size)
            return
        v, hits = -1, -1
        for u in _bit_positions(p):
            c = (p & rows[u]).bit_count()
            if c > hits:
                hits, v = c, u
        if hits == 0:  # p is already independent
            best = max(best, size + p.bit_count())
            return
        vb = 1 << v
        rec(p & ~vb & ~rows[v], size + 1)
        rec(p & ~vb, size)

    rec((1 << g.num_vertices) - 1, 0)
    return best


def dominating_exact(g: SmallGraph) -> int:
    """Minimum dominating set size; branches over the closed neighborhood of
    the most constrained undominated vertex."""
    _check_cap(g, SEARCH_MAX_VERTICES, "dominating_exact")
    v_count = g.num_vertices
    closed = tuple(g.rows[u] | (1 << u) for u in range(v_count))
    full = (1 << v_count) - 1
    best = v_count

    def rec(dominated: int, size: int) -> None:
        nonlocal best
        if size >= best:
            return
        if dominated == full:
            best = size
            return
        pending = ~dominated & full
        u, options = -1, v_count + 1
        for w in _bit_positions(pending):
            c = closed[w].bit_count()
            if c < options:
                options, u = c, w
        for w in _bit_positions(closed[u]):
            rec(dominated | closed[w], size + 1)

    rec(0, 0)
    return best


def vertex_cover_exact(g: SmallGraph) -> int:
    """Minimum vertex cover size; branches on the endpoints of an uncovered edge.

    The edge is the first uncovered one in (u, v) order, u < v, read off the
    rows: the lowest vertex u outside the cover with a neighbour above it
    also outside, and the lowest such neighbour v.
    """
    _check_cap(g, SEARCH_MAX_VERTICES, "vertex_cover_exact")
    rows = g.rows
    full = (1 << g.num_vertices) - 1
    best = g.num_vertices

    def rec(chosen: int, size: int) -> None:
        nonlocal best
        if size >= best:
            return
        free = full & ~chosen
        for u in _bit_positions(free):
            above = rows[u] & free >> (u + 1) << (u + 1)
            if above:
                break
        else:
            best = size
            return
        rec(chosen | (1 << u), size + 1)
        rec(chosen | (above & -above), size + 1)

    rec(0, 0)
    return best
