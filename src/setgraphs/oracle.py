"""Exact algorithms on small explicit graphs, used as independent ground truth.

Every search here is deterministic (fixed pivot and branch order), checks
its vertex cap, reads rows that each Graph checked when it was made, and is
unit-tested on textbook graphs (`Graph.complete`, `Graph.path`,
`Graph.from_edges`) before it adjudicates any claim about G(n), where it
reads the rows of `materialize(n)` as they are. Independence and vertex
cover are not searches of their own: alpha(G) is the clique number of the
complement, and the minimum vertex cover is V - alpha(G).
Instances are capped at sizes where bespoke branch-and-bound finishes in
seconds; there are no heuristic fallbacks.
"""

from __future__ import annotations

from .config import CapExceeded
from .core import Graph, _bit_positions

ENUM_TRIANGLES_MAX_VERTICES = 127  # at most C(127, 3) = 333,375 triples
CLIQUE_MAX_VERTICES = 63
CHROMATIC_MAX_VERTICES = 16
SEARCH_MAX_VERTICES = 31


def _check_cap(g: Graph, cap: int, what: str) -> None:
    if g.num_vertices > cap:
        raise CapExceeded(f"{what} handles at most {cap} vertices, got {g.num_vertices}")


def enum_triangles(g: Graph) -> list[tuple[int, int, int]]:
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


def max_cliques_exact(g: Graph) -> list[tuple[int, ...]]:
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


def chromatic_exact(g: Graph) -> int:
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


def mis_exact(g: Graph) -> int:
    """Maximum independent set size: the clique number of the complement."""
    _check_cap(g, SEARCH_MAX_VERTICES, "mis_exact")
    if not g.num_vertices:
        return 0
    return len(max_cliques_exact(g.complement())[0])


def dominating_exact(g: Graph) -> int:
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


def vertex_cover_exact(g: Graph) -> int:
    """Minimum vertex cover size: V - alpha(G), since a set covers every edge
    exactly when the rest is independent (Gallai)."""
    _check_cap(g, SEARCH_MAX_VERTICES, "vertex_cover_exact")
    return g.num_vertices - mis_exact(g)
