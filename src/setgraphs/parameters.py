"""Clique, coloring, independence, domination, bondage, and explosion numbers.

Each parameter has a constructive formula path that works at any size within
the counting cap, and (where the claims harness needs it) an exact oracle
path on the explicit graph. Witnesses are chosen lexicographically in the
canonical vertex order so exports are reproducible.
"""

from __future__ import annotations

from .config import DEFAULT_CAPS, CapExceeded, Caps
from .core import (
    Graph,
    _bit_positions,
    canonical_masks,
    check_ground_size,
    full_mask,
    materialize,
)
from .oracle import dominating_exact, max_cliques_exact


def chromatic_coloring(n: int, *, caps: Caps = DEFAULT_CAPS) -> tuple[tuple[int, ...], ...]:
    """A proper coloring with exactly 2^(n-1) colors, as its color classes.

    Complementary subsets are disjoint, hence non-adjacent, so each pair
    (S, complement(S)) shares one color, for the subsets S without a_n in
    ascending mask order; the full set (whose complement is empty) gets a
    color of its own, last. Together with a clique of size 2^(n-1) this
    certifies the chromatic number exactly.
    """
    check_ground_size(n, caps.count_max_n)
    if n > caps.materialize_max_n:
        raise CapExceeded(
            f"explicit coloring capped at n <= {caps.materialize_max_n}, got n={n}"
        )
    full = full_mask(n)
    return (*((s, full ^ s) for s in range(1, 1 << (n - 1))), (full,))


def chromatic_number(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Chromatic number, 2^(n-1): the complement-pair coloring meets the
    clique lower bound exactly."""
    check_ground_size(n, caps.count_max_n)
    return 1 << (n - 1)


def clique_number(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Largest clique order, 2^(n-1): witnessed by the subsets containing a_1."""
    check_ground_size(n, caps.count_max_n)
    return 1 << (n - 1)


def clique_witness(n: int, *, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The canonical maximum clique: every subset containing a_1 (pairwise intersecting)."""
    check_ground_size(n, caps.materialize_max_n)
    return tuple(m for m in canonical_masks(n) if m & 1)


def max_cliques(g: Graph, *, caps: Caps = DEFAULT_CAPS) -> tuple[tuple[int, ...], ...]:
    """Every maximum clique, as a mask tuple: exhaustive enumeration (oracle path)."""
    if g.n > caps.clique_oracle_max_n:
        raise CapExceeded(
            f"maximum-clique enumeration capped at n <= {caps.clique_oracle_max_n}, got n={g.n}"
        )
    masks = canonical_masks(g.n)
    return tuple(tuple(masks[i] for i in clique) for clique in max_cliques_exact(g))


def independence_number(n: int, *, caps: Caps = DEFAULT_CAPS) -> tuple[int, tuple[int, ...]]:
    """(n, singleton witnesses): the singletons are pairwise disjoint, and any
    family of pairwise-disjoint non-empty subsets has at most n members."""
    check_ground_size(n, caps.count_max_n)
    return n, tuple(1 << e for e in range(n))


def domination(n: int, *, caps: Caps = DEFAULT_CAPS) -> tuple[int, tuple[int, ...]]:
    """(1, {full set}): the full set meets every other subset."""
    check_ground_size(n, caps.count_max_n)
    return 1, (full_mask(n),)


def bondage_number(n: int, *, caps: Caps = DEFAULT_CAPS) -> tuple[int, tuple[int, int]]:
    """(1, witness edge): removing one edge at the full-set vertex kills the
    only universal vertex, which forces the domination number to 2.

    The witness is the first qualifying edge in canonical order, which pairs
    {a_1} with the full set.
    """
    check_ground_size(n, caps.count_max_n)
    if n < 2:
        raise ValueError(f"bondage needs at least one edge, got n={n}")
    return 1, (1, full_mask(n))


def single_edge_bondage(g: Graph) -> tuple[int, int] | None:
    """Oracle sweep: the first edge (canonical order) whose removal increases
    the exact domination number, or None if no single edge does."""
    base = dominating_exact(g)
    masks = g.masks
    for u, v in g.edges():
        if dominating_exact(g.without_edge(u, v)) > base:
            return masks[u], masks[v]
    return None


def mcpherson_number(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Minimum explosions to complete the graph: 2^(n-1) - 1.

    A set of exploded vertices completes the graph exactly when it covers
    every disjoint pair, i.e. it is a vertex cover of the disjointness graph.
    Complementary pairs form a matching of size 2^(n-1) - 1 (lower bound),
    and the 2^(n-1) - 1 subsets missing a_1 form a cover of that size, since
    two disjoint subsets cannot both contain a_1.
    """
    check_ground_size(n, caps.count_max_n)
    return (1 << (n - 1)) - 1


def disjointness_graph(n: int, *, caps: Caps = DEFAULT_CAPS) -> Graph:
    """Complement of G(n) on the same canonical vertices: edges join disjoint subsets."""
    return materialize(n, caps=caps).complement()


def simulate_explosions(g: Graph, order) -> int | None:
    """Apply explosions at the given masks in order; return the iteration
    count after which the underlying graph is first complete, or None if it
    never is.

    Exploding a vertex joins it to every vertex it is not yet adjacent to.
    """
    index_of = {m: i for i, m in enumerate(g.masks)}
    everyone = (1 << g.num_vertices) - 1
    rows = list(g.rows)

    def is_complete() -> bool:
        return all(row == everyone & ~(1 << u) for u, row in enumerate(rows))

    seen = set()
    if is_complete():
        return 0
    for step, m in enumerate(order, start=1):
        idx = index_of.get(m)
        if idx is None:
            raise ValueError(f"mask {m!r} is not a vertex of G({g.n})")
        if idx in seen:
            raise ValueError(f"duplicate explosion at mask {m!r}")
        seen.add(idx)
        others = everyone & ~(1 << idx)
        for v in _bit_positions(others & ~rows[idx]):
            rows[v] |= 1 << idx
        rows[idx] = others
        if is_complete():
            return step
    return None
