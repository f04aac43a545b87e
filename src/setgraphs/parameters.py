"""Clique, coloring, independence, domination, bondage, and explosion numbers.

Each parameter has a constructive formula path that works at any size within
the counting cap, and (where the claims harness needs it) an exact oracle
path on the explicit graph. Witnesses are chosen lexicographically in the
canonical vertex order so exports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CAPS, CapExceeded, Caps
from .core import (
    MaterializedGraph,
    _bit_positions,
    _complement_rows,
    adjacent,
    canonical_masks,
    check_ground_size,
    full_mask,
    materialize,
)
from .oracle import SmallGraph, dominating_exact, max_cliques_exact


@dataclass(frozen=True)
class Coloring:
    """A proper coloring of G(n): one color index per vertex in canonical order."""

    n: int
    colors: tuple[int, ...]
    color_count: int

    def is_proper(self) -> bool:
        """Check against the adjacency predicate, class by class."""
        classes: dict[int, list[int]] = {}
        for m, c in zip(canonical_masks(self.n), self.colors):
            classes.setdefault(c, []).append(m)
        for members in classes.values():
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    if adjacent(u, v):
                        return False
        return True


def chromatic_coloring(n: int, *, caps: Caps = DEFAULT_CAPS) -> Coloring:
    """A proper coloring with exactly 2^(n-1) colors.

    Complementary subsets are disjoint, hence non-adjacent, so each pair
    {S, complement(S)} shares one color; the full set (whose complement is
    empty) gets a color of its own. Together with a clique of size 2^(n-1)
    this certifies the chromatic number exactly.
    """
    check_ground_size(n, caps.count_max_n)
    if n > caps.materialize_max_n:
        raise CapExceeded(
            f"explicit coloring capped at n <= {caps.materialize_max_n}, got n={n}"
        )
    full = full_mask(n)
    color_of: dict[int, int] = {}
    next_color = 0
    for m in canonical_masks(n):
        if m in color_of:
            continue
        color_of[m] = next_color
        partner = full ^ m
        if partner:
            color_of[partner] = next_color
        next_color += 1
    colors = tuple(color_of[m] for m in canonical_masks(n))
    return Coloring(n, colors, next_color)


def chromatic_number(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Chromatic number, 2^(n-1): the complement-pair coloring meets the
    clique lower bound exactly."""
    check_ground_size(n, caps.count_max_n)
    return 1 << (n - 1)


@dataclass(frozen=True)
class CliqueSet:
    """All maximum cliques of G(n), as mask tuples in canonical order."""

    n: int
    size: int
    cliques: tuple[tuple[int, ...], ...]


def clique_number(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Largest clique order, 2^(n-1): witnessed by the subsets containing a_1."""
    check_ground_size(n, caps.count_max_n)
    return 1 << (n - 1)


def clique_witness(n: int, *, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The canonical maximum clique: every subset containing a_1 (pairwise intersecting)."""
    check_ground_size(n, caps.materialize_max_n)
    return tuple(m for m in canonical_masks(n) if m & 1)


def max_cliques(g: MaterializedGraph, *, caps: Caps = DEFAULT_CAPS) -> CliqueSet:
    """Exhaustive maximum-clique enumeration (oracle path)."""
    if g.n > caps.clique_oracle_max_n:
        raise CapExceeded(
            f"maximum-clique enumeration capped at n <= {caps.clique_oracle_max_n}, got n={g.n}"
        )
    masks = canonical_masks(g.n)
    cliques = tuple(
        tuple(masks[i] for i in clique)
        for clique in max_cliques_exact(SmallGraph.from_materialized(g))
    )
    return CliqueSet(g.n, len(cliques[0]) if cliques else 0, cliques)


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


def single_edge_bondage(g: MaterializedGraph) -> tuple[int, int] | None:
    """Oracle sweep: the first edge (canonical order) whose removal increases
    the exact domination number, or None if no single edge does."""
    small = SmallGraph.from_materialized(g)
    base = dominating_exact(small)
    masks = canonical_masks(g.n)
    for u, v in g.edge_indices():
        if dominating_exact(small.without_edge(u, v)) > base:
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


def disjointness_graph(n: int, *, caps: Caps = DEFAULT_CAPS) -> SmallGraph:
    """Complement of G(n) on the same canonical vertices: edges join disjoint subsets."""
    g = materialize(n, caps=caps)
    return SmallGraph(g.num_vertices, tuple(_complement_rows(g)))


@dataclass
class ExplosionState:
    """Mutable underlying graph during a sequence of vertex explosions."""

    num_vertices: int
    rows: list[int]
    exploded: list[int]

    @classmethod
    def of(cls, g: MaterializedGraph | SmallGraph) -> "ExplosionState":
        return cls(g.num_vertices, list(g.rows), [])

    def explode(self, idx: int) -> None:
        """Join idx to every vertex it is not yet adjacent to."""
        everyone = ((1 << self.num_vertices) - 1) & ~(1 << idx)
        added = everyone & ~self.rows[idx]
        self.rows[idx] = everyone
        for v in _bit_positions(added):
            self.rows[v] |= 1 << idx
        self.exploded.append(idx)

    def is_complete(self) -> bool:
        everyone = (1 << self.num_vertices) - 1
        return all(
            row == everyone & ~(1 << u) for u, row in enumerate(self.rows)
        )


def simulate_explosions(g: MaterializedGraph, order) -> int | None:
    """Apply explosions at the given masks in order; return the iteration
    count after which the underlying graph is first complete, or None if it
    never is."""
    masks = canonical_masks(g.n)
    index_of = {m: i for i, m in enumerate(masks)}
    seen = set()
    state = ExplosionState.of(g)
    if state.is_complete():
        return 0
    for step, m in enumerate(order, start=1):
        idx = index_of.get(m)
        if idx is None:
            raise ValueError(f"mask {m!r} is not a vertex of G({g.n})")
        if idx in seen:
            raise ValueError(f"duplicate explosion at mask {m!r}")
        seen.add(idx)
        state.explode(idx)
        if state.is_complete():
            return step
    return None
