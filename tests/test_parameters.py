"""Cliques, coloring, independence, domination, bondage, explosions."""

import pytest

from setgraphs import (
    CapExceeded,
    adjacent,
    bondage_number,
    chromatic_coloring,
    chromatic_number,
    clique_number,
    clique_witness,
    disjointness_graph,
    domination,
    full_mask,
    independence_number,
    materialize,
    max_cliques,
    mcpherson_number,
    simulate_explosions,
    single_edge_bondage,
)
from setgraphs.oracle import (
    chromatic_exact,
    dominating_exact,
    mis_exact,
    vertex_cover_exact,
)

# frozen from exhaustive Bron-Kerbosch enumeration
MAX_CLIQUE_COUNTS = {2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}


def test_clique_number():
    assert clique_number(3) == 4
    assert clique_number(2) == 2
    assert clique_number(4) == 8
    witness = clique_witness(4)
    assert len(witness) == 8
    for i, u in enumerate(witness):
        for v in witness[i + 1 :]:
            assert adjacent(u, v)


def test_max_cliques_small():
    cs2 = max_cliques(materialize(2))
    assert cs2.size == 2 and len(cs2.cliques) == 2
    cs3 = max_cliques(materialize(3))
    assert cs3.size == 4 and len(cs3.cliques) == 4
    # the three element stars plus the all-pairs-plus-full family
    as_sets = {frozenset(c) for c in cs3.cliques}
    assert frozenset({0b011, 0b101, 0b110, 0b111}) in as_sets
    for clique in cs3.cliques:
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert u & v


def test_max_clique_counts_pinned():
    for n, count in MAX_CLIQUE_COUNTS.items():
        found = max_cliques(materialize(n))
        assert found.size == 2 ** (n - 1)
        assert len(found.cliques) == count


def _networkx_graph(nx, n):
    top = 1 << n
    graph = nx.Graph()
    graph.add_nodes_from(range(1, top))
    graph.add_edges_from((u, w) for u in range(1, top) for w in range(u + 1, top) if u & w)
    return graph


def test_max_cliques_match_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 7):
        maximal = [frozenset(c) for c in nx.find_cliques(_networkx_graph(nx, n))]
        size = max(map(len, maximal))
        found = max_cliques(materialize(n))
        assert found.size == size
        assert {frozenset(c) for c in found.cliques} == {c for c in maximal if len(c) == size}
        if n in MAX_CLIQUE_COUNTS:
            assert len(found.cliques) == MAX_CLIQUE_COUNTS[n]


def test_chromatic_number_within_networkx_greedy_bound():
    nx = pytest.importorskip("networkx")
    for n in range(1, 8):
        graph = _networkx_graph(nx, n)
        colors = nx.greedy_color(graph)
        assert all(colors[u] != colors[w] for u, w in graph.edges)
        assert chromatic_number(n) <= len(set(colors.values()))


def test_max_cliques_cap():
    with pytest.raises(CapExceeded):
        max_cliques(materialize(7))


def test_chromatic_coloring():
    for n in range(1, 13):
        coloring = chromatic_coloring(n)
        assert coloring.color_count == 2 ** (n - 1) == chromatic_number(n)
        assert coloring.is_proper()
        assert len(coloring.colors) == 2**n - 1


def test_chromatic_exact_agrees():
    for n in range(1, 5):
        chi = chromatic_exact(materialize(n))
        assert chi == 2 ** (n - 1)


def test_independence():
    count, witness = independence_number(3)
    assert count == 3
    assert witness == (1, 2, 4)
    for n in range(1, 6):
        count, witness = independence_number(n)
        assert count == n
        assert mis_exact(materialize(n)) == n
        for i, u in enumerate(witness):
            for v in witness[i + 1 :]:
                assert not adjacent(u, v)


def test_domination():
    assert domination(3) == (1, (0b111,))
    assert domination(2) == (1, (0b11,))
    for n in range(1, 5):
        g = materialize(n)
        assert g.rows[-1].bit_count() == g.num_vertices - 1  # full set is universal
        assert dominating_exact(g) == 1


def test_bondage():
    for n in range(2, 5):
        count, edge = bondage_number(n)
        assert count == 1
        assert edge == (1, full_mask(n))
        assert single_edge_bondage(materialize(n)) == edge
    with pytest.raises(ValueError):
        bondage_number(1)


def test_bondage_witness_really_raises_domination():
    g = materialize(3)
    u = g.masks.index(1)
    v = g.masks.index(full_mask(3))
    assert dominating_exact(g.without_edge(u, v)) == 2


def test_mcpherson_number_and_cover():
    assert mcpherson_number(2) == 1
    assert mcpherson_number(3) == 3
    assert mcpherson_number(1) == 0
    for n in range(1, 6):
        assert vertex_cover_exact(disjointness_graph(n)) == 2 ** (n - 1) - 1


def test_disjointness_graph_is_the_complement():
    for n in range(1, 6):
        g = materialize(n)
        d = disjointness_graph(n)
        masks = g.masks
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                if u == v:
                    assert not d.rows[u] >> v & 1
                else:
                    assert bool(d.rows[u] >> v & 1) == (not masks[u] & masks[v])


def test_simulate_explosions_examples():
    assert simulate_explosions(materialize(2), [0b01]) == 1
    # n=3: explode every subset missing a1 except none needed beyond the three
    order = [m for m in (0b010, 0b100, 0b110)]
    assert simulate_explosions(materialize(3), order) == 3
    assert simulate_explosions(materialize(1), []) == 0


def test_simulate_explosions_incomplete_and_errors():
    assert simulate_explosions(materialize(3), [0b010]) is None
    with pytest.raises(ValueError):
        simulate_explosions(materialize(2), [0b100])  # not a vertex of G(2)
    with pytest.raises(ValueError):
        simulate_explosions(materialize(3), [0b010, 0b010])


def test_explosion_cover_completes_exactly_at_mcpherson():
    for n in range(2, 6):
        cover = [m for m in materialize(n).masks if not m & 1]
        assert simulate_explosions(materialize(n), cover) == mcpherson_number(n)
