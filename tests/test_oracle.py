"""The exact searches on textbook graphs with known answers."""

from itertools import combinations

import pytest

from setgraphs import CapExceeded, Graph
from setgraphs.oracle import (
    chromatic_exact,
    dominating_exact,
    enum_triangles,
    max_cliques_exact,
    mis_exact,
    vertex_cover_exact,
)


def cycle(m: int) -> Graph:
    return Graph.from_edges(m, [(u, (u + 1) % m) for u in range(m)])


def test_smallgraph_constructors_validate():
    Graph.complete(5).validate()
    Graph.path(4).validate()
    Graph.edgeless(3).validate()
    cycle(5).validate()
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph((0b10,)).validate()


def test_enum_triangles():
    assert enum_triangles(Graph.path(3)) == []
    assert len(enum_triangles(Graph.complete(4))) == 4
    assert len(enum_triangles(cycle(5))) == 0
    tri = enum_triangles(Graph.complete(3))
    assert tri == [(0, 1, 2)]


def test_enum_triangles_invariant_under_relabeling():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 2), (4, 5)])
    base = len(enum_triangles(g))
    for perm in ([5, 4, 3, 2, 1, 0], [2, 0, 1, 5, 3, 4], [1, 3, 5, 0, 2, 4]):
        relabeled = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in g.edges()])
        assert len(enum_triangles(relabeled)) == base


def test_max_cliques_exact():
    assert max_cliques_exact(Graph.complete(4)) == [(0, 1, 2, 3)]
    assert max_cliques_exact(Graph.path(3)) == [(0, 1), (1, 2)]
    assert max_cliques_exact(Graph.edgeless(3)) == [(0,), (1,), (2,)]


def test_chromatic_exact():
    assert chromatic_exact(Graph.complete(4)) == 4
    assert chromatic_exact(Graph.path(3)) == 2
    assert chromatic_exact(cycle(5)) == 3  # odd cycle
    assert chromatic_exact(Graph.edgeless(4)) == 1


def test_chromatic_at_least_clique():
    for g in (Graph.complete(5), Graph.path(6), cycle(7), cycle(6)):
        clique = len(max_cliques_exact(g)[0])
        assert chromatic_exact(g) >= clique


def test_mis_dominating_cover():
    k4 = Graph.complete(4)
    assert mis_exact(k4) == 1
    assert dominating_exact(k4) == 1
    assert vertex_cover_exact(k4) == 3
    empty5 = Graph.edgeless(5)
    assert mis_exact(empty5) == 5
    assert vertex_cover_exact(empty5) == 0
    assert dominating_exact(empty5) == 5
    p4 = Graph.path(4)
    assert mis_exact(p4) == 2
    assert dominating_exact(p4) == 2
    assert vertex_cover_exact(p4) == 2
    c5 = cycle(5)
    assert mis_exact(c5) == 2
    assert dominating_exact(c5) == 2
    assert vertex_cover_exact(c5) == 3


def grotzsch() -> Graph:
    """Mycielskian of C5: triangle-free with chromatic number 4."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, (i + 1) % 5))
        edges.append((5 + i, (i - 1) % 5))
        edges.append((10, 5 + i))
    return Graph.from_edges(11, edges)


def test_grotzsch_graph():
    g = grotzsch()
    g.validate()
    assert g.edge_count() == 20
    assert enum_triangles(g) == []
    assert len(max_cliques_exact(g)[0]) == 2
    # chromatic number far above the clique bound exercises the search
    assert chromatic_exact(g) == 4
    assert mis_exact(g) == 5
    assert vertex_cover_exact(g) == 6


def test_star_domination():
    star = Graph.from_edges(6, [(0, leaf) for leaf in range(1, 6)])
    assert dominating_exact(star) == 1
    assert mis_exact(star) == 5
    assert vertex_cover_exact(star) == 1


def test_gallai_identity():
    graphs = [
        Graph.complete(6),
        Graph.path(7),
        cycle(8),
        cycle(9),
        Graph.edgeless(4),
        Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5)]),
    ]
    for g in graphs:
        assert mis_exact(g) + vertex_cover_exact(g) == g.num_vertices


def test_vertex_cover_matches_networkx_clique_of_complement():
    # a minimum vertex cover leaves a maximum independent set, which is a
    # maximum clique of the complement
    hypothesis = pytest.importorskip("hypothesis")
    nx = pytest.importorskip("networkx")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        v = data.draw(st.integers(0, 14))
        pairs = list(combinations(range(v), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        graph = nx.Graph()
        graph.add_nodes_from(range(v))
        graph.add_edges_from(edges)
        clique, _ = nx.max_weight_clique(nx.complement(graph), weight=None)
        assert vertex_cover_exact(Graph.from_edges(v, edges)) == v - len(clique)

    check()


def test_caps_raise():
    big = Graph.edgeless(64)
    with pytest.raises(CapExceeded):
        max_cliques_exact(big)
    with pytest.raises(CapExceeded):
        mis_exact(Graph.edgeless(32))
    with pytest.raises(CapExceeded):
        chromatic_exact(Graph.edgeless(17))
