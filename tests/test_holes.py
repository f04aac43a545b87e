"""Triangle counts: exact kernel, claimed and corrected recursions, incidence."""

import hashlib
import subprocess
import sys
from itertools import combinations

import pytest

from setgraphs import (
    CapExceeded,
    apex_primitive_degree,
    edge_count_closed,
    enum_triangles,
    full_mask,
    hole_report,
    materialize,
    primitive_degree,
    primitive_degrees,
    triangle_count_claimed,
    triangle_count_corrected,
    triangle_count_exact,
)
from setgraphs.config import DEFAULT_CAPS
from setgraphs.core import Graph, check_rows
from setgraphs.holes import _complement_triangles

# frozen from exhaustive triple enumeration
EXACT = {1: 0, 2: 0, 3: 13, 4: 222, 5: 2585, 6: 25830, 7: 238833}
# frozen from literal evaluation of the claimed recursion
CLAIMED = {2: 0, 3: 12, 4: 128, 5: 1008, 6: 7468}


def test_exact_counts_pinned():
    for n, h in EXACT.items():
        assert triangle_count_exact(materialize(n)) == h


def test_exact_matches_triple_enumeration():
    for n in range(1, 6):
        g = materialize(n)
        triples = enum_triangles(g)
        assert len(triples) == triangle_count_exact(g)


def test_exact_matches_networkx_triangles():
    nx = pytest.importorskip("networkx")
    for n in range(1, 8):
        top = 1 << n
        graph = nx.Graph()
        graph.add_nodes_from(range(1, top))
        graph.add_edges_from(
            (u, w) for u in range(1, top) for w in range(u + 1, top) if u & w
        )
        per_vertex = nx.triangles(graph)
        g = materialize(n)
        assert sum(per_vertex.values()) // 3 == triangle_count_exact(g)
        assert list(primitive_degrees(g)) == [per_vertex[m] for m in g.masks]


def test_complement_triangles_match_closed_form():
    # pairwise-disjoint triples of non-empty subsets: send each element to
    # one of three labelled sets or to none, drop assignments leaving a set
    # empty (inclusion-exclusion), and forget the 3! orders of the sets
    for n in range(1, 11):
        closed = (4**n - 3 * 3**n + 3 * 2**n - 1) // 6
        assert _complement_triangles(materialize(n)) == closed


def test_exact_kernel_on_arbitrary_graphs():
    # Goodman's identity holds for every graph, not only for G(n)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        v = data.draw(st.integers(0, 12))
        pairs = list(combinations(range(v), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        rows = [0] * v
        for a, b in edges:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        triangles = [
            t for t in combinations(range(v), 3)
            if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= edges
        ]
        g = Graph(tuple(rows))
        assert triangle_count_exact(g) == len(triangles)
        assert primitive_degrees(g) == tuple(
            sum(u in t for t in triangles) for u in range(v)
        )

    check()


def test_kernels_on_graphs_wider_than_one_digit():
    # CPython stores ints in 30-bit digits; rows of 13-48 vertices cross
    # that boundary, so the (1 << u) - 1 masks and the two-ended sums of
    # primitive_degrees are checked against networkx on multi-digit rows
    nx = pytest.importorskip("networkx")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.integers(13, 48), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)
    )
    def check(v, density, seed):
        graph = nx.gnp_random_graph(v, density, seed=seed)
        rows = [0] * v
        for a, b in graph.edges:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        per_vertex = nx.triangles(graph)
        g = Graph(tuple(rows))
        assert triangle_count_exact(g) == sum(per_vertex.values()) // 3
        assert primitive_degrees(g) == tuple(per_vertex[u] for u in range(v))

    check()


# sha256 of ",".join(map(str, primitive_degrees(materialize(n)))), frozen from
# the per-vertex scan that read each complement edge from both of its ends,
# before the scan that reads each edge once replaced it
PRIMITIVE_DEGREES_SHA256 = {
    8: "ec14e9b420311128334b055850d846d3397095f1fb76204a032b48f1c14dd137",
    9: "b75025856c3976724a2866ac006287527ca3213469a0dd98c0233757fa8c5fcc",
    10: "739421f2a636dd24a5f77e42ed25a910b72882511b92c92862e5e77e8fe94e57",
    11: "30153223540a58bb421d9b0a1a8a697144d744824da8ca00550367b1522009ff",
}


@pytest.mark.parametrize("n", sorted(PRIMITIVE_DEGREES_SHA256))
def test_primitive_degrees_pinned(n):
    text = ",".join(map(str, primitive_degrees(materialize(n))))
    assert hashlib.sha256(text.encode()).hexdigest() == PRIMITIVE_DEGREES_SHA256[n]


def test_symmetry_checks_run_under_optimize_flag():
    # none of these row sets is a simple undirected graph; under -O an assert
    # would be skipped, so each check must raise by itself:
    # 0 -> {1, 2}, 1 -> {2}, 2 -> {}: odd doubled sums, column sums differ;
    # 0 -> {1}, 2 -> {1}: even parities, column sums differ;
    # 0 -> {0}, 1 -> {1}: self bits;
    # 0 -> {2, 3}, 1 -> {0}, 2 -> {0}, 3 -> {1}: every in-degree equals its
    # out-degree, but three of the five bits lie below the diagonal;
    # 0 -> 1 -> 2 -> 3 -> 0: a directed 4-cycle, with one bit of four below
    code = """
from setgraphs import Graph, edge_count_brute, primitive_degree
from setgraphs import primitive_degrees, triangle_count_exact
cases = [
    ((0b110, 0b100, 0b000), (triangle_count_exact, edge_count_brute,
                             primitive_degrees, lambda g: primitive_degree(g, 1))),
    ((0b010, 0b000, 0b010), (triangle_count_exact, edge_count_brute, primitive_degrees)),
    ((0b001, 0b010, 0b000), (triangle_count_exact, edge_count_brute, primitive_degrees)),
    ((0b1100, 0b0001, 0b0001, 0b0010), (triangle_count_exact, primitive_degrees)),
    ((0b0010, 0b0100, 0b1000, 0b0001), (triangle_count_exact, edge_count_brute,
                                        primitive_degrees)),
]
for rows, checks in cases:
    for check in checks:
        try:
            check(Graph(rows))
        except ValueError:
            continue
        raise SystemExit(f"no error from {check} on {rows}")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout


@pytest.mark.parametrize(
    "rows",
    [(0b010, 0b000, 0b010), (0b001, 0b010, 0b000)],
    ids=["asymmetric-even-parities", "self-loops"],
)
def test_primitive_degrees_rejects_rows_with_even_parities(rows):
    # every doubled sum is even here, so only the self-bit check and the
    # check for a negative count can catch these rows
    with pytest.raises(ValueError):
        primitive_degrees(Graph(rows))


def test_triangle_count_rejects_rows_by_its_negative_count():
    # every in-degree equals its out-degree, but the bits above the diagonal
    # are not half of all bits, so check_rows rejects these rows by itself
    g = Graph((0b1100, 0b0001, 0b0001, 0b0010))
    for check in (lambda g: check_rows(g.rows), triangle_count_exact, primitive_degrees):
        with pytest.raises(ValueError):
            check(g)


def test_triangle_count_rejects_rows_that_pass_check_rows():
    # 0 -> {1}, 1 -> {0, 3}, 2 -> {0, 3}, 3 -> {0}: asymmetric, yet the
    # weighted column sums and the bits above the diagonal both balance, so
    # only the negative count gives them away to the exact kernel
    g = Graph((0b0010, 0b1001, 0b1001, 0b0001))
    check_rows(g.rows)
    with pytest.raises(ValueError, match="negative triangle count"):
        triangle_count_exact(g)
    with pytest.raises(ValueError):
        primitive_degrees(g)


def test_claimed_recursion_pinned():
    for n, h in CLAIMED.items():
        assert triangle_count_claimed(n) == h
    with pytest.raises(ValueError):
        triangle_count_claimed(1)


def test_claimed_diverges_from_exact_at_3():
    assert triangle_count_claimed(2) == triangle_count_exact(materialize(2))
    assert triangle_count_claimed(3) == 12
    assert triangle_count_exact(materialize(3)) == 13


def test_corrected_matches_exact():
    for n in range(1, 10):
        assert triangle_count_corrected(n) == triangle_count_exact(materialize(n))


def _h_by_complement_counting(n: int) -> int:
    """Independent oracle: subtract triples carrying a disjoint pair.

    Inclusion-exclusion over the disjoint (complement) pairs inside a vertex
    triple: all triples, minus one term per disjoint pair times the free
    third vertex, plus paths of two disjoint pairs through a common subset,
    minus pairwise-disjoint triples. Each complement quantity has its own
    closed form (assign every ground element to one of the sets or to none).
    """
    from math import comb

    v = 2**n - 1
    disjoint_pairs = (3**n - 2 ** (n + 1) + 1) // 2
    # middle subset of size k is disjoint from 2^(n-k) - 1 non-empty subsets
    complement_paths = sum(
        comb(n, k) * comb(2 ** (n - k) - 1, 2) for k in range(1, n + 1)
    )
    disjoint_triples = (4**n - 3 * 3**n + 3 * 2**n - 1) // 6
    return (
        comb(v, 3)
        - disjoint_pairs * (v - 2)
        + complement_paths
        - disjoint_triples
    )


def test_corrected_matches_complement_counting_route():
    # a third derivation, independent of both the kernel and the extension
    # recursion, pins the corrected values over their whole range
    for n in range(1, 20):
        assert triangle_count_corrected(n) == _h_by_complement_counting(n)
    for n in range(1, 8):
        assert _h_by_complement_counting(n) == triangle_count_exact(materialize(n))


def test_h13_pinned():
    # frozen after the bit-parallel kernel and the corrected recursion agreed
    assert triangle_count_corrected(13) == 85_662_034_185


def test_corrected_cap():
    with pytest.raises(CapExceeded):
        triangle_count_corrected(DEFAULT_CAPS.corrected_max_n + 1)


def test_exact_cap():
    with pytest.raises(CapExceeded):
        triangle_count_exact(materialize(14))


def test_hole_report_accepts_and_ignores_threads():
    # perfbench/child.py calls hole_report(n, threads=1), so the keyword stays
    for n in range(1, 8):
        assert hole_report(n, threads=1).as_dict() == hole_report(n).as_dict()


def test_primitive_degree_examples():
    g3 = materialize(3)
    assert primitive_degree(g3, full_mask(3)) == 9
    assert primitive_degree(g3, 0b001) == 3
    assert primitive_degree(g3, 0b011) == 7
    g2 = materialize(2)
    for m in g2.masks:
        assert primitive_degree(g2, m) == 0


def test_primitive_degree_sum_is_three_h():
    for n in range(1, 10):
        g = materialize(n)
        total = sum(primitive_degrees(g))
        assert total == 3 * triangle_count_exact(g)


def test_primitive_degrees_match_scalar_route():
    for n in range(1, 7):
        g = materialize(n)
        vec = primitive_degrees(g)
        for idx, m in enumerate(g.masks):
            assert vec[idx] == primitive_degree(g, m)


def test_apex_primitive_degree():
    assert apex_primitive_degree(3) == 15 - 6 == 9
    assert apex_primitive_degree(4) == 80 - 14 == 66
    assert apex_primitive_degree(2) == 0
    for n in range(2, 10):
        g = materialize(n)
        assert apex_primitive_degree(n) == primitive_degree(g, full_mask(n))
        assert apex_primitive_degree(n) == edge_count_closed(n) - (2**n - 2)


def test_hole_bounds_and_monotonicity():
    from math import comb

    prev = None
    for n in range(1, 13):
        h = triangle_count_corrected(n)
        assert 0 <= h <= comb(2**n - 1, 3)
        if prev is not None:
            assert prev <= h
        prev = h


def test_hole_report_fields():
    rep = hole_report(3).as_dict()
    assert rep["n"] == 3
    assert rep["h_exact"] == 13
    assert rep["h_paper_formula"] == 12
    assert rep["h_corrected"] == 13
    assert rep["apex_primitive_degree"] == 9
    # three singletons with 3, three pairs with 7, apex with 9
    assert rep["primitive_degree_histogram"] == {"3": 3, "7": 3, "9": 1}


def test_hole_report_above_exact_cap():
    rep = hole_report(15)
    assert rep.h_exact is None
    assert rep.primitive_degree_histogram is None
    assert rep.h_corrected == triangle_count_corrected(15)


def test_hole_report_json_serializable():
    import json

    for n in (1, 3, 15):
        doc = json.loads(json.dumps(hole_report(n).as_dict()))
        assert doc["n"] == n
        assert set(doc) == {
            "n",
            "h_exact",
            "h_paper_formula",
            "h_corrected",
            "apex_primitive_degree",
            "primitive_degree_histogram",
        }
