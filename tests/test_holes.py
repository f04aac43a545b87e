"""Triangle counts: exact kernel, claimed and corrected recursions, incidence."""

import hashlib
import json
import subprocess
import sys
from collections import Counter
from functools import cached_property
from itertools import combinations
from math import comb

import pytest

from setgraphs import (
    CapExceeded,
    apex_primitive_degree,
    edge_count_brute,
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
from setgraphs import core, holes, invariants
from setgraphs.config import DEFAULT_CAPS
from setgraphs.core import Graph
from setgraphs.holes import _complement_triangles, _incidence_by_size, _submask_row

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


def test_symmetry_checks_run_under_optimize_flag(child_env):
    # none of these row sets is a simple undirected graph; under -O an assert
    # would be skipped, so each check must raise by itself:
    # 0 -> {1, 2}, 1 -> {2}, 2 -> {}: odd doubled sums, column sums differ;
    # 0 -> {1}, 2 -> {1}: even parities, column sums differ;
    # 0 -> {0}, 1 -> {1}: self bits;
    # 0 -> {2, 3}, 1 -> {0}, 2 -> {0}, 3 -> {1}: every in-degree equals its
    # out-degree, but three of the five bits lie below the diagonal;
    # 0 -> 1 -> 2 -> 3 -> 0: a directed 4-cycle, with one bit of four below;
    # 0 -> {1}, 1 -> {0, 3}, 2 -> {0, 3}, 3 -> {0}: balanced column sums and
    # bits above the diagonal, so only the full pair scan of Graph.degrees
    # catches it (the O(V) conditions alone let edge_count_brute count 3);
    # G(3) without the arcs 0 -> 3 and 0 -> 4: primitive_degree read 8
    # triangles at the full set before it checked the rows
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
    ((0b0010, 0b1001, 0b1001, 0b0001), (triangle_count_exact, edge_count_brute,
                                        primitive_degrees)),
    ((64, 104, 112, 115, 109, 94, 63), (triangle_count_exact, edge_count_brute,
                                        primitive_degrees, lambda g: primitive_degree(g, 0b111))),
]
for rows, checks in cases:
    for check in checks:
        try:
            check(Graph(rows))
        except ValueError:
            continue
        raise SystemExit(f"no error from {check} on {rows}")
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env
    )
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
    # are not half of all bits, so the row check rejects these rows by itself
    g = Graph((0b1100, 0b0001, 0b0001, 0b0010))
    for check in (lambda g: g.degrees, triangle_count_exact, primitive_degrees):
        with pytest.raises(ValueError):
            check(g)


def test_triangle_count_rejects_rows_that_pass_check_rows():
    # 0 -> {1}, 1 -> {0, 3}, 2 -> {0, 3}, 3 -> {0}, padded with 61 isolated
    # vertices: asymmetric, yet above 64 vertices the row check only weighs
    # column sums and the bits above the diagonal, and both balance, so only
    # the negative count gives them away to the exact kernel
    g = Graph((0b0010, 0b1001, 0b1001, 0b0001) + (0,) * 61)
    assert g.degrees == (1, 2, 2, 1) + (0,) * 61
    with pytest.raises(ValueError, match="negative triangle count"):
        triangle_count_exact(g)
    with pytest.raises(ValueError):
        primitive_degrees(g)


def _is_simple_undirected(rows) -> bool:
    """Reference for the row check: every vertex pair, both directions."""
    v = len(rows)
    return all(
        row >> v == 0
        and not row >> u & 1
        and all(row >> w & 1 == rows[w] >> u & 1 for w in range(v))
        for u, row in enumerate(rows)
    )


def test_row_check_on_arbitrary_rows_up_to_64_vertices():
    # symmetric rows with a few single bits flipped: self bits, bits beyond
    # the vertex range, and one-way edges; the pair check above decides
    nx = pytest.importorskip("networkx")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        v = data.draw(st.integers(1, 64))
        vertex = st.integers(0, v - 1)
        rows = [0] * v
        for a, b in data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * v)):
            if a != b:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        for a, b in data.draw(st.lists(st.tuples(vertex, st.integers(0, v + 1)), max_size=2)):
            rows[a] ^= 1 << b
        rows = tuple(rows)
        g = Graph(rows)
        if not _is_simple_undirected(rows):
            for kernel in (lambda g: g.degrees, triangle_count_exact, edge_count_brute,
                           primitive_degrees):
                with pytest.raises(ValueError):
                    kernel(g)
            return
        graph = nx.Graph()
        graph.add_nodes_from(range(v))
        graph.add_edges_from((a, b) for a in range(v) for b in range(a) if rows[a] >> b & 1)
        assert g.degrees == tuple(d for _, d in sorted(graph.degree))
        assert edge_count_brute(g) == graph.number_of_edges()
        assert triangle_count_exact(g) == sum(nx.triangles(graph).values()) // 3
        assert primitive_degrees(g) == tuple(nx.triangles(graph)[u] for u in range(v))
        # the cached degrees leave equality and hashing to the rows
        assert g == Graph(rows) and hash(g) == hash(Graph(rows))

    check()


def test_hole_report_builds_no_graph(builds, monkeypatch):
    # hole_report reads one vertex per cardinality in mask space: no G(n) is
    # built and no row check runs
    checked = []

    def counted_check(self):
        checked.append(self.num_vertices)
        return check(self)

    check = Graph.degrees.func
    spy = cached_property(counted_check)
    spy.__set_name__(Graph, "degrees")
    monkeypatch.setattr(Graph, "degrees", spy)
    for n in (5, 8, 12):
        hole_report(n)
    assert builds == [] and checked == []


def test_one_graph_is_checked_once_across_kernels(monkeypatch):
    # the row check behind Graph.degrees runs once per graph, whichever
    # kernels read it; the materialize cache is emptied first, so no graph
    # arrives checked already
    core._materialize.cache_clear()
    checked = []
    check = Graph.degrees.func

    def counted(self):
        checked.append(self.num_vertices)
        return check(self)

    spy = cached_property(counted)
    spy.__set_name__(Graph, "degrees")
    monkeypatch.setattr(Graph, "degrees", spy)
    for n in (5, 8):
        checked.clear()
        g = materialize(n)
        triangle_count_exact(g)
        primitive_degrees(g)
        assert checked == [(1 << n) - 1]
        # the graph is kept with its checked degrees: a repeat checks nothing
        triangle_count_exact(materialize(n))
        primitive_degrees(materialize(n))
        assert checked == [(1 << n) - 1]


def _by_size_histogram(n: int) -> Counter:
    histogram = Counter()
    for k, t in enumerate(_incidence_by_size(n), 1):
        histogram[t] += comb(n, k)
    return histogram


def test_incidence_by_size_matches_full_rows():
    # primitive_degrees reads every vertex of the explicit graph, so equal
    # histograms show that the vertices of one size share one incidence
    for n in range(1, 13):
        assert _by_size_histogram(n) == Counter(primitive_degrees(materialize(n)))


def test_incidence_by_size_sums_to_three_h():
    # both references are closed forms; the per-size route reads neither
    for n in range(1, 16):
        incidence = _incidence_by_size(n)
        tripled = sum(comb(n, k) * t for k, t in enumerate(incidence, 1))
        assert tripled == 3 * triangle_count_corrected(n)
        assert tripled == 3 * _h_by_complement_counting(n)
        assert incidence[-1] == apex_primitive_degree(n)


def test_incidence_by_size_reads_no_closed_form(monkeypatch):
    # h_exact stays independent of the corrected recursion, which reads the
    # closed degree and edge counts
    def refuse(*args, **kwargs):
        raise AssertionError("closed form read")

    for name in ("degree_closed", "edge_count_closed"):
        monkeypatch.setattr(invariants, name, refuse)
        monkeypatch.setattr(holes, name, refuse)
    assert _incidence_by_size(3) == (3, 7, 9)


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
    prev = None
    for n in range(1, 13):
        h = triangle_count_corrected(n)
        assert 0 <= h <= comb(2**n - 1, 3)
        if prev is not None:
            assert prev <= h
        prev = h


def test_hole_report_agrees_with_the_kernel_it_does_not_call():
    # hole_report reads h as a third of the summed incidences; the Goodman
    # kernel is the independent route to the same h
    for n in range(1, 12):
        g = materialize(n)
        rep = hole_report(n)
        assert rep.h_exact == triangle_count_exact(g)
        assert rep.primitive_degree_histogram == Counter(primitive_degrees(g))


def test_hole_report_12_pinned():
    # the digest the benchmark checks for its incidence_n12 workload
    text = json.dumps(hole_report(12).as_dict()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3317137afd57f4a782daa700f9655e912603e03fee261d234492f248d102a6d1"
    )


def test_hole_report_rejects_incidences_that_are_not_three_h(monkeypatch):
    # one vertex of size 3 in G(3): a bump of t_3 moves the sum by 1
    bumped = list(_incidence_by_size(3))
    bumped[2] += 1
    monkeypatch.setattr(holes, "_incidence_by_size", lambda n: tuple(bumped))
    with pytest.raises(ValueError, match="multiple of 3"):
        hole_report(3)


@pytest.mark.parametrize(
    "skewed_free, extra_mask, message",
    [
        # the row of {a1, a2} in G(3) gains {a2}, which also lies in the row
        # of {a1}: the doubled complement incidence of {a1} turns odd
        (0b001, 0b010, "odd doubled complement incidence"),
        # the row of the full set gains {a1}: the one apex loses a degree
        (0b000, 0b001, "odd doubled edge count"),
    ],
    ids=["complement-incidence", "edge-count"],
)
def test_incidence_by_size_rejects_odd_doubled_sums(
    monkeypatch, skewed_free, extra_mask, message
):
    def skewed(free):
        row = _submask_row(free)
        return row | 1 << extra_mask if free == skewed_free else row

    monkeypatch.setattr(holes, "_submask_row", skewed)
    with pytest.raises(ValueError, match=message):
        hole_report(3)


def test_hole_report_bytes_and_guards_hold_under_optimize_flag(child_env):
    # the digest of test_hole_report_12_pinned, and both guards raising by
    # themselves, not through an assert that -O drops
    code = """
import hashlib, json
from setgraphs import holes, hole_report
text = json.dumps(hole_report(12).as_dict()) + "\\n"
print(hashlib.sha256(text.encode()).hexdigest())
real = holes._submask_row
holes._submask_row = lambda free: real(free) | 1 << 2 if free == 1 else real(free)
try:
    hole_report(3)
    raise SystemExit("no error from an odd doubled complement incidence")
except ValueError:
    pass
holes._submask_row = real
holes._incidence_by_size = lambda n: (3, 7, 10)
try:
    hole_report(3)
    raise SystemExit("no error from incidences that are not 3h")
except ValueError:
    pass
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == (
        "3317137afd57f4a782daa700f9655e912603e03fee261d234492f248d102a6d1"
    )


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
