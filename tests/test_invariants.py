"""Degree routes, edge counts, and tightness."""

import pytest

from setgraphs import invariants
from setgraphs import (
    DEFAULT_CAPS,
    CapExceeded,
    canonical_masks,
    degree_closed,
    degree_extremes,
    degree_inclusion_exclusion,
    edge_count_brute,
    edge_count_closed,
    edge_count_recursive,
    full_mask,
    materialize,
    mask_of_elements,
    tightness,
    tightness_checksum,
    tightness_recursion_step,
    tightness_vector,
)

EDGE_COUNTS = {1: 0, 2: 2, 3: 15, 4: 80, 5: 375}


def test_degree_closed_examples():
    assert degree_closed(3, 1) == 3
    assert degree_closed(3, 2) == 5
    for n in range(1, 16):
        assert degree_closed(n, n) == 2**n - 2
        assert degree_closed(n, 1) == 2 ** (n - 1) - 1
    with pytest.raises(ValueError):
        degree_closed(3, 0)
    with pytest.raises(ValueError):
        degree_closed(3, 4)


def test_degree_inclusion_exclusion_examples():
    assert degree_inclusion_exclusion(3, 0b011) == 5  # (4 + 4 - 2) - 1
    assert degree_inclusion_exclusion(3, 0b111) == 6
    assert degree_inclusion_exclusion(2, 0b01) == 1


def test_degree_brute_examples():
    # brute-force degrees: the checked row popcounts of Graph.degrees, by mask
    g3, g2 = materialize(3), materialize(2)
    assert g3.degrees == (3, 3, 3, 5, 5, 5, 6)  # masks 1, 2, 4, 3, 5, 6, 7
    assert dict(zip(g3.masks, g3.degrees))[0b010] == 3  # {a2}: {a1,a2}, {a2,a3}, full
    assert dict(zip(g2.masks, g2.degrees))[0b01] == 1


def test_three_degree_routes_agree():
    for n in range(1, 9):
        g = materialize(n)
        for m, d in zip(g.masks, g.degrees):
            closed = degree_closed(n, m.bit_count())
            assert degree_inclusion_exclusion(n, m) == closed
            assert d == closed


def test_degree_extremes():
    assert degree_extremes(3) == (3, 6)
    assert degree_extremes(2) == (1, 2)
    for n in range(2, 13):
        lo, hi = degree_extremes(n)
        assert hi == 2 * lo
        assert lo % 2 == 1 and hi % 2 == 0
    for n in range(2, 11):
        # degrees read off explicit rows, not the closed form the extremes use;
        # the full set is the unique vertex of maximum degree
        lo, hi = degree_extremes(n)
        seq = [row.bit_count() for row in materialize(n).rows]
        assert seq.count(hi) == 1
        assert seq[-1] == hi
        assert min(seq) == lo and max(seq) == hi


def test_edge_count_closed_pinned():
    for n, e in EDGE_COUNTS.items():
        assert edge_count_closed(n) == e


def test_edge_count_recursion_steps():
    # 3*2 + 3 + 6 = 15; 3*15 + 7 + 28 = 80; 3*80 + 15 + 120 = 375
    assert edge_count_recursive(3) == 15
    assert edge_count_recursive(4) == 80
    assert edge_count_recursive(5) == 375


def test_edge_count_routes_agree():
    for n in range(1, 20):
        assert edge_count_recursive(n) == edge_count_closed(n)
    for n in range(1, 9):
        assert edge_count_brute(materialize(n)) == edge_count_closed(n)


def test_tightness_examples():
    assert tightness(3, 0b011) == 5
    assert tightness(2, 0b01) == 1
    total = sum(tightness(3, m) for m in range(1, 8))
    assert total == 2 * 15  # handshake at n=3


def test_tightness_equals_degree():
    for n in range(1, 8):
        g = materialize(n)
        for m, d in zip(g.masks, g.degrees):
            assert tightness(n, m) == d


def test_tightness_matches_definition_level_scan():
    # the scan over every other subset that the disjoint-submask count replaced
    for n in range(1, 10):
        for m in range(1, 1 << n):
            assert tightness(n, m) == sum(1 for o in range(1, 1 << n) if o & m) - 1


def test_tightness_vector_is_kept_behind_its_cap():
    for n in range(1, 9):
        reference = tuple(
            sum(1 for o in range(1, 1 << n) if o & m) - 1 for m in canonical_masks(n)
        )
        assert tightness_vector(n) == reference
        assert tightness_vector(n) is tightness_vector(n)
    tightness_vector(9)
    with pytest.raises(CapExceeded):
        tightness_vector(9, caps=DEFAULT_CAPS.with_overrides(materialize_max_n=8))


def test_tightness_vector_matches_scalar_walk():
    for n in range(1, 11):
        assert tightness_vector(n) == tuple(tightness(n, m) for m in canonical_masks(n))


def test_tightness_vector_matches_row_degrees():
    for n in range(1, 13):
        assert tightness_vector(n) == materialize(n).degrees


def test_tightness_vector_does_not_read_the_scalar_walk(monkeypatch):
    # the sweep and the one-mask walk are separate routes: the vector must
    # come out right with the walk unavailable
    def refuse(n, m):
        raise AssertionError("tightness_vector called the scalar walk")

    invariants._tightness_vector.cache_clear()
    monkeypatch.setattr(invariants, "tightness", refuse)
    for n in range(1, 9):
        assert tightness_vector(n) == materialize(n).degrees


def test_tightness_matches_networkx_degree():
    nx = pytest.importorskip("networkx")
    for n in range(1, 8):
        masks = range(1, 1 << n)
        graph = nx.Graph()
        graph.add_nodes_from(masks)
        graph.add_edges_from((u, w) for u in masks for w in masks if u < w and u & w)
        assert [tightness(n, m) for m in masks] == [graph.degree(m) for m in masks]


def test_tightness_recursion_examples():
    old = tightness_vector(2)
    new = tightness_recursion_step(2, old)
    by_mask = dict(zip((1, 2, 4, 3, 5, 6, 7), new))
    assert by_mask[0b100] == 3  # new singleton {a3}: 2^2 - 1
    assert by_mask[0b001] == 3  # erstwhile {a1}: 2*1 + 1
    assert by_mask[0b101] == 5  # replica {a1,a3}: 2^2 + 1


def test_tightness_recursion_matches_direct():
    for n in range(1, 9):
        stepped = tightness_recursion_step(n, tightness_vector(n))
        assert stepped == tightness_vector(n + 1)


def test_tightness_recursion_length_check():
    with pytest.raises(ValueError):
        tightness_recursion_step(3, (1, 2, 3))


def test_tightness_checksum_handshake():
    for n in range(1, 20):
        assert tightness_checksum(n) == 2 * edge_count_closed(n)


def test_full_mask_tightness():
    # the full set meets every other subset
    for n in range(1, 10):
        assert tightness(n, full_mask(n)) == 2**n - 2


def test_mask_of_elements_roundtrip():
    assert tightness(3, mask_of_elements([1, 2])) == 5
